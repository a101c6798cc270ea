"""Print sha256 prefixes of the outputs of one operation of each benchmark workload.

Usage (from the repository root):

    python scripts/digests.py [--seed N] [--short]

For each point of the two solve workloads it prints the digests of the
u and v values' bytes, of the solve report and of the verify
certificate, each of the last two as ``cli._jsonable`` JSON with sorted
keys.  For each call of the region workload it prints the digests of the
CSV table's bytes and of the JSON report less its ``timestamp``.  Last
come two lines for the potentials, over a fixed case set that reaches
every order N = 3..7: the digest of the values' bytes of 60 shifted and
of 20 Newtonian potentials.  Two checkouts that print the same lines
computed the same outputs bit for bit.  The workloads and their seeded
inputs come from ``perfbench/workloads.py``, which this script only
imports; the program is imported from ``src/`` of the checkout this
file sits in.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: hex digits printed of each sha256
PREFIX = 16


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:PREFIX]


def _potential_digests() -> tuple:
    """Digests of the shifted and the Newtonian potentials of 1.3 B over a fixed case set.

    Two grids, the tags B = W(1) and Z(4.5), N = 3..7 and, for the
    shifted potential, the shifts 1e-2, 16 and 4096; each digest covers
    the values' bytes of every call, in that order.
    """
    import numpy as np
    from gmsteady.potentials import bessel_potential_radial, newton_potential_radial
    from gmsteady.profiles import BarrierFamily, BarrierProfile, eval_barrier
    from gmsteady.radial_core import RadialField, RadialGrid

    shifted, newton = hashlib.sha256(), hashlib.sha256()
    for grid in (RadialGrid.auto(28.6, 0.02, 1.02), RadialGrid.uniform(10.0, 201)):
        for tag in (BarrierProfile(BarrierFamily.W, 1.0), BarrierProfile(BarrierFamily.Z, 4.5)):
            source = RadialField(grid, 1.3 * np.asarray(eval_barrier(tag, grid.nodes)), tag)
            for n in range(3, 8):
                newton.update(newton_potential_radial(n, source).values.tobytes())
                for shift in (1e-2, 16.0, 4096.0):
                    shifted.update(bessel_potential_radial(n, shift, source).values.tobytes())
    return shifted.hexdigest()[:PREFIX], newton.hexdigest()[:PREFIX]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=201, help="workload seed (default 201)")
    ap.add_argument("--short", action="store_true", help="the smoke test's smaller inputs")
    args = ap.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from gmsteady.cli import _jsonable
    from perfbench.workloads import WORKLOADS

    def json_digest(obj) -> str:
        return _digest(json.dumps(_jsonable(obj), sort_keys=True, default=float).encode())

    for name, workload in WORKLOADS.items():
        with tempfile.TemporaryDirectory() as tmpdir:
            result = workload(args.seed, args.short).op(tmpdir)
            if name == "region-lattice":
                for k, (_, _, table, report, _) in enumerate(result):
                    fields = json.loads(Path(report).read_text(encoding="utf-8"))
                    fields.pop("timestamp")
                    print(f"{name} call {k}: table {_digest(Path(table).read_bytes())} "
                          f"report {json_digest(fields)}")
                continue
            for k, (rep, cert) in enumerate(result):
                print(f"{name} point {k}: u {_digest(rep.u.values.tobytes())} "
                      f"v {_digest(rep.v.values.tobytes())} report {json_digest(rep)} "
                      f"certificate {json_digest(cert)}")
    shifted, newton = _potential_digests()
    print(f"potentials shifted {shifted}")
    print(f"potentials newton {newton}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
