"""Print sha256 prefixes of the outputs of one operation of each benchmark workload.

Usage (from the repository root):

    python scripts/digests.py [--seed N] [--short]

For each point of the two solve workloads it prints the digests of the
u and v values' bytes, of the solve report and of the verify
certificate, each of the last two as ``cli._jsonable`` JSON with sorted
keys.  For each call of the region workload it prints the digests of the
CSV table's bytes and of the JSON report less its ``timestamp``.  Two
checkouts that print the same lines computed the same outputs bit for
bit.  The workloads and their seeded inputs come from
``perfbench/workloads.py``, which this script only imports; the program
is imported from ``src/`` of the checkout this file sits in.
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
