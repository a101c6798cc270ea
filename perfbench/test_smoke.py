"""Short-mode smoke test of the benchmark itself.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q

It checks that every metric BENCHMARK.json names is printed, by name and
unit, for every workload in both modes, and that an operation forced to
fail is counted without stopping the run.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# the overflow lattice point: sigma = 0.995 makes alg_regime_ledger raise
OVERFLOW_CALL = ["region", "-N", "5", "--q", "2", "--s", "1", "--rho", "alg",
                 "--alpha", "0.01", "--beta", "0.015",
                 "--sweep", "p=2.0050251256281406", "--sweep", "rate=4.005025125628141"]


def run_short(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--short"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints(workload, trace):
    lines, result = run_short(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    printed = {line.split()[1]: line.split() for line in lines if line.startswith(workload)}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        row = printed[m["name"]]
        assert row[3] == m["unit"] and row[4].startswith("n=")
    assert "failed_ratio" in printed
    if not trace:
        # the timings in seconds are printed next to the bounded ref metrics
        assert {"cold_start_s", "op_p50_s", "op_tail_s", "points_per_s"} <= set(printed)
    if workload.startswith("solve-verify"):
        assert "sol_err_rel" in printed
    assert any(line.startswith("meta ") for line in lines)


def test_failed_op_is_counted_and_the_run_goes_on():
    sys.path.insert(0, str(HERE))
    import run

    workloads = run.import_program()
    wl = workloads.RegionLattice(3, short=True)
    good_calls = wl.calls
    wl.calls = [good_calls[0], OVERFLOW_CALL]

    class FirstOpFails:
        points_per_op = wl.points_per_op

        def op(self, tmpdir):
            try:
                return wl.op(tmpdir)
            finally:
                wl.calls = good_calls

        check = staticmethod(wl.check)

    tally = run.Tally()
    tmp = ROOT / ".perfbench" / "tmp" / "smoke"
    tmp.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    times, _ = run.run_loop(FirstOpFails(), str(tmp), 2, tally)
    assert time.perf_counter() - t0 < 60
    assert len(times) == tally.attempted == 2
    assert tally.failed == 1
    assert not tally.wrong
    (reason,) = tally.reasons
    assert "OverflowError" in reason
