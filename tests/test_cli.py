import csv
import json
import math

import pytest

from gmsteady.barriers import Exponents, Problem, SourceModel, classify
from gmsteady.cli import main


def run(args):
    return main(args)


def test_kernel_report_and_table(tmp_path):
    report = tmp_path / "k.json"
    table = tmp_path / "k.csv"
    rc = run(["kernel", "-N", "3", "--lam", "4", "--report", str(report),
              "--out-table", str(table)])
    assert rc == 0
    payload = json.loads(report.read_text())
    assert payload["mass_integral"] == pytest.approx(0.25, abs=1e-8)
    assert payload["c1"] > 1.0 and payload["c2"] > 1.0
    with open(table, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["r", "value", "mass_identity"]
    assert len(rows) == payload["rows"] + 1


def test_kernel_zero_shift_table(tmp_path):
    report = tmp_path / "k0.json"
    table = tmp_path / "k0.csv"
    rc = run(["kernel", "-N", "3", "--lam", "0", "--report", str(report),
              "--out-table", str(table)])
    assert rc == 0
    with open(table, newline="") as fh:
        rows = list(csv.reader(fh))
    r, v = float(rows[1][0]), float(rows[1][1])
    assert v == pytest.approx(1.0 / (4.0 * math.pi * r), rel=1e-12)


def test_kernel_negative_shift_usage_error(tmp_path):
    rc = run(["kernel", "--lam", "-1", "--report", str(tmp_path / "x.json")])
    assert rc == 1


def test_region_threshold_p(tmp_path):
    table = tmp_path / "region.csv"
    rc = run(["region", "-N", "3", "--lam", "0", "--mu", "0", "--m", "5",
              "--sweep", "p=2.0:4.0:21", "--report", str(tmp_path / "r.json"),
              "--out-table", str(table)])
    assert rc == 0
    with open(table, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    for row in rows:
        p = float(row[1])
        if p <= 3.0:  # N/(N-2) = 3
            assert row[2] == "nonexistence" and row[3] == "Theorem 1.2(i)"
        else:
            assert row[2] != "nonexistence"


def test_region_threshold_source_rate(tmp_path):
    table = tmp_path / "region_a.csv"
    rc = run(["region", "-N", "5", "--lam", "0", "--mu", "0",
              "--p", "5", "--q", "2", "--m", "2", "--s", "1",
              "--rho", "alg", "--alpha", "0.01", "--beta", "0.015",
              "--sweep", "rate=2.0:5.0:31",
              "--report", str(tmp_path / "ra.json"), "--out-table", str(table)])
    assert rc == 0
    with open(table, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    for row in rows:
        a = float(row[1])
        if a <= 3.0:  # 2(1 + 1/m) = 3
            assert row[3] == "Theorem 1.4(i)"
        else:
            assert row[3] != "Theorem 1.4(i)"


def test_region_empty_sweep_usage_error(tmp_path):
    assert run(["region", "--report", str(tmp_path / "r.json")]) == 1
    assert run(["region", "--sweep", "p=", "--report", str(tmp_path / "r.json")]) == 1
    assert run(["region", "--sweep", "bogus=1:2:3"]) == 1


def test_solve_and_verify_roundtrip(tmp_path):
    report = tmp_path / "solve.json"
    u_dump = tmp_path / "u.txt"
    v_dump = tmp_path / "v.txt"
    rc = run(["solve", "-N", "3", "--lam", "4096", "--mu", "16",
              "--p", "2", "--q", "1", "--m", "1", "--s", "0",
              "--rho", "exp", "--alpha", "1", "--beta", "2", "--rate", "1",
              "--rho-amplitude", "1.5", "--report", str(report),
              "--out-u", str(u_dump), "--out-v", str(v_dump)])
    assert rc == 0
    payload = json.loads(report.read_text())
    assert payload["solve"]["status"] == "converged"
    assert u_dump.read_text().startswith("# r value\n")

    rc = run(["verify", "-N", "3", "--lam", "4096", "--mu", "16",
              "--p", "2", "--q", "1", "--m", "1", "--s", "0",
              "--rho", "exp", "--alpha", "1", "--beta", "2", "--rate", "1",
              "--rho-amplitude", "1.5",
              "--u-field", str(u_dump), "--v-field", str(v_dump),
              "--u-rate", "1.0", "--v-rate", "1.0",
              "--tol", "1e-4", "--report", str(tmp_path / "verify.json")])
    assert rc == 0


def test_solve_refusal_exit_code(tmp_path):
    rc = run(["solve", "-N", "3", "--lam", "16", "--mu", "16",
              "--p", "2", "--q", "1", "--m", "1", "--s", "0",
              "--rho", "exp", "--alpha", "1", "--beta", "2", "--rate", "1",
              "--report", str(tmp_path / "s.json")])
    assert rc == 2


def test_solve_force_still_checks_hypotheses(tmp_path):
    # --force bypasses the classification gate but not the solver's own
    # feasibility requirements
    rc = run(["solve", "-N", "3", "--lam", "16", "--mu", "16",
              "--p", "2", "--q", "1", "--m", "1", "--s", "0",
              "--rho", "exp", "--alpha", "1", "--beta", "2", "--rate", "1",
              "--force", "--report", str(tmp_path / "s.json")])
    assert rc == 2


def test_verify_cor3_exit_codes(tmp_path):
    rc = run(["verify", "--cor3", "-N", "3", "--p", "6", "--s", "1",
              "--report", str(tmp_path / "c.json")])
    assert rc == 0
    payload = json.loads(tmp_path.joinpath("c.json").read_text())
    assert payload["certificate"]["residual_u"] <= 1e-5
    # absurdly tight tolerance: non-convergence exit code
    rc = run(["verify", "--cor3", "-N", "3", "--p", "6", "--s", "1",
              "--tol", "1e-12", "--report", str(tmp_path / "c2.json")])
    assert rc == 3


def test_verify_corrupted_field_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("# r value\n0.0 1.0\nnot numbers here\n")
    rc = run(["verify", "-N", "3", "--u-field", str(bad), "--v-field", str(bad)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "line 3" in err


def test_config_file_and_flag_override(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text("# kernel run\nlam = 4\ndimension = 4\n")
    report = tmp_path / "k.json"
    rc = run(["kernel", "--config", str(conf), "--report", str(report)])
    assert rc == 0
    payload = json.loads(report.read_text())
    assert payload["lam"] == 4.0 and payload["dimension"] == 4

    rc = run(["kernel", "--config", str(conf), "--lam", "9", "--report", str(report)])
    payload = json.loads(report.read_text())
    assert payload["lam"] == 9.0
    assert payload["mass_integral"] == pytest.approx(1.0 / 9.0, abs=1e-8)


def test_config_unknown_key(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("nonsense = 1\n")
    rc = run(["kernel", "--config", str(conf)])
    assert rc == 1


def test_reports_are_deterministic_up_to_timestamp(tmp_path):
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["region", "-N", "3", "--m", "5", "--sweep", "p=2:4:9", "--out-table",
            str(tmp_path / "t.csv")]
    assert run(args + ["--report", str(r1)]) == 0
    assert run(args + ["--report", str(r2)]) == 0
    p1 = json.loads(r1.read_text())
    p2 = json.loads(r2.read_text())
    p1.pop("timestamp"), p2.pop("timestamp")
    assert p1 == p2


def test_threads_env_respected(tmp_path, monkeypatch):
    monkeypatch.setenv("GM_STEADY_THREADS", "2")
    rc = run(["region", "-N", "3", "--m", "5", "--sweep", "p=1.1:6.0:100",
              "--report", str(tmp_path / "r.json"), "--out-table", str(tmp_path / "t.csv")])
    assert rc == 0


# (fixed flags, sweeps, Problem/Exponents factory) for one lattice per regime
_REGION_CASES = [
    (["-N", "3", "--lam", "4096", "--mu", "16", "--m", "1", "--s", "0",
      "--rho", "exp", "--alpha", "1", "--beta", "2", "--rate", "1"],
     ["p=0.5:6.0:12", "q=0.1:4.0:9"],
     lambda p, q: (Problem(3, 4096.0, 16.0, SourceModel.exp_envelope(1.0, 2.0, 1.0)),
                   Exponents(p, q, 1.0, 0.0))),
    (["-N", "5", "--q", "2", "--m", "2", "--s", "1",
      "--rho", "alg", "--alpha", "0.01", "--beta", "0.015"],
     ["p=1.2:9.0:12", "rate=2.0:5.0:9"],
     lambda p, a: (Problem(5, 0.0, 0.0, SourceModel.alg_envelope(0.01, 0.015, a)),
                   Exponents(p, 2.0, 2.0, 1.0))),
    (["-N", "3", "--s", "1"],
     ["p=1.1:6.0:12", "m=0.5:6.0:9"],
     lambda p, m: (Problem(3, 0.0, 0.0, SourceModel.zero()), Exponents(p, 1.0, m, 1.0))),
]


@pytest.mark.parametrize("fixed, sweeps, build", _REGION_CASES)
def test_region_rows_match_scalar_classify(tmp_path, fixed, sweeps, build):
    table = tmp_path / "region.csv"
    sweep_args = [a for spec in sweeps for a in ("--sweep", spec)]
    rc = run(["region", *fixed, *sweep_args, "--report", str(tmp_path / "r.json"),
              "--out-table", str(table)])
    assert rc == 0
    with open(table, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 12 * 9
    for row in rows:
        verdict = classify(*build(float(row[1]), float(row[2])))
        assert row[3:] == [verdict.status.value, verdict.tag or ""]


def test_region_sweep_across_sigma_one(tmp_path):
    # sigma = 4 / (2 (p - 1)) crosses 1 at p = 3, where the algebraic
    # ledger's alpha bounds leave the float range
    rc = run(["region", "-N", "5", "--q", "2", "--m", "2", "--s", "1",
              "--rho", "alg", "--alpha", "0.01", "--beta", "0.015",
              "--sweep", "p=2.99:3.01:21", "--sweep", "rate=3:5:41",
              "--report", str(tmp_path / "r.json")])
    assert rc == 0


_EXP_POINT = ["-N", "3", "--lam", "4096", "--mu", "16", "--p", "2", "--q", "1",
              "--m", "1", "--s", "0", "--rho", "exp", "--alpha", "1", "--beta", "2",
              "--rate", "1"]


def _assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("flag, value", [("--h0", "0"), ("--h0", "-0.5"),
                                         ("--h0", "nan"), ("--stretch", "inf")])
def test_solve_bad_grid_exit_code(tmp_path, capsys, flag, value):
    rc = run(["solve", *_EXP_POINT, "--radius", "10", flag, value,
              "--report", str(tmp_path / "s.json")])
    assert rc == 1
    _assert_one_line_error(capsys)


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("flag", ["--p", "--q", "--m", "--s", "--lam", "--mu",
                                  "--alpha", "--beta", "--rate", "--rho-amplitude",
                                  "--radius"])
def test_solve_non_finite_flag_exit_code(tmp_path, capsys, flag, value):
    rc = run(["solve", *_EXP_POINT, flag, value, "--report", str(tmp_path / "s.json")])
    assert rc == 1
    _assert_one_line_error(capsys)


def _assert_one_line_refusal(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("refused: ")
    return lines[0]


# p near 1 with extreme shifts: the exponential ledger's upper constants
# leave the float range
_OVERFLOW_POINT = ["-N", "3", "--lam", "5.851e7", "--mu", "0.001139", "--q", "0.0178",
                   "--m", "2.463", "--s", "0.8182", "--rho", "exp", "--rate", "2.758"]


def test_region_ledger_overflow_point_is_unknown(tmp_path, capsys):
    table = tmp_path / "region.csv"
    rc = run(["region", *_OVERFLOW_POINT, "--sweep", "p=1.037",
              "--report", str(tmp_path / "r.json"), "--out-table", str(table)])
    assert rc == 0
    with open(table, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert rows == [["0", "1.037", "unknown", ""]]
    assert "Traceback" not in capsys.readouterr().err


def test_solve_ledger_overflow_point_refused(tmp_path, capsys):
    rc = run(["solve", *_OVERFLOW_POINT, "--p", "1.037", "--report", str(tmp_path / "s.json")])
    assert rc == 2
    assert "float-range" in _assert_one_line_refusal(capsys)


def test_solve_underflowing_lower_barrier_refused(tmp_path, capsys):
    # lam = 1e300 certifies M2_lower ~ 1.6e-302, and M2_lower * B_v
    # underflows to 0 on the doubled ball
    args = ["solve", *_EXP_POINT, "--rho-amplitude", "1.5", "--report", str(tmp_path / "s.json")]
    args[args.index("--lam") + 1] = "1e300"
    rc = run(args)
    assert rc == 2
    assert "underflows" in _assert_one_line_refusal(capsys)
