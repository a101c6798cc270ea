import collections
import csv
import dataclasses
import enum
import io
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

from gmsteady import solvers
from gmsteady.barriers import VERDICT_CODES, Exponents, Problem, SourceModel, classify
from gmsteady.cli import (_BLOCK_ROWS, _jsonable, _parse_sweep, _problem_from_args,
                          build_parser, main)
from gmsteady.profiles import BarrierFamily, BarrierProfile, eval_barrier
from gmsteady.radial_core import RadialField, RadialGrid, read_field, write_field


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
    rows = _csv_writer_rows(table)
    assert rows[0] == ["r", "value", "mass_identity"]
    assert len(rows) == payload["rows"] + 1
    assert all(row[2] == repr(payload["mass_integral"]) for row in rows[1:])


def test_kernel_zero_shift_table(tmp_path):
    report = tmp_path / "k0.json"
    table = tmp_path / "k0.csv"
    rc = run(["kernel", "-N", "3", "--lam", "0", "--report", str(report),
              "--out-table", str(table)])
    assert rc == 0
    rows = _csv_writer_rows(table)
    r, v = float(rows[1][0]), float(rows[1][1])
    assert v == pytest.approx(1.0 / (4.0 * math.pi * r), rel=1e-12)
    # the unshifted kernel has no mass, so its mass_identity cells are empty
    assert all(row[2] == "" for row in rows[1:])


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


def test_solve_force_flag_is_gone(tmp_path, capsys):
    # every point the classifier refuses also fails the solver's own
    # checks, so there is no gate to force
    rc = run(["solve", "-N", "3", "--lam", "16", "--mu", "16",
              "--p", "2", "--q", "1", "--m", "1", "--s", "0",
              "--rho", "exp", "--alpha", "1", "--beta", "2", "--rate", "1",
              "--force", "--report", str(tmp_path / "s.json")])
    assert rc == 1
    assert capsys.readouterr().err.strip().splitlines()[-1] == (
        "error: unrecognized arguments: --force")


def test_cor3_exit_codes(tmp_path):
    rc = run(["cor3", "-N", "3", "--p", "6", "--s", "1", "--report", str(tmp_path / "c.json")])
    assert rc == 0
    payload = json.loads(tmp_path.joinpath("c.json").read_text())
    assert payload["certificate"]["residual_u"] <= 1e-5
    # absurdly tight tolerance: non-convergence exit code
    rc = run(["cor3", "-N", "3", "--p", "6", "--s", "1",
              "--tol", "1e-12", "--report", str(tmp_path / "c2.json")])
    assert rc == 3


# the certificate of the README's closed-form check as `verify --cor3`
# wrote it before the check became the cor3 subcommand
_COR3_README = {"amplitude": 1.0, "dimension": 3, "grid_nodes": 20001, "grid_radius": 20.0,
                "m": 6.0, "p": 6.0, "q": 1.0, "residual_u": 5.588170511661161e-06,
                "residual_v": 5.588170511661161e-06, "s": 1.0}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flags, rc, certificate, err", [
    (["-N", "3", "--p", "6", "--s", "1"], 0, _COR3_README, []),
    # both equations are -Delta w = w^5 at N = 3, whatever p and s: w^p
    # alone would overflow, since w(0) > 1, and the float m - s is 0 at s = 1e300
    (["-N", "3", "--p", "1e6", "--s", "1"], 0, {**_COR3_README, "p": 1e6, "q": 999995.0}, []),
    (["-N", "3", "--p", "6", "--s", "1e300"], 0, {**_COR3_README, "m": 1e300, "s": 1e300}, []),
    # 17 nodes leave the O(h^2) residuals far above the default --tol
    (["--nodes", "17", "--p", "6", "--s", "1"], 3,
     {**_COR3_README, "grid_nodes": 17, "residual_u": 2.0515343146488627,
      "residual_v": 2.0515343146488627}, ["unconverged: residual_u 2.052e+00 > --tol 1e-05"]),
    # (2 pi)^(N/2) overflows as a Python float, w^(N-2)/2 as an array
    (["-N", "4096", "--p", "2000", "--s", "1", "--nodes", "20"], 1, None,
     ["error: operator band must be finite"]),
    (["-N", "3", "--p", "6", "--s", "0"], 2, None, ["refused: need s > 0"]),
], ids=["readme", "p-1e6", "s-1e300", "nodes-17", "n-4096", "s-0"])
def test_cor3_gives_the_certificate_and_exit_code_of_verify_cor3(tmp_path, capsys, flags, rc,
                                                                certificate, err):
    report = tmp_path / "c.json"
    assert run(["cor3", *flags, "--report", str(report)]) == rc
    assert capsys.readouterr().err.splitlines() == err
    if certificate is None:
        assert not report.exists()
    else:
        payload = json.loads(report.read_text())
        assert payload["command"] == "cor3"
        assert payload["certificate"] == certificate


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


def test_threads_env_is_ignored(tmp_path, monkeypatch):
    # GM_STEADY_THREADS, which used to size a thread pool for region, is
    # ignored: the table's bytes are the same without it and with it
    monkeypatch.delenv("GM_STEADY_THREADS", raising=False)
    tables = []
    for name in ("without", "with"):
        table = tmp_path / f"{name}.csv"
        assert run(["region", "-N", "3", "--m", "5", "--sweep", "p=1.1:6.0:100",
                    "--report", str(tmp_path / f"{name}.json"), "--out-table", str(table)]) == 0
        tables.append(table.read_bytes())
        monkeypatch.setenv("GM_STEADY_THREADS", "2")
    assert tables[0] == tables[1]


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
    # float64 cannot hold N = 2**53 + 1 exactly, so classify_many defers
    # every point and region takes each row from classify itself
    (["-N", str(2**53 + 1), "--lam", "4096", "--mu", "16"],
     ["p=0.5:6.0:12", "q=0.1:4.0:9"],
     lambda p, q: (Problem(2**53 + 1, 4096.0, 16.0, SourceModel.zero()),
                   Exponents(p, q, 1.0, 0.0))),
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


# each sweepable parameter swept alone over a range that crosses its
# rules and ledger checks, the other eight given as flags: the positive-
# shift worked case (lam and mu stay positive) and the zero-shift one
# (where lam and mu can only be zero)
_ALONE_SWEEPS = [
    (_REGION_CASES[0][0] + ["--p", "2", "--q", "1"],
     ["p=0.5:6.0:23", "q=0.1:4.0:20", "m=0.1:4.0:20", "s=0:10:21", "lam=1:1e5:21",
      "mu=1:60:21", "alpha=0.1:2.0:20", "beta=1:10:19", "rate=0.1:50:21"]),
    (_REGION_CASES[1][0] + ["--p", "5", "--rate", "4", "--lam", "0", "--mu", "0"],
     ["p=0.5:9.0:18", "q=0.1:6.0:20", "m=0.1:6.0:20", "s=0:5:21", "lam=0,-0.0",
      "mu=0,-0.0", "alpha=0.001:0.015:15", "beta=0.01:0.05:17", "rate=2.0:5.0:31"]),
]


@pytest.mark.parametrize("fixed, sweep", [(fixed, sweep) for fixed, sweeps in _ALONE_SWEEPS
                                          for sweep in sweeps])
def test_region_one_sweep_with_eight_flags_matches_classify(tmp_path, fixed, sweep):
    # classify_many takes the eight unswept parameters as single floats
    table = tmp_path / "region.csv"
    argv = ["region", *fixed, "--sweep", sweep]
    assert run([*argv, "--report", str(tmp_path / "r.json"), "--out-table", str(table)]) == 0
    args = build_parser().parse_args(argv)
    name = sweep.partition("=")[0]
    with open(table, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(_parse_sweep(sweep)[1])
    for row in rows:
        verdict = classify(*_problem_from_args(args, **{name: float(row[name])}))
        assert (row["status"], row["tag"]) == (verdict.status.value, verdict.tag or ""), row


def _csv_writer_rows(path):
    """The rows of a CSV table, after checking that its raw text is what
    csv.writer writes for them, with every line ended by \\r\\n."""
    with open(path, newline="", encoding="utf-8") as fh:
        text = fh.read()
    rows = list(csv.reader(io.StringIO(text, newline="")))
    out = io.StringIO(newline="")
    csv.writer(out).writerows(rows)
    assert out.getvalue() == text
    lines = text.splitlines(keepends=True)
    assert len(lines) == len(rows) and all(line.endswith("\r\n") for line in lines)
    return rows


# one, two and three sweeps (C order), value lists with -0.0 and 1e-300,
# and between them every status,tag pair of VERDICT_CODES
_TABLE_LATTICES = [
    ["-N", "3", "--m", "5", "--sweep", "p=1.1:6.0:50"],
    [*_REGION_CASES[0][0], "--sweep", "p=0.5:6.0:12", "--sweep", "q=0.1:4.0:9"],
    [*_REGION_CASES[1][0], "--sweep", "p=1.2:9.0:12", "--sweep", "rate=2.0:5.0:9"],
    ["-N", "3", "--s", "1", "--sweep", "p=1.1:6:7", "--sweep", "m=0.5:6:3",
     "--sweep", "q=0.5,2"],
    ["-N", "3", "--m", "5", "--sweep", "s=-0.0,1e-300,2", "--sweep", "p=1e-300,4,6",
     "--sweep", "lam=0,-0.0"],
]


def test_region_table_is_csv_writer_bytes(tmp_path):
    seen = set()
    for flags in _TABLE_LATTICES:
        table, report = tmp_path / "t.csv", tmp_path / "r.json"
        assert run(["region", *flags, "--out-table", str(table), "--report", str(report)]) == 0
        payload = json.loads(report.read_text())
        rows = _csv_writer_rows(table)
        names = [spec.partition("=")[0] for spec in flags[flags.index("--sweep") + 1::2]]
        assert rows[0] == ["index", *names, "status", "tag"]
        lattice = list(itertools.product(*(payload["sweeps"][name] for name in names)))
        assert len(rows) - 1 == len(lattice) == payload["points"]
        labels = collections.Counter()
        for i, (row, point) in enumerate(zip(rows[1:], lattice)):
            assert row[:-2] == [str(i), *map(repr, point)]
            labels[tuple(row[-2:])] += 1
        assert set(labels) <= set(VERDICT_CODES)
        assert {f"{s}:{t}" if t else s: n for (s, t), n in labels.items()} == payload["counts"]
        seen |= set(labels)
    assert seen == set(VERDICT_CODES)


# tables around the block size of _write_table: rows are lost or doubled
# only where a block ends, so each count sits at or next to a block end
@pytest.mark.parametrize("sweeps", [
    [f"p=1.1:6.0:{_BLOCK_ROWS - 1}"],
    [f"p=1.1:6.0:{_BLOCK_ROWS}"],
    [f"p=1.1:6.0:{_BLOCK_ROWS + 1}"],
    [f"p=1.1:6.0:{3 * _BLOCK_ROWS + 1}"],
    ["p=1.1:6.0:17", "m=0.5:6.0:16", "q=0.5:2.0:16"],
])
def test_region_table_across_block_ends(tmp_path, sweeps):
    table, report = tmp_path / "t.csv", tmp_path / "r.json"
    sweep_args = [a for spec in sweeps for a in ("--sweep", spec)]
    rc = run(["region", "-N", "3", "--s", "1", *sweep_args,
              "--out-table", str(table), "--report", str(report)])
    assert rc == 0
    points = json.loads(report.read_text())["points"]
    rows = _csv_writer_rows(table)
    assert len(rows) - 1 == points == math.prod(int(s.rsplit(":", 1)[1]) for s in sweeps)
    assert [row[0] for row in rows[1:]] == [str(i) for i in range(points)]


def test_kernel_table_of_no_rows_is_its_header(tmp_path):
    table, report = tmp_path / "k.csv", tmp_path / "k.json"
    rc = run(["kernel", "--lam", "0", "--r-count", "0",
              "--out-table", str(table), "--report", str(report)])
    assert rc == 0
    assert json.loads(report.read_text())["rows"] == 0
    assert _csv_writer_rows(table) == [["r", "value", "mass_identity"]]


# an invalid lattice point fails as classify's own checks fail, at the
# first such point in lattice order, and no table or report is written
@pytest.mark.parametrize("flags, line", [
    (["--sweep", "p=2,-1"], "error: p, q, m must be positive"),
    (["--rho", "exp", "--beta", "2", "--sweep", "alpha=1,3"],
     "error: envelope requires 0 < alpha <= beta"),
    (["--mu", "16", "--sweep", "lam=0,4"], "error: shifts must be both zero or both positive"),
    (["--sweep", "p=2,nan,-1"], "error: p, q, m, s must be finite"),
    (["--sweep", "p=2,3", "--sweep", "q=1,-1,nan"], "error: p, q, m must be positive"),
])
def test_region_invalid_point_error_line(tmp_path, capsys, flags, line):
    table, report = tmp_path / "t.csv", tmp_path / "r.json"
    rc = run(["region", *flags, "--out-table", str(table), "--report", str(report)])
    assert rc == 1
    assert capsys.readouterr().err.strip().splitlines() == [line]
    assert not table.exists() and not report.exists()


# a sweep spec that does not parse ends in one error: line that quotes it
@pytest.mark.parametrize("spec, line", [
    ("p=1:2:x", "error: sweep 'p=1:2:x': invalid literal for int() with base 10: 'x'"),
    ("p=a:2:3", "error: sweep 'p=a:2:3': could not convert string to float: 'a'"),
    ("p=1,x", "error: sweep 'p=1,x': could not convert string to float: 'x'"),
    ("p", "error: sweep 'p' needs name=range"),
    ("p=1:2", "error: sweep range '1:2' must be start:stop:count"),
    ("p=1:2:0", "error: sweep 'p=1:2:0' count must be >= 1"),
])
def test_region_bad_sweep_spec_error_line(tmp_path, capsys, spec, line):
    report = tmp_path / "r.json"
    assert run(["region", "-N", "3", "--sweep", spec, "--report", str(report)]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [line]
    assert not report.exists()


def test_region_sweep_across_sigma_one(tmp_path):
    # sigma = 4 / (2 (p - 1)) crosses 1 at p = 3, where the algebraic
    # ledger's alpha bounds leave the float range
    rc = run(["region", "-N", "5", "--q", "2", "--m", "2", "--s", "1",
              "--rho", "alg", "--alpha", "0.01", "--beta", "0.015",
              "--sweep", "p=2.99:3.01:21", "--sweep", "rate=3:5:41",
              "--report", str(tmp_path / "r.json")])
    assert rc == 0


# a lattice too large to allocate ends in one error: line; numpy's
# allocation is replaced, so nothing large is ever allocated
@pytest.mark.parametrize("sweeps, allocator", [
    (["p=1:2:10000000000"], "linspace"),
    (["p=1:2:100000", "q=1:2:100000"], "indices"),
])
def test_region_lattice_too_large_error_line(tmp_path, capsys, monkeypatch, sweeps, allocator):
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 149. GiB for an array")

    monkeypatch.setattr(np, allocator, refuse)
    table, report = tmp_path / "t.csv", tmp_path / "r.json"
    sweep_args = [a for spec in sweeps for a in ("--sweep", spec)]
    rc = run(["region", "-N", "3", "--m", "5", *sweep_args,
              "--out-table", str(table), "--report", str(report)])
    assert rc == 1
    _assert_one_line_error(capsys)
    assert not table.exists() and not report.exists()


_EXP_POINT = ["-N", "3", "--lam", "4096", "--mu", "16", "--p", "2", "--q", "1",
              "--m", "1", "--s", "0", "--rho", "exp", "--alpha", "1", "--beta", "2",
              "--rate", "1"]
_ALG_POINT = ["-N", "5", "--p", "5", "--q", "2", "--m", "2", "--s", "1", "--rho", "alg",
              "--alpha", "0.01", "--beta", "0.015", "--rate", "4", "--rho-amplitude", "0.0125"]


@pytest.mark.parametrize("flags", [["--u-rate", "2", "--v-rate", "1"], ["--no-representation"]],
                         ids=["representation", "no-representation"])
def test_verify_refuses_a_bad_v_dump(tmp_path, capsys, alg_worked_case, flags):
    # the zero-shift worked case's dumps verify and fit the decay rates of
    # its solve (both fit over the same windows); a v dump with every
    # radius scaled by 1.5, or holding one 0, is refused with one line
    _, _, _, rep = alg_worked_case
    u_dump, v_dump, scaled, zero = (tmp_path / name for name in
                                    ("u.txt", "v.txt", "scaled.txt", "zero.txt"))
    write_field(rep.u, u_dump)
    write_field(rep.v, v_dump)
    write_field(RadialField(RadialGrid(1.5 * rep.v.grid.nodes), rep.v.values), scaled)
    write_field(RadialField(rep.v.grid, np.where(np.arange(rep.v.grid.n) == 3, 0.0,
                                                 rep.v.values)), zero)
    report = tmp_path / "v.json"
    verify = ["verify", *_ALG_POINT, "--u-field", str(u_dump), "--tol", "1e-4", *flags,
              "--report", str(report)]
    assert run([*verify, "--v-field", str(v_dump)]) == 0
    cert = json.loads(report.read_text())["certificate"]
    assert (cert["decay_u"], cert["decay_v"]) == (list(rep.decay["u"]), list(rep.decay["v"]))
    assert capsys.readouterr().err == ""
    report.unlink()
    for dump, line in ((scaled, "error: u and v must share a grid"),
                       (zero, "error: fields must be positive")):
        assert run([*verify, "--v-field", str(dump)]) == 1
        assert capsys.readouterr().err == line + "\n"
        assert not report.exists()


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


def test_solve_coarse_fit_window_exits_before_any_solve(tmp_path, capsys, monkeypatch):
    # R = 30 with h0 = 0.5 and stretch 1.3 puts 2 nodes in the W fit window
    def no_solve(*args):
        raise AssertionError("the coupled solve ran")

    monkeypatch.setattr(solvers, "_picard_coupled", no_solve)
    rc = run(["solve", *_EXP_POINT, "--rho-amplitude", "1.5", "--radius", "30", "--h0", "0.5",
              "--stretch", "1.3", "--report", str(tmp_path / "s.json")])
    assert rc == 1
    _assert_one_line_error(capsys)
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("flag", ["--p", "--q", "--m", "--s", "--lam", "--mu",
                                  "--alpha", "--beta", "--rate", "--rho-amplitude",
                                  "--radius"])
def test_solve_non_finite_flag_exit_code(tmp_path, capsys, flag, value):
    rc = run(["solve", *_EXP_POINT, flag, value, "--report", str(tmp_path / "s.json")])
    assert rc == 1
    _assert_one_line_error(capsys)


def test_rho_amplitude_outside_its_envelope_is_named_a_source_amplitude(tmp_path, capsys):
    # the same words as the sibling refusal of a non-float amplitude
    rc = run(["solve", *_EXP_POINT, "--rho-amplitude", "5", "--report", str(tmp_path / "s.json")])
    assert rc == 1
    assert capsys.readouterr().err == "error: source amplitude must lie in [alpha, beta]\n"
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("args", [
    ["region", "--sweep", "p=-1:inf:3"],
    ["region", "--sweep", "p=-1e308:1e308:3"],
    ["kernel", "--r-max", "-1"],
    ["kernel", "--r-min", "nan"],
    ["cor3", "--radius", "inf"],
    ["cor3", "--radius", "nan"],
    # R = 0 reaches the grid builder rather than falling back to R = 20
    ["cor3", "-N", "3", "--p", "6", "--s", "1", "--radius", "0"],
    ["cor3", "-N", "2"],
    ["cor3", "--amplitude", "1e300"],
])
def test_out_of_range_input_exit_code(tmp_path, capsys, args):
    assert run([*args, "--report", str(tmp_path / "r.json")]) == 1
    _assert_one_line_error(capsys)


def _default_w_radius(ledger: dict) -> float:
    """The default W ball's radius for a report's ledger: the smallest on
    which each field's (upper/lower - 1) B(R)/B(0) is half the truncation limit."""
    half = 0.5 * solvers._TRUNCATION_LIMIT
    return max(solvers.default_exp_radius(ledger[f"rate_{name}"], max(
        1.0, (ledger[f"m{i}_upper"] / ledger[f"m{i}_lower"] - 1.0) / half))
        for i, name in ((1, "u"), (2, "v")))


@pytest.mark.parametrize("point", [_ALG_POINT, [*_EXP_POINT, "--rho-amplitude", "1.5"]],
                         ids=["alg", "exp"])
def test_solve_radius_reproduces_the_default_ball(tmp_path, point):
    # --radius alone takes the regime's grid recipe, so a --radius at the
    # default ball's radius reruns the default solve, report and dumps; only
    # the recorded grid differs, null on the default ball
    outputs, recipes, extra = {}, {}, []
    for name in ("default", "radius"):
        report, u, v = (tmp_path / f"{name}.{ext}" for ext in ("json", "u", "v"))
        assert run(["solve", *point, *extra, "--report", str(report), "--out-u", str(u),
                    "--out-v", str(v)]) == 0
        fields = json.loads(report.read_text())
        fields.pop("timestamp")
        recipes[name] = [fields["parameters"].pop(key) for key in ("radius", "h0", "stretch")]
        outputs[name] = fields, u.read_bytes(), v.read_bytes()
        extra = ["--radius", repr(fields["solve"]["ball_radius"])]
    assert outputs["radius"] == outputs["default"]
    fields = outputs["default"][0]
    family = BarrierFamily.Z if point is _ALG_POINT else BarrierFamily.W
    assert recipes == {"default": [None] * 3,
                       "radius": [fields["solve"]["ball_radius"], *solvers._BALL_GRIDS[family]]}
    assert fields["solve"]["ball_radius"] == (
        solvers.DEFAULT_ALG_RADIUS if point is _ALG_POINT
        else _default_w_radius(fields["verdict"]["ledger"]))


@pytest.fixture(scope="module")
def exp_dumps(tmp_path_factory):
    """The README solve's u and v dumps, and u dumps whose last row reads inf or nan."""
    path = tmp_path_factory.mktemp("dumps")
    assert run(["solve", *_EXP_POINT, "--rho-amplitude", "1.5", "--report", str(path / "s.json"),
                "--out-u", str(path / "u.txt"), "--out-v", str(path / "v.txt")]) == 0
    rows = (path / "u.txt").read_text().splitlines()[:-1]
    for bad in ("inf", "nan"):
        (path / f"u_{bad}.txt").write_text("\n".join([*rows, f"{bad} 1.0"]) + "\n")
    return path


@pytest.mark.parametrize("args", [
    # the kernel overflows float64 below r ~ 1e-154 in N = 4
    ["kernel", "-N", "4", "--r-max", "1e-176"],
    # the mass 1/lam of a subnormal shift overflows
    ["kernel", "--lam", "1e-320"],
    # r^2 overflows in the bubble
    ["cor3", "-N", "3", "--p", "6", "--s", "1", "--radius", "1e200", "--nodes", "100"],
    # argparse before Python 3.12 stores [] for a "--" value
    ["kernel", "--lam=--"],
    # (2 pi)^(N/2) overflows as a Python float
    ["kernel", "-N", "4096"],
    # grids asking for inf and 1e10 nodes
    ["solve", *_EXP_POINT, "--rho-amplitude", "1.5", "--radius", "1e10", "--h0", "1e-300",
     "--stretch", "1"],
    ["solve", *_EXP_POINT, "--rho-amplitude", "1.5", "--radius", "1e4", "--h0", "1e-6",
     "--stretch", "1"],
    # a zero-shift ball of 1,200,001 nodes
    ["solve", *_ALG_POINT, "--radius", "30", "--h0", "2.5e-5", "--stretch", "1"],
    # the README verify given a u dump whose last node is inf or nan
    *(["verify", *_EXP_POINT, "--rho-amplitude", "1.5", "--u-field", f"{{dumps}}/u_{bad}.txt",
       "--v-field", "{dumps}/v.txt", "--u-rate", "1", "--v-rate", "1", "--tol", "1e-4"]
      for bad in ("inf", "nan")),
])
def test_extreme_input_exit_code_without_warning(tmp_path, capsys, args, exp_dumps):
    args = [arg.format(dumps=exp_dumps) for arg in args]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run([*args, "--report", str(tmp_path / "r.json")])
    assert rc == 1 and caught == []
    err = capsys.readouterr().err
    lines = [line for line in err.strip().splitlines() if not line.startswith("usage:")]
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    if "--u-field" in args:  # the dump's grid is refused for its non-finite node
        assert lines[0] == "error: grid nodes must be finite"
    assert not (tmp_path / "r.json").exists()


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


@pytest.mark.parametrize("flags", [
    [*_OVERFLOW_POINT, "--sweep", "p=1.001:1.3:300", "--sweep", "s=0:40:41"],
    [*_EXP_POINT[:2], *_EXP_POINT[4:], "--sweep", "lam=1e2:1e300:400"],
], ids=["overflow-300x41", "lam-400"])
def test_region_sweeps_out_of_float_range_match_classify(tmp_path, capsys, flags):
    # the array classifier meets ledgers that leave the float range without
    # a numpy warning, and each row is still the scalar verdict
    table, report = tmp_path / "region.csv", tmp_path / "r.json"
    argv = ["region", *flags]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run([*argv, "--report", str(report), "--out-table", str(table)]) == 0
    assert caught == [] and "Traceback" not in capsys.readouterr().err
    header, *rows = _csv_writer_rows(table)
    assert len(rows) == json.loads(report.read_text())["points"]
    args = build_parser().parse_args(argv)
    for row in rows:
        swept = {name: float(value) for name, value in zip(header[1:-2], row[1:-2])}
        verdict = classify(*_problem_from_args(args, **swept))
        assert row[-2:] == [verdict.status.value, verdict.tag or ""], row


def test_solve_ledger_overflow_point_refused(tmp_path, capsys):
    rc = run(["solve", *_OVERFLOW_POINT, "--p", "1.037", "--report", str(tmp_path / "s.json")])
    assert rc == 2
    assert "float-range" in _assert_one_line_refusal(capsys)


# sigma = m q / ((p-1)(s+1)) underflows to 0 at m = q = 1e-200
_SIGMA_ZERO_POINT = ["-N", "3", "--rho", "exp", "--lam", "4096", "--mu", "16",
                     "--q", "1e-200", "--m", "1e-200"]
# alpha^(m/(s+1)) = 1e600 overflows in the algebraic ledger
_ALG_OVERFLOW_POINT = ["-N", "5", "--p", "5", "--q", "1", "--m", "4", "--s", "1",
                       "--rho", "alg", "--alpha", "1e300", "--beta", "1e300"]
# the worked cases' exponents with lower constants below the smallest
# normal double: M1_lower = 1e-311 and M2_lower = 4.5e-312 (alg), and
# M1_lower = 1.2e-309 and M2_lower = 3.8e-311 (exp)
_SUBNORMAL_ALG_POINT = [*_ALG_POINT[:-8], "--alpha", "1e-310", "--beta", "1.2e-310",
                        "--rate", "4"]
_SUBNORMAL_EXP_POINT = [*_EXP_POINT[:-6], "--alpha", "1e-305", "--beta", "2e-305",
                        "--rate", "1"]


@pytest.mark.parametrize("flags", [[*_SIGMA_ZERO_POINT, "--p", "2"],
                                   [*_ALG_OVERFLOW_POINT, "--rate", "3.5"],
                                   _SUBNORMAL_ALG_POINT, _SUBNORMAL_EXP_POINT])
def test_solve_float_range_ledger_refused(tmp_path, capsys, flags):
    rc = run(["solve", *flags, "--report", str(tmp_path / "s.json")])
    assert rc == 2
    assert "float-range" in _assert_one_line_refusal(capsys)


@pytest.mark.parametrize("flags, sweep, rows", [
    (_SIGMA_ZERO_POINT, "p=0.5,2",
     [["0", "0.5", "nonexistence", "Theorem 1.1(i)"], ["1", "2.0", "unknown", ""]]),
    (_ALG_OVERFLOW_POINT, "rate=3.5,3.6",
     [["0", "3.5", "unknown", ""], ["1", "3.6", "unknown", ""]]),
    (_SUBNORMAL_ALG_POINT, "p=5", [["0", "5.0", "unknown", ""]]),
    (_SUBNORMAL_EXP_POINT, "p=2", [["0", "2.0", "unknown", ""]]),
])
def test_region_float_range_ledger_is_unknown(tmp_path, capsys, flags, sweep, rows):
    table = tmp_path / "region.csv"
    rc = run(["region", *flags, "--sweep", sweep,
              "--report", str(tmp_path / "r.json"), "--out-table", str(table)])
    assert rc == 0
    with open(table, newline="") as fh:
        assert list(csv.reader(fh))[1:] == rows
    assert "Traceback" not in capsys.readouterr().err


def _exp_point_with(changes: dict) -> list:
    """The README exp flags with the values of ``changes`` in place."""
    args = [*_EXP_POINT, "--rho-amplitude", "1.5"]
    for name, value in changes.items():
        args[args.index(name) + 1] = value
    return args


@pytest.mark.parametrize("changes, refusal", [
    # lam = 1e300 certifies M1_lower = 5e-301 and a sandwich about 1e300
    # wide, whose truncation bound sizes the ball; M1_lower * B_u is
    # subnormal long before its edge
    ({"--lam": "1e300"}, "refused: M1_lower * B_u underflows below the smallest normal double "
                         "within radius 702.818"),
    ({"--s": "60"}, "refused: M1_lower * B_u underflows below the smallest normal double "
                    "within radius 817.296"),
], ids=["lam-1e300", "s-60"])
def test_solve_underflowing_lower_barrier_refused(tmp_path, capsys, monkeypatch, changes,
                                                  refusal):
    calls = []
    monkeypatch.setattr(solvers, "_picard_coupled", lambda *args: calls.append(args))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run(["solve", *_exp_point_with(changes), "--report", str(tmp_path / "s.json")])
    assert rc == 2 and caught == [] and calls == []
    assert _assert_one_line_refusal(capsys) == refusal


@pytest.mark.parametrize("changes, v_rate", [({"--s": "12"}, 1 / 13), ({"--s": "20"}, 1 / 21),
                                             ({"--s": "30"}, 1 / 31), ({"--s": "50"}, 1 / 51),
                                             ({"--m": "2", "--s": "12"}, 2 / 13)],
                         ids=["s-12", "s-20", "s-30", "s-50", "m-2-s-12"])
def test_solve_points_with_a_slow_v_barrier_converge(tmp_path, capsys, changes, v_rate):
    # the v barrier decays at 1/(s+1), so the default ball grows with s, and
    # on it the lower barrier on u stays in the normal float64 range up to
    # s = 50; the dumps verify at the README tolerance with the ledger's rates
    u, v, report = (str(tmp_path / name) for name in ("u.txt", "v.txt", "s.json"))
    flags = _exp_point_with(changes)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["solve", *flags, "--report", report, "--out-u", u, "--out-v", v]) == 0
        fields = json.loads(pathlib.Path(report).read_text())
        assert fields["solve"]["status"] == "converged"
        assert fields["verdict"]["ledger"]["rate_v"] == v_rate
        assert run(["verify", *flags, "--u-field", u, "--v-field", v, "--u-rate", "1",
                    "--v-rate", repr(v_rate), "--tol", "1e-4",
                    "--report", str(tmp_path / "v.json")]) == 0
    assert caught == [] and capsys.readouterr().err == ""


@pytest.mark.parametrize("radius", ["0.001", "1", "4", "8", "16"])
def test_solve_on_a_too_small_exp_ball_names_the_truncation_bound(tmp_path, capsys, radius):
    # the Picard run converges on each ball, but its Dirichlet data at R
    # lie further than 1e-6 (relative) from any whole-space solution's
    report = tmp_path / "s.json"
    rc = run(["solve", *_exp_point_with({}), "--radius", radius, "--report", str(report)])
    assert rc == 3
    solve = json.loads(report.read_text())["solve"]
    assert solve["status"] == "max-iterations" and solve["truncation_bound"] > 1e-6
    note = f"truncation bound {solve['truncation_bound']:.3e} exceeds limit 1.000e-06"
    assert solve["notes"] == [note]
    assert _assert_one_line_unconverged(capsys) == f"unconverged: max-iterations; {note}"


@pytest.mark.parametrize("point, largest", [(_EXP_POINT, 0.5 * solvers._TRUNCATION_LIMIT),
                                            (_ALG_POINT, 2e-2)], ids=["exp", "alg"])
def test_solve_report_holds_the_truncation_bound(tmp_path, point, largest):
    # every report carries the bound; only a W run is judged by it
    report = tmp_path / "s.json"
    assert run(["solve", *point, "--report", str(report)]) == 0
    solve = json.loads(report.read_text())["solve"]
    assert "stability_gap" not in solve and 0.0 < solve["truncation_bound"] <= largest


def test_zero_shift_truncation_bound_grows_as_the_ball_shrinks(tmp_path):
    # the Z bound is its closed form, (upper - lower) * Z(R) / max field at
    # its largest, and reads 1.9e-2 at R = 480 and 1.2 at R = 8; it gates
    # nothing, and each run converges
    bounds = []
    for radius in ("480", "120", "30", "8"):
        report, u, v = (tmp_path / f"{name}{radius}" for name in ("s", "u", "v"))
        assert run(["solve", *_ALG_POINT, "--radius", radius, "--report", str(report),
                    "--out-u", str(u), "--out-v", str(v)]) == 0
        fields = json.loads(report.read_text())
        solve, ledger = fields["solve"], fields["verdict"]["ledger"]
        assert solve["status"] == "converged" and solve["notes"] == []
        closed = max(
            (upper - lower) * float(eval_barrier(BarrierProfile(BarrierFamily.Z, rate),
                                                 solve["ball_radius"]))
            / float(read_field(dump).values.max())
            for dump, lower, upper, rate in (
                (u, ledger["m1_lower"], ledger["m1_upper"], ledger["rate_u"]),
                (v, ledger["m2_lower"], ledger["m2_upper"], ledger["rate_v"])))
        assert solve["truncation_bound"] == pytest.approx(closed, rel=1e-14)
        bounds.append(solve["truncation_bound"])
    assert bounds == sorted(bounds) and 1e-2 < bounds[0] < 2e-2 and bounds[-1] > 1.0


_RIGHT_SIDES = "the right sides u^p/v^q + rho and u^m/v^s leave the float64 range"


@pytest.mark.parametrize("flags", [["--u-rate", "1", "--v-rate", "1"], ["--no-representation"]],
                         ids=["representation", "no-representation"])
@pytest.mark.parametrize("radius_factor, u5_factor, reason", [
    # u at row 5 times 1e300: its square overflows in the right side u^p/v^q,
    # which both residuals refuse by one check
    (1.0, 1e300, _RIGHT_SIDES),
    # every radius: r^(N-1) overflows, or r^N underflows, in the flux weights
    (1e200, 1.0, "operator band must be finite"),
    (1e-300, 1.0, "operator band must be finite"),
], ids=["u-value-1e300", "radii-1e200", "radii-1e-300"])
def test_verify_scaled_dumps_exit_with_one_line(tmp_path, capsys, exp_dumps, radius_factor,
                                                u5_factor, reason, flags):
    files = {}
    for name in ("u", "v"):
        rows = [line.split() for line in (exp_dumps / f"{name}.txt").read_text().splitlines()[1:]]
        text = "# r value\n"
        for k, (r, value) in enumerate(rows):
            value = float(value) * (u5_factor if name == "u" and k == 5 else 1.0)
            text += f"{float(r) * radius_factor!r} {value!r}\n"
        files[name] = tmp_path / f"{name}.txt"
        files[name].write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run(["verify", *_exp_point_with({}), "--u-field", str(files["u"]),
                  "--v-field", str(files["v"]), "--tol", "1e-4", *flags,
                  "--report", str(tmp_path / "r.json")])
    assert rc == 1 and caught == [] and not (tmp_path / "r.json").exists()
    assert capsys.readouterr().err == f"error: {reason}\n"


@pytest.mark.parametrize("flags", [["--u-rate", "2", "--v-rate", "1"], ["--no-representation"]],
                         ids=["representation", "no-representation"])
def test_verify_refuses_pde_residuals_out_of_float_range(tmp_path, capsys, flags):
    # the zero-shift dumps with radii times 1e5 and v times 1e300: the right
    # sides stay finite, but -Delta v overflows in its flux form
    u, v = tmp_path / "u.txt", tmp_path / "v.txt"
    assert run(["solve", *_ALG_POINT, "--report", str(tmp_path / "s.json"),
                "--out-u", str(u), "--out-v", str(v)]) == 0
    for dump, scale in ((u, 1.0), (v, 1e300)):
        rows = [line.split() for line in dump.read_text().splitlines()[1:]]
        dump.write_text("# r value\n" + "".join(f"{float(r) * 1e5!r} {float(x) * scale!r}\n"
                                                 for r, x in rows))
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run(["verify", *_ALG_POINT, "--u-field", str(u), "--v-field", str(v),
                  "--tol", "1e-4", *flags, "--report", str(tmp_path / "r.json")])
    assert rc == 1 and caught == [] and not (tmp_path / "r.json").exists()
    assert capsys.readouterr().err == "error: the PDE residuals leave the float64 range\n"


def _run_fresh(code, cwd):
    """Run ``code`` in a fresh interpreter on this checkout, warnings as errors."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONWARNINGS": "error", "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, check=True, timeout=120)


def test_cli_import_leaves_scipy_out(tmp_path):
    # scipy is imported where a kernel, potential or solve first needs it
    _run_fresh("import sys, gmsteady.cli; "
               "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']", tmp_path)


def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path):
    # the package loads no submodule; region runs without the solver and
    # certificate stack, and solve without certificates
    _run_fresh(textwrap.dedent(f"""
        import sys
        import gmsteady
        assert not [m for m in sys.modules if m.startswith('gmsteady.') or m == 'numpy']
        from gmsteady.cli import main
        assert main(['region', '-N', '3', '--m', '5', '--sweep', 'p=1.1:6.0:50',
                     '--report', 'r.json', '--out-table', 'r.csv']) == 0
        stack = ['solvers', 'potentials', 'certificates', 'kernels', 'radial_core']
        assert not [m for m in stack if 'gmsteady.' + m in sys.modules]
        assert main(['solve', *{_EXP_POINT!r}, '--report', 's.json']) == 0
        assert 'gmsteady.solvers' in sys.modules
        assert 'gmsteady.certificates' not in sys.modules
        """), tmp_path)


def test_verify_loads_no_solver(tmp_path, exp_dumps):
    # a candidate pair is measured by potentials alone, whatever produced it
    _run_fresh(textwrap.dedent(f"""
        import sys
        from gmsteady.cli import main
        assert main(['verify', *{_EXP_POINT!r}, '--rho-amplitude', '1.5',
                     '--u-field', {str(exp_dumps / 'u.txt')!r},
                     '--v-field', {str(exp_dumps / 'v.txt')!r}, '--u-rate', '1',
                     '--v-rate', '1', '--tol', '1e-4', '--report', 'v.json']) == 0
        assert 'gmsteady.certificates' in sys.modules
        assert 'gmsteady.solvers' not in sys.modules
        """), tmp_path)


def test_kernel_loads_no_scipy_package_at_n3_and_n5(tmp_path):
    # kernels takes K_nu from _scaled_bessel, whose N = 3 and 5 orders are
    # closed forms, and integrates with Gauss pieces, so scipy.integrate
    # never loads; N = 4 takes Cephes' k1e from scipy.special
    _run_fresh(textwrap.dedent("""
        import sys
        from gmsteady.cli import main
        def scipy_modules():
            return [m for m in sys.modules if m.split('.')[0] == 'scipy']
        for n in ('3', '5'):
            assert main(['kernel', '-N', n, '--lam', '4', '--report', 'k.json',
                         '--out-table', 'k.csv']) == 0
            assert not scipy_modules(), scipy_modules()
        assert main(['kernel', '-N', '4', '--lam', '4', '--report', 'k.json']) == 0
        assert 'scipy.special' in sys.modules
        assert 'scipy.integrate' not in sys.modules
        """), tmp_path)


@pytest.mark.parametrize("point, changes, u_rate", [
    ([*_EXP_POINT, "--rho-amplitude", "1.5"], {}, "1"),
    ([*_EXP_POINT, "--rho-amplitude", "1.5"], {"-N": "5", "--mu": "32"}, "1"),
    (_ALG_POINT, {}, "2"),
], ids=["exp-N3", "exp-N5", "alg-N5"])
def test_solve_and_verify_load_no_scipy_package(tmp_path, point, changes, u_rate):
    # at N = 3 and 5 the shifted potential's Bessel factors are closed forms, and
    # dgtsv comes from scipy's _flapack extension file, so no scipy package is
    # imported; scipy.linalg, imported afterwards, agrees with it bit for bit
    flags = list(point)
    for name, value in changes.items():
        flags[flags.index(name) + 1] = value
    _run_fresh(textwrap.dedent(f"""
        import sys
        import numpy as np
        from gmsteady.cli import main
        from gmsteady.radial_core import _gtsv
        flags = {flags!r}
        assert main(['solve', *flags, '--report', 's.json', '--out-u', 'u.txt',
                     '--out-v', 'v.txt']) == 0
        assert main(['verify', *flags, '--u-field', 'u.txt', '--v-field', 'v.txt',
                     '--u-rate', {u_rate!r}, '--v-rate', '1', '--tol', '1e-4',
                     '--report', 'v.json']) == 0
        assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']
        import scipy.linalg
        rng = np.random.default_rng(5)
        for n in (2, 17, 400):
            ab = rng.random((3, n))
            ab[1] += 2.0
            b = rng.random(n)
            x = _gtsv(ab[2, :-1], ab[1], ab[0, 1:], b.copy())
            assert np.array_equal(x, scipy.linalg.solve_banded((1, 1), ab, b))
        zeros = np.zeros(5)
        try:
            _gtsv(zeros[:-1], zeros, zeros[:-1], np.ones(5))
            raise AssertionError('a singular system was solved')
        except np.linalg.LinAlgError as exc:
            assert str(exc) == 'singular matrix'
        """), tmp_path)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_solve_report_is_strict_json(tmp_path):
    # sigma ~ 1 - 3e-5: the ledger's epsilon overflows to inf
    report = tmp_path / "s.json"
    rc = run(["solve", "-N", "8", "--p", "1.454301091668461", "--q", "3.799950782391188",
              "--m", "0.34392977928354646", "--s", "1.876857468403601", "--rho", "alg",
              "--alpha", "0.01", "--beta", "0.015", "--rate", "7.879799343259501",
              "--report", str(report)])
    assert rc == 0
    payload = json.loads(report.read_text(), parse_constant=_reject_constant)
    assert payload["verdict"]["ledger"]["aux"]["epsilon"] == "inf"


@pytest.mark.parametrize("args", [["-N", "4", "--lam", "1e-8"],
                                  *(["-N", str(n), "--lam", "1e-20"] for n in range(3, 8))])
def test_kernel_small_shift_mass(tmp_path, args):
    # the mass quadrature runs in x = sqrt(lam) r, so a kernel spread far
    # beyond r = 1 costs it nothing
    report = tmp_path / "k.json"
    assert run(["kernel", *args, "--report", str(report)]) == 0
    payload = json.loads(report.read_text())
    lam = payload["lam"]
    assert abs(payload["mass_integral"] - 1.0 / lam) <= 1e-8 / lam


@pytest.mark.parametrize("lam", ["nan", "inf", "5.5e5", "1e6"])
def test_kernel_bad_shift_exit_code(tmp_path, capsys, lam):
    # nan and inf are rejected up front; on the default r grid the
    # near-field ratio is subnormal at 5.5e5 (its reciprocal overflows)
    # and underflows to 0 at 1e6
    rc = run(["kernel", "--lam", lam, "--report", str(tmp_path / "k.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert not (tmp_path / "k.json").exists()


@pytest.mark.parametrize("n", [70, 80, 88, 100, 112, 113, 120])
def test_kernel_mass_at_high_dimension(tmp_path, capsys, n):
    # the mass is met to rounding up to N = 112, past the N = 88 where the
    # scaled K_nu overflows at its smallest Gauss nodes; from N = 113 the
    # kernel values on the default radii leave float64 and are refused
    report = tmp_path / "k.json"
    rc = run(["kernel", "-N", str(n), "--lam", "4", "--report", str(report)])
    if n > 112:
        assert rc == 1 and not report.exists()
        assert capsys.readouterr().err == (
            "error: kernel values leave float64 range on the requested radii\n")
    else:
        assert rc == 0
        assert abs(4.0 * json.loads(report.read_text())["mass_integral"] - 1.0) <= 1e-13


def _config(tmp_path, text):
    conf = tmp_path / "run.conf"
    conf.write_text(text)
    return ["--config", str(conf)]


def test_config_explicit_flag_wins_at_its_default(tmp_path):
    # -N 3 and --lam 1 are the kernel defaults; the file must not beat them
    report = tmp_path / "k.json"
    conf = _config(tmp_path, "dimension = 5\nlam = 4\n")
    assert run(["kernel", "-N", "3", "--lam", "1", *conf, "--report", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert (payload["dimension"], payload["lam"]) == (3, 1.0)


def test_config_sweeps_add_to_flag_sweeps(tmp_path):
    table = tmp_path / "t.csv"
    conf = _config(tmp_path, "sweep = p=1.1:6:5\n")
    rc = run(["region", "--m", "5", *conf, "--report", str(tmp_path / "r.json"),
              "--out-table", str(table)])
    assert rc == 0
    with open(table, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "p", "status", "tag"]
    assert [row[1] for row in rows[1:]] == [str(v) for v in np.linspace(1.1, 6.0, 5)]

    rc = run(["region", *conf, "--sweep", "m=1,5", "--report", str(tmp_path / "r.json"),
              "--out-table", str(table)])
    assert rc == 0
    with open(table, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "p", "m", "status", "tag"] and len(rows) == 11


@pytest.mark.parametrize("conf_text, flags", [
    (None, ["--sweep", "p=1.1,2", "--sweep", "p=3,4"]),
    ("sweep = p=1.1,2\n", ["--sweep", "p=3,4"]),
])
def test_region_repeated_sweep_name_exit_code(tmp_path, capsys, conf_text, flags):
    conf = _config(tmp_path, conf_text) if conf_text else []
    report, table = tmp_path / "r.json", tmp_path / "r.csv"
    rc = run(["region", "-N", "3", "--m", "5", *conf, *flags, "--report", str(report),
              "--out-table", str(table)])
    assert rc == 1
    _assert_one_line_error(capsys)
    assert not report.exists() and not table.exists()


def test_config_paths_are_text(tmp_path, monkeypatch):
    # "1" and "2" are file names, not file descriptors
    monkeypatch.chdir(tmp_path)
    conf = _config(tmp_path, "report = 1\nout_table = 2\n")
    assert run(["kernel", "--r-count", "5", *conf]) == 0
    assert json.loads((tmp_path / "1").read_text())["rows"] == 5
    assert (tmp_path / "2").read_text().startswith("r,value,mass_identity")


@pytest.mark.parametrize("line", ["func = x", "command = solve", "force = maybe",
                                  "force = true", "help = 1", "config = other.conf",
                                  "n = 3"])
def test_config_key_that_is_no_flag_exit_code(tmp_path, capsys, line):
    rc = run(["solve", *_EXP_POINT, *_config(tmp_path, f"# comment\n{line}\n"),
              "--report", str(tmp_path / "s.json")])
    assert rc == 1
    _assert_one_line_error(capsys)
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("grid_flags", [["--h0", "0.5"], ["--stretch", "1.3"]])
def test_solve_grid_flags_need_radius(tmp_path, capsys, grid_flags):
    rc = run(["solve", *_EXP_POINT, *grid_flags, "--report", str(tmp_path / "s.json")])
    assert rc == 1
    _assert_one_line_error(capsys)
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("line", ["h0 = 0.5", "stretch = 1.3"])
def test_solve_grid_keys_need_radius(tmp_path, capsys, line):
    rc = run(["solve", *_EXP_POINT, *_config(tmp_path, line + "\n"),
              "--report", str(tmp_path / "s.json")])
    assert rc == 1
    _assert_one_line_error(capsys)


def _assert_argparse_refusal(capsys, last):
    """stderr is argparse's usage, then one error line: ``last``."""
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines[-1] == last
    assert lines[0].startswith("usage: gmsteady ")
    assert [line for line in lines if line.startswith("error:")] == [last]


@pytest.mark.parametrize("flag", [
    ["--q", "1"], ["--m", "1"], ["--lam", "4096"], ["--mu", "16"], ["--rho", "exp"],
    ["--alpha", "1"], ["--beta", "2"], ["--rate", "1"], ["--rho-amplitude", "1.5"],
    ["--u-field", "u.txt"], ["--v-field", "v.txt"], ["--u-rate", "0"], ["--v-rate", "1"],
    ["--no-representation"]], ids=lambda flag: flag[0])
def test_cor3_refuses_the_flags_it_does_not_read(tmp_path, capsys, flag):
    # the closed-form check reads no problem flag beyond N, p and s, and no dump
    rc = run(["cor3", "-N", "3", "--p", "6", "--s", "1", *flag,
              "--report", str(tmp_path / "c.json")])
    assert rc == 1
    _assert_argparse_refusal(capsys, f"error: unrecognized arguments: {' '.join(flag)}")
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("flag", [["--cor3"], ["--amplitude", "3"], ["--radius", "20"],
                                  ["--nodes", "17"]], ids=lambda flag: flag[0])
def test_verify_refuses_the_flags_of_cor3(tmp_path, capsys, exp_dumps, flag):
    # the README verify, given a flag that only the closed-form check reads
    rc = run(["verify", *_EXP_POINT, "--rho-amplitude", "1.5",
              "--u-field", str(exp_dumps / "u.txt"), "--v-field", str(exp_dumps / "v.txt"),
              "--u-rate", "1", "--v-rate", "1", "--tol", "1e-4", *flag,
              "--report", str(tmp_path / "v.json")])
    assert rc == 1
    _assert_argparse_refusal(capsys, f"error: unrecognized arguments: {' '.join(flag)}")
    assert not (tmp_path / "v.json").exists()


def test_verify_config_key_cor3_is_unknown(tmp_path, capsys, exp_dumps):
    report = tmp_path / "v.json"
    rc = run(["verify", *_exp_point_with({}), "--u-field", str(exp_dumps / "u.txt"),
              "--v-field", str(exp_dumps / "v.txt"), "--u-rate", "1", "--v-rate", "1",
              "--tol", "1e-4", *_config(tmp_path, "cor3 = true\n"), "--report", str(report)])
    assert rc == 1
    assert capsys.readouterr().err == "error: config line 1: unknown key 'cor3'\n"
    assert not report.exists()


def test_verify_reads_dumps_named_in_a_config_file(tmp_path, capsys, exp_dumps):
    # verify, not argparse, requires the dumps: main parses the command line
    # once before it reads the config file that may name them
    report = tmp_path / "v.json"
    verify = ["verify", *_exp_point_with({}), "--u-rate", "1", "--v-rate", "1", "--tol", "1e-4",
              "--report", str(report)]
    u_line = f"u-field = {exp_dumps / 'u.txt'}\n"
    assert run([*verify, *_config(tmp_path, u_line + f"v_field = {exp_dumps / 'v.txt'}\n")]) == 0
    assert run([*verify, *_config(tmp_path, u_line)]) == 1
    assert capsys.readouterr().err == "error: verify needs both --u-field and --v-field\n"


def _long_flag_prefixes():
    """For each long flag of each subcommand, the flag's proper prefixes from
    "--" and one letter on that are not themselves flags there."""
    cases = []
    for name, parser in build_parser().commands.items():
        flags = [flag for flag in parser._option_string_actions if flag.startswith("--")]
        for flag in flags:
            prefixes = [flag[:k] for k in range(3, len(flag)) if flag[:k] not in flags]
            if prefixes:
                cases.append(pytest.param(name, prefixes, id=f"{name}{flag}"))
    return cases


@pytest.mark.parametrize("command, prefixes", _long_flag_prefixes())
def test_a_proper_prefix_of_a_long_flag_exits_1(capsys, command, prefixes):
    # argparse would read a unique prefix as its flag; a flag is read by its
    # whole name only, as a config key is
    for prefix in prefixes:
        assert run([command, prefix, "1"]) == 1, prefix
        _assert_argparse_refusal(capsys, f"error: unrecognized arguments: {prefix} 1")


def test_config_switch_values(tmp_path, capsys, exp_dumps):
    report = tmp_path / "v.json"
    # the README verify without its decay rates, which the representation checks need
    base = ["verify", *_exp_point_with({}), "--u-field", str(exp_dumps / "u.txt"),
            "--v-field", str(exp_dumps / "v.txt"), "--tol", "1e-4", "--report", str(report)]
    for value in ("true", "Yes", "1"):
        assert run([*base, *_config(tmp_path, f"no-representation = {value}\n")]) == 0
        assert json.loads(report.read_text())["certificate"]["rep_residual_u"] is None
    for value in ("false", "NO", "0"):
        assert run([*base, *_config(tmp_path, f"no_representation = {value}\n")]) == 1
        assert "--no-representation" in capsys.readouterr().err
    assert run([*base, *_config(tmp_path, "no-representation = maybe\n")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "no-representation" in err and "'maybe'" in err


def _assert_one_line_unconverged(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("unconverged: ")
    return lines[0]


@pytest.mark.parametrize("point, flag, reason", [
    (_EXP_POINT, "--u-rate", "W profile requires rate > 0, got 0.0"),
    (_EXP_POINT, "--v-rate", "W profile requires rate > 0, got 0.0"),
    (_ALG_POINT, "--u-rate", "right-hand sides do not decay; representation undefined"),
])
def test_verify_rate_zero_is_used(tmp_path, capsys, point, flag, reason):
    u, v = str(tmp_path / "u.txt"), str(tmp_path / "v.txt")
    assert run(["solve", *point, "--report", str(tmp_path / "s.json"),
                "--out-u", u, "--out-v", v]) == 0
    capsys.readouterr()
    rates = {"--u-rate": "1", "--v-rate": "1", flag: "0"}
    rc = run(["verify", *point, "--u-field", u, "--v-field", v,
              *[token for pair in rates.items() for token in pair],
              "--report", str(tmp_path / "v.json")])
    assert rc == 1
    assert capsys.readouterr().err.strip().splitlines() == [f"error: {reason}"]


@pytest.mark.filterwarnings("error")
def test_verify_huge_shift_exits_with_the_piece_count(tmp_path, capsys):
    # the README exp dumps re-verified at lam = 1e100: the shifted potential
    # would need sqrt(lam) (R + h)/8 Gauss pieces, 8 e-folds each, over the
    # ball and its one tail interval of the last span h, and is refused
    # before any is built
    u, v = str(tmp_path / "u.txt"), str(tmp_path / "v.txt")
    assert run(["solve", *_EXP_POINT, "--rho-amplitude", "1.5",
                "--report", str(tmp_path / "s.json"), "--out-u", u, "--out-v", v]) == 0
    capsys.readouterr()
    huge = [*_EXP_POINT[:3], "1e100", *_EXP_POINT[4:], "--rho-amplitude", "1.5"]
    rc = run(["verify", *huge, "--u-field", u, "--v-field", v, "--u-rate", "1",
              "--v-rate", "1", "--tol", "1e-4", "--report", str(tmp_path / "v.json")])
    assert rc == 1
    r = read_field(u).grid.nodes
    pieces = 1e50 * (r[-1] + (r[-1] - r[-2])) / 8.0
    assert capsys.readouterr().err.strip().splitlines() == [
        f"error: the shifted potential needs {pieces:.4g} Gauss pieces, "
        "more than the cap of 1000000"]


def test_verify_fields_unconverged_reason(tmp_path, capsys):
    u, v = str(tmp_path / "u.txt"), str(tmp_path / "v.txt")
    assert run(["solve", *_EXP_POINT, "--report", str(tmp_path / "s.json"),
                "--out-u", u, "--out-v", v]) == 0
    rc = run(["verify", *_EXP_POINT, "--u-field", u, "--v-field", v, "--u-rate", "1",
              "--v-rate", "1", "--tol", "1e-12", "--report", str(tmp_path / "v.json")])
    assert rc == 3
    line = _assert_one_line_unconverged(capsys)
    assert line.startswith("unconverged: rep_residual_v ") and line.endswith("> --tol 1e-12")


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
@pytest.mark.parametrize("command", [
    ["cor3", "-N", "3", "--p", "6", "--s", "1"],
    # dumps that do not exist: --tol is refused before any is read
    ["verify", *_EXP_POINT, "--rho-amplitude", "1.5", "--u-field", "no-u.txt",
     "--v-field", "no-v.txt", "--u-rate", "1", "--v-rate", "1"],
], ids=["cor3", "verify"])
@pytest.mark.parametrize("as_key", [False, True], ids=["flag", "config"])
def test_tol_that_is_not_finite_and_nonnegative_exits_1(tmp_path, capsys, command, tol, as_key):
    # nan and negative --tol pass no residual, inf passes an infinite one
    report = tmp_path / "v.json"
    given = _config(tmp_path, f"tol = {tol}\n") if as_key else ["--tol", tol]
    assert run([*command, *given, "--report", str(report)]) == 1
    _assert_argparse_refusal(
        capsys, f"error: argument --tol: must be finite and >= 0, got {float(tol):g}")
    assert not report.exists()


@pytest.mark.parametrize("rates, missing", [([], "--u-rate and --v-rate"),
                                            (["--u-rate", "1"], "--v-rate"),
                                            (["--v-rate", "1"], "--u-rate")],
                         ids=["none", "u-only", "v-only"])
def test_verify_representation_names_the_missing_rates(tmp_path, capsys, exp_dumps, rates,
                                                       missing):
    # the representation checks close each tail with a declared decay rate
    report = tmp_path / "v.json"
    verify = ["verify", *_exp_point_with({}), "--u-field", str(exp_dumps / "u.txt"),
              "--v-field", str(exp_dumps / "v.txt"), "--tol", "1e-4", "--report", str(report)]
    assert run([*verify, *rates]) == 1
    assert capsys.readouterr().err == (
        f"error: the representation checks need {missing} (or --no-representation to skip them)\n")
    assert not report.exists()
    assert run([*verify, "--no-representation"]) == 0


@pytest.mark.parametrize("rates, given", [(["--u-rate", "1", "--v-rate", "1"],
                                           "--u-rate and --v-rate"),
                                          (["--u-rate", "1"], "--u-rate"),
                                          (["--v-rate", "1"], "--v-rate")],
                         ids=["both", "u-only", "v-only"])
@pytest.mark.parametrize("as_key", [False, True], ids=["flag", "config-key"])
def test_verify_no_representation_refuses_the_rates(tmp_path, capsys, exp_dumps, rates, given,
                                                    as_key):
    # only the representation checks read the declared decay rates
    report = tmp_path / "v.json"
    if as_key:
        rates = _config(tmp_path, "".join(f"{flag[2:]} = {value}\n"
                                          for flag, value in zip(rates[::2], rates[1::2])))
    assert run(["verify", *_exp_point_with({}), "--u-field", str(exp_dumps / "u.txt"),
                "--v-field", str(exp_dumps / "v.txt"), *rates, "--no-representation",
                "--report", str(report)]) == 1
    assert capsys.readouterr().err == (
        f"error: --no-representation skips the checks that read {given}\n")
    assert not report.exists()


_ZERO_SOURCE_RUNS = {
    "region": ["region", "-N", "3", "--m", "5", "--sweep", "p=1.1:6.0:5", "--rho", "zero"],
    "solve": ["solve", "-N", "3", "--lam", "4096", "--mu", "16", "--rho", "zero"],
    "verify": ["verify", "-N", "3", "--lam", "4096", "--mu", "16", "--rho", "zero",
               "--no-representation"],
}


# (command, value, how it is given); region takes no --rho-amplitude
_ZERO_SOURCE_CASES = [
    (command, name, given) for command in _ZERO_SOURCE_RUNS
    for name in ("alpha", "beta", "rate", *(("rho-amplitude",) if command != "region" else ()))
    for given in ("flag", "config-key", *(("sweep",) if command == "region" else ()))]


@pytest.mark.parametrize("command, name, given", _ZERO_SOURCE_CASES,
                         ids=["-".join(case) for case in _ZERO_SOURCE_CASES])
def test_rho_zero_refuses_the_values_of_an_envelope(tmp_path, capsys, exp_dumps, command, name,
                                                    given):
    # the zero source reads no envelope value and no amplitude, so each one
    # given is refused with one line, at its default value as at any other
    args = [*_ZERO_SOURCE_RUNS[command], "--report", str(tmp_path / "r.json")]
    if command == "verify":
        args += ["--u-field", str(exp_dumps / "u.txt"), "--v-field", str(exp_dumps / "v.txt")]
    if given == "flag":
        args += [f"--{name}", "1"]
    elif given == "config-key":
        args += _config(tmp_path, f"{name.replace('-', '_')} = 1\n")
    else:
        args += ["--sweep", f"{name}=1:5:3"]
    assert run(args) == 1
    flag = f"--sweep {name}" if given == "sweep" else f"--{name}"
    assert capsys.readouterr().err == (
        f"error: --rho zero reads no {flag}; only --rho exp and alg do\n")
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("key, first, second", [
    ("rho_amplitude", ["--rho-amplitude", "1.2"], ["--rho-amplitude", "1.8"]),
    ("radius", ["--radius", "30"], ["--radius", "31"]),
    ("h0", ["--radius", "30", "--h0", "0.02"], ["--radius", "30", "--h0", "0.03"]),
    ("stretch", ["--radius", "30", "--stretch", "1.02"], ["--radius", "30", "--stretch", "1.03"]),
], ids=["rho-amplitude", "radius", "h0", "stretch"])
def test_solve_parameters_record_each_input(tmp_path, key, first, second):
    # two solves that differ in one input write parameters that differ in
    # that input's value alone
    params = []
    for k, extra in enumerate((first, second)):
        report = tmp_path / f"{k}.json"
        assert run(["solve", *_EXP_POINT, *extra, "--report", str(report)]) in (0, 3)
        params.append(json.loads(report.read_text())["parameters"])
    assert [key] == [name for name in params[0] if params[0][name] != params[1][name]]
    assert [p[key] for p in params] == [float(first[-1]), float(second[-1])]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [1e-320, 1e308])
def test_verify_v_value_at_a_float_range_end_reads_an_infinite_convr_bound(tmp_path, capsys,
                                                                           exp_dumps, value):
    # one v value beyond R/2, which the PDE residuals do not read, at either
    # end of the float64 range: r |v'| / v overflows there, so the gradient
    # criterion reads inf and does not hold
    v = read_field(exp_dumps / "v.txt")
    values = v.values.copy()
    values[np.flatnonzero(v.grid.nodes > 0.75 * v.grid.radius)[0]] = value
    write_field(RadialField(v.grid, values), tmp_path / "v.txt")
    report = tmp_path / "r.json"
    assert run(["verify", *_exp_point_with({}), "--u-field", str(exp_dumps / "u.txt"),
                "--v-field", str(tmp_path / "v.txt"), "--tol", "1e-4", "--no-representation",
                "--report", str(report)]) == 0
    cert = json.loads(report.read_text())["certificate"]
    assert (cert["convr_bound"], cert["convr_holds"]) == ("inf", False)
    assert capsys.readouterr().err == ""


def test_solve_unconverged_reason(tmp_path, capsys):
    # the zero-shift worked case on a ball of radius 20 stops at max-iterations
    report = tmp_path / "s.json"
    rc = run(["solve", *_ALG_POINT, "--radius", "20", "--h0", "0.05", "--report", str(report)])
    assert rc == 3
    status = json.loads(report.read_text())["solve"]["status"]
    assert status == "max-iterations"
    assert _assert_one_line_unconverged(capsys) == f"unconverged: {status}"


def _key_paths(report, prefix=""):
    paths = []
    for key, value in report.items():
        if isinstance(value, dict):
            paths += _key_paths(value, f"{prefix}{key}.")
        else:
            paths.append(prefix + key)
    return sorted(paths)


_HEADER = ["command", "timestamp", "version"]
_CERTIFICATE_KEYS = ["convr_bound", "convr_holds", "decay_u", "decay_v", "flags",
                     "pde_residual_u", "pde_residual_v", "rep_residual_u", "rep_residual_v"]
_COR3_KEYS = ["amplitude", "dimension", "grid_nodes", "grid_radius", "m", "p", "q",
              "residual_u", "residual_v", "s"]
_SOLVE_KEYS = (
    [f"parameters.{k}" for k in ("alpha", "beta", "dimension", "h0", "lam", "m", "mu", "p",
                                 "q", "radius", "rate", "rho", "rho_amplitude", "s",
                                 "stretch")]
    + [f"rho_divergence.{k}" for k in ("growth_law", "shell_sums", "value", "verdict")]
    + [f"solve.{k}" for k in ("ball_radius", "decay.u", "decay.v", "iterations", "margins.u",
                              "margins.v", "notes", "residual_u", "residual_v",
                              "status", "truncation_bound")]
    + ["verdict.advisories"]
    + [f"verdict.ledger.aux.{k}" for k in ("alpha", "beta", "c0", "lambda", "mu", "sigma")]
    + [f"verdict.ledger.{k}" for k in ("feasible", "m1_lower", "m1_upper", "m2_lower",
                                       "m2_upper", "rate_u", "rate_v", "regime", "violated")]
    + ["verdict.reason", "verdict.status", "verdict.tag"]
)


def test_report_key_paths(tmp_path):
    def report(name, args):
        path = tmp_path / f"{name}.json"
        assert run([*args, "--report", str(path)]) == 0
        return _key_paths(json.loads(path.read_text()))

    u, v = str(tmp_path / "u.txt"), str(tmp_path / "v.txt")
    assert report("kernel", ["kernel", "-N", "3", "--lam", "4"]) == sorted(
        _HEADER + ["c1", "c2", "dimension", "expected_mass", "lam", "mass_integral", "rows"])
    assert report("region", ["region", "-N", "3", "--m", "5", "--sweep", "p=1.1:6.0:50"]) == sorted(
        _HEADER + ["counts.nonexistence:Theorem 1.2(i)", "counts.unknown", "dimension",
                   "points", "rho", "sweeps.p"])
    assert report("solve", ["solve", *_EXP_POINT, "--rho-amplitude", "1.5",
                            "--out-u", u, "--out-v", v]) == sorted(_HEADER + _SOLVE_KEYS)
    assert report("verify", ["verify", *_EXP_POINT, "--rho-amplitude", "1.5", "--u-field", u,
                             "--v-field", v, "--u-rate", "1", "--v-rate", "1",
                             "--tol", "1e-4"]) == sorted(
        _HEADER + [f"certificate.{k}" for k in _CERTIFICATE_KEYS])
    assert report("cor3", ["cor3", "-N", "3", "--p", "6", "--s", "1"]) == sorted(
        _HEADER + [f"certificate.{k}" for k in _COR3_KEYS])


class _Colour(enum.Enum):
    RED = "red"


@dataclasses.dataclass
class _Inner:
    colour: _Colour
    pair: tuple


@dataclasses.dataclass
class _Outer:
    inner: _Inner
    values: list
    table: dict
    hidden: object = dataclasses.field(default=None, metadata={"report": False})


def test_jsonable_converts_each_kind():
    obj = _Outer(_Inner(_Colour.RED, (1.0, np.float64(-math.inf))),
                 [math.nan, 2, "x", None, True], {"k": (math.inf, 0.5)}, hidden=object())
    assert _jsonable(obj) == {
        "inner": {"colour": "red", "pair": [1.0, "-inf"]},
        "values": ["nan", 2, "x", None, True],
        "table": {"k": ["inf", 0.5]},
    }
    assert _jsonable(_Colour.RED) == "red"
    json.dumps(_jsonable(obj), allow_nan=False)


# main builds the arguments of the subcommand it runs alone; help and
# usage text must read as they do with every subcommand built
@pytest.mark.parametrize("command", ["region", "solve", "verify", "cor3", "kernel"])
def test_one_subcommand_parser_reads_as_the_full_one(command, capsys):
    full, one = build_parser(), build_parser(command)
    assert one.format_help() == full.format_help()
    assert one.format_usage() == full.format_usage()
    assert one.commands[command].format_help() == full.commands[command].format_help()
    for name, parser in one.commands.items():
        # every subcommand keeps its handler; the others get no arguments
        assert parser.get_default("func") is full.commands[name].get_default("func")
        if name != command:
            assert [a.dest for a in parser._actions] == ["help"]
    assert main([command, "--help"]) == 0
    assert capsys.readouterr().out == full.commands[command].format_help()


@pytest.mark.parametrize("argv, lines", [
    (["bogus"], ["error: argument command: invalid choice: 'bogus' "
                 "(choose from 'region', 'solve', 'verify', 'cor3', 'kernel')"]),
    ([], ["error: the following arguments are required: command"]),
    (["--bogus"], ["error: the following arguments are required: command"]),
])
def test_unknown_subcommand_exits_1_with_the_usage_line(argv, lines, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [build_parser().format_usage().strip(), *lines]
