"""Seeded inputs, one operation, output checks and cold-start commands per workload.

Every workload follows the same shape:

* the constructor ``Workload(seed, short)`` makes the inputs from the
  seed alone (``short`` shrinks them for the smoke test);
* ``prepare()`` computes what the checks compare against (reference
  solves); it runs outside set-up and outside timing;
* ``op(tmpdir)`` is one timed operation and returns an opaque result;
* ``check(result)`` returns a :class:`Verdict` for that result;
* ``cold_commands(tmpdir)`` lists the ``gmsteady`` CLI argument vectors
  a user would run for the workload from a fresh process;
* ``points_per_op`` and ``warmup_ops`` size the throughput and warm-up;
* ``nominal_op_s`` (an operation's time on a 2-vCPU VM) sets how many
  operations a run of a given length makes;
* ``reference`` names the reference kernel operation times are divided
  by (see run.py): ``pool`` for the thread-pooled ``region``, ``serial``
  for the single-threaded solves.

A *failure* is an exception, a non-zero exit or a failed output check.
``wrong`` marks the subset of failed checks where an output disagrees
with an independent recomputation (a wrong answer rather than a result
the program itself declines), which makes the run's ``correct`` false.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

from gmsteady import certificates, cli, solvers
from gmsteady.barriers import (
    Exponents,
    Problem,
    SourceModel,
    VerdictStatus,
    alg_regime_ledger,
    classify,
)
from gmsteady.profiles import BarrierFamily, BarrierProfile, eval_barrier
from gmsteady.solvers import SolveStatus

#: ``verify --tol`` used in the README's worked example.
VERIFY_TOL = 1e-4
#: A returned field further than this from the tightened reference solve
#: (relative sup distance) is a wrong answer, not a slower one.
SOL_ERR_WRONG = 1e-2
#: Reference solves divide both solver tolerances by this factor.
REF_TIGHTEN = 1000.0
#: Rows of each region CSV re-classified by the benchmark per operation.
REGION_SAMPLE_ROWS = 64


@dataclass
class Verdict:
    failures: list = field(default_factory=list)  # names of failed checks
    wrong: bool = False
    sol_err_rel: float | None = None

    def fail(self, name, wrong=False):
        self.failures.append(name)
        self.wrong = self.wrong or wrong


def _lattice_range(rng, lo, hi, count):
    """Seeded sweep endpoints: [lo, hi] less a seeded part of one step at each end.

    Every lattice spans the whole parameter box, so the mix of verdict
    branches, and with it the cost of an operation, is nearly the same
    for every seed, while each node's position depends on the seed.
    """
    step = (hi - lo) / (count - 1)
    return lo + float(rng.uniform(0.0, step)), hi - float(rng.uniform(0.0, step))


class RegionLattice:
    """Two in-process ``gmsteady region`` calls per operation.

    The first sweeps p x q in the positive-shift regime with an
    exponential source (lambda = 4096, mu = 16); the second sweeps
    p x rate in the zero-shift regime with an algebraic source (the
    zero-shift worked case's N, q, m, s, alpha and beta).
    """

    name = "region-lattice"
    # each call re-parses its arguments and classifies every point afresh:
    # there is no cache or lazy state for an untimed op to warm
    warmup_ops = 0
    nominal_op_s = 1.5
    reference = "pool"
    #: lattice points per swept parameter
    SIDE = 100
    # (fixed CLI arguments, ((swept name, box low, box high), ...))
    LATTICES = (
        (["-N", "3", "--lam", "4096", "--mu", "16", "--m", "1", "--s", "0",
          "--rho", "exp", "--alpha", "1", "--beta", "2", "--rate", "1"],
         (("p", 0.5, 6.0), ("q", 0.1, 4.0))),
        (["-N", "5", "--q", "2", "--m", "2", "--s", "1",
          "--rho", "alg", "--alpha", "0.01", "--beta", "0.015"],
         (("p", 1.2, 9.0), ("rate", 2.0, 5.0))),
    )

    def __init__(self, seed, short=False):
        rng = np.random.default_rng(seed)
        count = 12 if short else self.SIDE
        self.calls = []  # argument vectors without output paths
        for fixed, sweeps in self.LATTICES:
            args = ["region", *fixed]
            for pname, lo, hi in sweeps:
                a, b = _lattice_range(rng, lo, hi, count)
                args += ["--sweep", f"{pname}={a!r}:{b!r}:{count}"]
            self.calls.append(args)
        self.sample_seed = seed
        self.points_per_op = len(self.calls) * count * count

    def prepare(self):
        pass

    def op(self, tmpdir):
        outcomes = []
        for k, args in enumerate(self.calls):
            table = os.path.join(tmpdir, f"region{k}.csv")
            report = os.path.join(tmpdir, f"region{k}.json")
            for path in (table, report):
                if os.path.exists(path):
                    os.remove(path)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main([*args, "--out-table", table, "--report", report])
            outcomes.append((args, code, table, report, err.getvalue()))
        return outcomes

    def check(self, outcomes):
        verdict = Verdict()
        rng = np.random.default_rng(self.sample_seed)
        for k, (args, code, table, report, err) in enumerate(outcomes):
            if code != 0:
                verdict.fail(f"region[{k}] exit {code}: {err.strip().splitlines()[-1:]}")
                continue
            with open(report, encoding="utf-8") as fh:
                counts = json.load(fh)["counts"]
            with open(table, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            header, rows = rows[0], rows[1:]
            expected = 1
            for spec in args[args.index("--sweep") + 1::2]:
                expected *= int(spec.rsplit(":", 1)[1])
            if sum(counts.values()) != expected or len(rows) != expected:
                verdict.fail(f"region[{k}] counts", wrong=True)
                continue
            for i in rng.choice(len(rows), size=min(REGION_SAMPLE_ROWS, len(rows)), replace=False):
                row = dict(zip(header, rows[i]))
                got = (row["status"], row["tag"])
                if got != _classify_region_row(args, row):
                    verdict.fail(f"region[{k}] row {i} differs from classify", wrong=True)
                    break
        return verdict

    def cold_commands(self, tmpdir):
        # the README's 50-point sweep
        return [["region", "-N", "3", "--m", "5", "--sweep", "p=1.1:6.0:50",
                 "--report", os.path.join(tmpdir, "cold.json"),
                 "--out-table", os.path.join(tmpdir, "cold.csv")]]


def _classify_region_row(args, row):
    """Scalar ``classify`` at one CSV row, built without the CLI."""
    vals = {"N": 3.0, "p": 2.0, "q": 1.0, "m": 1.0, "s": 0.0, "lam": 0.0, "mu": 0.0,
            "alpha": 1.0, "beta": 2.0, "rate": 1.0}
    kind = "zero"
    it = iter(args[1:])
    for flag in it:
        value = next(it)
        if flag == "--rho":
            kind = value
        elif flag != "--sweep":
            vals[flag.lstrip("-")] = float(value)
    for key in row:
        if key in vals:
            vals[key] = float(row[key])
    if kind == "exp":
        rho = SourceModel.exp_envelope(vals["alpha"], vals["beta"], vals["rate"])
    else:
        rho = SourceModel.alg_envelope(vals["alpha"], vals["beta"], vals["rate"])
    problem = Problem(int(vals["N"]), vals["lam"], vals["mu"], rho)
    verdict = classify(problem, Exponents(vals["p"], vals["q"], vals["m"], vals["s"]))
    return verdict.status.value, verdict.tag or ""


@dataclass
class Point:
    problem: Problem
    exponents: Exponents
    ledger: object
    tol_residual: float | None = None  # None: the solver's default
    reference: tuple | None = None  # (u, v) values of the tightened solve


def _existence_ledger(problem, exponents):
    verdict = classify(problem, exponents)
    if verdict.status is VerdictStatus.EXISTENCE_GUARANTEED:
        return verdict.ledger
    return None


def _sup_rel(values, ref):
    return float(np.max(np.abs(values - ref)) / np.max(np.abs(ref)))


def _sandwich_ok(values, ledger_lo, ledger_hi, rate, family, nodes):
    env = np.asarray(eval_barrier(BarrierProfile(family, rate), nodes), dtype=float)
    ratios = values / (ledger_lo * env)
    return ratios.min() >= 1.0 - 1e-9 and ratios.max() <= (ledger_hi / ledger_lo) * (1.0 + 1e-9)


class _SolveVerify:
    """One pass = solve then verify (with representation) at every point."""

    # looked up on the module at call time, so the tracer's wrappers apply
    solver_name = None
    family = None
    warmup_ops = 1
    reference = "serial"

    def solve(self, *args, **kwargs):
        return getattr(solvers, self.solver_name)(*args, **kwargs)

    @property
    def points_per_op(self):
        return len(self.points)

    def prepare(self):
        for pt in self.points:
            tol = pt.tol_residual if pt.tol_residual is not None else self.default_tol
            ref = self.solve(pt.problem, pt.exponents, pt.ledger,
                             tol_residual=tol / REF_TIGHTEN,
                             tol_change=1e-9 / REF_TIGHTEN)
            pt.reference = (ref.u.values, ref.v.values)

    def op(self, tmpdir):
        out = []
        for pt in self.points:
            kwargs = {} if pt.tol_residual is None else {"tol_residual": pt.tol_residual}
            rep = self.solve(pt.problem, pt.exponents, pt.ledger, **kwargs)
            cert = certificates.verify_solution(pt.problem, pt.exponents, rep.u, rep.v, representation=True)
            out.append((rep, cert))
        return out

    def check(self, results):
        verdict = Verdict(sol_err_rel=0.0)
        for k, (pt, (rep, cert)) in enumerate(zip(self.points, results)):
            led = pt.ledger
            if rep.status is not SolveStatus.CONVERGED:
                verdict.fail(f"point {k} status {rep.status.value}")
            nodes = rep.u.grid.nodes
            if not (_sandwich_ok(rep.u.values, led.m1_lower, led.m1_upper, led.rate_u, self.family, nodes)
                    and _sandwich_ok(rep.v.values, led.m2_lower, led.m2_upper, led.rate_v, self.family, nodes)):
                verdict.fail(f"point {k} outside the ledger sandwich", wrong=True)
            if not cert.max_residual() <= VERIFY_TOL:
                worst = max(("pde_residual_u", "pde_residual_v", "rep_residual_u", "rep_residual_v"),
                            key=lambda n: getattr(cert, n) or 0.0)
                verdict.fail(f"point {k} verify {worst} {getattr(cert, worst):.2e} > {VERIFY_TOL:g}")
            ref_u, ref_v = pt.reference
            if rep.u.values.shape != ref_u.shape:
                verdict.fail(f"point {k} grid differs from reference", wrong=True)
                continue
            err = max(_sup_rel(rep.u.values, ref_u), _sup_rel(rep.v.values, ref_v))
            verdict.sol_err_rel = max(verdict.sol_err_rel, err)
            if not err <= SOL_ERR_WRONG:
                verdict.fail(f"point {k} sol_err_rel {err:.2e} > {SOL_ERR_WRONG:g}", wrong=True)
        return verdict

    def cold_commands(self, tmpdir):
        u, v = os.path.join(tmpdir, "u.txt"), os.path.join(tmpdir, "v.txt")
        return [
            ["solve", *self.WORKED_ARGS, "--report", os.path.join(tmpdir, "solve.json"),
             "--out-u", u, "--out-v", v],
            ["verify", *self.WORKED_ARGS, "--u-field", u, "--v-field", v,
             *self.WORKED_RATES, "--tol", repr(VERIFY_TOL),
             "--report", os.path.join(tmpdir, "verify.json")],
        ]


class SolveVerifyExp(_SolveVerify):
    """Positive-shift points with s = 0: the README worked case plus seeded
    feasible points drawn as in the test suite's random exponential points."""

    name = "solve-verify-exp"
    nominal_op_s = 0.27
    solver_name = "solve_coupled_exp"
    family = BarrierFamily.W
    default_tol = 1e-6
    WORKED_ARGS = ["-N", "3", "--lam", "4096", "--mu", "16", "--p", "2", "--q", "1",
                   "--m", "1", "--s", "0", "--rho", "exp", "--alpha", "1", "--beta", "2",
                   "--rate", "1", "--rho-amplitude", "1.5"]
    WORKED_RATES = ["--u-rate", "1", "--v-rate", "1"]

    def __init__(self, seed, short=False):
        exponents = Exponents(2.0, 1.0, 1.0, 0.0)
        problem = Problem(3, 4096.0, 16.0, SourceModel.exp_envelope(1.0, 2.0, 1.0, 1.5))
        self.points = [Point(problem, exponents, _existence_ledger(problem, exponents))]
        rng = np.random.default_rng(seed)
        while len(self.points) < (2 if short else 8):
            p = float(rng.uniform(1.3, 3.0))
            m = float(rng.uniform(0.5, 2.0))
            sigma = float(rng.uniform(0.2, 1.0))
            q = sigma * (p - 1.0) / m
            n = int(rng.integers(3, 6))
            a = float(rng.uniform(0.5, 1.5))
            lam = float(rng.uniform(3.0, 20.0)) * max(2 * a * a, n * n)
            b = a * m
            mu = float(rng.uniform(1.05, 2.5)) * max(2 * b * b, n * n)
            beta = float(rng.uniform(1.0, 1.3))
            exponents = Exponents(p, q, m, 0.0)
            problem = Problem(n, lam, mu, SourceModel.exp_envelope(1.0, beta, a))
            ledger = _existence_ledger(problem, exponents)
            if ledger is not None:
                self.points.append(Point(problem, exponents, ledger))


class SolveVerifyAlg(_SolveVerify):
    """Zero-shift points: the worked case plus the test suite's random
    algebraic points, each moved by a seeded jitter.

    The random algebraic points of ``tests/test_solvers.py`` (generator
    seed 4001) are the anchors.  The run's seed scales p, s and the source
    rate by up to 2% and redraws alpha, beta and the source amplitude by
    the test suite's rule, keeping only points ``classify`` certifies.
    Fresh draws from the whole box vary 40-fold in solve time, which would
    make the pass time depend on the seed more than on the code.
    """

    name = "solve-verify-alg"
    nominal_op_s = 1.1
    solver_name = "solve_coupled_alg"
    family = BarrierFamily.Z
    default_tol = 1e-5
    WORKED_ARGS = ["-N", "5", "--p", "5", "--q", "2", "--m", "2", "--s", "1",
                   "--rho", "alg", "--alpha", "0.01", "--beta", "0.015", "--rate", "4",
                   "--rho-amplitude", "0.0125"]
    WORKED_RATES = ["--u-rate", "2", "--v-rate", "1"]
    ANCHOR_SEED = 4001

    def __init__(self, seed, short=False):
        exponents = Exponents(5.0, 2.0, 2.0, 1.0)
        problem = Problem(5, 0.0, 0.0, SourceModel.alg_envelope(0.01, 0.015, 4.0, 0.0125))
        # the worked case keeps the library's absolute default tolerance,
        # which the test suite pins on it
        self.points = [Point(problem, exponents, _existence_ledger(problem, exponents))]
        rng = np.random.default_rng(seed)
        for anchor in _alg_anchors(0 if short else 3):
            while True:
                point = _alg_point(*anchor, rng=rng)
                if point is not None:
                    self.points.append(point)
                    break


def _alg_anchors(count):
    """The first ``count`` feasible draws of the test suite's algebraic generator."""
    rng = np.random.default_rng(SolveVerifyAlg.ANCHOR_SEED)
    out = []
    while len(out) < count:
        n = int(rng.integers(5, 7))
        m = float(rng.uniform(1.2, 2.5))
        a_low = 2.0 * (1.0 + 1.0 / m)
        a = float(rng.uniform(a_low + 0.2, n - 0.2))
        s = float(rng.uniform(0.5, 2.0))
        if not m * (a - 2.0) < (n - 2.0) * s + n:
            continue
        p = float(rng.uniform(4.0, 8.0))
        sigma = float(rng.uniform(0.2, 0.7))
        if _alg_point(n, m, a, s, p, sigma) is not None:
            out.append((n, m, a, s, p, sigma))
    return out


def _alg_point(n, m, a, s, p, sigma, rng=None):
    """A certified zero-shift point, optionally jittered; None if not certified."""
    amp_share = 0.5
    if rng is not None:
        jitter = rng.uniform(0.98, 1.02, size=3)
        p, s, a = p * float(jitter[0]), s * float(jitter[1]), a * float(jitter[2])
        amp_share = float(rng.uniform(0.0, 1.0))
    a_low = 2.0 * (1.0 + 1.0 / m)
    if not (a_low < a < n and m * (a - 2.0) < (n - 2.0) * s + n):
        return None
    q = sigma * (p - 1.0) * (s + 1.0) / m
    exponents = Exponents(p, q, m, s)
    if not 2.0 * p / (p - 1.0) <= a + sigma * (a_low - a):
        return None
    probe = alg_regime_ledger(exponents, n, 1e-9, 2e-9, a)
    alpha = 0.5 * probe.aux["epsilon"]
    hi = probe.aux["delta"] * alpha ** probe.aux["sigma"]
    beta = alpha + 0.5 * (hi - alpha)
    amplitude = alpha + amp_share * (beta - alpha)
    problem = Problem(n, 0.0, 0.0, SourceModel.alg_envelope(alpha, beta, a, amplitude))
    ledger = _existence_ledger(problem, exponents)
    if ledger is None:
        return None
    # the test suite's scale-relative rule: the CLI's absolute 1e-5 sits
    # below the quadrature/finite-difference floor at most such points
    return Point(problem, exponents, ledger, tol_residual=max(1e-5, 5e-3 * ledger.m1_upper))


WORKLOADS = {w.name: w for w in (RegionLattice, SolveVerifyAlg, SolveVerifyExp)}
