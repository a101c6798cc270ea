import dataclasses
import functools
import gc
import json
import math
import warnings
import weakref

import numpy as np
import pytest

from gmsteady import potentials, solvers
from gmsteady.barriers import (
    Exponents,
    Problem,
    SourceModel,
    alg_regime_ledger,
    exp_regime_ledger,
    operator_bounds,
)
from gmsteady.certificates import verify_solution
from gmsteady.cli import _jsonable
from gmsteady.errors import HypothesisError, NonexistenceError, RegimeError
from gmsteady.potentials import decay_fit
from gmsteady.profiles import BarrierFamily, BarrierProfile, eval_barrier, log_coordinate
from gmsteady.radial_core import (
    RadialField,
    RadialGrid,
    _flux_laplacian,
    apply_radial_laplacian,
    solve_linear_radial_variable,
)
from gmsteady.solvers import (
    SolveStatus,
    algebraic_scalar_admissible,
    default_exp_radius,
    solve_coupled_alg,
    solve_coupled_exp,
    solve_singular_scalar,
)


def w_field(grid, rate):
    profile = BarrierProfile(BarrierFamily.W, rate)
    return RadialField(grid, np.asarray(eval_barrier(profile, grid.nodes)), profile)


def z_field(grid, rate):
    profile = BarrierProfile(BarrierFamily.Z, rate)
    return RadialField(grid, np.asarray(eval_barrier(profile, grid.nodes)), profile)


def reference_ball(newton):
    """``_monotone_ball`` with a band assembled per step and the full -Delta applied.

    With ``newton`` the shift L = s psi v^(-s-1) is re-evaluated at each
    iterate (Newton's method); otherwise it stays at its value at v_low,
    the fixed-shift monotone iteration of Pao.  Of the caller's operator
    it reads only the grid and the dimension.
    """
    def ball(op, mu, s, psi_vals, v_low, tol_residual, trace=None):
        grid, dimension = op.grid, op.dimension
        v = v_low.copy()
        monotone_ok = True
        residual = math.inf
        for it in range(1, solvers.MAX_ITER + 1):
            w = np.maximum(v, v_low)
            shift_l = s * psi_vals * (w if newton else v_low) ** (-s - 1.0)
            rhs = RadialField(grid, psi_vals * w ** (-s) + shift_l * (w if newton else v))
            v_new = solve_linear_radial_variable(dimension, shift_l + mu, rhs, v_low[-1]).values
            if float(np.min(v_new - v)) < -1e-12 * max(1.0, float(np.max(np.abs(v)))):
                monotone_ok = False
            v = v_new
            lap = apply_radial_laplacian(RadialField(grid, v), dimension)
            res = lap.values + mu * v - psi_vals * np.maximum(v, v_low) ** (-s)
            residual = float(np.max(np.abs(res[:-1])))
            if trace is not None:
                trace.append(solvers.IterationState(RadialField(grid, v.copy()), residual,
                                                    monotone_ok))
            if residual <= tol_residual:
                return v, residual, it, monotone_ok
        return v, residual, solvers.MAX_ITER, monotone_ok

    return ball


def three_power_ball(op, mu, s, psi_vals, v_low, tol_residual, trace=None):
    """``_monotone_ball`` as it stood with three powers per Newton step:
    w^(-s) and w^(-s-1) for the step and max(v, v_low)^(-s) again for the
    residual, on the caller's operator."""
    if s == 0:
        op.set_shift(mu)
    v = v_low.copy()
    monotone_ok = True
    residual = math.inf
    for it in range(1, solvers.MAX_ITER + 1):
        w = np.maximum(v, v_low)
        rhs_vals = psi_vals * w ** (-s)
        if s > 0:
            shift_l = s * psi_vals * w ** (-s - 1.0)
            op.set_shift(shift_l + mu)
            rhs_vals += shift_l * w
        v_new = op.solve(rhs_vals, v_low[-1])
        drop = float(np.min(v_new - v))
        if drop < -1e-12 * max(1.0, float(np.max(np.abs(v)))):
            monotone_ok = False
        v = v_new
        inner = v[:-1]
        res = (_flux_laplacian(op.grid, op.dimension, v) + mu * inner
               - psi_vals[:-1] * np.maximum(inner, v_low[:-1]) ** (-s))
        residual = float(np.max(np.abs(res)))
        if trace is not None:
            trace.append(solvers.IterationState(RadialField(op.grid, v.copy()), residual,
                                                monotone_ok))
        if residual <= tol_residual:
            return v, residual, it, monotone_ok
    return v, residual, solvers.MAX_ITER, monotone_ok


@pytest.mark.parametrize("s", [0.0, 1.0, 2.5])
def test_monotone_ball_matches_the_three_power_loop(s):
    # w^(-s) is taken once per iterate and serves its residual and the
    # next step: every iterate, the residual and the count stay bit for bit
    grid = RadialGrid.auto(default_exp_radius(1.0, 1e12), h0=0.02, stretch=1.02)
    psi_vals = w_field(grid, 2.0).values
    v_low = 0.3 * w_field(grid, 2.0 / (s + 1.0)).values
    runs = []
    for ball in (solvers._monotone_ball, three_power_ball):
        trace = []
        op = solvers.RadialOperator(grid, 3)
        runs.append((ball(op, 0.5, s, psi_vals, v_low, 1e-10, trace), trace))
    (got, got_trace), (want, want_trace) = runs
    assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]
    assert len(got_trace) == len(want_trace) == got[2] > (1 if s else 0)
    for a, b in zip(got_trace, want_trace):
        assert np.array_equal(a.v.values, b.v.values)
        assert (a.residual, a.monotone_flag) == (b.residual, b.monotone_flag)


@pytest.mark.parametrize("mu", [16.0, 0.0])
@pytest.mark.parametrize("doubled", [False, True])
def test_linear_monotone_ball_is_one_solve(mu, doubled):
    # at s = 0 Newton's steps from v_low all solve (-Delta + mu) v = psi,
    # since v_low^(-0) = 1: the coupled loop's single solve of that
    # resolvent is the Newton loop's answer bit for bit, also on a ball
    # twice as wide, whose edge data have fallen 1e24-fold
    rng = np.random.default_rng(2203)
    radius = default_exp_radius(1.0, 1e12) * (2.0 if doubled else 1.0)
    grid = RadialGrid.auto(radius, h0=0.02, stretch=1.02)
    envelope = w_field(grid, 1.0).values
    psi_vals = envelope * rng.uniform(0.5, 2.0, grid.n)
    v_low = 0.3 * envelope * rng.uniform(0.9, 1.0, grid.n)
    op = solvers.RadialOperator(grid, 3)
    newton = solvers._monotone_ball(op, mu, 0.0, psi_vals, v_low, 1e-12)[0]
    solve = solvers.RadialOperator(grid, 3, mu).solve(psi_vals, v_low[-1])
    assert np.array_equal(newton, solve)


@pytest.mark.parametrize("family", [BarrierFamily.W, BarrierFamily.Z])
@pytest.mark.parametrize("s", [0.5, 1.0, 2.5])
@pytest.mark.parametrize("start", [1 - 1e-3, 1 + 1e-3, 0.7, 1.3, "high"])
def test_warm_started_monotone_ball_matches_the_cold_start(family, s, start):
    # one Newton step from any positive start lands on a sub-solution, from
    # which the iterates rise (solvers' docstring): a start from the
    # solution for the weight psi (1 -+ eps), or from far above the
    # solution, ends where the start from v_low does, in fewer steps when near
    if family is BarrierFamily.W:
        grid = RadialGrid.auto(default_exp_radius(1.0, 1e12), h0=0.02, stretch=1.02)
        n, mu, gamma = 3, 4.0, 2.0
        a = gamma / (s + 1.0)
    else:
        grid = RadialGrid.auto(150.0, h0=0.02, stretch=1.03)
        n, mu, gamma = 5, 0.0, 4.0
        a = (gamma - 2.0) / (s + 1.0)
    rng = np.random.default_rng(4409)
    envelope = eval_barrier(BarrierProfile(family, gamma), grid.nodes)
    psi_vals = envelope * rng.uniform(0.5, 2.0, grid.n)
    barrier = BarrierProfile(family, a)
    v_low = (0.5 / operator_bounds(barrier, mu, n)[1]) ** (1.0 / (s + 1.0)) * \
        eval_barrier(barrier, grid.nodes)
    tol = 1e-10 * v_low.max()

    def ball(weight, **kwargs):
        return solvers._monotone_ball(solvers.RadialOperator(grid, n), mu, s, weight,
                                      v_low, tol, **kwargs)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cold, _, cold_its, _ = ball(psi_vals)
        if start == "high":
            v0 = np.full(grid.n, 10.0 * cold.max())
        else:
            v0 = ball(start * psi_vals)[0]
        trace = []
        warm, _, warm_its, _ = ball(psi_vals, trace=trace, start=v0)
    assert np.abs(warm - cold).max() <= 1e-12 * cold.max()
    assert start == "high" or warm_its < cold_its
    for prev, state in zip(trace[:-1], trace[1:]):
        assert (state.v.values - prev.v.values).min() >= -1e-12 * prev.v.values.max()


def assert_matches_fixed_shift(run, monkeypatch):
    # Newton stops near the discrete solution; the fixed-shift iteration
    # gets there only at a 1000 times tighter residual
    rep = run()
    fixed_shift = reference_ball(newton=False)
    counts = []

    def tight(op, mu, s, psi_vals, v_low, tol_residual, trace=None):
        out = fixed_shift(op, mu, s, psi_vals, v_low, tol_residual / 1000.0)
        counts.append(out[2])
        return out

    monkeypatch.setattr(solvers, "_monotone_ball", tight)
    ref = run()
    assert max(counts) < solvers.MAX_ITER
    assert np.max(np.abs(rep.v.values - ref.v.values)) <= 1e-8 * np.max(ref.v.values)


def inner_counts_by_ball(monkeypatch):
    """Spy on ``_monotone_ball``: Newton step counts of its calls, by ball radius."""
    counts = {}
    real_ball = solvers._monotone_ball

    def spy(op, *args, **kwargs):
        out = real_ball(op, *args, **kwargs)
        counts.setdefault(op.grid.radius, []).append(out[2])
        return out

    monkeypatch.setattr(solvers, "_monotone_ball", spy)
    return counts


def assert_warm_inner_counts(counts):
    # every run solves on its one ball: the first Picard step starts Newton
    # from v_low, and every later one from the previous step's v, a step or
    # two from its answer
    (steps,) = counts.values()
    assert len(steps) >= 2 and steps[0] <= 10 and max(steps[1:]) <= 2, counts


def picard_runs(monkeypatch):
    """Spy on ``_picard_coupled``: (ball, lower barriers, output) of each run."""
    runs, real = [], solvers._picard_coupled

    def spy(*args):
        out = real(*args)
        runs.append((args[3], args[4], out))
        return out

    monkeypatch.setattr(solvers, "_picard_coupled", spy)
    return runs


def radial_solve_sizes(monkeypatch):
    """Spy on ``RadialOperator.solve``: the node count of each radial solve's grid."""
    sizes, real = [], solvers.RadialOperator.solve

    def spy(op, *args):
        sizes.append(op.grid.n)
        return real(op, *args)

    monkeypatch.setattr(solvers.RadialOperator, "solve", spy)
    return sizes


def truncation_bound(rep, fields):
    """(upper - lower) * B(R) / max field, the largest over ``fields``: name -> (barrier, lower, upper)."""
    return max((upper - lower) * float(eval_barrier(barrier, rep.ball_radius))
               / float(getattr(rep, name).values.max())
               for name, (barrier, lower, upper) in fields.items())


def ledger_fields(ledger):
    """The coupled W run's fields for ``truncation_bound``."""
    return {"u": (BarrierProfile(BarrierFamily.W, ledger.rate_u), ledger.m1_lower, ledger.m1_upper),
            "v": (BarrierProfile(BarrierFamily.W, ledger.rate_v), ledger.m2_lower, ledger.m2_upper)}


def assert_default_w_ball(rep, fields):
    """``rep`` ran on the default W ball of ``fields`` (name -> (barrier, lower, upper)).

    That ball is the smallest on which every field's (upper/lower - 1) B(R)/B(0),
    which bounds its truncation bound, is at most half the limit, so the
    report's bound, its closed form, is at most half the limit too.
    """
    half = 0.5 * solvers._TRUNCATION_LIMIT
    assert rep.ball_radius == max(
        default_exp_radius(barrier.rate, max(1.0, (upper / lower - 1.0) / half))
        for barrier, lower, upper in fields.values())
    widest = max((upper / lower - 1.0) * float(eval_barrier(barrier, rep.ball_radius))
                 / float(eval_barrier(barrier, 0.0)) for barrier, lower, upper in fields.values())
    assert widest == pytest.approx(half, rel=1e-9)
    assert rep.truncation_bound == pytest.approx(truncation_bound(rep, fields), rel=1e-14)
    assert rep.truncation_bound <= half


@pytest.mark.parametrize("rate", [0.5, 1.0, 1.0 / 31.0])
@pytest.mark.parametrize("drop", [1.0, 8.0, 1e12, 1e300])
def test_default_exp_radius_is_where_the_barrier_has_dropped(rate, drop):
    radius = default_exp_radius(rate, drop)
    barrier = BarrierProfile(BarrierFamily.W, rate)
    assert float(eval_barrier(barrier, radius)) == pytest.approx(
        float(eval_barrier(barrier, 0.0)) / drop, rel=1e-12)
    assert (radius == 0.0) is (drop == 1.0)


@pytest.mark.parametrize("drop", [1.0 - 1e-16, 0.5, 0.1, 0.0, -1.0, float("nan")])
def test_default_exp_radius_refuses_a_drop_below_one(drop):
    # below 1 the square root's argument is negative (a math domain error),
    # or, from -1 down, positive and meaningless
    with pytest.raises(ValueError, match="barrier drop must be at least 1"):
        default_exp_radius(1.0, drop)


def random_exp_points(count=8):
    """``count`` feasible exponential-regime points (problem, exponents, ledger), seed 7011."""
    rng = np.random.default_rng(7011)
    while count:
        p = float(rng.uniform(1.3, 3.0))
        s = float(rng.uniform(0.0, 1.5))
        m = float(rng.uniform(0.5, 2.0))
        sigma = float(rng.uniform(0.2, 1.0))
        q = sigma * (p - 1.0) * (s + 1.0) / m
        n = int(rng.integers(3, 6))
        a = float(rng.uniform(0.5, 1.5))
        lam = float(rng.uniform(3.0, 20.0)) * max(2 * a * a, n * n)
        b = a * m / (s + 1.0)
        mu = float(rng.uniform(1.05, 2.5)) * max(2 * b * b, n * n)
        alpha = 1.0
        beta = float(rng.uniform(1.0, 1.3))
        exponents = Exponents(p, q, m, s)
        ledger = exp_regime_ledger(exponents, n, lam, mu, alpha, beta, a)
        if not ledger.feasible:
            continue
        yield Problem(n, lam, mu, SourceModel.exp_envelope(alpha, beta, a)), exponents, ledger
        count -= 1


def singular_exp_case():
    """An exponential-regime point with s > 0: (problem, exponents, ledger)."""
    exponents = Exponents(2.0, 1.0, 1.0, 1.0)  # sigma = 1/2, b = 1/2
    ledger = exp_regime_ledger(exponents, 3, 1000.0, 12.0, 1.0, 1.2, 1.0)
    assert ledger.feasible
    return Problem(3, 1000.0, 12.0, SourceModel.exp_envelope(1.0, 1.2, 1.0, 1.1)), exponents, ledger


class TestScalarExponential:
    def run(self, **options):
        grid = RadialGrid.auto(default_exp_radius(1.0, 1e12), h0=0.02, stretch=1.02)
        psi = w_field(grid, 2.0)
        return solve_singular_scalar(3, 4.0, 1.0, psi, **options)

    def test_converges_inside_sandwich(self):
        rep = self.run()
        assert rep.status is SolveStatus.CONVERGED
        assert rep.residual_v <= 1e-8
        lo, hi = rep.margins["v"]
        cap = (1.0 / math.sqrt(3.0)) / (1.0 / math.sqrt(7.0))
        assert lo >= 1.0 - 1e-9 and hi <= cap * (1.0 + 1e-9)
        # sandwich constants from the construction: [1/sqrt7, 1/sqrt3] W_1
        v0 = rep.v.values[0]
        assert 1.0 / math.sqrt(7.0) * math.exp(-1.0) <= v0 <= 1.0 / math.sqrt(3.0) * math.exp(-1.0)

    def test_iterates_monotone(self):
        rep = self.run(record_trace=True)
        assert len(rep.trace) > 1
        assert all(state.monotone_flag for state in rep.trace)
        for prev, state in zip(rep.trace, rep.trace[1:]):
            assert np.min(state.v.values - prev.v.values) >= -1e-12

    def test_trace_matches_per_iteration_assembly(self, monkeypatch):
        # the shared operator, whose diagonal each Newton step rewrites,
        # must trace the iterates of Newton with a band assembled per step
        rep = self.run(record_trace=True)
        monkeypatch.setattr(solvers, "_monotone_ball", reference_ball(newton=True))
        ref = self.run(record_trace=True)
        assert len(rep.trace) == len(ref.trace) > 1
        for got, want in zip(rep.trace, ref.trace):
            assert np.array_equal(got.v.grid.nodes, want.v.grid.nodes)
            np.testing.assert_allclose(got.v.values, want.v.values, rtol=1e-13, atol=0)
            assert got.monotone_flag == want.monotone_flag
        np.testing.assert_allclose(rep.v.values, ref.v.values, rtol=1e-13, atol=0)

    def test_agrees_with_tight_fixed_shift_iteration(self, monkeypatch):
        assert_matches_fixed_shift(self.run, monkeypatch)

    def test_newton_iteration_count(self):
        assert self.run().iterations <= 16

    def test_newton_cap_ends_the_run_unconverged(self):
        # a zero residual tolerance is never met: the loop stops at its cap
        rep = self.run(tol_residual=0.0)
        assert rep.status is SolveStatus.MAX_ITERATIONS
        assert rep.iterations == solvers.MAX_ITER
        assert rep.notes == []
        assert 0.0 < rep.residual_v <= 1e-8

    def test_iterations_count_the_one_balls_steps(self, monkeypatch):
        # a W run solves on its ball only: the trace holds its Newton steps,
        # and no radial solve runs on a larger grid
        sizes = radial_solve_sizes(monkeypatch)
        rep = self.run(record_trace=True)
        assert rep.iterations == len(rep.trace) > 1
        assert set(sizes) == {rep.v.grid.n}

    def test_float_range_refused_before_any_solve(self, monkeypatch):
        # W_20 gives the barrier W_10, and c W_10 falls to about 3e-158 on
        # a ball of radius 37, where the Newton shift's (c W_10)^(-2) overflows
        calls = []
        monkeypatch.setattr(solvers, "_monotone_ball", lambda *args: calls.append(args))
        grid = RadialGrid.auto(37.0, h0=0.02, stretch=1.02)
        with pytest.raises(HypothesisError, match=r"^\(c \* B\)\^\(-2\) overflows within radius 37$"):
            solve_singular_scalar(3, 104.0, 1.0, w_field(grid, 20.0))
        assert calls == []

    def test_truncation_bound(self):
        # the sandwich [1/sqrt7, 1/sqrt3] W_1 bounds the Dirichlet data at R
        rep = self.run()
        barrier = BarrierProfile(BarrierFamily.W, 1.0)
        bound = truncation_bound(rep, {"v": (barrier, 1.0 / math.sqrt(7.0), 1.0 / math.sqrt(3.0))})
        assert rep.truncation_bound == pytest.approx(bound, rel=1e-14)
        assert rep.truncation_bound <= 1e-10

    def test_too_small_ball_reads_max_iterations(self):
        # on a ball of radius 4 the Newton run converges, but W_1(4) is 4%
        # of W_1(0): the Dirichlet data at R are far from any whole-space
        # solution's
        grid = RadialGrid.auto(4.0, h0=0.02, stretch=1.02)
        rep = solve_singular_scalar(3, 4.0, 1.0, w_field(grid, 2.0))
        assert rep.status is SolveStatus.MAX_ITERATIONS
        assert rep.residual_v <= 1e-9 and rep.truncation_bound > solvers._TRUNCATION_LIMIT
        assert rep.notes == [f"truncation bound {rep.truncation_bound:.3e} exceeds limit 1.000e-06"]

    def test_exponential_rate(self):
        rep = self.run()
        rate, _ = rep.decay["v"]
        assert rate == pytest.approx(1.0, rel=0.02)

    def test_hypothesis_error_small_shift(self):
        grid = RadialGrid.auto(10.0, h0=0.05, stretch=1.02)
        psi = w_field(grid, 2.0)
        with pytest.raises(HypothesisError):
            solve_singular_scalar(3, 0.2, 1.0, psi)


class TestScalarAlgebraic:
    def run(self):
        grid = RadialGrid.auto(150.0, h0=0.02, stretch=1.03)
        psi = z_field(grid, 4.0)
        return solve_singular_scalar(5, 0.0, 1.0, psi)

    def test_converges_inside_sandwich(self):
        rep = self.run()
        assert rep.status is SolveStatus.CONVERGED
        lo, hi = rep.margins["v"]
        cap = (1.0 / math.sqrt(2.0)) / (1.0 / math.sqrt(5.0))
        assert lo >= 1.0 - 1e-9 and hi <= cap * (1.0 + 1e-9)
        v0 = rep.v.values[0]
        assert 1.0 / math.sqrt(5.0) <= v0 <= 1.0 / math.sqrt(2.0)

    def test_algebraic_rate(self):
        rep = self.run()
        rate, _ = rep.decay["v"]
        assert rate == pytest.approx(1.0, rel=0.03)

    def test_agrees_with_tight_fixed_shift_iteration(self, monkeypatch):
        assert_matches_fixed_shift(self.run, monkeypatch)

    def test_newton_iteration_count(self):
        assert self.run().iterations <= 16

    def test_nonexistence_below_gamma_two(self):
        grid = RadialGrid.auto(50.0, h0=0.05, stretch=1.03)
        psi = z_field(grid, 2.0)
        with pytest.raises(NonexistenceError):
            solve_singular_scalar(5, 0.0, 1.0, psi)

    def test_upper_gamma_hypothesis(self):
        grid = RadialGrid.auto(50.0, h0=0.05, stretch=1.03)
        for n, s, gamma, match in [
            # (N-2)s + N = 8 for N = 5, s = 1: above the window and on its end
            (5, 1.0, 9.0, "window"),
            (5, 1.0, 8.0, "window"),
            # inside the window by one ulp, but (gamma-2)/(s+1) rounds to N - 2
            (3, 3.1848084366072715, 6.184808436607271, "lower operator bound"),
        ]:
            with pytest.raises(HypothesisError, match=match):
                solve_singular_scalar(n, 0.0, s, z_field(grid, gamma))

    def test_untagged_weight_is_refused(self):
        grid = RadialGrid.auto(50.0, h0=0.05, stretch=1.03)
        psi = RadialField(grid, z_field(grid, 4.0).values)
        with pytest.raises(ValueError, match="decay_tag"):
            solve_singular_scalar(5, 0.0, 1.0, psi)

    def test_options_are_keyword_only(self):
        grid = RadialGrid.auto(50.0, h0=0.05, stretch=1.03)
        with pytest.raises(TypeError):
            solve_singular_scalar(5, 0.0, 1.0, z_field(grid, 4.0), 1e-9)

    def test_admissibility_predicate(self):
        assert not algebraic_scalar_admissible(5, 1.0, 2.0)
        assert algebraic_scalar_admissible(5, 1.0, 2.0 + 1e-9)
        assert algebraic_scalar_admissible(5, 1.0, 7.9)
        assert not algebraic_scalar_admissible(5, 1.0, 8.0)


class TestCoupledExponential:
    def test_worked_example(self, exp_worked_case):
        problem, exponents, ledger, rep = exp_worked_case
        assert rep.status is SolveStatus.CONVERGED
        assert rep.residual_u <= 1e-6 and rep.residual_v <= 1e-6
        lo_u, hi_u = rep.margins["u"]
        lo_v, hi_v = rep.margins["v"]
        assert lo_u >= 1.0 - 1e-9 and hi_u <= 32.0 * (1.0 + 1e-9)
        assert lo_v >= 1.0 - 1e-9 and hi_v <= 128.0 * (1.0 + 1e-9)
        ratio = rep.decay["v"][0] / rep.decay["u"][0]
        assert ratio == pytest.approx(1.0, rel=0.02)  # b = a m/(s+1)

    def test_bigger_beta_still_converges(self):
        exponents = Exponents(2.0, 1.0, 1.0, 0.0)
        ledger = exp_regime_ledger(exponents, 3, 4096.0, 16.0, 1.0, 2.5, 1.0)
        assert ledger.feasible  # (lam/4) M1_upper = 4 >= 2.5 still holds
        problem = Problem(3, 4096.0, 16.0, SourceModel.exp_envelope(1.0, 2.5, 1.0, 2.5))
        rep = solve_coupled_exp(problem, exponents, ledger)
        assert rep.status is SolveStatus.CONVERGED

    def test_refuses_infeasible_ledger(self):
        exponents = Exponents(2.0, 1.0, 1.0, 0.0)
        ledger = exp_regime_ledger(exponents, 3, 16.0, 16.0, 1.0, 2.0, 1.0)
        problem = Problem(3, 16.0, 16.0, SourceModel.exp_envelope(1.0, 2.0, 1.0))
        with pytest.raises(RegimeError) as err:
            solve_coupled_exp(problem, exponents, ledger)
        assert "m1-ordering" in str(err.value)

    def test_refuses_wrong_regime_ledger(self):
        exponents = Exponents(5.0, 2.0, 2.0, 1.0)
        alg_ledger = alg_regime_ledger(exponents, 5, 0.01, 0.015, 4.0)
        problem = Problem(3, 4096.0, 16.0, SourceModel.exp_envelope(1.0, 2.0, 1.0))
        with pytest.raises(RegimeError):
            solve_coupled_exp(problem, Exponents(2, 1, 1, 0), alg_ledger)

    def test_refuses_zero_shifts(self, exp_worked_case):
        _, exponents, ledger, _ = exp_worked_case
        problem = Problem(3, 0.0, 0.0, SourceModel.exp_envelope(1.0, 2.0, 1.0))
        with pytest.raises(RegimeError, match="positive shifts"):
            solve_coupled_exp(problem, exponents, ledger)

    @pytest.mark.parametrize("rho", [SourceModel.alg_envelope(1.0, 2.0, 1.0, 1.5),
                                     SourceModel.zero()])
    def test_refuses_source_of_another_family(self, exp_worked_case, rho):
        problem, exponents, ledger, _ = exp_worked_case
        problem = Problem(3, problem.lam, problem.mu, rho)
        with pytest.raises(RegimeError, match="expects an exponential source envelope"):
            solve_coupled_exp(problem, exponents, ledger)

    def test_singular_inner_equation(self, monkeypatch):
        # s > 0 exercises the singular v-update inside the coupled loop
        problem, exponents, ledger = singular_exp_case()
        counts = inner_counts_by_ball(monkeypatch)
        rep = solve_coupled_exp(problem, exponents, ledger)
        assert rep.status is SolveStatus.CONVERGED
        assert_warm_inner_counts(counts)
        assert rep.residual_u <= 1e-6 and rep.residual_v <= 1e-6
        ratio = rep.decay["v"][0] / rep.decay["u"][0]
        assert ratio == pytest.approx(0.5, rel=0.02)  # m/(s+1) = 1/2

    def test_fast_inhibitor_decay(self):
        # b = a m/(s+1) = 3a: v decays three times faster than u
        exponents = Exponents(3.0, 0.3, 3.0, 0.0)  # sigma = 0.45
        ledger = exp_regime_ledger(exponents, 3, 100.0, 20.0, 1.0, 1.1, 1.0)
        assert ledger.feasible
        problem = Problem(3, 100.0, 20.0, SourceModel.exp_envelope(1.0, 1.1, 1.0))
        rep = solve_coupled_exp(problem, exponents, ledger)
        assert rep.status is SolveStatus.CONVERGED
        ratio = rep.decay["v"][0] / rep.decay["u"][0]
        assert ratio == pytest.approx(3.0, rel=0.02)

    def test_truncation_bound_at_the_default_ball(self, exp_worked_case):
        # the default ball reaches to where (upper/lower - 1) B(R)/B(0) is
        # half the limit for the field whose sandwich and rate need most
        _, _, ledger, rep = exp_worked_case
        assert_default_w_ball(rep, ledger_fields(ledger))

    @pytest.mark.parametrize("lam", [2e8, 1e9, 1e12])
    def test_default_ball_meets_the_truncation_limit_at_large_lam(self, lam):
        # the sandwich widens like lam/mu, and the default ball with it
        exponents = Exponents(2.0, 1.0, 1.0, 0.0)
        ledger = exp_regime_ledger(exponents, 3, lam, 16.0, 1.0, 2.0, 1.0)
        problem = Problem(3, lam, 16.0, SourceModel.exp_envelope(1.0, 2.0, 1.0, 1.5))
        rep = solve_coupled_exp(problem, exponents, ledger)
        assert rep.status is SolveStatus.CONVERGED and rep.notes == []
        assert_default_w_ball(rep, ledger_fields(ledger))

    @pytest.mark.parametrize("radius", [0.001, 1.0, 4.0, 8.0, 16.0])
    def test_too_small_ball_reads_max_iterations(self, exp_worked_case, radius):
        # the Picard run converges on every ball, but the sandwich leaves the
        # Dirichlet data at R further than 1e-6 from any whole-space solution's
        problem, exponents, ledger, _ = exp_worked_case
        rep = solve_coupled_exp(problem, exponents, ledger,
                                RadialGrid.auto(radius, *solvers._BALL_GRIDS[BarrierFamily.W]))
        assert rep.status is SolveStatus.MAX_ITERATIONS and rep.iterations < solvers.MAX_ITER
        assert max(rep.residual_u, rep.residual_v) <= 1e-6
        assert rep.truncation_bound > solvers._TRUNCATION_LIMIT
        assert rep.notes == [f"truncation bound {rep.truncation_bound:.3e} exceeds limit 1.000e-06"]


class TestCoupledAlgebraic:
    def test_worked_example(self, alg_worked_case):
        problem, exponents, ledger, rep = alg_worked_case
        assert rep.status is SolveStatus.CONVERGED
        assert rep.residual_u <= 1e-5 and rep.residual_v <= 1e-5
        lo_u, hi_u = rep.margins["u"]
        cap_u = ledger.m1_upper / ledger.m1_lower
        lo_v, hi_v = rep.margins["v"]
        cap_v = ledger.m2_upper / ledger.m2_lower
        assert lo_u >= 1.0 - 1e-9 and hi_u <= cap_u * (1.0 + 1e-9)
        assert lo_v >= 1.0 - 1e-9 and hi_v <= cap_v * (1.0 + 1e-9)
        assert rep.decay["u"][0] == pytest.approx(2.0, rel=0.03)
        assert rep.decay["v"][0] == pytest.approx(1.0, rel=0.03)

    def test_inner_newton_iteration_counts(self, alg_worked_case, monkeypatch):
        problem, exponents, ledger, _ = alg_worked_case
        counts = inner_counts_by_ball(monkeypatch)
        rep = solve_coupled_alg(problem, exponents, ledger)
        assert rep.status is SolveStatus.CONVERGED
        assert_warm_inner_counts(counts)

    def test_default_solve_lies_on_the_tightened_one(self, alg_worked_case):
        # each warm-started inner solve ends far below its tolerance, so the
        # default run sits on the run with every tolerance tightened
        problem, exponents, ledger, rep = alg_worked_case
        tight = solve_coupled_alg(problem, exponents, ledger, tol_residual=1e-5 / 1000.0,
                                  tol_change=1e-12)
        for got, want in ((rep.u, tight.u), (rep.v, tight.v)):
            assert np.abs(got.values - want.values).max() <= 1e-11 * want.values.max()
        assert rep.residual_v <= 1e-12

    def test_refuses_boundary_rate(self):
        exponents = Exponents(5.0, 2.0, 2.0, 1.0)
        with pytest.raises(RegimeError):
            alg_regime_ledger(exponents, 5, 0.01, 0.015, 3.0)  # a = 2(1+1/m)

    def test_refuses_alpha_above_epsilon(self):
        exponents = Exponents(5.0, 2.0, 2.0, 1.0)
        ledger = alg_regime_ledger(exponents, 5, 0.05, 0.06, 4.0)
        assert not ledger.feasible and "alpha-upper" in ledger.violated
        problem = Problem(5, 0.0, 0.0, SourceModel.alg_envelope(0.05, 0.06, 4.0))
        with pytest.raises(RegimeError):
            solve_coupled_alg(problem, exponents, ledger)

    def test_refuses_positive_shifts(self, alg_worked_case):
        _, exponents, ledger, _ = alg_worked_case
        problem = Problem(5, 1.0, 1.0, SourceModel.alg_envelope(0.01, 0.015, 4.0))
        with pytest.raises(RegimeError, match="zero shifts"):
            solve_coupled_alg(problem, exponents, ledger)


    def test_refuses_exponential_source(self, alg_worked_case):
        _, exponents, ledger, _ = alg_worked_case
        problem = Problem(5, 0.0, 0.0, SourceModel.exp_envelope(0.01, 0.015, 4.0, 0.0125))
        with pytest.raises(RegimeError, match="expects an algebraic source envelope"):
            solve_coupled_alg(problem, exponents, ledger)


@pytest.mark.parametrize("case, solve, per_report", [
    ("exp_worked_case", solve_coupled_exp, 2),
    ("alg_worked_case", solve_coupled_alg, 1),
])
def test_operators_per_ball_not_per_iteration(case, solve, per_report, request, monkeypatch):
    # the run's ball assembles the scalar solve's operator and, in W runs,
    # the resolvent once; the residual check takes -Delta from the grid's
    # flux plan and assembles none.  Every construction is counted, from
    # whichever module
    problem, exponents, ledger, _ = request.getfixturevalue(case)
    built = []
    init = solvers.RadialOperator.__init__

    def counting(self, grid, *args):
        built.append(grid.n)
        init(self, grid, *args)

    monkeypatch.setattr(solvers.RadialOperator, "__init__", counting)
    iterations = []
    for tol_change in (1e-3, 1e-9):
        built.clear()
        iterations.append(solve(problem, exponents, ledger, tol_change=tol_change).iterations)
        assert len(built) == per_report, built
    assert iterations[0] < iterations[1]


@pytest.mark.parametrize("case, solve", [("exp_worked_case", solve_coupled_exp),
                                         ("alg_worked_case", solve_coupled_alg)])
def test_every_run_solves_on_one_ball(case, solve, request, monkeypatch):
    # a report is its one Picard run on the ball, from the lower barriers,
    # and no radial solve runs on another grid
    problem, exponents, ledger, _ = request.getfixturevalue(case)
    runs, sizes = picard_runs(monkeypatch), radial_solve_sizes(monkeypatch)
    rep = solve(problem, exponents, ledger)
    assert rep.status is SolveStatus.CONVERGED and len(runs) == 1
    (grid, lows, (vals, steps, _)), = runs
    assert grid is rep.u.grid and steps == rep.iterations
    assert vals["u"].tobytes() == rep.u.values.tobytes()
    assert vals["v"].tobytes() == rep.v.values.tobytes()
    for name, rate, lower in (("u", ledger.rate_u, ledger.m1_lower),
                              ("v", ledger.rate_v, ledger.m2_lower)):
        own = lower * np.asarray(eval_barrier(BarrierProfile(problem.family, rate), grid.nodes))
        assert lows[name].tobytes() == own.tobytes()
    assert set(sizes) == {grid.n}


def test_w_truncation_bound_is_closed_form_and_small_at_every_default_ball():
    # the singular and random points: each default ball is sized so the
    # bound, the relative error of the Dirichlet data at R, is at most
    # half the limit
    points = [*random_exp_points(), singular_exp_case()]
    for problem, exponents, ledger in points:
        rep = solve_coupled_exp(problem, exponents, ledger)
        assert rep.status is SolveStatus.CONVERGED
        assert_default_w_ball(rep, ledger_fields(ledger))


class TestRandomFeasiblePoints:
    """The machinery must hold up across the feasible region, not just at
    the worked configurations: random feasible ledgers must yield
    converged, sandwiched solves."""

    def test_random_exponential_points(self):
        for problem, exponents, ledger in random_exp_points():
            rep = solve_coupled_exp(problem, exponents, ledger)
            assert rep.status is SolveStatus.CONVERGED, (exponents, problem, ledger.rate_u)
            assert rep.margins["u"][0] >= 1 - 1e-9
            assert rep.margins["v"][0] >= 1 - 1e-9

    def test_random_algebraic_points(self):
        rng = np.random.default_rng(4001)
        done = 0
        while done < 3:
            n = int(rng.integers(5, 7))
            m = float(rng.uniform(1.2, 2.5))
            a_low = 2.0 * (1.0 + 1.0 / m)
            a = float(rng.uniform(a_low + 0.2, n - 0.2))
            s = float(rng.uniform(0.5, 2.0))
            if not m * (a - 2.0) < (n - 2.0) * s + n:
                continue
            p = float(rng.uniform(4.0, 8.0))
            sigma = float(rng.uniform(0.2, 0.7))
            q = sigma * (p - 1.0) * (s + 1.0) / m
            exponents = Exponents(p, q, m, s)
            if not 2.0 * p / (p - 1.0) <= a + sigma * (a_low - a):
                continue
            probe = alg_regime_ledger(exponents, n, 1e-9, 2e-9, a)
            alpha = 0.5 * probe.aux["epsilon"]
            hi = probe.aux["delta"] * alpha ** probe.aux["sigma"]
            beta = alpha + 0.5 * (hi - alpha)
            ledger = alg_regime_ledger(exponents, n, alpha, beta, a)
            if not ledger.feasible:
                continue
            problem = Problem(
                n, 0.0, 0.0, SourceModel.alg_envelope(alpha, beta, a))
            # the quadrature/FD mismatch floor scales with the solution
            # amplitude; certify at a scale-relative tolerance here (the
            # absolute 1e-5 contract is pinned on the worked example)
            tol = max(1e-5, 5e-3 * ledger.m1_upper)
            rep = solve_coupled_alg(problem, exponents, ledger, tol_residual=tol)
            assert rep.status is SolveStatus.CONVERGED, (p, q, m, s, n, a, alpha, beta)
            assert rep.residual_u <= 5e-3 * ledger.m1_upper + 1e-5
            assert rep.margins["u"][0] >= 1 - 1e-9
            assert rep.margins["v"][0] >= 1 - 1e-9
            done += 1


class TestDecayFit:
    def test_fits_own_generator_exponential(self):
        grid = RadialGrid.auto(40.0, h0=0.05, stretch=1.02)
        field = w_field(grid, 2.0)
        rate, resid = decay_fit(field, BarrierFamily.W, (5.0, 20.0))
        assert rate == pytest.approx(2.0, rel=1e-13)
        assert resid <= 1e-13

    def test_fits_own_generator_algebraic(self):
        grid = RadialGrid.auto(150.0, h0=0.05, stretch=1.03)
        field = z_field(grid, 3.0)
        rate, resid = decay_fit(field, BarrierFamily.Z, (10.0, 100.0))
        assert rate == pytest.approx(3.0, rel=1e-13)
        assert resid <= 1e-13

    def test_mixture_slowest_mode_dominates(self):
        grid = RadialGrid.auto(60.0, h0=0.05, stretch=1.02)
        r = grid.nodes
        w2 = np.asarray(eval_barrier(BarrierProfile(BarrierFamily.W, 2.0), r))
        w1 = np.asarray(eval_barrier(BarrierProfile(BarrierFamily.W, 1.0), r))
        field = RadialField(grid, w2 + 0.01 * w1)
        rate, _ = decay_fit(field, BarrierFamily.W, (20.0, 40.0))
        assert rate == pytest.approx(1.0, abs=0.05)

    def test_rejects_nonpositive(self):
        grid = RadialGrid.uniform(10.0, 64)
        field = RadialField(grid, np.zeros(grid.n))
        with pytest.raises(ValueError, match="positive"):
            decay_fit(field, BarrierFamily.W, (1.0, 5.0))
        field = w_field(grid, 1.0)
        field.values[40] = -field.values[40]
        with pytest.raises(ValueError, match="positive"):
            decay_fit(field, BarrierFamily.W, (1.0, 9.0))

    def test_rejects_windows_of_fewer_than_four_nodes(self):
        grid = RadialGrid.uniform(10.0, 64)
        field, r = w_field(grid, 1.0), grid.nodes
        assert decay_fit(field, BarrierFamily.W, (r[7], r[10]))[0] == pytest.approx(1.0)
        with pytest.raises(ValueError, match="fewer than 4"):
            decay_fit(field, BarrierFamily.W, (r[7], r[9]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("radius", [1e120, 1e200, np.finfo(float).max])
    def test_fits_w_windows_where_xc_squared_overflows(self, radius):
        # x = -r there, and sum(xc^2) passes the largest double from r ~ 1e154
        # (1e120 stays below 2^400 and is fitted unscaled): the fit runs on x
        # scaled by a power of two, unwarned
        grid = RadialGrid.uniform(radius, 40)
        field = RadialField(grid, np.exp(-grid.nodes / (radius / 10.0)))
        rate, rms = decay_fit(field, BarrierFamily.W, (0.3 * radius, 0.9 * radius))
        assert rate == pytest.approx(10.0 / radius, rel=1e-14, abs=0)
        assert rms <= 1e-14

    @pytest.mark.parametrize("family, radius, scale", [
        (BarrierFamily.W, 40.0, 1.0), (BarrierFamily.Z, 150.0, 1.0),
        (BarrierFamily.Z, 1e300, 1.0), (BarrierFamily.W, 1e150, 2.0**-98),
    ])
    def test_fits_are_the_closed_form_bit_for_bit(self, family, radius, scale):
        # wherever sum(xc^2) is finite the fit is the plain closed form on
        # the centred data: the plan's scale is 1 below |x| = 2^400, and a
        # power of two above it, which changes no bit
        grid = RadialGrid.auto(radius, h0=radius / 800.0, stretch=1.02)
        r = grid.nodes
        field = RadialField(grid, np.asarray(eval_barrier(BarrierProfile(family, 1.5 / radius), r))
                            * np.exp(np.sin(r / radius)))
        window = (0.2 * radius, 0.7 * radius)
        assert grid.plan(potentials._fit_plan, family, window)[3] == scale
        mask = (r >= window[0]) & (r <= window[1])
        x = log_coordinate(family, r[mask])
        xc = x - x.mean()
        y = np.log(field.values[mask])
        yc = y - y.mean()
        rate = float(xc @ yc / (xc @ xc))
        rms = float(np.sqrt(((yc - rate * xc) ** 2).mean()))
        assert decay_fit(field, family, window) == (rate, rms)

    def test_closed_form_agrees_with_lstsq(self):
        # the centred closed form and a least-squares solver fit the same line
        rng = np.random.default_rng(5261)
        grid = RadialGrid.auto(150.0, h0=0.05, stretch=1.03)
        r = grid.nodes
        for family in (BarrierFamily.W, BarrierFamily.Z):
            for _ in range(20):
                rate = float(rng.uniform(0.2, 4.0))
                lo = float(rng.uniform(0.0, 60.0))
                window = (lo, lo + float(rng.uniform(10.0, 90.0)))
                noise = rng.normal(0.0, float(rng.uniform(1e-6, 0.3)), grid.n)
                profile = BarrierProfile(family, rate)
                field = RadialField(grid, np.asarray(eval_barrier(profile, r)) * np.exp(noise))
                fitted, rms = decay_fit(field, family, window)
                mask = (r >= window[0]) & (r <= window[1])
                x = log_coordinate(family, r[mask])
                design = np.column_stack([x, np.ones_like(x)])
                y = np.log(field.values[mask])
                coef, *_ = np.linalg.lstsq(design, y, rcond=None)
                want_rms = float(np.sqrt(np.mean((y - design @ coef) ** 2)))
                assert fitted == pytest.approx(coef[0], rel=1e-12, abs=0)
                assert rms == pytest.approx(want_rms, rel=0, abs=1e-12)


def test_run_status_ranks_sandwich_then_truncation():
    notes = ["truncation bound 3.000e-06 exceeds limit 1.000e-06"]
    assert solvers._run_status([], sandwiched=True, converged=True) is SolveStatus.CONVERGED
    assert solvers._run_status([], True, False) is SolveStatus.MAX_ITERATIONS
    assert solvers._run_status(notes, True, True) is SolveStatus.MAX_ITERATIONS
    assert solvers._run_status(notes, False, True) is SolveStatus.SANDWICH_VIOLATED


def test_sandwich_violated_when_an_iterate_leaves_the_ledger(exp_worked_case):
    """The solve's own SANDWICH_VIOLATED; test_run_status_ranks_sandwich_then_truncation
    shows that it outranks a truncation note."""
    problem, exponents, ledger, report = exp_worked_case
    # the converged u reaches top * M1_lower B_u; an M1_upper below that
    # is left by the first Picard iterate, which ends the loop there
    top = report.margins["u"][1]
    cut = dataclasses.replace(ledger, m1_upper=0.5 * (1.0 + top) * ledger.m1_lower)
    violated = solve_coupled_exp(problem, exponents, cut)
    assert violated.status is SolveStatus.SANDWICH_VIOLATED
    assert violated.iterations == 1 < report.iterations
    assert violated.margins["u"][1] > cut.m1_upper / cut.m1_lower


def _plans_asked(monkeypatch, work):
    """Run ``work()``; return its result and each plan it asked a grid for, by key."""
    asked, plan = {}, RadialGrid.plan

    def spy(grid, build, *args):
        out = asked[(id(grid), build.__name__, *args)] = plan(grid, build, *args)
        return out

    with monkeypatch.context() as patch:
        patch.setattr(RadialGrid, "plan", spy)
        return work(), asked


def _solve_and_verify(problem, exponents, ledger, **kwargs):
    report = solve_coupled_alg(problem, exponents, ledger, **kwargs)
    return report, verify_solution(problem, exponents, report.u, report.v)


def test_default_alg_solves_share_one_ball_and_its_plans(alg_worked_case, monkeypatch):
    # whatever ran before, the first pass leaves every plan on the ball;
    # the second then builds none and returns the same plan objects
    problem, exponents, ledger, _ = alg_worked_case
    (first, _), asked1 = _plans_asked(
        monkeypatch, lambda: _solve_and_verify(problem, exponents, ledger))
    (second, cert), asked2 = _plans_asked(
        monkeypatch, lambda: _solve_and_verify(problem, exponents, ledger))
    ball = solvers._default_alg_ball()
    assert first.u.grid is second.u.grid is second.v.grid is ball
    assert {key[0] for key in asked2} == {id(ball)}
    assert {key[1] for key in asked2} == {"_flux_plan", "_newton_plan", "_spline_system",
                                          "_fit_plan", "_half_ball"}
    assert all(asked1.get(key) is plan for key, plan in asked2.items())
    # and it answers as a solve on a grid built afresh, bit for bit
    fresh = RadialGrid.auto(solvers.DEFAULT_ALG_RADIUS, *solvers._BALL_GRIDS[BarrierFamily.Z])
    own, own_cert = _solve_and_verify(problem, exponents, ledger, grid=fresh)
    assert own.u.grid is fresh
    assert json.dumps(_jsonable(second)) == json.dumps(_jsonable(own))
    assert json.dumps(_jsonable(cert)) == json.dumps(_jsonable(own_cert))
    assert second.u.values.tobytes() == own.u.values.tobytes()
    assert second.v.values.tobytes() == own.v.values.tobytes()


def test_only_the_default_alg_ball_outlives_its_solve(exp_worked_case, alg_worked_case,
                                                      monkeypatch):
    made, init = [], RadialGrid.__post_init__

    def spy(grid):
        init(grid)
        made.append(weakref.ref(grid))

    monkeypatch.setattr(RadialGrid, "__post_init__", spy)
    reports = [solve_coupled_exp(*exp_worked_case[:3]),
               _solve_and_verify(*alg_worked_case[:3], grid=RadialGrid.auto(60.0, 0.05, 1.05))[0]]
    # each solve's one ball, which its report holds
    assert len(made) == 2 and all(ref() is rep.u.grid for ref, rep in zip(made, reports))
    del reports
    gc.collect()
    assert [ref() for ref in made if ref() is not None] == []


@pytest.mark.parametrize("coupled", [True, False], ids=["coupled", "scalar"])
def test_zero_shift_solve_builds_one_grid_and_makes_one_run(coupled, alg_worked_case,
                                                            monkeypatch):
    # the coupled solve on its default ball, built afresh here, and the
    # scalar solve on its weight's grid: the ball is the only grid, and
    # one run on it makes the report
    made, init = [], RadialGrid.__post_init__

    def spy(grid):
        init(grid)
        made.append(grid)

    monkeypatch.setattr(RadialGrid, "__post_init__", spy)
    if coupled:
        runs = picard_runs(monkeypatch)
        monkeypatch.setattr(solvers, "_default_alg_ball",
                            functools.cache(solvers._default_alg_ball.__wrapped__))
        rep = solve_coupled_alg(*alg_worked_case[:3])
    else:
        runs, real_ball = [], solvers._monotone_ball
        monkeypatch.setattr(solvers, "_monotone_ball",
                            lambda *args: runs.append(args) or real_ball(*args))
        rep = solve_singular_scalar(5, 0.0, 1.0,
                                    z_field(RadialGrid.auto(150.0, h0=0.02, stretch=1.03), 4.0))
    assert rep.status is SolveStatus.CONVERGED and len(runs) == 1
    assert len(made) == 1 and made[0] is rep.v.grid


def test_ball_envelopes_name_the_balls_radius_in_a_refusal():
    # c W_2 falls below the smallest normal double on the ball
    grid = RadialGrid.auto(400.0, *solvers._BALL_GRIDS[BarrierFamily.W])
    field = solvers._Field("c * B", BarrierProfile(BarrierFamily.W, 2.0), 1.0, 2.0, 1.0)
    with pytest.raises(HypothesisError, match=f"underflows .* within radius {grid.radius:g}$"):
        solvers._ball_envelopes(grid, {"v": field})


def test_a_weight_envelope_below_1e_290_at_every_node_is_refused_by_name():
    # W_700 is at most e^-700 < 1e-290 on the whole ball, so no node
    # bounds psi / B; a weight that is not positive is refused first
    grid = RadialGrid.auto(5.0, h0=0.02, stretch=1.02)
    tag = BarrierProfile(BarrierFamily.W, 700.0)
    with pytest.raises(ValueError, match=r"^the envelope W\(700\) of psi is at most 1e-290 "
                                         r"at every node$"):
        solve_singular_scalar(3, 1e6, 1.0, RadialField(grid, np.ones(grid.n), tag))
    with pytest.raises(ValueError, match="^weight psi must be positive$"):
        solve_singular_scalar(3, 1e6, 1.0, RadialField(grid, np.zeros(grid.n), tag))


def test_a_weight_whose_ratio_to_its_envelope_overflows_is_refused_by_name():
    # W_130 falls to about 1e-232 at r = 5, so 1e300 / W_130 leaves float64
    # there; the refusal comes before numpy can warn of the overflow
    grid = RadialGrid.auto(5.0, h0=0.02, stretch=1.02)
    psi = RadialField(grid, np.full(grid.n, 1e300), BarrierProfile(BarrierFamily.W, 130.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^psi over its envelope W\(130\) leaves the "
                                             r"float64 range$"):
            solve_singular_scalar(3, 1e6, 1.0, psi)
