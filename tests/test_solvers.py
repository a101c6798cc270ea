import math

import numpy as np
import pytest

from gmsteady import solvers
from gmsteady.barriers import (
    Exponents,
    Problem,
    SourceModel,
    alg_regime_ledger,
    exp_regime_ledger,
)
from gmsteady.errors import HypothesisError, NonexistenceError, RegimeError
from gmsteady.profiles import BarrierFamily, BarrierProfile, eval_barrier
from gmsteady.radial_core import (
    RadialField,
    RadialGrid,
    apply_radial_laplacian,
    solve_linear_radial_variable,
)
from gmsteady.solvers import (
    SolveStatus,
    algebraic_scalar_admissible,
    decay_fit,
    default_exp_radius,
    solve_coupled_alg,
    solve_coupled_exp,
    solve_singular_scalar,
)


def w_field(grid, rate):
    profile = BarrierProfile(BarrierFamily.W, rate)
    return RadialField.from_function(
        grid, lambda r: np.asarray(eval_barrier(profile, r)), profile
    )


def z_field(grid, rate):
    profile = BarrierProfile(BarrierFamily.Z, rate)
    return RadialField.from_function(
        grid, lambda r: np.asarray(eval_barrier(profile, r)), profile
    )


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
                trace.append(solvers.IterationState(
                    grid.radius, it, RadialField(grid, v.copy()), residual, monotone_ok))
            if residual <= tol_residual:
                return v, residual, it, monotone_ok
        return v, residual, solvers.MAX_ITER, monotone_ok

    return ball


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


class TestScalarExponential:
    def run(self, record_trace=False):
        grid = RadialGrid.auto(default_exp_radius(1.0), h0=0.02, stretch=1.02)
        psi = w_field(grid, 2.0)
        return solve_singular_scalar(3, 4.0, 1.0, psi, record_trace=record_trace)

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
        prev = None
        for state in rep.trace:
            if prev is not None and prev.v.grid.n == state.v.grid.n:
                assert np.min(state.v.values - prev.v.values) >= -1e-12
            prev = state

    def test_trace_matches_per_iteration_assembly(self, monkeypatch):
        # the shared operator, whose diagonal each Newton step rewrites,
        # must trace the iterates of Newton with a band assembled per step
        rep = self.run(record_trace=True)
        monkeypatch.setattr(solvers, "_monotone_ball", reference_ball(newton=True))
        ref = self.run(record_trace=True)
        assert len(rep.trace) == len(ref.trace) > 1
        for got, want in zip(rep.trace, ref.trace):
            assert (got.ball_radius, got.iterate_index) == (want.ball_radius, want.iterate_index)
            assert np.array_equal(got.v.grid.nodes, want.v.grid.nodes)
            np.testing.assert_allclose(got.v.values, want.v.values, rtol=1e-13, atol=0)
            assert got.monotone_flag == want.monotone_flag
        np.testing.assert_allclose(rep.v.values, ref.v.values, rtol=1e-13, atol=0)

    def test_agrees_with_tight_fixed_shift_iteration(self, monkeypatch):
        assert_matches_fixed_shift(self.run, monkeypatch)

    def test_newton_iteration_count(self):
        assert self.run().iterations <= 16

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

    def test_doubled_ball_extends_the_weight_by_its_envelope(self, monkeypatch):
        # beyond R the doubled ball sees c Z_gamma, with c matched to psi at R
        grid = RadialGrid.auto(150.0, h0=0.02, stretch=1.03)
        tag = BarrierProfile(BarrierFamily.Z, 4.0)
        psi = RadialField(
            grid, 0.7 * (1.0 + 0.2 * np.cos(grid.nodes)) / (1.0 + grid.nodes**2) ** 2, tag)
        weights = []
        real_ball = solvers._monotone_ball

        def spy(op, mu, s, psi_vals, *rest):
            weights.append(psi_vals)
            return real_ball(op, mu, s, psi_vals, *rest)

        monkeypatch.setattr(solvers, "_monotone_ball", spy)
        solve_singular_scalar(5, 0.0, 1.0, psi)
        ball, doubled = weights
        assert np.array_equal(ball, psi.values)
        assert np.array_equal(doubled[: grid.n], psi.values)
        beyond = grid.extended(2.0).nodes[grid.n :]
        c = psi.values[-1] / eval_barrier(tag, grid.radius)
        assert np.allclose(doubled[grid.n :], c * eval_barrier(tag, beyond), rtol=1e-14, atol=0)

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

    def test_singular_inner_equation(self):
        # s > 0 exercises the singular v-update inside the coupled loop
        exponents = Exponents(2.0, 1.0, 1.0, 1.0)  # sigma = 1/2, b = 1/2
        ledger = exp_regime_ledger(exponents, 3, 1000.0, 12.0, 1.0, 1.2, 1.0)
        assert ledger.feasible
        problem = Problem(3, 1000.0, 12.0, SourceModel.exp_envelope(1.0, 1.2, 1.0, 1.1))
        rep = solve_coupled_exp(problem, exponents, ledger)
        assert rep.status is SolveStatus.CONVERGED
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

    def test_ball_growth_stability(self, exp_worked_case):
        _, _, ledger, rep = exp_worked_case
        barrier_u = BarrierProfile(BarrierFamily.W, ledger.rate_u)
        barrier_v = BarrierProfile(BarrierFamily.W, ledger.rate_v)
        allowance = ledger.m1_upper * eval_barrier(barrier_u, rep.ball_radius) + \
            ledger.m2_upper * eval_barrier(barrier_v, rep.ball_radius) + 1e-14
        assert rep.stability_gap <= allowance


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
        counts = []
        real_ball = solvers._monotone_ball

        def spy(*args):
            out = real_ball(*args)
            counts.append(out[2])
            return out

        monkeypatch.setattr(solvers, "_monotone_ball", spy)
        rep = solve_coupled_alg(problem, exponents, ledger)
        assert rep.status is SolveStatus.CONVERGED
        assert counts and max(counts) <= 10, counts

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
    ("exp_worked_case", solve_coupled_exp, 5),
    ("alg_worked_case", solve_coupled_alg, 3),
])
def test_operators_per_ball_not_per_iteration(case, solve, per_report, request, monkeypatch):
    # each ball assembles the scalar solve's operator and, in W runs, the
    # resolvent once; the residual check assembles one more
    problem, exponents, ledger, _ = request.getfixturevalue(case)
    built = []

    class Counting(solvers.RadialOperator):
        def __init__(self, grid, *args):
            built.append(grid.n)
            super().__init__(grid, *args)

    monkeypatch.setattr(solvers, "RadialOperator", Counting)
    iterations = []
    for tol_change in (1e-3, 1e-9):
        built.clear()
        iterations.append(solve(problem, exponents, ledger, tol_change=tol_change).iterations)
        assert len(built) == per_report, built
    assert iterations[0] < iterations[1]


class TestRandomFeasiblePoints:
    """The machinery must hold up across the feasible region, not just at
    the worked configurations: random feasible ledgers must yield
    converged, sandwiched solves."""

    def test_random_exponential_points(self):
        rng = np.random.default_rng(7011)
        done = 0
        while done < 8:
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
            problem = Problem(n, lam, mu, SourceModel.exp_envelope(alpha, beta, a))
            rep = solve_coupled_exp(problem, exponents, ledger)
            assert rep.status is SolveStatus.CONVERGED, (p, q, m, s, n, a, lam, mu)
            assert rep.margins["u"][0] >= 1 - 1e-9
            assert rep.margins["v"][0] >= 1 - 1e-9
            done += 1

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
        assert rate == pytest.approx(2.0, abs=1e-6)
        assert resid <= 1e-9

    def test_fits_own_generator_algebraic(self):
        grid = RadialGrid.auto(150.0, h0=0.05, stretch=1.03)
        field = z_field(grid, 3.0)
        rate, _ = decay_fit(field, BarrierFamily.Z, (10.0, 100.0))
        assert rate == pytest.approx(3.0, abs=1e-3)

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
        with pytest.raises(ValueError):
            decay_fit(field, BarrierFamily.W, (1.0, 5.0))


def test_run_status_ranks_sandwich_then_ball_growth():
    converged = solvers._run_status(1.0, 2.0, sandwiched=True, converged=True)
    assert converged == (SolveStatus.CONVERGED, [])
    assert solvers._run_status(1.0, 2.0, True, False) == (SolveStatus.MAX_ITERATIONS, [])
    status, notes = solvers._run_status(3.0, 2.0, True, True)
    assert status is SolveStatus.MAX_ITERATIONS
    assert notes == ["ball-growth stability gap 3.000e+00 exceeds boundary barrier 2.000e+00"]
    assert solvers._run_status(3.0, 2.0, False, True) == (SolveStatus.SANDWICH_VIOLATED, notes)
