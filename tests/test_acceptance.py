"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every criterion
carries an explicit runtime budget and the tolerance it must meet.
"""

import math
import time

import numpy as np
import pytest

from gmsteady.barriers import (
    BarrierFamily,
    BarrierProfile,
    Exponents,
    Problem,
    SourceModel,
    VerdictStatus,
    alg_regime_ledger,
    check_sandwich,
    classify,
    eval_barrier,
    exp_regime_ledger,
)
from gmsteady.certificates import verify_cor3, verify_solution
from gmsteady.errors import NonexistenceError, RegimeError
from gmsteady.kernels import GreenParams, green_lambda, green_lambda_mass
from gmsteady.potentials import newton_potential_radial
from gmsteady.radial_core import RadialField, RadialGrid
from gmsteady.solvers import (
    SolveStatus,
    algebraic_scalar_admissible,
    default_exp_radius,
    solve_singular_scalar,
)


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert self.elapsed < self.seconds, (
                f"{self.name}: runtime {self.elapsed:.2f}s exceeds {self.seconds}s"
            )
            print(f"ACCEPTANCE {self.name}: PASS ({self.elapsed:.2f}s)")


def test_01_kernel_calibration():
    with Budget("1 kernel calibration", 5.0):
        for n in (3, 4, 5):
            for lam in (1.0, 4.0, 9.0):
                mass = green_lambda_mass(GreenParams(n, lam))
                assert abs(mass - 1.0 / lam) <= 1e-8 / lam
        r = np.geomspace(0.01, 20.0, 500)
        for lam in (1.0, 4.0, 9.0):
            vals = green_lambda(GreenParams(3, lam), r)
            ref = np.exp(-math.sqrt(lam) * r) / (4.0 * math.pi * r)
            assert np.max(np.abs(vals / ref - 1.0)) <= 1e-10


def test_02_barrier_sandwiches(rng):
    with Budget("2 barrier sandwiches", 1.0):
        r = np.linspace(0.0, 50.0, 10000)
        for _ in range(20):
            n = int(rng.integers(3, 8))
            a = float(rng.uniform(0.2, 4.0))
            lam = float(rng.uniform(0.0, 30.0))
            ck_w = check_sandwich(BarrierProfile(BarrierFamily.W, a), lam, n, r)
            assert ck_w.ok and ck_w.equality_at_zero <= 1e-12
            ck_z = check_sandwich(BarrierProfile(BarrierFamily.Z, a), 0.0, n, r)
            assert ck_z.ok and ck_z.equality_at_zero <= 1e-12


def _random_feasible_exp(rng):
    while True:
        p = float(rng.uniform(1.2, 3.0))
        s = float(rng.uniform(0.0, 2.0))
        m = float(rng.uniform(0.3, 2.5))
        sigma_target = float(rng.uniform(0.1, 1.0))
        q = sigma_target * (p - 1.0) * (s + 1.0) / m
        n = int(rng.integers(3, 7))
        a = float(rng.uniform(0.3, 2.0))
        lam = float(rng.uniform(2.0, 50.0)) * max(2 * a * a, n * n)
        b = a * m / (s + 1.0)
        mu = float(rng.uniform(1.01, 3.0)) * max(2 * b * b, n * n)
        alpha = float(rng.uniform(0.1, 2.0))
        beta = alpha * float(rng.uniform(1.0, 1.5))
        ex = Exponents(p, q, m, s)
        led = exp_regime_ledger(ex, n, lam, mu, alpha, beta, a)
        if led.feasible:
            return ex, n, lam, mu, alpha, beta, a, led


def _random_feasible_alg(rng):
    while True:
        n = int(rng.integers(4, 8))
        m = float(rng.uniform(0.8, 3.0))
        a_low = 2.0 * (1.0 + 1.0 / m)
        if a_low >= n - 0.2:
            continue
        a = float(rng.uniform(a_low + 0.05, n - 0.1))
        s = float(rng.uniform(0.2, 3.0))
        if not m * (a - 2.0) < (n - 2.0) * s + n:
            continue
        p = float(rng.uniform(3.0, 9.0))
        sigma = float(rng.uniform(0.05, 0.9))
        q = sigma * (p - 1.0) * (s + 1.0) / m
        ex = Exponents(p, q, m, s)
        if not 2.0 * p / (p - 1.0) <= a + sigma * (a_low - a):
            continue
        try:
            probe = alg_regime_ledger(ex, n, 1e-9, 2e-9, a)
        except RegimeError:
            continue
        eps = probe.aux["epsilon"]
        alpha = float(rng.uniform(0.05, 0.95)) * eps
        delta = probe.aux["delta"]
        hi = delta * alpha**probe.aux["sigma"]
        if hi <= alpha:
            continue
        beta = alpha + float(rng.uniform(0.05, 0.9)) * (hi - alpha)
        led = alg_regime_ledger(ex, n, alpha, beta, a)
        if led.feasible:
            return ex, n, alpha, beta, a, led


def test_03_ledger_identities(rng):
    with Budget("3 ledger identities", 1.0):
        for _ in range(1000):
            ex, n, lam, mu, alpha, beta, a, led = _random_feasible_exp(rng)
            p, q, m, s = ex.p, ex.q, ex.m, ex.s
            assert 2 * lam * led.m1_lower == pytest.approx(alpha, rel=1e-12)
            assert (lam / 4) * led.m1_upper == pytest.approx(
                led.m1_upper**p * led.m2_lower**-q, rel=1e-12)
            assert (mu / 2) * led.m2_upper == pytest.approx(
                led.m1_upper**m * led.m2_upper**-s, rel=1e-12)
            assert 2 * mu * led.m2_lower == pytest.approx(
                led.m1_lower**m * led.m2_lower**-s, rel=1e-12)
            # feasible implies the shift budget mu <= c0 lam^(p(s+1)/q - m)
            assert mu <= led.aux["c0"] * lam ** (p * (s + 1) / q - m) * (1 + 1e-9)

        for _ in range(1000):
            ex, n, alpha, beta, a, led = _random_feasible_alg(rng)
            p, q, m, s = ex.p, ex.q, ex.m, ex.s
            b = led.rate_v
            assert (a - 2) * n * led.m1_lower == pytest.approx(alpha, rel=1e-12)
            assert (a - 2) * (n - a) / 2 * led.m1_upper == pytest.approx(
                led.m1_upper**p * led.m2_lower**-q, rel=1e-12)
            assert b * (n - b - 2) * led.m2_upper == pytest.approx(
                led.m1_upper**m * led.m2_upper**-s, rel=1e-12)
            assert b * n * led.m2_lower == pytest.approx(
                led.m1_lower**m * led.m2_lower**-s, rel=1e-12)

        # frozen worked examples
        led = exp_regime_ledger(Exponents(2, 1, 1, 0), 3, 4096.0, 16.0, 1.0, 2.0, 1.0)
        assert led.m1_lower == pytest.approx(1 / 8192, rel=1e-12)
        assert led.m1_upper == pytest.approx(1 / 256, rel=1e-12)
        assert led.m2_lower == pytest.approx(1 / 262144, rel=1e-12)
        assert led.m2_upper == pytest.approx(1 / 2048, rel=1e-12)
        led = alg_regime_ledger(Exponents(5, 2, 2, 1), 5, 0.01, 0.015, 4.0)
        c = (1.0 / 500.0) ** 0.25
        assert led.aux["A"] == pytest.approx(0.1, rel=1e-12)
        assert led.aux["B"] == pytest.approx(1 / math.sqrt(500), rel=1e-12)
        assert led.aux["C"] == pytest.approx(c, rel=1e-12)
        assert led.aux["D"] == pytest.approx(c / math.sqrt(2), rel=1e-12)
        assert led.aux["epsilon"] == pytest.approx(c * c, rel=1e-12)
        assert led.m1_lower == pytest.approx(0.001, rel=1e-12)
        assert led.m1_upper == pytest.approx(c * 0.1, rel=1e-12)
        assert led.m2_lower == pytest.approx(0.01 / math.sqrt(500), rel=1e-12)
        assert led.m2_upper == pytest.approx(c / math.sqrt(2) * 0.1, rel=1e-12)


def test_04_scalar_solver_exponential():
    with Budget("4 scalar solver exponential", 10.0):
        grid = RadialGrid.auto(default_exp_radius(1.0, 1e12), h0=0.02, stretch=1.02)
        profile = BarrierProfile(BarrierFamily.W, 2.0)
        psi = RadialField.from_function(
            grid, lambda r: np.asarray(eval_barrier(profile, r)), profile)
        rep = solve_singular_scalar(3, 4.0, 1.0, psi, record_trace=True)
        assert rep.status is SolveStatus.CONVERGED
        assert rep.residual_v <= 1e-8
        assert all(state.monotone_flag for state in rep.trace)
        env = np.asarray(eval_barrier(BarrierProfile(BarrierFamily.W, 1.0), grid.nodes))
        ratios = rep.v.values / env
        assert np.all(ratios >= 1 / math.sqrt(7) * (1 - 1e-9))
        assert np.all(ratios <= 1 / math.sqrt(3) * (1 + 1e-9))
        assert rep.decay["v"][0] == pytest.approx(1.0, rel=0.02)


def test_05_scalar_solver_algebraic():
    with Budget("5 scalar solver algebraic", 10.0):
        grid = RadialGrid.auto(150.0, h0=0.02, stretch=1.03)
        profile = BarrierProfile(BarrierFamily.Z, 4.0)
        psi = RadialField.from_function(
            grid, lambda r: np.asarray(eval_barrier(profile, r)), profile)
        rep = solve_singular_scalar(5, 0.0, 1.0, psi)
        assert rep.status is SolveStatus.CONVERGED
        env = np.asarray(eval_barrier(BarrierProfile(BarrierFamily.Z, 1.0), grid.nodes))
        ratios = rep.v.values / env
        assert np.all(ratios >= 1 / math.sqrt(5) * (1 - 1e-9))
        assert np.all(ratios <= 1 / math.sqrt(2) * (1 + 1e-9))
        assert rep.decay["v"][0] == pytest.approx(1.0, rel=0.03)


def test_06_coupled_exponential():
    from gmsteady.solvers import solve_coupled_exp

    with Budget("6 coupled exponential", 60.0):
        exponents = Exponents(2.0, 1.0, 1.0, 0.0)
        problem = Problem(3, 4096.0, 16.0, SourceModel.exp_envelope(1.0, 2.0, 1.0, 1.5))
        ledger = exp_regime_ledger(exponents, 3, 4096.0, 16.0, 1.0, 2.0, 1.0)
        rep = solve_coupled_exp(problem, exponents, ledger)
        assert rep.status is SolveStatus.CONVERGED
        assert rep.residual_u <= 1e-5 and rep.residual_v <= 1e-5
        lo_u, hi_u = rep.margins["u"]
        lo_v, hi_v = rep.margins["v"]
        assert lo_u >= 1 - 1e-9 and hi_u <= (ledger.m1_upper / ledger.m1_lower) * (1 + 1e-9)
        assert lo_v >= 1 - 1e-9 and hi_v <= (ledger.m2_upper / ledger.m2_lower) * (1 + 1e-9)
        ratio = rep.decay["v"][0] / rep.decay["u"][0]
        target = exponents.m / (exponents.s + 1.0)
        assert ratio == pytest.approx(target, rel=0.02)


def test_07_coupled_algebraic():
    from gmsteady.solvers import solve_coupled_alg

    with Budget("7 coupled algebraic", 60.0):
        exponents = Exponents(5.0, 2.0, 2.0, 1.0)
        problem = Problem(5, 0.0, 0.0, SourceModel.alg_envelope(0.01, 0.015, 4.0, 0.0125))
        ledger = alg_regime_ledger(exponents, 5, 0.01, 0.015, 4.0)
        rep = solve_coupled_alg(problem, exponents, ledger)
        assert rep.status is SolveStatus.CONVERGED
        assert rep.residual_u <= 1e-5 and rep.residual_v <= 1e-5
        assert rep.decay["u"][0] == pytest.approx(2.0, rel=0.03)
        assert rep.decay["v"][0] == pytest.approx(1.0, rel=0.03)


def test_08_closed_form_certificate():
    with Budget("8 closed-form certificate", 10.0):
        for n, p, s in [(3, 6.0, 1.0), (4, 4.0, 2.0), (5, 3.0, 0.5)]:
            g1 = RadialGrid.uniform(20.0, 5001)
            g2 = RadialGrid.uniform(20.0, 10001)
            c1 = verify_cor3(n, p, s, 1.0, g1)
            c2 = verify_cor3(n, p, s, 1.0, g2)
            order_u = math.log2(c1.residual_u / c2.residual_u)
            order_v = math.log2(c1.residual_v / c2.residual_v)
            assert 1.85 <= order_u <= 2.15
            assert 1.85 <= order_v <= 2.15


def test_09_nonexistence_boundaries():
    with Budget("9 nonexistence boundaries", 5.0):
        # p = N/(N-2) for N = 3
        for p in np.linspace(2.0, 4.0, 41):
            v = classify(Problem(3, 0.0, 0.0, SourceModel.zero()),
                         Exponents(float(p), 1.0, 5.0, 1.0))
            if p <= 3.0:
                assert v.tag == "Theorem 1.2(i)"
            else:
                assert v.status is not VerdictStatus.NONEXISTENCE
        # a = 2(1 + 1/m) for m = 2, N = 5
        for a in np.linspace(2.0, 5.0, 61):
            v = classify(
                Problem(5, 0.0, 0.0, SourceModel.alg_envelope(0.01, 0.015, float(a))),
                Exponents(5.0, 2.0, 2.0, 1.0))
            if a <= 3.0:
                assert v.tag == "Theorem 1.4(i)"
            else:
                assert v.tag != "Theorem 1.4(i)"
        # gamma = 2 for the zero-shift scalar problem
        grid = RadialGrid.auto(30.0, h0=0.1, stretch=1.05)
        for gamma in np.linspace(1.2, 3.0, 19):
            admissible = algebraic_scalar_admissible(5, 1.0, float(gamma))
            assert admissible == (gamma > 2.0)
            if gamma <= 2.0:
                profile = BarrierProfile(BarrierFamily.Z, float(gamma))
                psi = RadialField.from_function(
                    grid, lambda r: np.asarray(eval_barrier(profile, r)), profile)
                with pytest.raises(NonexistenceError):
                    solve_singular_scalar(5, 0.0, 1.0, psi)


def test_10_radial_gradient_criterion(rng):
    with Budget("10 radial gradient criterion", 10.0):
        for k in range(50):
            n = int(rng.integers(3, 6))
            grid = RadialGrid.auto(60.0, h0=0.02, stretch=1.02)
            r = grid.nodes
            vals = np.zeros(grid.n)
            for _ in range(int(rng.integers(1, 4))):
                c = float(rng.uniform(0.0, 5.0))
                wdt = float(rng.uniform(0.8, 2.0))
                amp = float(rng.uniform(0.1, 3.0))
                vals += amp * np.exp(-(((r - c) / wdt) ** 2))
            vals *= np.asarray(eval_barrier(BarrierProfile(BarrierFamily.Z, 4.0), r))
            src = RadialField(grid, vals, BarrierProfile(BarrierFamily.Z, 4.0))
            u = newton_potential_radial(n, src)
            dv = np.gradient(u.values, r)
            q = (r * np.abs(dv) / u.values)[1:-2]
            # 1 percent slack covers the O(h^2) differencing error
            assert np.max(q) <= (n - 2) * 1.01


def test_11_cross_consistency(exp_worked_case, alg_worked_case):
    with Budget("11 cross consistency", 5.0):
        shipped = [exp_worked_case, alg_worked_case]
        for problem, exponents, _, rep in shipped:
            verdict = classify(problem, exponents)
            cert = verify_solution(problem, exponents, rep.u, rep.v)
            passes = cert.max_residual() <= 1e-6
            assert not (passes and verdict.status is VerdictStatus.NONEXISTENCE)
            # these two are existence-certified; classification must agree
            assert verdict.status is VerdictStatus.EXISTENCE_GUARANTEED
        # nonexistence points must not admit a verified pair: reuse the
        # algebraic fields at a parameter point below the source-rate bound
        problem, exponents, _, rep = alg_worked_case
        bad_problem = Problem(5, 0.0, 0.0, SourceModel.alg_envelope(0.01, 0.015, 2.5, 0.0125))
        bad_verdict = classify(bad_problem, exponents)
        assert bad_verdict.status is VerdictStatus.NONEXISTENCE
        cert = verify_solution(bad_problem, exponents, rep.u, rep.v, representation=False)
        assert cert.max_residual() > 1e-6
