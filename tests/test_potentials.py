import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from gmsteady.barriers import Exponents, Problem, SourceModel, barrier_operator_factor
from gmsteady.errors import NonIntegrableTailError
from gmsteady import potentials, radial_core
from gmsteady.kernels import GreenParams, green_lambda, sphere_area
from gmsteady.potentials import (
    DivergenceVerdict,
    bessel_potential_radial,
    convr_check,
    divergence_probe_rho,
    newton_potential_radial,
    representation_residual,
)
from gmsteady.profiles import BarrierFamily, BarrierProfile, eval_barrier, weighted_antiderivative
from gmsteady.radial_core import RadialField, RadialGrid, RadialOperator, apply_radial_laplacian
from gmsteady.solvers import DEFAULT_ALG_RADIUS, default_exp_radius


def test_newton_uniform_ball():
    # sampled jump: midpoint value at the edge keeps the quadrature O(h^2)
    g = RadialGrid.uniform(4.0, 4001)
    vals = np.where(g.nodes < 1.0, 1.0, 0.0)
    vals[np.searchsorted(g.nodes, 1.0)] = 0.5
    u = newton_potential_radial(3, RadialField(g, vals))
    assert u.values[0] == pytest.approx(0.5, abs=1e-6)
    i2 = np.searchsorted(g.nodes, 2.0)
    assert u.values[i2] == pytest.approx(1.0 / 6.0, abs=1e-6)


def test_newton_zero_source():
    g = RadialGrid.uniform(2.0, 64)
    u = newton_potential_radial(3, RadialField(g, np.zeros(g.n)))
    assert np.max(np.abs(u.values)) == 0.0


def test_newton_recovers_algebraic_profile():
    # manufactured source: the closed-form -Delta of (1+r^2)^(-1) in N=5
    g = RadialGrid.auto(80.0, h0=0.02, stretch=1.03)
    r = g.nodes
    a = 2.0
    src = a * (5.0 + (5.0 - a - 2.0) * r * r) * (1.0 + r * r) ** (-(a + 4.0) / 2.0)
    field = RadialField(g, src, BarrierProfile(BarrierFamily.Z, a + 2.0))
    u = newton_potential_radial(5, field)
    assert np.max(np.abs(u.values - (1.0 + r * r) ** (-1.0))) <= 1e-5


def test_newton_rejects_fat_tail():
    g = RadialGrid.uniform(5.0, 64)
    field = RadialField(g, np.ones(g.n), BarrierProfile(BarrierFamily.Z, 2.0))
    with pytest.raises(NonIntegrableTailError):
        newton_potential_radial(3, field)
    # missing tag with a non-vanishing boundary value is also rejected
    with pytest.raises(ValueError):
        newton_potential_radial(3, RadialField(g, np.ones(g.n)))


def _alg_source(grid, rate=4.0):
    tag = BarrierProfile(BarrierFamily.Z, rate)
    return RadialField(grid, np.asarray(eval_barrier(tag, grid.nodes)), tag)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_newton_on_a_warm_grid_matches_a_fresh_grid(n):
    # the grid's plans hold what earlier calls computed; a later call must
    # give the bits a call on a grid of the same nodes without plans gives
    grid = RadialGrid.auto(40.0, h0=0.02, stretch=1.02)
    for m in (3, 4, 5):
        for rate in (3.5, 6.0):
            newton_potential_radial(m, _alg_source(grid, rate))
            bessel_potential_radial(m, 16.0, _alg_source(grid, rate))
    for rate in (4.0, 2.5 + n):
        warm = newton_potential_radial(n, _alg_source(grid, rate))
        fresh = newton_potential_radial(
            n, _alg_source(RadialGrid(grid.nodes.copy(), grid.stretch), rate))
        assert np.array_equal(warm.values, fresh.values)


def test_newton_plan_is_built_once_per_grid_and_dimension(monkeypatch):
    built = []

    def counted(build):
        def wrapper(nodes, *args):
            built.append((build.__name__, nodes.size, *args))
            return build(nodes, *args)
        return wrapper

    for name in ("_newton_plan", "_spline_system"):
        monkeypatch.setattr(potentials, name, counted(getattr(potentials, name)))
    small, large = RadialGrid.uniform(5.0, 64), RadialGrid.uniform(5.0, 65)
    for _ in range(3):
        for n in (3, 5):
            newton_potential_radial(n, _alg_source(small))
        newton_potential_radial(3, _alg_source(large))
        bessel_potential_radial(3, 4.0, _alg_source(large))
    assert sorted(built) == [("_newton_plan", 64, 3), ("_newton_plan", 64, 5),
                             ("_newton_plan", 65, 3),
                             ("_spline_system", 64), ("_spline_system", 65)]


_ORACLE_GRIDS = {
    "graded-40": lambda: RadialGrid.auto(40.0, 0.02, 1.02),
    "uniform-64": lambda: RadialGrid.uniform(5.0, 64),
    "alg-ball": lambda: RadialGrid.auto(DEFAULT_ALG_RADIUS, h0=0.008, stretch=1.02),
}


def _cubic_potential(n, radius, r):
    """The exact potential of g(s) = (R - s)^3 on [0, R], zero beyond, at r.

    u(r) = [r^(2-N) I(r) + J(R) - J(r)] / (N - 2) with I(r) the integral
    of s^(N-1) g and J(r) that of s g over [0, r], both polynomials,
    evaluated in exact rational arithmetic at the float nodes.
    """
    big = Fraction(radius)

    def moments(x, k):
        # int_0^x s^(k-1) (R - s)^3 ds
        return (big**3 * x**k / k - 3 * big**2 * x ** (k + 1) / (k + 1)
                + 3 * big * x ** (k + 2) / (k + 2) - x ** (k + 3) / (k + 3))

    j_total = moments(big, 2)
    out = []
    for x in map(Fraction, r):
        inner = moments(x, n) / x ** (n - 2) if x else 0
        out.append(float((inner + j_total - moments(x, 2)) / (n - 2)))
    return np.array(out)


@pytest.mark.parametrize("grid", list(_ORACLE_GRIDS))
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_newton_integrates_a_cubic_source_exactly(grid, n):
    # the not-a-knot spline reproduces a cubic and the 8-point rule is exact
    # to degree 15, so the potential of (R - s)^3 is exact up to rounding
    grid = _ORACLE_GRIDS[grid]()
    r = grid.nodes
    u = newton_potential_radial(n, RadialField(grid, (grid.radius - r) ** 3)).values
    exact = _cubic_potential(n, grid.radius, r)
    assert np.max(np.abs(u / exact - 1.0)) <= 1e-13


def _newton_loop_reference(n, source):
    """Interval-by-interval loop form of the Newtonian potential.

    scipy's CubicSpline is summed against s^(N-1) and s at each interval's
    8 Gauss points; the potential's moment sums must agree to rounding.
    """
    r = source.grid.nodes
    spline = CubicSpline(r, source.values)
    xg, wg = np.polynomial.legendre.leggauss(8)
    inner, j_cum = np.zeros(r.size), np.zeros(r.size)
    for i in range(r.size - 1):
        half = 0.5 * (r[i + 1] - r[i])
        pts = 0.5 * (r[i] + r[i + 1]) + half * xg
        vals = half * wg * spline(pts)
        inner[i + 1] = inner[i] + np.sum(vals * pts ** (n - 1))
        j_cum[i + 1] = j_cum[i] + np.sum(vals * pts)
    outer = j_cum[-1] - j_cum - source.tail(source.grid.radius, weighted_antiderivative)
    u = outer / (n - 2.0)
    u[1:] += r[1:] ** (2.0 - n) * inner[1:] / (n - 2.0)
    return u


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("scale", [1.0, 1e-30, 1e30])
def test_newton_matches_loop_reference(n, scale):
    rng = np.random.default_rng(n)
    grid = RadialGrid.auto(40.0, h0=0.02, stretch=1.02)
    r = grid.nodes
    tag = BarrierProfile(BarrierFamily.Z, 4.0)
    vals = np.zeros(grid.n)
    for _ in range(3):
        c, wdt, amp = rng.uniform(0, 5), rng.uniform(0.8, 2.0), rng.uniform(0.1, 3)
        vals += amp * np.exp(-(((r - c) / wdt) ** 2))
    vals = scale * (vals + 0.1) * np.asarray(eval_barrier(tag, r))
    src = RadialField(grid, vals, tag)
    u = newton_potential_radial(n, src).values
    assert np.max(np.abs(u / _newton_loop_reference(n, src) - 1.0)) <= 1e-14


def _array_bytes(part):
    """Bytes of the arrays in a plan, its nested tuples included."""
    if isinstance(part, tuple):
        return sum(map(_array_bytes, part))
    return part.nbytes if isinstance(part, np.ndarray) else 0


def test_grid_plans_hold_at_most_160_bytes_per_node():
    # a zero-shift call and an operator at N = 5 leave the Newtonian
    # moments, the spline system and the flux form on the grid
    grid = RadialGrid.graded(200.0, 100_000, 1.00005)
    newton_potential_radial(5, _alg_source(grid))
    RadialOperator(grid, 5)
    assert _array_bytes(tuple(grid._plans.values())) <= 160 * grid.n


def test_grid_plans_are_read_only():
    # a plan is shared by every later call on its grid, the default
    # zero-shift balls' for the whole process: no caller may write into it
    grid = RadialGrid.auto(40.0, 0.02, 1.02)
    plans = [grid.plan(radial_core._flux_plan, 5), grid.plan(potentials._spline_system),
             grid.plan(potentials._newton_plan, 5),
             grid.plan(potentials._fit_plan, BarrierFamily.Z, (4.0, 16.0))]
    arrays = [part for plan in plans for part in plan if isinstance(part, np.ndarray)]
    assert len(arrays) == 5 + 4 + 2 + 2
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    # the operators and potentials that read them still run, dgtsv included
    source = _alg_source(grid)
    assert newton_potential_radial(5, source).values.tobytes() == \
        newton_potential_radial(5, RadialField(RadialGrid(grid.nodes, grid.stretch),
                                               source.values, source.decay_tag)).values.tobytes()
    assert np.isfinite(RadialOperator(grid, 5, 1.0).solve(source.values, 0.0)).all()


@pytest.mark.parametrize("radius, dimension", [(1e200, 5), (1e200, 3), (1e300, 3),
                                               (1e308, 3), (1e-300, 5)])
def test_newton_potential_refuses_a_grid_beyond_the_float_range(radius, dimension):
    # the moments s^(N-1) h^4 (or r^(2-N)) leave float64: one ValueError up
    # front, before any numpy warning
    grid = RadialGrid.uniform(radius, 20)
    tag = BarrierProfile(BarrierFamily.Z, 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        source = RadialField(grid, np.asarray(eval_barrier(tag, grid.nodes)), tag)
        with pytest.raises(ValueError, match="leave the float64 range"):
            newton_potential_radial(dimension, source)


def test_newton_consistency_second_order():
    def resid(g):
        src = np.asarray(eval_barrier(BarrierProfile(BarrierFamily.Z, 5.0), g.nodes))
        field = RadialField(g, src, BarrierProfile(BarrierFamily.Z, 5.0))
        u = newton_potential_radial(4, field)
        lap = apply_radial_laplacian(u, 4).values
        return np.max(np.abs(lap - src)[:-1])

    g = RadialGrid.uniform(30.0, 1501)
    e1, e2 = resid(g), resid(g.refined())
    assert e1 / e2 == pytest.approx(4.0, rel=0.25)


def test_newton_monotone_flux_and_gradient_criterion():
    # potentials of nonnegative sources have v' <= 0, r^(N-1) v' non-increasing
    # and r|v'|/v <= N-2.  In t = r^(2-N) the flux condition says v is concave,
    # and with v = 0 at t = 0 the gradient criterion says v(t) >= t v_t(t).
    # On samples both are exact chord-slope statements, free of differencing
    # error: np.gradient's O(h^2) error alone exceeds a 1e-5 relative flux
    # slack where the source bumps end
    rng = np.random.default_rng(20240817)
    for n in (3, 4, 5):
        g = RadialGrid.auto(60.0, h0=0.02, stretch=1.02)
        r = g.nodes
        vals = np.zeros(g.n)
        for _ in range(3):
            c, wdt, amp = rng.uniform(0, 5), rng.uniform(0.8, 2.0), rng.uniform(0.1, 3)
            vals += amp * np.exp(-(((r - c) / wdt) ** 2))
        vals *= np.asarray(eval_barrier(BarrierProfile(BarrierFamily.Z, 4.0), r))
        u = newton_potential_radial(n, RadialField(g, vals, BarrierProfile(BarrierFamily.Z, 4.0)))
        v = u.values
        assert np.all(np.diff(v) <= 0.0)
        t = r[1:] ** (2.0 - n)
        slope = np.diff(v[1:]) / np.diff(t)  # chord slopes, outward
        # concave in t: the chord slopes do not fall going outward
        assert np.all(np.diff(slope) >= -1e-9 * np.max(slope))
        # the chord from t = 0 to a node is at least as steep as the next
        # chord inward
        assert np.all(t[1:] * slope <= (1.0 + 1e-9) * v[2:])


def test_bessel_constant_source_identity():
    g = RadialGrid.auto(30.0, h0=0.05, stretch=1.02)
    src = RadialField(g, np.ones(g.n), BarrierProfile(BarrierFamily.Z, 0.0))
    u = bessel_potential_radial(3, 1.0, src)
    assert np.max(np.abs(u.values - 1.0)) <= 1e-6


def test_bessel_point_bump_matches_kernel():
    g = RadialGrid.uniform(5.0, 2001)
    w = 0.05
    bump = np.exp(-((g.nodes / w) ** 2) / 2.0)
    mass = 4.0 * math.pi * np.trapezoid(g.nodes**2 * bump, g.nodes)
    src = RadialField(g, bump / mass, BarrierProfile(BarrierFamily.W, 30.0))
    u = bessel_potential_radial(3, 4.0, src)
    i2 = np.searchsorted(g.nodes, 2.0)
    ref = green_lambda(GreenParams(3, 4.0), 2.0)
    assert u.values[i2] == pytest.approx(ref, rel=0.01)  # bump-width error


def test_bessel_zero_source():
    g = RadialGrid.uniform(2.0, 64)
    u = bessel_potential_radial(3, 2.0, RadialField(g, np.zeros(g.n)))
    assert np.max(np.abs(u.values)) == 0.0


def test_bessel_consistency_and_mass():
    g = RadialGrid.auto(25.0, h0=0.01, stretch=1.02)
    src_vals = np.asarray(
        eval_barrier(BarrierProfile(BarrierFamily.W, 1.0), g.nodes)
    ) * (1.0 + g.nodes**2) ** (-1.0)
    src = RadialField(g, src_vals, BarrierProfile(BarrierFamily.W, 1.0))
    u = bessel_potential_radial(3, 2.0, src)
    lap = apply_radial_laplacian(u, 3).values
    resid = np.abs(lap + 2.0 * u.values - src_vals)
    assert np.max(resid[:-1]) <= 2e-4

    w3 = 4.0 * math.pi
    mass_in = w3 * np.trapezoid(g.nodes**2 * src_vals, g.nodes)
    mass_out = w3 * np.trapezoid(g.nodes**2 * u.values, g.nodes)
    assert mass_out == pytest.approx(mass_in / 2.0, rel=1e-5)


def test_bessel_requires_positive_shift():
    g = RadialGrid.uniform(2.0, 64)
    with pytest.raises(ValueError):
        bessel_potential_radial(3, 0.0, RadialField(g, np.zeros(g.n)))


def _spherical_mean_quad(params, r, s):
    """Angular surface integral of G_lambda over the sphere of radius s:

        S(r, s) = |S^(N-2)| int_0^pi G_lambda(d(t)) sin(t)^(N-2) dt,
        d(t) = sqrt(r^2 + s^2 - 2 r s cos t).
    """
    n = params.dimension

    def integrand(t):
        d = math.sqrt(max(r * r + s * s - 2.0 * r * s * math.cos(t), 0.0))
        if d == 0.0:
            return 0.0
        return green_lambda(params, d) * math.sin(t) ** (n - 2)

    val, _ = quad(integrand, 0.0, math.pi, limit=200, epsabs=1e-13, epsrel=1e-11)
    return sphere_area(n - 1) * val


def test_spherical_mean_closed_form_matches_quadrature():
    # the factored Bessel product that bessel_potential_radial evaluates,
    # (r s)^(1-N/2) I_nu(k min) K_nu(k max) in scaled form, equals the
    # angular surface integral
    for n, lam in [(3, 2.0), (4, 1.0), (5, 3.0)]:
        params = GreenParams(n, lam)
        k, nu = math.sqrt(lam), n / 2.0 - 1.0
        for r, s in [(0.5, 1.5), (2.0, 2.0), (3.0, 0.2), (1.0, 4.0)]:
            lo, hi = min(r, s), max(r, s)
            closed = ((r * s) ** (1.0 - n / 2.0) * special.ive(nu, k * lo)
                      * special.kve(nu, k * hi) * math.exp(k * (lo - hi)))
            assert closed == pytest.approx(_spherical_mean_quad(params, r, s), rel=1e-9)


def test_representation_residual_closed_form_pair():
    from gmsteady.certificates import aubin_talenti, closed_form_exponents

    n, p, s, amp = 3, 6.0, 1.0, 1.0
    exponents = closed_form_exponents(n, p, s)
    grid = RadialGrid.auto(60.0, h0=0.01, stretch=1.02)
    w = aubin_talenti(n, amp, grid.nodes)
    tag = BarrierProfile(BarrierFamily.Z, float(n - 2))
    u = RadialField(grid, w, tag)
    v = RadialField(grid, w, tag)
    problem = Problem(n, 0.0, 0.0, SourceModel.zero())
    res_u, res_v = representation_residual(problem, exponents, u, v)
    assert res_u <= 1e-5 and res_v <= 1e-5

    # a 10 percent perturbation is detected at O(1) scale
    u10 = RadialField(grid, 1.1 * w, tag)
    v10 = RadialField(grid, 1.1 * w, tag)
    res_u, res_v = representation_residual(problem, exponents, u10, v10)
    assert res_u >= 1e-2 and res_v >= 1e-2


@pytest.mark.parametrize("case", ["exp_worked_case", "alg_worked_case"])
def test_handed_in_right_sides_give_the_same_bits(case, request):
    # the sides a caller forms once are the ones the representation forms alone
    problem, exponents, _, rep = request.getfixturevalue(case)
    u, v = rep.u, rep.v
    sides = potentials._DiscreteSystem.admit(problem, exponents, u, v).sides(u.values, v.values)
    assert (representation_residual(problem, exponents, u, v, sides)
            == representation_residual(problem, exponents, u, v))


@pytest.mark.parametrize("case", ["exp_worked_case", "alg_worked_case"])
@pytest.mark.parametrize("measure", ["verify", "representation"])
def test_a_pair_is_admitted_before_rho_is_evaluated_once(case, measure, request, monkeypatch):
    # without handed-in sides, a pair with a zero value and a pair on two
    # grids are refused before rho is evaluated; an admitted pair
    # evaluates rho once, at the nodes of its grid
    from gmsteady.certificates import verify_solution

    problem, exponents, _, rep = request.getfixturevalue(case)
    calls, evaluate = [], SourceModel.evaluate

    def spy(model, r):
        calls.append(r)
        return evaluate(model, r)

    monkeypatch.setattr(SourceModel, "evaluate", spy)
    measure = verify_solution if measure == "verify" else representation_residual
    zero = rep.v.values.copy()
    zero[3] = 0.0
    refused = [(RadialField(rep.v.grid, zero, rep.v.decay_tag), "fields must be positive"),
               (RadialField(RadialGrid(1.5 * rep.v.grid.nodes), rep.v.values, rep.v.decay_tag),
                "u and v must share a grid")]
    for v, message in refused:
        with pytest.raises(ValueError, match=f"^{message}$"):
            measure(problem, exponents, rep.u, v)
    assert calls == []
    measure(problem, exponents, rep.u, rep.v)
    assert len(calls) == 1 and calls[0] is rep.u.grid.nodes


@pytest.mark.parametrize("case", ["exp_worked_case", "alg_worked_case"])
def test_each_coupled_solve_evaluates_rho_once(case, request, monkeypatch):
    # the solve's discrete system evaluates rho at the nodes of its ball,
    # once, and iterates and measures with those values
    from gmsteady.solvers import solve_coupled_alg, solve_coupled_exp

    problem, exponents, ledger, rep = request.getfixturevalue(case)
    calls, evaluate = [], SourceModel.evaluate

    def spy(model, r):
        calls.append(r)
        return evaluate(model, r)

    monkeypatch.setattr(SourceModel, "evaluate", spy)
    solve = solve_coupled_exp if problem.lam > 0 else solve_coupled_alg
    report = solve(problem, exponents, ledger)
    assert len(calls) == 1 and calls[0] is report.v.grid.nodes
    assert (report.u.values == rep.u.values).all() and (report.v.values == rep.v.values).all()


@pytest.mark.filterwarnings("error")
def test_each_measurement_refuses_the_right_sides_over_its_own_nodes(exp_worked_case):
    # a right side that overflows at the last node only: the PDE residuals,
    # which stop short of it, measure the pair; the representation refuses
    problem, exponents, _, rep = exp_worked_case
    values = rep.u.values.copy()
    values[-1] = 1e300
    u = RadialField(rep.u.grid, values, rep.u.decay_tag)
    system = potentials._DiscreteSystem.admit(problem, exponents, u, rep.v)
    sides = system.sides(values, rep.v.values)
    assert not np.isfinite(sides[0][-1]) and np.isfinite(sides[0][:-1]).all()
    assert all(map(math.isfinite, system.pde_residuals(values, rep.v.values, sides)))
    with pytest.raises(ValueError, match=r"^the right sides u\^p/v\^q \+ rho and u\^m/v\^s "
                                         r"leave the float64 range$"):
        representation_residual(problem, exponents, u, rep.v, sides)


def test_representation_residual_needs_positive_fields():
    g = RadialGrid.uniform(4.0, 64)
    pos = RadialField(g, np.ones(g.n), BarrierProfile(BarrierFamily.Z, 3.0))
    neg = RadialField(g, np.zeros(g.n), BarrierProfile(BarrierFamily.Z, 3.0))
    problem = Problem(3, 0.0, 0.0, SourceModel.zero())
    with pytest.raises(ValueError):
        representation_residual(problem, Exponents(4, 0.5, 4, 1), pos, neg)


def test_divergence_probe_rho_exact_tests():
    rep = divergence_probe_rho(3, SourceModel.alg_envelope(1.0, 1.0, 2.0))
    assert rep.verdict is DivergenceVerdict.DIVERGENT
    # log-divergent: dyadic shells are asymptotically constant
    tail = [s for _, s in rep.shell_sums[-4:]]
    assert max(tail) / min(tail) <= 1.1

    rep = divergence_probe_rho(3, SourceModel.alg_envelope(1.0, 1.0, 4.0))
    assert rep.verdict is DivergenceVerdict.CONVERGENT
    # exact closed form: beta * omega_N / (a - 2)
    assert rep.value == pytest.approx(4.0 * math.pi / 2.0, rel=1e-12)

    rep = divergence_probe_rho(3, SourceModel.zero())
    assert rep.verdict is DivergenceVerdict.CONVERGENT and rep.value == 0.0

    rep = divergence_probe_rho(4, SourceModel.exp_envelope(1.0, 2.0, 1.5))
    assert rep.verdict is DivergenceVerdict.CONVERGENT


def test_convr_check_profiles():
    g = RadialGrid.auto(100.0, h0=0.01, stretch=1.02)
    v_alg = RadialField(g, np.asarray(eval_barrier(BarrierProfile(BarrierFamily.Z, 3.0), g.nodes)))
    bound, holds = convr_check(v_alg)
    assert holds and bound == pytest.approx(3.0, rel=1e-2)

    v_exp = RadialField(g, np.asarray(eval_barrier(BarrierProfile(BarrierFamily.W, 2.0), g.nodes)))
    bound, holds = convr_check(v_exp)
    assert not holds and bound >= 2.0 * 50.0  # grows like b r

    v_const = RadialField(g, np.full(g.n, 3.3))
    bound, holds = convr_check(v_const)
    assert holds and bound <= 1e-12

    with pytest.raises(ValueError):
        convr_check(RadialField(g, np.zeros(g.n)))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [1e-320, 1e308])
def test_convr_check_at_a_float_range_end_is_infinite(exp_worked_case, value):
    # r |v'| / v overflows at a subnormal or a huge value: the bound is
    # inf and the criterion does not hold, without a warning
    v = exp_worked_case[3].v
    values = v.values.copy()
    values[np.flatnonzero(v.grid.nodes > 0.75 * v.grid.radius)[0]] = value
    assert convr_check(RadialField(v.grid, values)) == (math.inf, False)


@pytest.mark.parametrize("grid", [
    RadialGrid(3.0 * np.arange(17.0), 1.0),  # equal spacings: numpy's uniform formula
    RadialGrid.uniform(7.3, 101),
    RadialGrid.graded(10.0, 200, 1.05),
    RadialGrid.graded(10.0, 200, 1.05).refined(),
    RadialGrid.auto(100.0, h0=0.01, stretch=1.02),
], ids=["exact", "uniform", "graded", "refined", "auto"])
def test_convr_gradient_is_numpys_bit_for_bit(grid):
    rng = np.random.default_rng(grid.n)
    r = grid.nodes
    for f in (np.exp(-0.7 * r), 1.0 / (1.0 + r * r) ** 1.5, rng.random(r.size) + 1e-3):
        assert np.array_equal(potentials._gradient(f, r), np.gradient(f, r))


@pytest.mark.parametrize("n, shift, a, radius", [
    (3, 4096.0, 1.0, default_exp_radius(1.0, 1e12)),
    (5, 16.0, 1.5, 25.0),
    (4, 1.0, 0.5, 40.0),
])
def test_bessel_recovers_manufactured_profile(n, shift, a, radius):
    # the source (-Delta + shift) W_a in closed form has potential W_a;
    # shift 4096 cuts each interval into several Gauss pieces
    g = RadialGrid.auto(radius, h0=0.02, stretch=1.02)
    tag = BarrierProfile(BarrierFamily.W, a)
    src = RadialField(g, barrier_operator_factor(tag, shift, g.nodes, n)
                      * np.asarray(eval_barrier(tag, g.nodes)), tag)
    u = bessel_potential_radial(n, shift, src)
    exact = np.asarray(eval_barrier(tag, g.nodes))
    mask = g.nodes <= 0.5 * radius
    assert np.max(np.abs(u.values[mask] / exact[mask] - 1.0)) <= 1e-4


def _bessel_loop_reference(n, shift, source):
    """Interval-by-interval loop form of the shifted potential.

    Every Gauss piece is suppressed against its own edges and then
    chained to the interval ends, and the tail is walked one geometric
    interval at a time; the vectorised potential must agree to rounding.
    """
    r = source.grid.nodes
    radius = source.grid.radius
    nu, k = n / 2.0 - 1.0, math.sqrt(shift)
    spline = CubicSpline(r, source.values)
    amp = source.values[-1] / eval_barrier(source.decay_tag, radius)
    xg, wg = np.polynomial.legendre.leggauss(12)

    def pieces(a, b):
        edges = np.linspace(a, b, max(1, math.ceil(k * (b - a) / 8.0)) + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            pts = 0.5 * (lo + hi) + 0.5 * (hi - lo) * xg
            yield lo, hi, pts, 0.5 * (hi - lo) * wg * pts ** (n / 2.0)

    ip, iq = np.zeros(r.size - 1), np.zeros(r.size - 1)
    for i in range(r.size - 1):
        for lo, hi, pts, w in pieces(r[i], r[i + 1]):
            core = w * spline(pts)
            ip[i] += np.sum(core * special.ive(nu, k * pts) * np.exp(k * (pts - hi))) \
                * math.exp(k * (hi - r[i + 1]))
            iq[i] += np.sum(core * special.kve(nu, k * pts) * np.exp(k * (lo - pts))) \
                * math.exp(k * (r[i] - lo))
    q_tail, sa, h = 0.0, radius, max(r[-1] - r[-2], 1e-3)
    for _ in range(400):
        for lo, hi, pts, w in pieces(sa, sa + h):
            core = w * amp * eval_barrier(source.decay_tag, pts)
            q_tail += np.sum(core * special.kve(nu, k * pts) * np.exp(k * (lo - pts))) \
                * math.exp(k * (radius - lo))
        sa, h = sa + h, 1.25 * h
        if k * (sa - radius) > 46.0:
            break

    decay = np.exp(-k * np.diff(r))
    p_acc, q_acc = np.zeros(r.size), np.zeros(r.size)
    q_acc[-1] = q_tail
    for i in range(r.size - 1):
        p_acc[i + 1] = p_acc[i] * decay[i] + ip[i]
    for i in range(r.size - 2, -1, -1):
        q_acc[i] = q_acc[i + 1] * decay[i] + iq[i]
    u = np.empty(r.size)
    zr = k * r[1:]
    u[1:] = r[1:] ** (1.0 - n / 2.0) * (
        special.kve(nu, zr) * p_acc[1:] + special.ive(nu, zr) * q_acc[1:])
    u[0] = (k / 2.0) ** nu / math.gamma(nu + 1.0) * q_acc[0]
    return u


@pytest.mark.parametrize("n, shift, tag", [
    (3, 4096.0, BarrierProfile(BarrierFamily.W, 1.0)),
    (4, 64.0, BarrierProfile(BarrierFamily.Z, 3.5)),
    (5, 1.0, BarrierProfile(BarrierFamily.W, 0.7)),
    (5, 4096.0, BarrierProfile(BarrierFamily.Z, 3.5)),
])
def test_bessel_matches_loop_reference(n, shift, tag):
    g = RadialGrid.auto(20.0, h0=0.02, stretch=1.02)
    src = RadialField(g, np.asarray(eval_barrier(tag, g.nodes)), tag)
    u = bessel_potential_radial(n, shift, src).values
    ref = _bessel_loop_reference(n, shift, src)
    assert np.max(np.abs(u / ref - 1.0)) <= 1e-12


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("shift", [1.0, 64.0, 4096.0])
@pytest.mark.parametrize("tag", [BarrierProfile(BarrierFamily.W, 0.7),
                                 BarrierProfile(BarrierFamily.Z, 3.5)], ids=["W", "Z"])
def test_bessel_matches_amos_factors(monkeypatch, n, shift, tag):
    # the closed-form and Cephes factors against scipy's AMOS ive/kve at
    # every order, through the same potential
    g = RadialGrid.auto(20.0, h0=0.02, stretch=1.02)
    src = RadialField(g, np.asarray(eval_barrier(tag, g.nodes)), tag)
    u = bessel_potential_radial(n, shift, src).values
    monkeypatch.setattr(potentials, "_scaled_bessel", lambda nu: (
        lambda z: special.ive(nu, z), lambda z: special.kve(nu, z)))
    amos = bessel_potential_radial(n, shift, src).values
    assert np.max(np.abs(u / amos - 1.0)) <= 1e-13


@pytest.mark.parametrize("block", [1, 3, 7])
@pytest.mark.parametrize("n, shift, tag", [
    (3, 4096.0, BarrierProfile(BarrierFamily.W, 0.7)),
    (5, 64.0, BarrierProfile(BarrierFamily.Z, 3.0)),
    (4, 4096.0, BarrierProfile(BarrierFamily.Z, 3.5)),
])
def test_bessel_piece_runs_match_one_run(monkeypatch, block, n, shift, tag):
    # short runs split intervals, the ball/tail seam and the tail's
    # intervals between runs
    g = RadialGrid.auto(20.0, h0=0.02, stretch=1.02)
    src = RadialField(g, np.asarray(eval_barrier(tag, g.nodes)), tag)
    whole = bessel_potential_radial(n, shift, src).values
    monkeypatch.setattr(potentials, "_PIECE_BLOCK", block)
    runs = bessel_potential_radial(n, shift, src).values
    assert np.max(np.abs(runs / whole - 1.0)) <= 1e-14


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("shift", [1e100, 1e300])
def test_bessel_refuses_huge_shifts_by_their_piece_count(shift):
    # the piece count is a float: at these shifts it passes every integer
    # type, and the call ends with a ValueError before any piece is built
    g = RadialGrid.auto(20.0, h0=0.02, stretch=1.02)
    tag = BarrierProfile(BarrierFamily.W, 1.0)
    src = RadialField(g, np.asarray(eval_barrier(tag, g.nodes)), tag)
    with pytest.raises(ValueError, match=r"needs \S+ Gauss pieces, more than the cap of 1000000"):
        bessel_potential_radial(3, shift, src)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("radius, shift", [(1e200, 4096.0), (1e200, 1e300), (1e150, 1e-300)])
def test_bessel_refuses_a_grid_beyond_the_float_range(radius, shift):
    # the spline's end rows (spans of 5e198), the tail's layout (at shift
    # 1e300) or the cubes of the spline's offsets (spans of 5e148) leave
    # float64: one ValueError naming the range, before any numpy warning
    grid = RadialGrid.uniform(radius, 20)
    tag = BarrierProfile(BarrierFamily.Z, 3.0)
    source = RadialField(grid, np.asarray(eval_barrier(tag, grid.nodes)), tag)
    with pytest.raises(ValueError, match="leaves? the float64 range"):
        bessel_potential_radial(3, shift, source)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decay_chains_match_the_recurrences_bit_for_bit(seed):
    # sums from 1e-300 to 1e5 with zeros among them, decays from 1 down to
    # 0, both chains over all 230 intervals: a LAPACK build whose dgtsv
    # contracts a step to a fused multiply-add differs in the last bit and
    # fails here
    rng = np.random.default_rng(seed)
    nint = 230
    ip_int, iq_int = 10.0 ** rng.uniform(-300, 5, (2, nint))
    ip_int[rng.integers(nint, size=10)] = 0.0
    iq_int[rng.integers(nint, size=10)] = 0.0
    decay = np.exp(-rng.uniform(0.0, 3.0, nint) ** 4)
    decay[[0, 3, 7]], decay[rng.integers(nint, size=5)] = 1.0, 0.0
    p_ref, q_ref = [0.0], [0.0]
    for d, ip in zip(decay.tolist(), ip_int.tolist()):
        p_ref.append(p_ref[-1] * d + ip)
    for d, iq in zip(reversed(decay.tolist()), reversed(iq_int.tolist())):
        q_ref.append(q_ref[-1] * d + iq)
    p_acc, q_acc = potentials._decay_chains(ip_int, iq_int, decay)
    assert np.array_equal(p_acc, p_ref)
    assert np.array_equal(q_acc, q_ref[::-1])


@pytest.mark.filterwarnings("error")
def test_bessel_refuses_interval_sums_beyond_the_float_range(monkeypatch):
    # at N = 40 the weights s^20 carry a source of amplitude 1e300 past the
    # largest double: the interval sums are refused before the chain solve,
    # with the float-range ValueError and no warning
    grid = RadialGrid.auto(20.0, h0=0.02, stretch=1.02)
    tag = BarrierProfile(BarrierFamily.Z, 3.0)
    source = RadialField(grid, 1e300 * np.asarray(eval_barrier(tag, grid.nodes)), tag)

    def no_solve(*args):
        raise AssertionError("the chains were solved on non-finite sums")

    monkeypatch.setattr(potentials, "_decay_chains", no_solve)
    with pytest.raises(ValueError, match="radius 20 leaves the float64 range in dimension 40"):
        bessel_potential_radial(40, 1.0, source)


@pytest.mark.filterwarnings("error")
def test_bessel_refuses_a_centre_value_beyond_the_float_range():
    # u(0) carries (k/2)^nu / Gamma(nu + 1): at N = 70 and shift 1e19 the
    # power leaves float64, and the call ends in the same ValueError
    grid = RadialGrid.uniform(1e-6, 20)
    tag = BarrierProfile(BarrierFamily.Z, 3.0)
    source = RadialField(grid, np.asarray(eval_barrier(tag, grid.nodes)), tag)
    with pytest.raises(ValueError, match="leaves the float64 range in dimension 70"):
        bessel_potential_radial(70, 1e19, source)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dimension, message", [
    (343, "on a grid of radius 1e-06 leaves the float64 range in dimension 343"),
    (344, r"Gamma\(N/2\) leaves the float64 range in dimension 344"),
    (400, r"Gamma\(N/2\) leaves the float64 range in dimension 400"),
])
def test_bessel_refuses_a_dimension_whose_gamma_leaves_the_float_range(dimension, message):
    # u(0) divides by Gamma(N/2), above the largest double from N = 344:
    # refused up front, as at N = 343 the grid's arithmetic is refused
    grid = RadialGrid.uniform(1e-6, 20)
    tag = BarrierProfile(BarrierFamily.Z, 3.0)
    source = RadialField(grid, np.asarray(eval_barrier(tag, grid.nodes)), tag)
    with pytest.raises(ValueError, match=message):
        bessel_potential_radial(dimension, 1.0, source)


def test_bessel_piece_cap_admits_its_own_count(monkeypatch):
    # the ball's and the tail's pieces count together against the cap
    g = RadialGrid.auto(20.0, h0=0.02, stretch=1.02)
    tag = BarrierProfile(BarrierFamily.Z, 3.5)
    src = RadialField(g, np.asarray(eval_barrier(tag, g.nodes)), tag)
    owners = []
    pieces = potentials._gauss_pieces

    def counted(*args):
        for run in pieces(*args):
            owners.extend(run[2])
            yield run

    monkeypatch.setattr(potentials, "_gauss_pieces", counted)
    whole = bessel_potential_radial(4, 4096.0, src).values
    total = len(owners)
    assert max(owners) > g.n - 2  # tail pieces ran
    monkeypatch.setattr(potentials, "MAX_GRID_NODES", total)
    assert np.array_equal(bessel_potential_radial(4, 4096.0, src).values, whole)
    monkeypatch.setattr(potentials, "MAX_GRID_NODES", total - 1)
    with pytest.raises(ValueError, match=f"needs {total} Gauss pieces, more than the cap of {total - 1}"):
        bessel_potential_radial(4, 4096.0, src)


@pytest.mark.parametrize("grid", [
    RadialGrid.uniform(3.0, 16),
    RadialGrid.graded(20.0, 16, 1.2),
    RadialGrid.uniform(480.0, 401),
    RadialGrid.auto(50.0, h0=0.01, stretch=1.03),
], ids=["uniform-16", "graded-16", "uniform-401", "graded-auto"])
@pytest.mark.parametrize("npts, rate", [(8, 0.0), (12, 64.0)])
def test_spline_matches_cubic_spline_bit_for_bit(grid, npts, rate):
    # the in-house not-a-knot spline, at the Gauss points of both
    # potentials, against scipy's own
    rng = np.random.default_rng(grid.n)
    r = grid.nodes
    for scale in (1.0, 1e-30, 1e30):
        g = scale * rng.random(r.size)
        g[rng.integers(r.size)] = 0.0
        coef = potentials._not_a_knot(g, potentials._spline_system(r))
        reference = CubicSpline(r, g)
        for pts, _, owner in potentials._gauss_pieces(r, npts, rate, 500):
            assert np.array_equal(potentials._spline_at(coef, r, pts, owner), reference(pts))


def test_spline_refuses_non_finite_data_like_cubic_spline():
    r = np.append(np.linspace(0.0, 1.0, 16), np.inf)
    g = np.ones(17)
    for nodes, vals in ((r, g), (r[:-1], np.append(g[:-2], np.nan))):
        with pytest.raises(ValueError):
            CubicSpline(nodes, vals)
        with pytest.raises(ValueError, match="finite"):
            potentials._not_a_knot(vals, potentials._spline_system(nodes))
