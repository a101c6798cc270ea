import math

import pytest

from gmsteady import certificates
from gmsteady.barriers import Exponents, Problem, SourceModel
from gmsteady.certificates import (
    aubin_talenti,
    closed_form_exponents,
    verify_cor3,
    verify_solution,
)
from gmsteady.errors import HypothesisError
from gmsteady.profiles import BarrierFamily, BarrierProfile
from gmsteady.radial_core import RadialField, RadialGrid


def test_point_values():
    assert aubin_talenti(4, 2.0 * math.sqrt(2.0), 0.0) == pytest.approx(1.0, rel=1e-14)
    assert aubin_talenti(3, 1.0, 0.0) == pytest.approx(3.0**0.25, rel=1e-14)


def test_tail_decay_rate():
    grid = RadialGrid.auto(200.0, h0=0.05, stretch=1.03)
    for n in (3, 4, 5):
        w = aubin_talenti(n, 2.0, grid.nodes)
        field = RadialField(grid, w)
        from gmsteady.solvers import decay_fit

        rate, _ = decay_fit(field, BarrierFamily.Z, (40.0, 120.0))
        assert rate == pytest.approx(float(n - 2), rel=0.02)


def test_induced_exponents():
    ex = closed_form_exponents(3, 6.0, 1.0)
    assert ex.q == pytest.approx(1.0) and ex.m == pytest.approx(6.0)
    ex = closed_form_exponents(4, 4.0, 2.0)
    assert ex.q == pytest.approx(1.0) and ex.m == pytest.approx(5.0)


def test_subcritical_p_rejected():
    with pytest.raises(HypothesisError):
        closed_form_exponents(5, 2.0, 0.5)  # q = 2 - 7/3 < 0


def test_residuals_second_order():
    for n, p, s in [(3, 6.0, 1.0), (4, 4.0, 2.0), (5, 3.0, 0.5)]:
        g1 = RadialGrid.uniform(20.0, 5001)
        g2 = RadialGrid.uniform(20.0, 10001)
        c1 = verify_cor3(n, p, s, 1.0, g1)
        c2 = verify_cor3(n, p, s, 1.0, g2)
        order = math.log2(c1.residual_u / c2.residual_u)
        assert 1.85 <= order <= 2.15


def test_residual_magnitude_fine_grid():
    # h = 1e-3 over [0, 20]: the conservative stencil lands near 5e-6
    grid = RadialGrid.uniform(20.0, 20001)
    cert = verify_cor3(3, 6.0, 1.0, 1.0, grid)
    assert cert.residual_u <= 1e-5
    assert cert.residual_v <= 1e-5


def closed_form_pair(n=3, p=6.0, s=1.0, amp=1.0, radius=60.0):
    exponents = closed_form_exponents(n, p, s)
    grid = RadialGrid.auto(radius, h0=0.01, stretch=1.02)
    w = aubin_talenti(n, amp, grid.nodes)
    tag = BarrierProfile(BarrierFamily.Z, float(n - 2))
    return exponents, RadialField(grid, w, tag), RadialField(grid, w, tag)


def test_verify_solution_on_closed_form():
    exponents, u, v = closed_form_pair()
    problem = Problem(3, 0.0, 0.0, SourceModel.zero())
    cert = verify_solution(problem, exponents, u, v)
    assert cert.rep_residual_u <= 1e-5 and cert.rep_residual_v <= 1e-5
    assert cert.pde_residual_u <= 5e-3
    # p = 6 > (N+2)/(N-2) = 5: outside the contradiction window, no flags
    assert cert.flags == []
    assert cert.convr_holds  # algebraic decay keeps r|v'|/v bounded


def test_verify_solution_flags_in_window():
    # a synthetic radial pair inside N/(N-2) < p < (N+2)/(N-2) with zero
    # source and bounded gradient ratio must be flagged (advisory only)
    grid = RadialGrid.auto(80.0, h0=0.02, stretch=1.02)
    tag = BarrierProfile(BarrierFamily.Z, 1.0)
    vals = (1.0 + grid.nodes**2) ** (-0.5)
    u = RadialField(grid, vals, tag)
    v = RadialField(grid, vals, tag)
    problem = Problem(3, 0.0, 0.0, SourceModel.zero())
    exponents = Exponents(4.0, 0.5, 4.0, 1.0)  # window is (3, 5); rate cap = 1
    cert = verify_solution(problem, exponents, u, v, representation=False)
    assert any("Theorem 1.2(iv)" in f for f in cert.flags)
    # fitted u rate 1.0 < ((N-2)s + N)/m = 1.0? equality is not below; use m bigger
    exponents2 = Exponents(4.0, 0.5, 8.0, 1.0)  # cap = 4/8 = 0.5 < 1: no flag
    cert2 = verify_solution(problem, exponents2, u, v, representation=False)
    assert not any("Corollary 1.3(i)" in f for f in cert2.flags)
    exponents3 = Exponents(4.0, 0.5, 2.0, 1.0)  # cap = 2 > 1: flagged
    cert3 = verify_solution(problem, exponents3, u, v, representation=False)
    assert any("Corollary 1.3(i)" in f for f in cert3.flags)


def test_verify_solution_detects_non_solution():
    # far-off pair: large residuals, no crash
    grid = RadialGrid.auto(60.0, h0=0.02, stretch=1.02)
    tag = BarrierProfile(BarrierFamily.Z, 1.0)
    vals = (1.0 + grid.nodes**2) ** (-0.5)
    u = RadialField(grid, vals, tag)
    v = RadialField(grid, vals, tag)
    problem = Problem(5, 0.0, 0.0, SourceModel.zero())
    cert = verify_solution(problem, Exponents(5.0, 2.0, 2.0, 1.0), u, v)
    assert cert.max_residual() >= 1e-2


def test_verify_solution_on_solver_output(alg_worked_case):
    problem, exponents, _, rep = alg_worked_case
    cert = verify_solution(problem, exponents, rep.u, rep.v)
    assert cert.pde_residual_u <= 1e-5
    # u was produced by the same potential operator (fixed point), so its
    # representation gap is structurally tiny; the independent check on u
    # is the differential residual above.  v's gap carries the Dirichlet
    # truncation contamination of the scalar solve.
    assert cert.rep_residual_u <= 1e-8
    assert cert.rep_residual_v <= 2e-4
    assert cert.flags == []  # rho > 0: the contradiction window does not apply


@pytest.mark.parametrize("case", ["exp_worked_case", "alg_worked_case"])
def test_solve_and_verify_share_the_pde_residual(case, request):
    # and the decay fits: both commands fit over the same windows
    problem, exponents, _, rep = request.getfixturevalue(case)
    cert = verify_solution(problem, exponents, rep.u, rep.v, representation=False)
    assert rep.residual_u == cert.pde_residual_u
    assert rep.residual_v == cert.pde_residual_v
    assert rep.decay["u"] == cert.decay_u
    assert rep.decay["v"] == cert.decay_v


@pytest.mark.parametrize("representation", [True, False])
@pytest.mark.parametrize("nodes", ["scaled", "fewer"])
def test_verify_solution_refuses_fields_on_different_grids(alg_worked_case, monkeypatch,
                                                          representation, nodes):
    # a v whose radii are wrong is refused before any residual, with or
    # without the representation check
    problem, exponents, _, rep = alg_worked_case
    r = rep.v.grid.nodes
    v = (RadialField(RadialGrid(1.5 * r), rep.v.values, rep.v.decay_tag) if nodes == "scaled"
         else RadialField(RadialGrid(r[:-1]), rep.v.values[:-1], rep.v.decay_tag))

    def no_residual(*args):
        raise AssertionError("a residual was computed")

    monkeypatch.setattr(certificates, "_pde_residuals", no_residual)
    monkeypatch.setattr(certificates, "representation_residual", no_residual)
    with pytest.raises(ValueError, match="u and v must share a grid"):
        verify_solution(problem, exponents, rep.u, v, representation=representation)


def _neighbours(x):
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


# the rounded quotients N/(N-2) at N = 5, 9, 11 lie above N/(N-2), and
# (N+2)/(N-2) at N = 9 below it; each with its neighbouring doubles
_WINDOW_ENDS = ([(n, p) for n in (5, 9, 11) for p in _neighbours(n / (n - 2.0))]
                + [(9, p) for p in _neighbours(11.0 / 7.0)])


@pytest.mark.parametrize("n, p", _WINDOW_ENDS)
def test_verify_window_ends_are_decided_exactly(n, p):
    # u = v = Z_3 with zero shifts and zero source raises both flags, so
    # they mark exactly the p with N/(N-2) < p < (N+2)/(N-2) in exact
    # arithmetic; the lower end is classify's rule 2 at the same p
    from fractions import Fraction

    from gmsteady.barriers import classify

    grid = RadialGrid.auto(480.0, h0=0.008, stretch=1.02)
    z3 = RadialField(grid, (1.0 + grid.nodes**2) ** -1.5)
    problem = Problem(n, 0.0, 0.0, SourceModel.zero())
    exponents = Exponents(p, 1.0, 1.0, 1.0)
    cert = verify_solution(problem, exponents, z3, z3, representation=False)
    below_low, in_window = Fraction(p) <= Fraction(n, n - 2), (
        Fraction(n, n - 2) < Fraction(p) < Fraction(n + 2, n - 2))
    flagged = [f.split(":")[0] for f in cert.flags]
    assert flagged == (["Theorem 1.2(iv)", "Corollary 1.3(i)"] if in_window else [])
    assert (classify(problem, exponents).tag == "Theorem 1.2(i)") is below_low
