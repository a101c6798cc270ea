import numpy as np
import pytest

from gmsteady.errors import FieldParseError
from gmsteady.radial_core import (
    GridSpacing,
    RadialField,
    RadialGrid,
    apply_radial_laplacian,
    read_field,
    solve_linear_radial,
    solve_linear_radial_variable,
    write_field,
)


def test_grid_validation():
    with pytest.raises(ValueError):
        RadialGrid(np.linspace(0.1, 1.0, 20))  # must start at 0
    with pytest.raises(ValueError):
        RadialGrid(np.linspace(0.0, 1.0, 8))  # too few nodes
    nodes = np.linspace(0.0, 1.0, 20)
    nodes[5] = nodes[4]
    with pytest.raises(ValueError):
        RadialGrid(nodes)


def test_graded_grid_and_refinement():
    g = RadialGrid.graded(10.0, 50, stretch=1.05)
    assert g.spacing is GridSpacing.GRADED
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 10.0
    h = np.diff(g.nodes)
    assert np.allclose(h[1:] / h[:-1], 1.05, rtol=1e-9)
    fine = g.refined()
    assert fine.n == 2 * g.n - 1
    assert np.allclose(fine.nodes[::2], g.nodes)
    big = g.extended(2.0)
    assert big.radius >= 20.0
    assert np.allclose(big.nodes[: g.n], g.nodes)


def test_constants_are_harmonic():
    g = RadialGrid.uniform(3.0, 64)
    out = apply_radial_laplacian(RadialField(g, np.ones(g.n)), 3)
    # interior stencils are exact; the last node's cubic fit leaves
    # conditioning-level noise
    assert np.max(np.abs(out.values[:-1])) <= 1e-13
    assert abs(out.values[-1]) <= 1e-11


def test_quadratic_exact():
    # -Delta r^2 = -2N, exact for the conservative stencil on any grid
    for grid in (RadialGrid.uniform(2.0, 41), RadialGrid.graded(2.0, 41, 1.07)):
        for n in (3, 4, 5):
            out = apply_radial_laplacian(RadialField(grid, grid.nodes**2), n)
            assert np.max(np.abs(out.values[:-1] + 2.0 * n)) <= 1e-11


def test_laplacian_matches_algebraic_profile_closed_form():
    # -Delta (1+r^2)^(-a/2) = a (N + (N-a-2) r^2) (1+r^2)^(-(a+4)/2)
    a, n = 2.0, 5

    def closed(r):
        return a * (n + (n - a - 2.0) * r * r) * (1.0 + r * r) ** (-(a + 4.0) / 2.0)

    def err(grid):
        vals = (1.0 + grid.nodes**2) ** (-a / 2.0)
        lap = apply_radial_laplacian(RadialField(grid, vals), n)
        return np.max(np.abs(lap.values[:-1] - closed(grid.nodes[:-1])))

    g = RadialGrid.uniform(8.0, 201)
    e1, e2 = err(g), err(g.refined())
    assert e1 / e2 == pytest.approx(4.0, rel=0.15)


def test_exact_ball_solution():
    g = RadialGrid.uniform(1.0, 41)
    rhs = RadialField(g, np.ones(g.n))
    u = solve_linear_radial(3, 0.0, rhs, 0.0)
    assert np.max(np.abs(u.values - (1.0 - g.nodes**2) / 6.0)) <= 1e-13


def test_zero_rhs_zero_boundary():
    g = RadialGrid.graded(5.0, 80, 1.03)
    u = solve_linear_radial(4, 2.0, RadialField(g, np.zeros(g.n)), 0.0)
    assert np.max(np.abs(u.values)) == 0.0


def manufactured_error(grid, n=3, lam=1.0):
    r = grid.nodes
    ustar = np.exp(-(r**2))
    # Delta u* = u*'' + (N-1)/r u*' = (4r^2 - 2) u* - 2 (N-1) u*
    lap = (4.0 * r**2 - 2.0) * ustar - 2.0 * (n - 1) * ustar
    rhs = RadialField(grid, -lap + lam * ustar)
    u = solve_linear_radial(n, lam, rhs, ustar[-1])
    return np.max(np.abs(u.values - ustar))


def test_manufactured_solution_second_order():
    g = RadialGrid.uniform(4.0, 101)
    e1 = manufactured_error(g)
    e2 = manufactured_error(g.refined())
    assert 3.5 <= e1 / e2 <= 4.5


def test_manufactured_solution_second_order_graded():
    g = RadialGrid.graded(4.0, 101, 1.03)
    e1 = manufactured_error(g, n=5, lam=0.5)
    e2 = manufactured_error(g.refined(), n=5, lam=0.5)
    assert 3.5 <= e1 / e2 <= 4.5


def test_discrete_maximum_principle(rng):
    for _ in range(40):
        g = RadialGrid.graded(5.0, 48, 1.0 + 0.06 * rng.random())
        rhs = RadialField(g, rng.random(g.n))
        u = solve_linear_radial(
            3 + int(rng.integers(0, 3)), 3.0 * rng.random(), rhs, rng.random()
        )
        assert np.min(u.values) >= -1e-14


def test_linearity():
    g = RadialGrid.graded(6.0, 90, 1.02)
    rng = np.random.default_rng(7)
    f1, f2 = rng.random(g.n), rng.random(g.n)
    a, b = 1.7, -0.4
    s = lambda f: solve_linear_radial(4, 1.5, RadialField(g, f), 0.0).values
    combined = s(a * f1 + b * f2)
    assert np.max(np.abs(combined - (a * s(f1) + b * s(f2)))) <= 1e-12 * np.max(np.abs(combined))


def test_variable_shift_solver_rejects_bad_input():
    g = RadialGrid.uniform(1.0, 20)
    rhs = RadialField(g, np.ones(g.n))
    with pytest.raises(ValueError):
        solve_linear_radial_variable(3, -np.ones(g.n), rhs, 0.0)
    with pytest.raises(ValueError):
        solve_linear_radial(3, -1.0, rhs, 0.0)
    with pytest.raises(ValueError):
        solve_linear_radial(3, 0.0, rhs, float("nan"))


def test_field_roundtrip(tmp_path):
    g = RadialGrid.graded(3.0, 33, 1.04)
    field = RadialField(g, np.sin(g.nodes) + 2.0)
    path = tmp_path / "field.txt"
    write_field(field, path)
    back = read_field(path)
    assert np.allclose(back.grid.nodes, g.nodes, rtol=0, atol=0)
    assert np.allclose(back.values, field.values, rtol=0, atol=0)
    header = path.read_text().splitlines()[0]
    assert header == "# r value"


def test_field_parse_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("# r value\n0.0 1.0\noops\n")
    with pytest.raises(FieldParseError) as err:
        read_field(bad)
    assert err.value.line == 3

    bad2 = tmp_path / "bad2.txt"
    bad2.write_text("# r value\n0.0 1.0\n0.1 zzz\n")
    with pytest.raises(FieldParseError) as err:
        read_field(bad2)
    assert err.value.line == 3


def test_field_validation():
    g = RadialGrid.uniform(1.0, 20)
    with pytest.raises(ValueError):
        RadialField(g, np.ones(g.n - 1))
    with pytest.raises(ValueError):
        RadialField(g, np.full(g.n, np.nan))


@pytest.mark.parametrize(
    "radius, h0, stretch",
    [(10.0, 0.0, 1.02), (10.0, -0.1, 1.02), (10.0, 0.0, 1.0), (0.0, 0.02, 1.02),
     (np.inf, 0.02, 1.02), (10.0, np.nan, 1.02), (10.0, 0.02, np.inf), (10.0, 0.02, np.nan)],
)
def test_auto_grid_rejects_bad_input(radius, h0, stretch):
    with pytest.raises(ValueError, match="grid"):
        RadialGrid.auto(radius, h0=h0, stretch=stretch)
