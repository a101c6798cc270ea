import math
import re
import sys

import numpy as np
import pytest
from scipy.linalg import lapack, solve_banded

from gmsteady import radial_core
from gmsteady.errors import FieldParseError
from gmsteady.radial_core import (
    MAX_GRID_NODES,
    RadialField,
    RadialGrid,
    RadialOperator,
    _flux_laplacian,
    _gtsv,
    apply_radial_laplacian,
    read_field,
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
    for bad in (np.inf, np.nan):  # both pass the r_0 = 0 and increasing checks
        nodes = np.linspace(0.0, 1.0, 20)
        nodes[-1] = bad
        with pytest.raises(ValueError, match="finite"):
            RadialGrid(nodes)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n", [16, 20, 1001])
def test_uniform_grid_reaches_the_largest_double_unwarned(n):
    # (n - 1) * (R / (n - 1)) may round past the largest double; the last
    # node is R itself, every node is linspace's, and nothing warns
    big = np.finfo(float).max
    grid = RadialGrid.uniform(big, n)
    assert grid.radius == big and np.isfinite(grid.nodes).all()
    with np.errstate(over="ignore"):
        assert grid.nodes.tobytes() == np.linspace(0.0, big, n).tobytes()


def test_grid_keeps_a_read_only_copy_of_its_nodes():
    nodes = np.linspace(0.0, 1.0, 20)
    grid = RadialGrid(nodes)
    with pytest.raises(ValueError, match="read-only"):
        grid.nodes[3] = 0.5
    # the caller's array is neither shared nor frozen
    nodes[3] = 0.5
    assert grid.nodes[3] == 3.0 / 19.0
    assert not np.shares_memory(nodes, grid.nodes)


def test_graded_grid_and_refinement():
    g = RadialGrid.graded(10.0, 50, stretch=1.05)
    assert g.stretch == 1.05 and RadialGrid.uniform(10.0, 50).stretch == 1.0
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 10.0
    h = np.diff(g.nodes)
    assert np.allclose(h[1:] / h[:-1], 1.05, rtol=1e-9)
    fine = g.refined()
    assert fine.n == 2 * g.n - 1
    assert np.array_equal(fine.nodes[::2], g.nodes)
    # every neighbouring pair of the refined grid has the ratio sqrt(1.05)
    # that it records
    assert fine.stretch == math.sqrt(1.05)
    h = np.diff(fine.nodes)
    assert np.allclose(h[1:] / h[:-1], math.sqrt(1.05), rtol=1e-9)
    # a uniform grid is cut at its midpoints
    u = RadialGrid.uniform(10.0, 50)
    assert u.refined().stretch == 1.0
    assert np.allclose(u.refined().nodes[1::2], 0.5 * (u.nodes[:-1] + u.nodes[1:]),
                       rtol=1e-15, atol=0.0)


def test_constants_are_harmonic():
    g = RadialGrid.uniform(3.0, 64)
    out = apply_radial_laplacian(RadialField(g, np.ones(g.n)), 3)
    # interior stencils are exact; the last node's cubic fit leaves
    # conditioning-level noise
    assert np.max(np.abs(out.values[:-1])) <= 1e-13
    assert abs(out.values[-1]) <= 1e-11


def test_graded_grid_of_stretch_one_is_uniform():
    for radius, n in ((2.0, 41), (7.5, 16)):
        graded, uniform = RadialGrid.graded(radius, n, 1.0), RadialGrid.uniform(radius, n)
        assert np.array_equal(graded.nodes, uniform.nodes)
        assert graded.stretch == uniform.stretch == 1.0


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
    u = RadialOperator(g, 3).solve(np.ones(g.n), 0.0)
    assert np.max(np.abs(u - (1.0 - g.nodes**2) / 6.0)) <= 1e-13


def test_zero_rhs_zero_boundary():
    g = RadialGrid.graded(5.0, 80, 1.03)
    u = RadialOperator(g, 4, 2.0).solve(np.zeros(g.n), 0.0)
    assert np.max(np.abs(u)) == 0.0


def manufactured_error(grid, n=3, lam=1.0):
    r = grid.nodes
    ustar = np.exp(-(r**2))
    # Delta u* = u*'' + (N-1)/r u*' = (4r^2 - 2) u* - 2 (N-1) u*
    lap = (4.0 * r**2 - 2.0) * ustar - 2.0 * (n - 1) * ustar
    u = RadialOperator(grid, n, lam).solve(-lap + lam * ustar, ustar[-1])
    return np.max(np.abs(u - ustar))


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
        op = RadialOperator(g, 3 + int(rng.integers(0, 3)), 3.0 * rng.random())
        u = op.solve(rng.random(g.n), rng.random())
        assert np.min(u) >= -1e-14


def test_linearity():
    g = RadialGrid.graded(6.0, 90, 1.02)
    rng = np.random.default_rng(7)
    f1, f2 = rng.random(g.n), rng.random(g.n)
    a, b = 1.7, -0.4
    s = lambda f: RadialOperator(g, 4, 1.5).solve(f, 0.0)
    combined = s(a * f1 + b * f2)
    assert np.max(np.abs(combined - (a * s(f1) + b * s(f2)))) <= 1e-12 * np.max(np.abs(combined))


def test_variable_shift_solver_rejects_bad_input():
    g = RadialGrid.uniform(1.0, 20)
    rhs = RadialField(g, np.ones(g.n))
    with pytest.raises(ValueError):
        solve_linear_radial_variable(3, -np.ones(g.n), rhs, 0.0)
    with pytest.raises(ValueError):
        solve_linear_radial_variable(3, np.ones(g.n - 1), rhs, 0.0)
    with pytest.raises(ValueError, match="boundary"):
        RadialOperator(g, 3).solve(rhs.values, float("nan"))
    with pytest.raises(ValueError, match="dimension"):
        RadialOperator(g, 2)
    with pytest.raises(ValueError, match="shift"):
        RadialOperator(g, 3, -1.0)
    with pytest.raises(ValueError, match="shift"):
        RadialOperator(g, 3, np.full(g.n, -1.0))
    with pytest.raises(ValueError, match="shift"):
        RadialOperator(g, 3, np.ones(g.n - 1))
    with pytest.raises(ValueError, match="boundary"):
        RadialOperator(g, 3, 1.0).solve(rhs.values, float("inf"))


# The flux-form arithmetic as it stood before RadialOperator assembled it
# once per grid: the operator must reproduce it bit for bit.
def _reference_coefficients(nodes, dimension):
    h = np.diff(nodes)
    mid = 0.5 * (nodes[:-1] + nodes[1:])
    g = mid ** (dimension - 1) / h
    vol = np.empty(nodes.size - 1)
    vol_bounds = mid**dimension / dimension
    vol[0] = vol_bounds[0]
    vol[1:] = vol_bounds[1:] - vol_bounds[:-1]
    return g, vol


def _reference_laplacian(nodes, dimension, u):
    g, vol = _reference_coefficients(nodes, dimension)
    out = np.empty(nodes.size - 1)
    flux = g * (u[1:] - u[:-1])
    out[0] = -flux[0] / vol[0]
    out[1:] = -(flux[1:] - flux[:-1]) / vol[1:]
    return out


def _reference_band(nodes, dimension, shift):
    n = nodes.size
    g, vol = _reference_coefficients(nodes, dimension)
    diag = np.empty(n)
    lower = np.zeros(n - 1)
    upper = np.zeros(n - 1)
    diag[0] = g[0] / vol[0] + shift[0]
    upper[0] = -g[0] / vol[0]
    diag[1:-1] = (g[:-1] + g[1:]) / vol[1:] + shift[1:-1]
    lower[: n - 2] = -g[:-1] / vol[1:]
    upper[1:] = -g[1:] / vol[1:]
    diag[-1] = 1.0
    lower[-1] = 0.0
    ab = np.zeros((3, n))
    ab[0, 1:] = upper
    ab[1, :] = diag
    ab[2, :-1] = lower
    return ab


@pytest.mark.parametrize("dimension", [3, 4, 5])
@pytest.mark.parametrize("array_shift", [False, True])
def test_operator_matches_reference_stencil_and_band(dimension, array_shift):
    rng = np.random.default_rng(100 + dimension)
    grid = RadialGrid.graded(12.0, 70, 1.04)
    shift = 2.5 * rng.random(grid.n) if array_shift else 2.5
    op = RadialOperator(grid, dimension, shift)
    for _ in range(3):
        u = np.exp(-grid.nodes) + rng.random(grid.n)
        lap = _flux_laplacian(grid, dimension, u)
        assert np.array_equal(lap, _reference_laplacian(grid.nodes, dimension, u))
        # bit for bit -np.diff(flux, prepend=0.0) / vol: no flux enters at r = 0
        g, vol = grid.plan(radial_core._flux_plan, dimension)[:2]
        assert np.array_equal(lap, -np.diff(g * (u[1:] - u[:-1]), prepend=0.0) / vol)
        f, boundary = rng.random(grid.n), float(rng.random())
        b = f.copy()
        b[-1] = boundary
        ab = _reference_band(grid.nodes, dimension, np.broadcast_to(shift, grid.nodes.shape))
        assert np.array_equal(op.solve(f, boundary), solve_banded((1, 1), ab, b))
    # the wrappers route through the same operator
    field = RadialField(grid, u)
    assert np.array_equal(apply_radial_laplacian(field, dimension).values[:-1], lap)
    shift_values = np.broadcast_to(shift, grid.nodes.shape)
    assert np.array_equal(
        solve_linear_radial_variable(dimension, shift_values, RadialField(grid, f), boundary).values,
        op.solve(f, boundary),
    )


def test_set_shift_matches_a_fresh_assembly():
    rng = np.random.default_rng(7)
    grid = RadialGrid.graded(12.0, 70, 1.04)
    f = rng.random(grid.n)
    op = RadialOperator(grid, 4, 1.0)
    for shift in (2.5 * rng.random(grid.n), 0.5, 3.0 * rng.random(grid.n)):
        op.set_shift(shift)
        ab = _reference_band(grid.nodes, 4, np.broadcast_to(shift, grid.nodes.shape))
        b = f.copy()
        b[-1] = 0.25
        assert np.array_equal(op.solve(f, 0.25), solve_banded((1, 1), ab, b))
        assert np.array_equal(op.solve(f, 0.25), RadialOperator(grid, 4, shift).solve(f, 0.25))
    # a refused shift leaves the operator as it was
    before = op.solve(f, 0.25)
    one_inf = np.ones(grid.n)
    one_inf[5] = np.inf
    for bad in (-1.0, np.full(grid.n, -1.0), np.ones(grid.n - 1), np.inf, np.nan, one_inf):
        with pytest.raises(ValueError, match="shift"):
            op.set_shift(bad)
        assert np.array_equal(op.solve(f, 0.25), before)
    # so is a non-finite right side, before it reaches LAPACK
    f_nan = f.copy()
    f_nan[3] = np.nan
    with pytest.raises(ValueError, match="right side"):
        op.solve(f_nan, 0.25)
    assert np.array_equal(op.solve(f, 0.25), before)


def test_operators_on_one_grid_share_its_plan_and_keep_their_own_diagonals(monkeypatch):
    built = []

    def counted(nodes, dimension):
        built.append(dimension)
        return flux_plan(nodes, dimension)

    flux_plan = radial_core._flux_plan
    monkeypatch.setattr(radial_core, "_flux_plan", counted)
    rng = np.random.default_rng(5)
    grid = RadialGrid.graded(12.0, 70, 1.04)
    f = rng.random(grid.n)

    def check(op, shift):
        ab = _reference_band(grid.nodes, 4, np.broadcast_to(shift, grid.nodes.shape))
        assert np.array_equal(op._upper, ab[0, 1:])
        assert np.array_equal(op._d, ab[1])
        assert np.array_equal(op._lower, ab[2, :-1])
        b = f.copy()
        b[-1] = 0.5
        assert np.array_equal(op.solve(f, 0.5), solve_banded((1, 1), ab, b))

    shift_a, shift_b = 1.5, 2.5 * rng.random(grid.n)
    a, b = RadialOperator(grid, 4, shift_a), RadialOperator(grid, 4, shift_b)
    RadialOperator(grid, 3)
    RadialOperator(RadialGrid(grid.nodes, grid.stretch), 4)
    assert built == [4, 3, 4]  # once per (grid, N)
    # the off-diagonals are the grid's, each diagonal the operator's own
    assert a._lower is b._lower and a._upper is b._upper
    assert not np.shares_memory(a._d, b._d)
    check(a, shift_a)
    check(b, shift_b)
    # a new shift on one operator leaves the other's diagonal alone
    shift_a = 3.0 * rng.random(grid.n)
    a.set_shift(shift_a)
    check(a, shift_a)
    check(b, shift_b)
    b.set_shift(0.25)
    check(a, shift_a)
    check(b, 0.25)


def test_band_too_wide_for_float64_is_refused_by_solve():
    # r^(N-1) overflows, so the flux weights and the band are not finite:
    # solve refuses the band as solve_banded's finiteness check did
    grid = RadialGrid.uniform(1e200, 20)
    with np.errstate(over="ignore", invalid="ignore"):
        op = RadialOperator(grid, 3)
    with pytest.raises(ValueError, match="band"):
        op.solve(np.ones(grid.n), 0.0)


def _op():
    return RadialOperator(RadialGrid.uniform(10.0, 20), 3)


def _overflowing_diagonal():
    # no grid has a finite diagonal within a half ulp of the float64 limit
    # (about 1e292), so the operator is given one: a finite shift then sums
    # to inf on the diagonal, which is rechecked on every set_shift
    op = _op()
    op._diag = np.full(19, 1e300)
    with np.errstate(over="ignore"):
        op.set_shift(np.finfo(float).max)
    return op


def _wide_band():
    with np.errstate(over="ignore", invalid="ignore"):
        return RadialOperator(RadialGrid.uniform(1e200, 20), 3)


_NAN_AT_3 = np.where(np.arange(20) == 3, np.nan, 1.0)


@pytest.mark.parametrize("refused, error, message", [
    (lambda: RadialOperator(RadialGrid.uniform(10.0, 20), 2), ValueError,
     "dimension must be >= 3, got 2"),
    (lambda: _op().set_shift(np.ones(19)), ValueError, "shift values must match the grid"),
    (lambda: _op().set_shift(-1.0), ValueError, "shift must be finite and >= 0"),
    (lambda: _op().set_shift(np.inf), ValueError, "shift must be finite and >= 0"),
    (lambda: _op().set_shift(_NAN_AT_3), ValueError, "shift must be finite and >= 0"),
    (lambda: _op().solve(np.ones(20), np.nan), ValueError, "boundary value must be finite"),
    (lambda: _op().solve(_NAN_AT_3, 0.0), ValueError, "right side must be finite"),
    (lambda: _wide_band().solve(np.ones(20), 0.0), ValueError, "operator band must be finite"),
    (lambda: _overflowing_diagonal().solve(np.ones(20), 0.0), ValueError,
     "operator band must be finite"),
    (lambda: _op().solve(np.full(20, np.finfo(float).max), 0.0), RuntimeError,
     "radial solve produced non-finite values"),
    # the one-shot wrappers and -Delta of a field refuse as the operator does
    (lambda: apply_radial_laplacian(RadialField(RadialGrid.uniform(10.0, 20), np.ones(20)), 2),
     ValueError, "dimension must be >= 3, got 2"),
    (lambda: solve_linear_radial_variable(
        3, np.ones(19), RadialField(RadialGrid.uniform(10.0, 20), np.ones(20)), 0.0),
     ValueError, "shift values must match the grid"),
    (lambda: _flux_laplacian(_wide_band().grid, 3, np.ones(20)), ValueError,
     "operator band must be finite"),
], ids=["dimension", "shift-shape", "negative-shift", "inf-shift", "nan-shift", "boundary",
        "right-side", "wide-band", "overflowing-diagonal", "non-finite-solution",
        "laplacian-dimension", "wrapper-shift-shape", "laplacian-wide-band"])
def test_operator_refusals_keep_their_type_and_message(refused, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        refused()


def test_overflowing_diagonal_is_cleared_by_the_next_shift():
    op = _overflowing_diagonal()
    op.set_shift(1.0)
    assert np.isfinite(op.solve(np.ones(20), 0.0)).all()


def test_tridiagonal_kernel_matches_solve_banded_and_refuses_singular():
    rng = np.random.default_rng(11)
    ab = rng.random((3, 40))
    ab[1] += 2.0
    b = rng.random(40)
    x = _gtsv(ab[2, :-1], ab[1], ab[0, 1:], b.copy())
    assert np.array_equal(x, solve_banded((1, 1), ab, b))
    zeros = np.zeros(40)
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        _gtsv(zeros[:-1], zeros, zeros[:-1], b.copy())


def test_tridiagonal_kernel_falls_back_to_scipy_linalg_lapack(monkeypatch):
    # this module imported scipy.linalg, so forget its _flapack for the file
    # loader to run; with no extension suffix it finds no file and falls back
    rng = np.random.default_rng(12)
    systems = []
    for n in (2, 17, 400):
        ab = rng.random((3, n))
        ab[1] += 2.0
        systems.append((ab, rng.random(n)))

    def solve_all():
        radial_core._dgtsv = None
        return [_gtsv(ab[2, :-1], ab[1], ab[0, 1:], b.copy()) for ab, b in systems]

    monkeypatch.delitem(sys.modules, radial_core._FLAPACK)
    monkeypatch.setattr(radial_core, "_dgtsv", None)
    loaded = solve_all()
    monkeypatch.setattr(radial_core, "EXTENSION_SUFFIXES", [])
    fallback = solve_all()
    assert radial_core._dgtsv is lapack.dgtsv
    assert all(np.array_equal(x, y) for x, y in zip(loaded, fallback))
    zeros = np.zeros(5)
    with pytest.raises(np.linalg.LinAlgError, match="^singular matrix$"):
        _gtsv(zeros[:-1], zeros, zeros[:-1], np.ones(5))


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


@pytest.mark.parametrize(
    "radius, h0, stretch",
    [(1e10, 1e-300, 1.0), (1e4, 1e-6, 1.0), (1e10, 1e-300, 1.02), (1e6, 1e-3, 1.0 + 1e-12)],
)
def test_auto_grid_refuses_more_nodes_than_the_cap(radius, h0, stretch):
    with pytest.raises(ValueError, match="cap"):
        RadialGrid.auto(radius, h0=h0, stretch=stretch)


def test_node_cap_is_inclusive():
    assert RadialGrid.uniform(1.0, MAX_GRID_NODES).n == MAX_GRID_NODES
    with pytest.raises(ValueError, match="cap"):
        RadialGrid.uniform(1.0, MAX_GRID_NODES + 1)
    with pytest.raises(ValueError, match="cap"):
        RadialGrid.graded(1.0, MAX_GRID_NODES + 1, 1.02)
