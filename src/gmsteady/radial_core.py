"""Radial grids and second-order discretizations of -Delta on [0, R].

The discrete operator is the conservative (flux) form of

    -u'' - (N-1)/r u' = -(r^(N-1) u')' / r^(N-1)

on a one-dimensional grid 0 = r_0 < ... < r_{n-1} = R.  Fluxes are
evaluated at interval midpoints and divided by exact shell volumes
(r_{i+1/2}^N - r_{i-1/2}^N)/N.  The scheme is exact for quadratics,
second-order accurate for smooth fields, and yields an M-matrix for any
shift >= 0, so the discrete maximum principle holds on every grid.

At r = 0 symmetry gives a zero flux through the origin.  The flux
weights, cell volumes and -Delta's diagonals depend only on the grid
and N: a grid computes them on first use and keeps them
(``RadialGrid.plan``).  -Delta of a field comes from that plan alone
(``_flux_laplacian``); a ``RadialOperator`` only solves, sharing the
plan's off-diagonals and owning only its diagonal, which a new shift
rewrites.  The operator solves by calling LAPACK's tridiagonal
``dgtsv`` on the three diagonals directly, the routine
``solve_banded`` would dispatch to, with its finiteness and
singularity checks kept in the operator.  The one-shot
wrappers call it, and ``apply_radial_laplacian`` fills the last node,
which has no right neighbour, by a one-sided cubic fit.  Grid builders
refuse more than ``MAX_GRID_NODES`` nodes.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from typing import Optional

import numpy as np

from .errors import FieldParseError
from .profiles import BarrierProfile, eval_barrier

__all__ = [
    "MAX_GRID_NODES",
    "RadialGrid",
    "RadialField",
    "RadialOperator",
    "apply_radial_laplacian",
    "solve_linear_radial_variable",
    "write_field",
    "read_field",
]


#: Most nodes a grid builder makes (a million nodes hold 8 MB per field).
MAX_GRID_NODES = 1_000_000


def _node_count(count) -> int:
    """``count`` as an int; a count above MAX_GRID_NODES, or inf, is refused."""
    if not count <= MAX_GRID_NODES:
        raise ValueError(f"grid needs {count:.4g} nodes, more than the cap of {MAX_GRID_NODES}")
    return int(count)


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing finite nodes r_0 = 0 < ... < r_{n-1} = R, n >= 16.

    ``stretch`` is the ratio of neighbouring intervals of a graded grid,
    and 1 for a uniform one.  The grid keeps a read-only copy of the
    nodes, so what ``plan`` derives from them cannot go stale.
    """

    nodes: np.ndarray
    stretch: float = 1.0

    def __post_init__(self) -> None:
        nodes = np.array(self.nodes, dtype=float)
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "_plans", {})
        if nodes.ndim != 1 or nodes.size < 16:
            raise ValueError("grid needs at least 16 nodes")
        if not np.all(np.isfinite(nodes)):
            raise ValueError("grid nodes must be finite")
        if nodes[0] != 0.0:
            raise ValueError("grid must start at r = 0")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("grid nodes must be strictly increasing")

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def radius(self) -> float:
        return float(self.nodes[-1])

    def plan(self, build, *args):
        """``build(nodes, *args)``, computed on the first call and kept with the grid.

        A plan is an array or a tuple of them (and of scalars); each array
        is made read-only, so no caller can change what later calls read.
        """
        key = (build, *args)
        plans = self._plans
        if key not in plans:
            plan = build(self.nodes, *args)
            for part in plan if isinstance(plan, tuple) else (plan,):
                if isinstance(part, np.ndarray):
                    part.flags.writeable = False
            plans[key] = plan
        return plans[key]

    @classmethod
    def uniform(cls, radius: float, n: int) -> "RadialGrid":
        if not 0.0 < radius < np.inf:
            raise ValueError("grid radius must be positive and finite")
        # near the largest double, (n-1) * (radius/(n-1)) may round past it;
        # linspace sets that last node to radius itself
        with np.errstate(over="ignore"):
            nodes = np.linspace(0.0, radius, _node_count(n))
        return cls(nodes)

    @classmethod
    def graded(cls, radius: float, n: int, stretch: float) -> "RadialGrid":
        """Geometrically graded grid: each interval is ``stretch`` times the last."""
        if stretch <= 1.0:
            return cls.uniform(radius, n)
        k = _node_count(n) - 1
        h0 = radius * (stretch - 1.0) / (stretch**k - 1.0)
        steps = h0 * stretch ** np.arange(k)
        nodes = np.concatenate(([0.0], np.cumsum(steps)))
        nodes[-1] = radius  # kill cumulative roundoff
        return cls(nodes, stretch)

    @classmethod
    def auto(cls, radius: float, h0: float, stretch: float) -> "RadialGrid":
        """Graded grid reaching ``radius`` from an initial spacing ``h0``."""
        if not all(np.isfinite((radius, h0, stretch))):
            raise ValueError("grid radius, h0 and stretch must be finite")
        if not (radius > 0 and h0 > 0):
            raise ValueError("grid radius and h0 must be positive")
        if stretch <= 1.0:
            return cls.uniform(radius, max(16, _node_count(np.ceil(radius / h0) + 1)))
        # number of intervals k with h0 (stretch^k - 1)/(stretch - 1) >= radius
        k = np.ceil(np.log1p(radius * (stretch - 1.0) / h0) / np.log(stretch))
        return cls.graded(radius, max(16, _node_count(k + 1)), stretch)

    def refined(self) -> "RadialGrid":
        """Split every interval in two; original nodes are preserved.

        Each [a, b] is cut at a + (b - a)/(1 + sqrt(stretch)), so every pair
        of neighbouring intervals has the ratio sqrt(stretch), which the
        refined grid records; on a uniform grid that is the midpoint.
        """
        r = self.nodes
        ratio = math.sqrt(self.stretch) if self.stretch > 1.0 else 1.0
        nodes = np.empty(2 * r.size - 1)
        nodes[::2] = r
        nodes[1::2] = r[:-1] + (r[1:] - r[:-1]) / (1.0 + ratio)
        return RadialGrid(nodes, ratio if self.stretch > 1.0 else self.stretch)


@dataclass
class RadialField:
    """Values of a radial function on a grid, with an optional far-field model.

    ``decay_tag`` declares how the function continues beyond the last
    node; ``tail`` evaluates that continuation.
    """

    grid: RadialGrid
    values: np.ndarray
    decay_tag: Optional[BarrierProfile] = None

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.nodes.shape:
            raise ValueError("field values must match the grid")
        if not np.isfinite(vals).all():
            raise ValueError("field values must be finite")
        self.values = vals

    def tail(self, r, form=None):
        """The far-field model c * B(r), with B the decay tag and c matched at R.

        ``form(tag, r)`` stands in for B(r) when given: with
        ``profiles.weighted_antiderivative`` the result is c times the
        antiderivative of s * B(s).  An untagged field that vanishes at
        R has a zero tail, and so does a tag that underflows at R.
        """
        tag = self.decay_tag
        if tag is None:
            if self.values[-1] != 0.0:
                raise ValueError(
                    "source needs a decay_tag for tail closure (or must vanish at the last node)"
                )
            return np.zeros(np.shape(r))
        ref = eval_barrier(tag, self.grid.radius)
        amp = self.values[-1] / ref if ref > 0 else 0.0
        return amp * np.asarray((form or eval_barrier)(tag, r), dtype=float)


_FLAPACK = "scipy.linalg._flapack"
_dgtsv = None  # scipy's LAPACK dgtsv, bound by the first _gtsv call


def _flapack_file() -> Optional[str]:
    """Path of scipy's compiled ``_flapack`` extension, found without importing scipy."""
    scipy = importlib.util.find_spec("scipy")
    for root in (scipy and scipy.submodule_search_locations) or ():
        for suffix in EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                return path
    return None


def _load_dgtsv():
    """scipy's f2py-wrapped ``dgtsv``, without importing ``scipy.linalg`` if it can.

    Until ``_flapack`` is imported, the extension is loaded straight from
    its file, which skips the ``__init__`` of the ``scipy.linalg`` package.
    Otherwise, or if the file is missing or fails to load, it comes from
    ``scipy.linalg.lapack``: the same function either way.
    """
    path = None if _FLAPACK in sys.modules else _flapack_file()
    if path is not None:
        try:
            spec = importlib.util.spec_from_loader(_FLAPACK, ExtensionFileLoader(_FLAPACK, path))
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            # CPython registers the module without its parent package; drop the
            # entry, so that a later ``import scipy.linalg`` runs as usual
            sys.modules.pop(_FLAPACK, None)
            return module.dgtsv
        except (ImportError, AttributeError):  # not loadable here, or no dgtsv in it
            pass
    from scipy.linalg.lapack import dgtsv
    return dgtsv


def _gtsv(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system with these three diagonals for the right side b.

    One LAPACK ``dgtsv`` call, the routine ``solve_banded((1, 1), ...)``
    dispatches to, with its arithmetic and its errors but none of its
    wrapper; the diagonals are copied, and b is overwritten by the solution.
    ``dgtsv`` is bound on the first call by ``_load_dgtsv``, which loads
    scipy's ``_flapack`` extension file in about 4 ms and imports no scipy
    package (importing ``scipy.linalg`` takes about 0.27 s).
    """
    global _dgtsv
    if _dgtsv is None:
        _dgtsv = _load_dgtsv()
    *_, x, info = _dgtsv(lower, diag, upper, b, overwrite_b=1)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgtsv")
    return x


def _flux_plan(nodes: np.ndarray, dimension: int):
    """-Delta's flux form on these nodes: (g, vol, diag, lower, upper, off_finite).

    g_i = r_{i+1/2}^(N-1)/h_i are the flux weights, vol the cell volumes,
    diag -Delta's diagonal on every node but the last, and lower and
    upper its off-diagonals with a Dirichlet last row (lower entry 0);
    off_finite tells whether both off-diagonals are finite: on nodes too
    wide or too narrow for float64 powers they are not, and the operator
    refuses to act.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        mid = 0.5 * (nodes[:-1] + nodes[1:])
        g = mid ** (dimension - 1) / np.diff(nodes)
        # control cell around node i: exact shell integral of r^(N-1)
        vol = np.diff(mid**dimension / dimension, prepend=0.0)
        # no flux through r = 0
        diag = (np.concatenate(([0.0], g[:-1])) + g) / vol
        lower = np.append(-g[:-1] / vol[1:], 0.0)
        upper = -g / vol
    return g, vol, diag, lower, upper, bool(np.isfinite(lower).all() and np.isfinite(upper).all())


def _flux_laplacian(grid: RadialGrid, dimension: int, values: np.ndarray) -> np.ndarray:
    """-Delta of ``values`` at every node but the last (no right neighbour).

    The flux weights and cell volumes are the grid's ``_flux_plan`` for
    N; a grid on which they leave float64 is refused (ValueError).
    """
    g, vol, *_, off_finite = grid.plan(_flux_plan, dimension)
    if not off_finite:
        raise ValueError("operator band must be finite")
    flux = g * (values[1:] - values[:-1])  # flux through r_{i+1/2}
    net = np.empty_like(flux)  # net outflow of each cell; none enters at r = 0
    net[0] = flux[0]
    np.subtract(flux[1:], flux[:-1], out=net[1:])
    return -net / vol


class RadialOperator:
    """-Delta + shift in flux form on one grid, solved with a Dirichlet row at R.

    ``shift`` is a finite nonnegative scalar or one value per node.
    -Delta's three diagonals come from the grid's plan for N, computed
    once per grid.  Every operator on the grid shares the off-diagonals
    and owns only its diagonal, with 1 at R, which ``set_shift``
    rewrites.  The operator only solves: -Delta of a field is
    ``_flux_laplacian``.
    """

    def __init__(self, grid: RadialGrid, dimension: int, shift=0.0) -> None:
        if dimension < 3:
            raise ValueError(f"dimension must be >= 3, got {dimension}")
        self.grid, self.dimension = grid, dimension
        *_, self._diag, self._lower, self._upper, self._off_finite = grid.plan(
            _flux_plan, dimension)
        self._d = np.ones(grid.n)
        self.set_shift(shift)

    def set_shift(self, shift) -> None:
        """Make the operator -Delta + ``shift`` (scalar or one value per node)."""
        shift = np.asarray(shift, dtype=float)
        if shift.ndim and shift.shape != self._d.shape:
            raise ValueError("shift values must match the grid")
        if not ((shift >= 0) & (shift < np.inf)).all():
            raise ValueError("shift must be finite and >= 0")
        self._d[:-1] = self._diag + (shift[:-1] if shift.ndim else shift)
        # a grid too wide for float64 flux weights makes diagonals that solve refuses
        self._finite = self._off_finite and bool(np.isfinite(self._d).all())

    def solve(self, rhs_values: np.ndarray, boundary_value: float) -> np.ndarray:
        """Solve (-Delta + shift) u = rhs with u'(0) = 0 and u(R) = boundary_value."""
        if not np.isfinite(boundary_value):
            raise ValueError("boundary value must be finite")
        b = np.array(rhs_values, dtype=float)
        b[-1] = boundary_value
        if not self._finite:
            raise ValueError("operator band must be finite")
        if not np.isfinite(b).all():
            raise ValueError("right side must be finite")
        u = _gtsv(self._lower, self._d, self._upper, b)
        if not np.isfinite(u).all():
            raise RuntimeError("radial solve produced non-finite values")
        return u


def apply_radial_laplacian(field: RadialField, dimension: int) -> RadialField:
    """-Delta in dimension N applied to a radial field, node by node.

    Interior nodes use the conservative midpoint-flux stencil; r = 0
    uses the symmetric zero-flux cell.  The last node has no right
    neighbour and is filled from a one-sided cubic fit.
    """
    if dimension < 3:
        raise ValueError(f"dimension must be >= 3, got {dimension}")
    nodes = field.grid.nodes
    u = field.values
    n = nodes.size
    out = np.empty(n)
    out[:-1] = _flux_laplacian(field.grid, dimension, u)
    # one-sided cubic at the last node: -u'' - (N-1)/r u'
    tail = slice(n - 4, n)
    coeffs = np.polyfit(nodes[tail] - nodes[-1], u[tail], 3)
    d1 = coeffs[2]
    d2 = 2.0 * coeffs[1]
    out[-1] = -d2 - (dimension - 1) / nodes[-1] * d1
    return RadialField(field.grid, out)


def solve_linear_radial_variable(
    dimension: int,
    shift_values: np.ndarray,
    rhs: RadialField,
    boundary_value: float,
) -> RadialField:
    """Solve -Delta u + c(r) u = f on [0, R], u'(0) = 0, u(R) = boundary_value.

    ``shift_values`` is the nonnegative coefficient c(r) on the grid.
    The system matrix is an M-matrix, so f >= 0 and boundary_value >= 0
    imply u >= 0.
    """
    op = RadialOperator(rhs.grid, dimension, shift_values)
    return RadialField(rhs.grid, op.solve(rhs.values, boundary_value))


def write_field(field: RadialField, path) -> None:
    """Dump a field as two whitespace-separated columns with a header line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# r value\n")
        for r, v in zip(field.grid.nodes, field.values):
            fh.write(f"{float(r)!r} {float(v)!r}\n")


def read_field(path) -> RadialField:
    """Read a two-column field dump; raises FieldParseError with a line number."""
    rs: list[float] = []
    vs: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split()
            if len(parts) != 2:
                raise FieldParseError(f"expected two columns, got {len(parts)}", lineno)
            try:
                rs.append(float(parts[0]))
                vs.append(float(parts[1]))
            except ValueError as exc:
                raise FieldParseError(str(exc), lineno) from exc
    if len(rs) < 16:
        raise FieldParseError("fewer than 16 data rows", lineno if rs else 0)
    grid = RadialGrid(np.asarray(rs))
    return RadialField(grid, np.asarray(vs))
