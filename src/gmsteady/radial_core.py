"""Radial grids and second-order discretizations of -Delta on [0, R].

The discrete operator is the conservative (flux) form of

    -u'' - (N-1)/r u' = -(r^(N-1) u')' / r^(N-1)

on a one-dimensional grid 0 = r_0 < ... < r_{n-1} = R.  Fluxes are
evaluated at interval midpoints and divided by exact shell volumes
(r_{i+1/2}^N - r_{i-1/2}^N)/N.  The scheme is exact for quadratics,
second-order accurate for smooth fields, and yields an M-matrix for any
shift >= 0, so the discrete maximum principle holds on every grid.

At r = 0 symmetry gives a zero flux through the origin; the last node
of ``apply_radial_laplacian`` is filled by a one-sided cubic fit since
it has no right neighbour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np
from scipy.linalg import solve_banded

from .errors import FieldParseError

if TYPE_CHECKING:  # pragma: no cover
    from .profiles import BarrierProfile

__all__ = [
    "GridSpacing",
    "RadialGrid",
    "RadialField",
    "apply_radial_laplacian",
    "solve_linear_radial",
    "solve_linear_radial_variable",
    "write_field",
    "read_field",
]


class GridSpacing(Enum):
    UNIFORM = "uniform"
    GRADED = "graded"


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing nodes r_0 = 0 < ... < r_{n-1} = R, n >= 16."""

    nodes: np.ndarray
    spacing: GridSpacing = GridSpacing.UNIFORM
    stretch: float = 1.0

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 16:
            raise ValueError("grid needs at least 16 nodes")
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

    @classmethod
    def uniform(cls, radius: float, n: int) -> "RadialGrid":
        return cls(np.linspace(0.0, radius, n), GridSpacing.UNIFORM, 1.0)

    @classmethod
    def graded(cls, radius: float, n: int, stretch: float = 1.02) -> "RadialGrid":
        """Geometrically graded grid: each interval is ``stretch`` times the last."""
        if stretch <= 1.0:
            return cls.uniform(radius, n)
        k = n - 1
        h0 = radius * (stretch - 1.0) / (stretch**k - 1.0)
        steps = h0 * stretch ** np.arange(k)
        nodes = np.concatenate(([0.0], np.cumsum(steps)))
        nodes[-1] = radius  # kill cumulative roundoff
        return cls(nodes, GridSpacing.GRADED, stretch)

    @classmethod
    def auto(cls, radius: float, h0: float = 0.02, stretch: float = 1.02) -> "RadialGrid":
        """Graded grid reaching ``radius`` from an initial spacing ``h0``."""
        if not all(np.isfinite((radius, h0, stretch))):
            raise ValueError("grid radius, h0 and stretch must be finite")
        if not (radius > 0 and h0 > 0):
            raise ValueError("grid radius and h0 must be positive")
        if stretch <= 1.0:
            n = max(16, int(np.ceil(radius / h0)) + 1)
            return cls.uniform(radius, n)
        # number of intervals k with h0 (stretch^k - 1)/(stretch - 1) >= radius
        k = int(np.ceil(np.log1p(radius * (stretch - 1.0) / h0) / np.log(stretch)))
        k = max(k, 15)
        return cls.graded(radius, k + 1, stretch)

    def refined(self) -> "RadialGrid":
        """Insert interval midpoints; original nodes are preserved."""
        mids = 0.5 * (self.nodes[:-1] + self.nodes[1:])
        nodes = np.sort(np.concatenate([self.nodes, mids]))
        return RadialGrid(nodes, self.spacing, self.stretch)

    def extended(self, factor: float = 2.0) -> "RadialGrid":
        """Continue the grading beyond R until ``factor * R``; keeps old nodes."""
        target = self.radius * factor
        nodes = list(self.nodes)
        h = nodes[-1] - nodes[-2]
        g = self.stretch if self.stretch > 1.0 else 1.0
        while nodes[-1] < target:
            h = h * g
            nodes.append(nodes[-1] + h)
        nodes[-1] = max(nodes[-1], target)
        return RadialGrid(np.asarray(nodes), self.spacing, self.stretch)


@dataclass
class RadialField:
    """Values of a radial function on a grid, with an optional far-field model.

    ``decay_tag`` declares how the function continues beyond the last
    node; consumers match the tail amplitude at r = R.
    """

    grid: RadialGrid
    values: np.ndarray
    decay_tag: Optional["BarrierProfile"] = None

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.nodes.shape:
            raise ValueError("field values must match the grid")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        self.values = vals

    @classmethod
    def from_function(
        cls,
        grid: RadialGrid,
        fn: Callable[[np.ndarray], np.ndarray],
        decay_tag: Optional["BarrierProfile"] = None,
    ) -> "RadialField":
        return cls(grid, np.asarray(fn(grid.nodes), dtype=float), decay_tag)

    def tail_amplitude(self) -> float:
        """Multiplier c such that the tail model is c * profile(r) at r = R."""
        if self.decay_tag is None:
            raise ValueError("field has no decay tag")
        from .profiles import eval_barrier

        ref = eval_barrier(self.decay_tag, self.grid.radius)
        if ref <= 0:
            raise ValueError("decay tag underflows at the boundary")
        return float(self.values[-1] / ref)


def _fv_coefficients(nodes: np.ndarray, dimension: int):
    """Midpoint flux weights g_i = r_{i-1/2}^(N-1)/h_i and shell volumes."""
    n = nodes.size
    h = np.diff(nodes)
    mid = 0.5 * (nodes[:-1] + nodes[1:])
    g = mid ** (dimension - 1) / h
    vol = np.empty(n - 1)
    # volume of the control cell around node i (exact shell integral of r^(N-1))
    vol_bounds = mid**dimension / dimension
    vol[0] = vol_bounds[0]
    vol[1:] = vol_bounds[1:] - vol_bounds[:-1]
    return g, vol


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
    g, vol = _fv_coefficients(nodes, dimension)
    out = np.empty(n)
    flux = g * (u[1:] - u[:-1])  # flux through r_{i+1/2}, i = 0..n-2
    out[0] = -flux[0] / vol[0]
    out[1:-1] = -(flux[1:] - flux[:-1]) / vol[1:]
    # one-sided cubic at the last node: -u'' - (N-1)/r u'
    tail = slice(n - 4, n)
    coeffs = np.polyfit(nodes[tail] - nodes[-1], u[tail], 3)
    d1 = coeffs[2]
    d2 = 2.0 * coeffs[1]
    out[-1] = -d2 - (dimension - 1) / nodes[-1] * d1
    return RadialField(field.grid, out)


def _assemble_banded(nodes: np.ndarray, dimension: int, shift: np.ndarray):
    """Banded matrix (ab form) of -Delta + shift with Dirichlet row at R."""
    n = nodes.size
    g, vol = _fv_coefficients(nodes, dimension)
    diag = np.empty(n)
    lower = np.zeros(n - 1)
    upper = np.zeros(n - 1)

    diag[0] = g[0] / vol[0] + shift[0]
    upper[0] = -g[0] / vol[0]
    diag[1:-1] = (g[:-1] + g[1:]) / vol[1:] + shift[1:-1]
    lower[: n - 2] = -g[:-1] / vol[1:]
    upper[1:] = -g[1:] / vol[1:]
    # Dirichlet at r = R
    diag[-1] = 1.0
    lower[-1] = 0.0

    ab = np.zeros((3, n))
    ab[0, 1:] = upper
    ab[1, :] = diag
    ab[2, :-1] = lower
    return ab


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
    if dimension < 3:
        raise ValueError(f"dimension must be >= 3, got {dimension}")
    shift = np.asarray(shift_values, dtype=float)
    nodes = rhs.grid.nodes
    if shift.shape != nodes.shape:
        raise ValueError("shift values must match the grid")
    if np.any(shift < 0):
        raise ValueError("shift must be >= 0")
    if not np.isfinite(boundary_value):
        raise ValueError("boundary value must be finite")
    ab = _assemble_banded(nodes, dimension, shift)
    b = rhs.values.copy()
    b[-1] = boundary_value
    u = solve_banded((1, 1), ab, b)
    if not np.all(np.isfinite(u)):
        raise RuntimeError("radial solve produced non-finite values")
    return RadialField(rhs.grid, u)


def solve_linear_radial(
    dimension: int,
    shift: float,
    rhs: RadialField,
    boundary_value: float,
) -> RadialField:
    """Dirichlet solve of -Delta u + shift * u = rhs with symmetry at r = 0."""
    if shift < 0:
        raise ValueError(f"shift must be >= 0, got {shift}")
    shift_values = np.full(rhs.grid.n, float(shift))
    return solve_linear_radial_variable(dimension, shift_values, rhs, boundary_value)


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
