"""Integral representations of radial fields, measurements of a candidate
pair, and divergence diagnostics.

Newtonian potential (zero shift).  For a radial source g >= 0 with an
integrable tail, the decaying solution of -Delta u = g is

    u(r) = 1/(N-2) * [ r^(2-N) * int_0^r s^(N-1) g(s) ds
                       + int_r^inf s g(s) ds ].

Shifted potential (shift lam > 0).  The convolution G_lam * g reduces,
for radial g, to a one-dimensional kernel:

    u(r) = int_0^inf s^(N-1) S(r, s) g(s) ds,
    S(r, s) = |S^(N-2)| * int_0^pi G_lam(sqrt(r^2+s^2-2 r s cos t))
                              * sin(t)^(N-2) dt
            = (r s)^(1-N/2) I_nu(k * min(r,s)) K_nu(k * max(r,s)),

with k = sqrt(lam) and nu = N/2 - 1.  The closed product form (the
spherical mean evaluated analytically) is what the shifted potential
uses; the angular-quadrature form is the tests' oracle for it.  All
Bessel factors are evaluated in exponentially scaled form so the
scheme never overflows.  Tails beyond the grid are closed with the
source's declared decay model: in closed form for the Newtonian
potential, and for the shifted one on geometric intervals past R, on
which its I and K sides and both chains run as on the grid's.  The
Bessel factors come from ``kernels._scaled_bessel``: closed forms at
nu = 1/2 and 3/2 (N = 3, 5) and Cephes' i1e/k1e at nu = 1 (N = 4),
within 1.4e-15 relative of 40-digit values, and scipy's AMOS ive/kve
at other orders.

Both potentials integrate the source's not-a-knot cubic-spline
interpolant with one Gauss-piece rule: equal pieces of at most 8
e-folds of e^(k r) per grid interval (one 8-point piece when k = 0,
12-point pieces otherwise), evaluated as whole arrays (the shifted
potential in runs of at most _PIECE_BLOCK pieces, which bounds its
memory at large k, and at most MAX_GRID_NODES pieces in all, which
bounds its time); ``kernels._gauss_points`` places the points.  The
spline is built in house: its slopes come from one LAPACK ``dgtsv``
call with ``scipy.interpolate.CubicSpline``'s own arithmetic, and the
shifted potential evaluates it at its Gauss points in ``PPoly``'s
order, so those values are scipy's bit for bit without importing
``scipy.interpolate``.

The Newtonian potential never evaluates the spline.  On interval i the
spline is sum_m c_m (s - r_i)^m, m = 0..3, so the 8-point rule applied
to W(s) times it is sum_m c_m M_m, with the rule's moments
M_m = half_i sum_j w_j W(s_j) (s_j - r_i)^m of the weights W = s^(N-1)
and W = s.  The rule is exact to degree 15, so for N <= 13 the moments
are the exact integrals of W times the powers, and the sum integrates
the spline exactly, as the rule did point by point.

What depends only on the grid is built once per grid and kept on it
(``RadialGrid.plan``): the spline's tridiagonal system, which both
potentials share (32 bytes per node), and per N the Newtonian
potential's moments and r^(2-N) (72 bytes per node).  The arithmetic
and its order are those of a fresh grid, bit for bit.

The discrete system lives here, in ``_DiscreteSystem``: the one home of
its right sides, u^p/v^q + rho and u^m/v^s, and of its residuals
(-Delta + c) w - f, with -Delta from the grid's flux plan.  It evaluates
rho at the nodes once.  A solve builds it on its ball and iterates with
it; ``_DiscreteSystem.admit`` builds it on a candidate pair (both fields
positive, on one grid), whatever produced the pair.  The pair is measured
against both forms of the system, the PDE residuals and
``representation_residual``, which read the same right sides and one
half-ball mask, a plan of the grid, and by ``decay_fit`` over each
field's window in ``_fit_windows``.  ``solvers`` and ``certificates``
both import these, so verifying a pair loads no solver.

The divergence probe decides the source's improper integral by the
exact exponent test and reports the dyadic shell sums of its envelope.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dfield
from enum import Enum
from typing import Optional

import numpy as np

from .barriers import Exponents, Problem, SourceModel
from .errors import NonIntegrableTailError
from .kernels import _gauss, _gauss_points, _scaled_bessel, sphere_area
from .profiles import BarrierFamily, BarrierProfile, log_coordinate, weighted_antiderivative
from .radial_core import MAX_GRID_NODES, RadialField, _flux_laplacian, _gtsv

__all__ = [
    "DivergenceVerdict",
    "DivergenceReport",
    "newton_potential_radial",
    "bessel_potential_radial",
    "representation_residual",
    "decay_fit",
    "divergence_probe_rho",
    "convr_check",
]


#: Gauss pieces the shifted potential evaluates at once (12 points each).
_PIECE_BLOCK = 4096

#: the shifted potential's tail intervals grow 1.25-fold from the last span
_TAIL_STEPS = 1.25 ** np.arange(400)


def _gauss_pieces(ends: np.ndarray, npts: int, rate: float, block: int):
    """Gauss points on the intervals [ends[i], ends[i+1]], cut into equal
    pieces of at most 8 e-folds of e^(rate r) (one piece for rate 0).

    Yields the (pieces, npts) points mid + half*x, each piece's
    half-width (its weights are half*w) and the interval owning it, in
    runs of at most ``block`` consecutive pieces, every interval's alike.
    More than MAX_GRID_NODES pieces in all are refused (ValueError).
    """
    a, b = ends[:-1], ends[1:]
    span = b - a
    nsub = np.maximum(1.0, np.ceil(rate * span / 8.0))
    total = nsub.sum()  # in floats, so no count wraps round
    if not total <= MAX_GRID_NODES:
        raise ValueError(f"the shifted potential needs {total:.4g} Gauss pieces, "
                         f"more than the cap of {MAX_GRID_NODES}")
    nsub, total = nsub.astype(int), int(total)
    first = nsub.cumsum() - nsub  # index of each interval's first piece
    owners = np.repeat(np.arange(nsub.size), nsub)  # each piece's interval
    steps = span / nsub
    for start in range(0, total, block):
        piece = np.arange(start, min(start + block, total))
        owner = owners[start : start + block]
        j = piece - first[owner]
        step = steps[owner]
        lo = a[owner] + j * step
        hi = np.where(j + 1 == nsub[owner], b[owner], lo + step)
        yield *_gauss_points(lo, hi, npts), owner


def _decay_chains(ip_int: np.ndarray, iq_int: np.ndarray, decay: np.ndarray):
    """The shifted potential's two chained sums, in one LAPACK ``dgtsv`` solve.

    Over the same m intervals (m = decay.size, one sum of each per
    interval), P runs up from the centre, P_0 = 0 and P_(i+1) = P_i decay_i
    + ip_int_i, and Q down from the last end, Q_m = 0 and Q_i = Q_(i+1)
    decay_i + iq_int_i.  Stacked, they form one bidiagonal system with a
    unit diagonal: -decay_i lies below P's row i+1 and above Q's row i,
    and the two blocks do not touch.  As |decay| <= 1, dgtsv never swaps
    rows, and each step of its elimination (P) or of its back
    substitution (Q) is the recurrence's own acc * d + x, bit for bit.
    Every input must be finite: dgtsv multiplies each unknown by the zero
    couplings too.  Returns P and Q, m + 1 values each.
    """
    m = decay.size
    lower, upper = np.zeros((2, 2 * m + 1))
    lower[:m] = upper[m + 1 :] = -decay
    b = np.concatenate(([0.0], ip_int, iq_int, [0.0]))
    x = _gtsv(lower, np.ones(2 * m + 2), upper, b)
    return x[: m + 1], x[m + 1 :]


def _spline_system(r: np.ndarray):
    """The grid part of the not-a-knot spline through nodes r (at least 4).

    Returns (dx, d0, d1, lower, diag, upper): the intervals, the two end
    spans and the three diagonals of CubicSpline's tridiagonal system for
    the slopes.  Rows 1..n-2 match second derivatives, the end rows make
    the third derivative continuous at r[1] and r[-2].  Non-finite nodes
    are refused with scipy's ValueError.
    """
    if not np.isfinite(r).all():
        raise ValueError("spline nodes and values must be finite")
    dx = np.diff(r)
    d0, d1 = r[2] - r[0], r[-1] - r[-3]
    lower = np.concatenate((dx[1:], [d1]))
    diag = np.concatenate(([dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]]))
    upper = np.concatenate(([d0], dx[:-1]))
    return dx, d0, d1, lower, diag, upper


def _not_a_knot(g: np.ndarray, system) -> np.ndarray:
    """The not-a-knot cubic spline through (r, g) as its (4, n-1) coefficients.

    ``system`` is the nodes' ``_spline_system(r)``.  Row m holds c_m, so
    that on [r_i, r_(i+1)] the spline is sum_m c_m[i] (s - r_i)^m.  The
    slopes solve CubicSpline's tridiagonal system and the coefficients
    are CubicHermiteSpline's, all in scipy's operation order, and so are
    its refusals (ValueError) of non-finite nodes, values or slopes.
    """
    dx, d0, d1, lower, diag, upper = system
    if not np.isfinite(g).all():
        raise ValueError("spline nodes and values must be finite")
    slope = (g[1:] - g[:-1]) / dx
    b = np.empty(g.size)
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    b[0] = ((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0
    b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
    dydx = _gtsv(lower, diag, upper, b)
    if not np.isfinite(dydx).all():  # the nodes and values are finite
        raise ValueError("spline slopes leave the float64 range")
    coef = np.empty((4, dx.size))
    t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
    coef[0], coef[1] = g[:-1], dydx[:-1]
    coef[2] = (slope - dydx[:-1]) / dx - t
    coef[3] = t / dx
    return coef


def _spline_at(coef: np.ndarray, r: np.ndarray, pts: np.ndarray,
               owner: np.ndarray) -> np.ndarray:
    """The spline of coefficients ``coef`` on nodes r at points ``pts``.

    Row i of ``pts`` lies inside interval [r[owner[i]], r[owner[i]+1]].
    Each value is PPoly's sum c0 + c1 x + c2 x^2 + c3 x^3, x the point's
    offset in its interval, with the powers accumulated, so it is
    scipy's bit for bit.
    """
    c0, c1, c2, c3 = coef[:, owner, None]
    x = pts - r[owner, None]
    z = x * x
    return c0 + c1 * x + c2 * z + c3 * (z * x)


def _newton_plan(r: np.ndarray, dimension: int):
    """What ``newton_potential_radial`` needs of nodes r in dimension N.

    (moments, r_pow): the 8-point rule's (2, 4, n-1) moments
    M_m[i] = half_i sum_j w_j W(s_j) (s_j - r_i)^m of the weights
    W = s^(N-1) and W = s, m = 0..3, one Gauss piece per interval, and
    r[1:]^(2-N).  Since s_j - r_i = half_i (1 + x_j), each weight's
    moments are one (n-1, 8) @ (8, 4) product scaled by half_i^(m+1).
    Nodes on which either leaves the float64 range are refused
    (ValueError) before any of them warns.
    """
    x, w = _gauss(8)
    with np.errstate(over="ignore", invalid="ignore"):
        # _gauss_pieces(r, 8, 0.0, ...)'s points, without its bookkeeping for runs
        pts, half = _gauss_points(r[:-1], r[1:], 8)
        weights = np.stack((pts ** (dimension - 1), pts))
        basis = w[:, None] * (1.0 + x[:, None]) ** np.arange(4)
        moments = weights @ basis * half[:, None] ** np.arange(1, 5)
        r_pow = r[1:] ** (2.0 - dimension)
    if not (np.isfinite(moments).all() and np.isfinite(r_pow).all()):
        raise ValueError(f"the Newtonian potential's moments on a grid of radius {r[-1]:g} "
                         f"leave the float64 range in dimension {dimension}")
    return np.ascontiguousarray(moments.transpose(0, 2, 1)), r_pow


def newton_potential_radial(dimension: int, source: RadialField) -> RadialField:
    """Decaying solution of -Delta u = source for a nonnegative radial source.

    The tail beyond the grid is integrated in closed form from the
    declared decay model; an algebraic tail with rate <= 2 is rejected
    as non-integrable.  The moments and the spline system come from
    the grid's plans, built on its first call for N.  The result
    carries no decay tag.
    """
    n = dimension
    if n < 3:
        raise ValueError("dimension must be >= 3")
    g = source.values
    if (g < 0).any():
        raise ValueError("source must be nonnegative")
    grid = source.grid
    tag = source.decay_tag
    if tag is not None and tag.family is BarrierFamily.Z and tag.rate <= 2.0:
        raise NonIntegrableTailError(
            f"algebraic tail rate {tag.rate} <= 2 makes int s * Z_a ds diverge"
        )
    # int_R^inf s g(s) ds = -c F(R), where F(inf) = 0
    tail_j = -source.tail(grid.radius, weighted_antiderivative)

    moments, r_pow = grid.plan(_newton_plan, n)
    coef = _not_a_knot(g, grid.plan(_spline_system))
    # int_0^r s^(N-1) g and int_0^r s g: the rule on interval i gives
    # sum_m c_m[i] M_m[i] for the cubic c_0 + ... + c_3 (s - r_i)^3
    acc = np.zeros((2, g.size))
    np.cumsum(np.einsum("kmi,mi->ki", moments, coef), axis=1, out=acc[:, 1:])
    inner, j_cum = acc
    outer = (j_cum[-1] - j_cum) + tail_j  # int_r^inf s g

    u = np.empty_like(g)
    u[0] = outer[0] / (n - 2.0)
    u[1:] = (r_pow * inner[1:] + outer[1:]) / (n - 2.0)

    return RadialField(grid, u)


def bessel_potential_radial(
    dimension: int, shift: float, source: RadialField
) -> RadialField:
    """Convolution G_shift * source restricted to radii (shift > 0).

    Evaluated through the factored spherical mean: cumulative scaled
    integrals against I_nu below the diagonal and K_nu above it, in one
    pass of Gauss pieces over the grid's intervals and the tail's, which
    grow 1.25-fold until 46 e-folds past R and carry the source's decay
    model; both sides are summed, and chained, on every interval alike.
    Each point's e^(k s) growth is suppressed against its own interval
    end, e^(k(s - r_(i+1))) for I_nu and e^(k(r_i - s)) for K_nu, and the
    interval sums are chained with e^(-k h) factors, so no intermediate
    ever overflows.  Applying -Delta + shift discretely to the output
    reproduces the source to quadrature accuracy.  A grid on which the
    arithmetic leaves float64 is refused (ValueError), unwarned, and so
    is every N >= 344, where Gamma(N/2) itself leaves float64.  The
    result carries no decay tag.
    """
    n = dimension
    if n < 3:
        raise ValueError("dimension must be >= 3")
    if shift <= 0:
        raise ValueError("shift must be positive; use newton_potential_radial for shift 0")
    g = source.values
    if (g < 0).any():
        raise ValueError("source must be nonnegative")
    if n > 343:  # u(0) divides by Gamma(N/2), above 2^1024 from N = 344
        raise ValueError(f"Gamma(N/2) leaves the float64 range in dimension {n}")

    r = source.grid.nodes
    nu = n / 2.0 - 1.0
    ive, kve = _scaled_bessel(nu)
    k = math.sqrt(shift)
    wg = _gauss(12)[1]
    beyond = (f"the shifted potential on a grid of radius {r[-1]:g} "
              f"leaves the float64 range in dimension {n}")

    # on a grid of huge radius the spans' powers, the tail's layout or the
    # weights s^(N/2) leave float64: refused below, before any warning
    with np.errstate(over="ignore", invalid="ignore"):
        h = max(r[-1] - r[-2], 1e-3)
        tail = r[-1] + (h * _TAIL_STEPS).cumsum()
        tail = tail[: (k * (tail - r[-1])).searchsorted(46.0, side="right") + 1]
        ends = np.concatenate((r, tail))
        nnode = r.size
        coef = _not_a_knot(g, source.grid.plan(_spline_system))
        sums = np.zeros((2, ends.size - 1))  # the I and K sides' interval sums
        zr = k * r[1:]  # the first run evaluates each factor at the node radii too
        # the piece count grows like sqrt(shift) * R; summing run by run
        # bounds the memory
        for pts, half, owner in _gauss_pieces(ends, 12, k, _PIECE_BLOCK):
            ball = owner.searchsorted(nnode - 1)  # a run's ball pieces come first
            vals = np.empty(pts.shape)
            vals[:ball] = _spline_at(coef, r, pts[:ball], owner[:ball])
            vals[ball:] = source.tail(pts[ball:])
            core = half[:, None] * wg * vals * pts ** (n / 2.0)
            z = np.concatenate(((k * pts).ravel(), zr))
            iz, kz = ive(z), kve(z)
            if zr.size:
                at_nodes, zr = (iz[pts.size :], kz[pts.size :]), zr[:0]
            iz, kz = iz[: pts.size].reshape(pts.shape), kz[: pts.size].reshape(pts.shape)
            ip = core * iz * np.exp(k * (pts - ends[owner + 1, None]))
            iq = core * kz * np.exp(k * (ends[owner, None] - pts))
            sums[0] += np.bincount(owner, ip.sum(axis=1), minlength=ends.size - 1)
            sums[1] += np.bincount(owner, iq.sum(axis=1), minlength=ends.size - 1)

        # both chains in one dgtsv solve, whose arithmetic is the
        # recurrences' own; P runs up from the centre, Q down from the tail's last end
        decay = np.exp(-k * (ends[1:] - ends[:-1]))
        if not (np.isfinite(sums).all() and np.isfinite(decay).all()):
            raise ValueError(beyond)
        p_acc, q_acc = _decay_chains(*sums, decay)

        u = np.empty(nnode)
        ive_r, kve_r = at_nodes
        u[1:] = r[1:] ** (1.0 - n / 2.0) * (kve_r * p_acc[1:nnode] + ive_r * q_acc[1:nnode])
        # in numpy, so that (k/2)^nu overflows to inf and is refused below
        u[0] = np.float64(k / 2.0) ** nu / math.gamma(nu + 1.0) * q_acc[0]
    if not np.isfinite(u).all():
        raise ValueError(beyond)
    return RadialField(source.grid, u)


def _combined_tail_rate(
    base: RadialField, power: float, other: RadialField, other_power: float
) -> float:
    """Decay rate of base^power / other^other_power from the fields' tags."""
    if base.decay_tag is None or other.decay_tag is None:
        raise ValueError("representation checks need decay tags on both fields")
    return power * base.decay_tag.rate - other_power * other.decay_tag.rate


def _refuse_overflow(rhs_u: np.ndarray, rhs_v: np.ndarray) -> None:
    """Raise ValueError unless both right sides are finite."""
    if not (np.isfinite(rhs_u).all() and np.isfinite(rhs_v).all()):
        raise ValueError("the right sides u^p/v^q + rho and u^m/v^s leave the float64 range")


def _half_ball(nodes: np.ndarray) -> np.ndarray:
    """The nodes r <= R/2 of a grid, as a mask."""
    return nodes <= 0.5 * nodes[-1]


def _half_ball_sup(grid, gap: np.ndarray) -> float:
    """Sup of |gap| over the nodes r <= R/2 of ``grid`` (``gap`` may lack the last node)."""
    return float(np.abs(gap[grid.plan(_half_ball)[: gap.size]]).max())


class _DiscreteSystem:
    """-Delta u + lam u = u^p/v^q + rho, -Delta v + mu v = u^m/v^s of a ``Problem`` with
    ``Exponents`` on ``grid``, the equations' one home.  rho is evaluated at the nodes
    once, when a solve builds it on its ball or ``admit`` on a candidate pair's grid."""

    def __init__(self, problem: Problem, exponents: Exponents, grid):
        self.problem, self.exponents, self.grid = problem, exponents, grid
        self.rho = problem.rho.evaluate(grid.nodes)

    @classmethod
    def admit(cls, problem: Problem, exponents: Exponents, u: RadialField, v: RadialField):
        """The system on the grid of (u, v), refused (ValueError) before rho is
        evaluated unless both fields are positive on one grid."""
        if (u.values <= 0).any() or (v.values <= 0).any():
            raise ValueError("fields must be positive")
        if u.grid.nodes.shape != v.grid.nodes.shape or (u.grid.nodes != v.grid.nodes).any():
            raise ValueError("u and v must share a grid")
        return cls(problem, exponents, u.grid)

    def source_u(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """u^p/v^q + rho, the right side of u's equation."""
        return u**self.exponents.p / v**self.exponents.q + self.rho

    def weight_v(self, u: np.ndarray) -> np.ndarray:
        """u^m, the weight of v's equation."""
        return u**self.exponents.m

    def sides(self, u: np.ndarray, v: np.ndarray) -> tuple:
        """Both right sides at every node.  A value that leaves the float64 range is
        kept, unwarned: each measurement refuses it over the nodes it reads."""
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return self.source_u(u, v), self.weight_v(u) / v**self.exponents.s

    @staticmethod
    def residual(grid, dimension: int, shift: float, w: np.ndarray, f: np.ndarray):
        """(-Delta + shift) w - f at every node but R, with ``f`` given there."""
        return _flux_laplacian(grid, dimension, w) + shift * w[:-1] - f

    def pde_residuals(self, u: np.ndarray, v: np.ndarray, sides: tuple):
        """Sup over r <= R/2, out of the truncation's reach, of both equation residuals of
        the values u, v with their ``sides``.  Raises ValueError where a right side
        or a residual there leaves the float64 range."""
        rhs_u, rhs_v = sides[0][:-1], sides[1][:-1]
        _refuse_overflow(rhs_u, rhs_v)
        n, grid = self.problem.dimension, self.grid
        with np.errstate(over="ignore", invalid="ignore"):
            res_u = self.residual(grid, n, self.problem.lam, u, rhs_u)
            res_v = self.residual(grid, n, self.problem.mu, v, rhs_v)
        sups = _half_ball_sup(grid, res_u), _half_ball_sup(grid, res_v)
        if not all(map(math.isfinite, sups)):
            raise ValueError("the PDE residuals leave the float64 range")
        return sups


def representation_residual(problem, exponents, u: RadialField, v: RadialField,
                            sides: Optional[tuple] = None):
    """Sup-norm gap between (u, v) and the potentials of their own right sides.

    For positive shifts the kernel is G_lambda / G_mu; for zero shifts
    the Newtonian potential.  Differences are measured on r <= R/2 so
    the declared tail models, not truncation, dominate the comparison.
    ``sides`` are the pair's ``_DiscreteSystem.sides``, formed here when
    not given.  Returns (residual_u, residual_v).
    """
    if sides is None:
        sides = _DiscreteSystem.admit(problem, exponents, u, v).sides(u.values, v.values)
    n = problem.dimension

    family = problem.family
    rate_u_rhs = _combined_tail_rate(u, exponents.p, v, exponents.q)
    rate_v_rhs = _combined_tail_rate(u, exponents.m, v, exponents.s)
    if problem.rho.family is not None:
        rate_u_rhs = min(rate_u_rhs, problem.rho.rate)
    if rate_u_rhs <= 0 or rate_v_rhs <= 0:
        raise ValueError("right-hand sides do not decay; representation undefined")
    _refuse_overflow(*sides)
    rhs_u = RadialField(u.grid, sides[0], BarrierProfile(family, rate_u_rhs))
    rhs_v = RadialField(u.grid, sides[1], BarrierProfile(family, rate_v_rhs))

    def one_side(target: RadialField, shift: float, rhs: RadialField) -> float:
        try:
            if shift > 0:
                pot = bessel_potential_radial(n, shift, rhs)
            else:
                pot = newton_potential_radial(n, rhs)
        except NonIntegrableTailError:
            # the candidate's right side has a divergent potential: the
            # representation cannot hold, report an infinite gap
            return math.inf
        return _half_ball_sup(u.grid, target.values - pot.values)

    res_u = one_side(u, problem.lam, rhs_u)
    res_v = one_side(v, problem.mu, rhs_v)
    return res_u, res_v


def decay_fit(field: RadialField, family: BarrierFamily, window: tuple):
    """Least-squares decay rate of a positive field over a radius window.

    Fits log(field) = rate * x + c, x the family's ``log_coordinate``, in
    closed form on the centred data xc = x - mean(x), yc = y - mean(y):
    rate = sum(xc yc) / sum(xc^2), and the residual is yc - rate * xc.
    The window's nodes, xc and sum(xc^2) are the grid's ``_fit_plan``,
    which scales x by a power of two past |x| = 2^400, so that sum(xc^2)
    stays finite; the fit in the scaled coordinate, multiplied by that
    scale, is the rate.
    Returns (rate, rms residual).
    """
    mask, xc, xx, scale = field.grid.plan(_fit_plan, family, window)
    vals = field.values[mask]
    if (vals <= 0).any():
        raise ValueError("field must be positive on the window")
    y = np.log(vals)
    # sum / size is ndarray.mean's arithmetic, bit for bit, without its wrapper
    yc = y - y.sum() / y.size
    rate = float(xc @ yc / xx)
    rms = float(np.sqrt(((yc - rate * xc) ** 2).sum() / y.size))
    return rate * scale, rms


def _fit_plan(r: np.ndarray, family: BarrierFamily, window: tuple) -> tuple:
    """(mask, xc, xc @ xc, scale): ``window``'s nodes and their centred ``log_coordinate``.

    A window with fewer than 4 nodes is refused (ValueError).  Past
    |x| = 2^400 (W windows beyond r ~ 1e120) x is multiplied by the power
    of two ``scale`` that brings it below, so xc @ xc stays finite; the
    scaling is exact, and below 2^400 ``scale`` is 1.
    """
    lo, hi = window
    mask = (r >= lo) & (r <= hi)
    if np.count_nonzero(mask) < 4:
        raise ValueError(f"decay-fit window [{lo:.6g}, {hi:.6g}] contains fewer than 4 grid nodes")
    x = log_coordinate(family, r[mask])
    scale = math.ldexp(1.0, min(400 - math.frexp(float(np.abs(x).max()))[1], 0))
    x = x * scale
    xc = x - x.mean()
    return mask, xc, xc @ xc, scale


def _fit_windows(family: BarrierFamily, radius: float) -> dict:
    """Decay-fit window of each field, by name, of a ``family`` run on a ball of ``radius``.

    Dirichlet truncation error decays exponentially inward for W runs
    but only algebraically for Z runs, so a Z fit of v sits deeper
    inside; Z-family u comes from a tail-closed potential, carries no
    truncation error and fits in the far field.
    """
    if family is BarrierFamily.W:
        window = (0.35 * radius, 0.75 * radius)
        return {"u": window, "v": window}
    return {"u": (0.3 * radius, 0.7 * radius), "v": (0.04 * radius, 0.16 * radius)}


# ---------------------------------------------------------------------------
# divergence probe
# ---------------------------------------------------------------------------


class DivergenceVerdict(Enum):
    CONVERGENT = "convergent"
    DIVERGENT = "divergent"


@dataclass
class DivergenceReport:
    """Classification of an improper integral with its shell evidence.

    ``value`` is reported for convergent envelope integrals (computed
    with the upper envelope beta, i.e. an upper bound); ``growth_law``
    describes the divergent integrand's asymptotic power.
    """

    verdict: DivergenceVerdict
    value: Optional[float] = None
    growth_law: Optional[str] = None
    shell_sums: list = dfield(default_factory=list)


def divergence_probe_rho(dimension: int, rho: SourceModel) -> DivergenceReport:
    """Classify integral of rho(x) |x|^(2-N) over R^N by the exact exponent test.

    An algebraic rate a <= 2 diverges, a > 2 converges, and exponential
    envelopes always converge.  The shell sums are the upper envelope's
    integrals over the dyadic shells [2^j, 2^(j+1)], j = 0..11.
    """
    if rho.is_zero:
        return DivergenceReport(DivergenceVerdict.CONVERGENT, value=0.0)
    w = sphere_area(dimension)
    # the integrand is |S^(N-1)| s rho(s) <= beta |S^(N-1)| s E(s)
    anti = functools.partial(weighted_antiderivative, rho.envelope_profile)
    shells = [(2.0 ** (j + 1), rho.beta * w * (anti(2.0 ** (j + 1)) - anti(2.0**j)))
              for j in range(12)]
    if rho.family is BarrierFamily.Z and rho.rate <= 2.0:
        law = f"shell integrand ~ r^({1.0 - rho.rate}); rate a = {rho.rate} <= 2"
        return DivergenceReport(DivergenceVerdict.DIVERGENT, growth_law=law, shell_sums=shells)
    total = rho.beta * w * -anti(0.0)  # F(inf) - F(0), F(inf) = 0
    return DivergenceReport(DivergenceVerdict.CONVERGENT, value=total, shell_sums=shells)


def _gradient(f: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``np.gradient(f, x)`` bit for bit, without its generic set-up.

    Second-order differences inside, in numpy's operation order for
    uniform (all spacings equal) and for non-uniform spacing, and
    one-sided first differences at both ends.
    """
    dx = x[1:] - x[:-1]
    out = np.empty_like(f)
    if (dx == dx[0]).all():
        out[1:-1] = (f[2:] - f[:-2]) / (2.0 * dx[0])
    else:
        dx1, dx2 = dx[:-1], dx[1:]
        a = -dx2 / (dx1 * (dx1 + dx2))
        b = (dx2 - dx1) / (dx1 * dx2)
        c = dx1 / (dx2 * (dx1 + dx2))
        out[1:-1] = a * f[:-2] + b * f[1:-1] + c * f[2:]
    out[0] = (f[1] - f[0]) / dx[0]
    out[-1] = (f[-1] - f[-2]) / dx[-1]
    return out


def convr_check(v: RadialField):
    """Sup of r |v'(r)| / v(r) on [1, R], plus a bounded-trend verdict.

    ``holds`` is True when the ratio stays finite and its tail does not
    keep growing (asymptotically constant ratios pass; linearly growing
    ones, typical of exponential decay, fail).  Returns (bound, holds).
    """
    r = v.grid.nodes
    vals = v.values
    if (vals <= 0).any():
        raise ValueError("field must be positive")
    # a value near either end of the float64 range can overflow the
    # gradient or the ratio; the bound below is then inf, unwarned
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        q = r * np.abs(_gradient(vals, r)) / vals
    # the gradient is one-sided (first order) at the outer endpoint
    mask = (r >= 1.0) & (r < r[-1])
    if not mask.any():
        raise ValueError("grid must extend beyond r = 1")
    qm = q[mask]
    bound = float(qm.max())
    if not math.isfinite(bound):
        return math.inf, False
    if bound < 1e-12:
        return bound, True
    rm = r[mask]
    mid_idx = int(np.searchsorted(rm, 0.5 * rm[-1]))
    mid_idx = min(max(mid_idx, 0), qm.size - 2)
    tail_level = float(qm[-max(3, qm.size // 20):].max())
    holds = tail_level <= 1.25 * max(qm[mid_idx], 1e-300)
    return bound, bool(holds)
