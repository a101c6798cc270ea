"""Integral representations of radial fields and divergence diagnostics.

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
scheme never overflows, and tails beyond the grid are closed using the
declared decay model of the source.

Both potentials integrate the source's not-a-knot cubic-spline
interpolant with one Gauss-piece rule: equal pieces of at most 8
e-folds of e^(k r) per grid interval (one 8-point piece when k = 0,
12-point pieces otherwise), evaluated as whole arrays (the shifted
potential in runs of at most _PIECE_BLOCK pieces, which bounds its
memory at large k).  The spline is built in house: its slopes come from
one LAPACK ``dgtsv`` call with ``scipy.interpolate.CubicSpline``'s own
arithmetic, and it is evaluated in ``PPoly``'s order, so its values are
scipy's bit for bit without importing ``scipy.interpolate``.

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
from scipy import special

from .barriers import SourceModel
from .errors import NonIntegrableTailError
from .kernels import sphere_area
from .profiles import BarrierFamily, BarrierProfile, weighted_antiderivative
from .radial_core import RadialField, _gtsv

__all__ = [
    "DivergenceVerdict",
    "DivergenceReport",
    "newton_potential_radial",
    "bessel_potential_radial",
    "representation_residual",
    "divergence_probe_rho",
    "convr_check",
]


#: Gauss pieces the shifted potential evaluates at once (12 points each).
_PIECE_BLOCK = 4096


@functools.cache
def _gauss(npts: int):
    return np.polynomial.legendre.leggauss(npts)


def _gauss_pieces(ends: np.ndarray, npts: int, rate: float = 0.0, block: int = 0):
    """Gauss points on the intervals [ends[i], ends[i+1]], cut into equal
    pieces of at most 8 e-folds of e^(rate r) (one piece for rate 0).

    Yields the (pieces, npts) points mid + half*x, each piece's
    half-width (its weights are half*w) and the interval owning it, in
    runs of at most ``block`` consecutive pieces (one run when 0).
    """
    a, b = ends[:-1], ends[1:]
    nsub = np.maximum(1, np.ceil(rate * (b - a) / 8.0)).astype(int)
    first = np.cumsum(nsub) - nsub  # index of each interval's first piece
    total = int(first[-1] + nsub[-1])
    size = block or total
    for start in range(0, total, size):
        piece = np.arange(start, min(start + size, total))
        owner = np.searchsorted(first, piece, side="right") - 1
        j = piece - first[owner]
        step = ((b - a) / nsub)[owner]
        lo = a[owner] + j * step
        hi = np.where(j + 1 == nsub[owner], b[owner], lo + step)
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        yield mid[:, None] + half[:, None] * _gauss(npts)[0], half, owner


def _not_a_knot(r: np.ndarray, g: np.ndarray):
    """The not-a-knot cubic spline through (r, g) as ``spline(pts, owner)``.

    ``spline(pts, owner)`` evaluates it at ``pts`` (one row per piece)
    with row i inside interval [r[owner[i]], r[owner[i]+1]].  The slopes
    solve CubicSpline's tridiagonal system, the coefficients are
    CubicHermiteSpline's and each value is PPoly's sum
    c0 + c1 x + c2 x^2 + c3 x^3 with the powers accumulated, all in
    scipy's operation order, and so are its refusals (ValueError) of
    non-finite nodes, values or slopes.  Needs at least 4 nodes.
    """
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(g))):
        raise ValueError("spline nodes and values must be finite")
    dx = np.diff(r)
    slope = np.diff(g) / dx
    # system for the slopes: rows 1..n-2 match second derivatives, the end
    # rows make the third derivative continuous at r[1] and r[-2]
    d0, d1 = r[2] - r[0], r[-1] - r[-3]
    lower = np.concatenate((dx[1:], [d1]))
    diag = np.concatenate(([dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]]))
    upper = np.concatenate(([d0], dx[:-1]))
    b = np.empty(r.size)
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    b[0] = ((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0
    b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
    dydx = _gtsv(lower, diag, upper, b)
    if not np.all(np.isfinite(dydx)):
        raise ValueError("spline slopes must be finite")
    t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
    coef = (g[:-1], dydx[:-1], (slope - dydx[:-1]) / dx - t, t / dx)

    def spline(pts: np.ndarray, owner: np.ndarray) -> np.ndarray:
        c0, c1, c2, c3 = (c[owner, None] for c in coef)
        x = pts - r[owner, None]
        z = x * x
        return c0 + c1 * x + c2 * z + c3 * (z * x)

    return spline


def _cumulative_weighted(pts, half, g_pts, power: float) -> np.ndarray:
    """int_0^{r_i} s^power g(s) ds from one Gauss piece per grid interval.

    Gauss quadrature of the monomial weight keeps the near-origin
    contributions accurate where s^power vanishes fast.
    """
    contrib = half * np.sum(_gauss(pts.shape[1])[1] * pts**power * g_pts, axis=1)
    return np.concatenate(([0.0], np.cumsum(contrib)))


def newton_potential_radial(dimension: int, source: RadialField) -> RadialField:
    """Decaying solution of -Delta u = source for a nonnegative radial source.

    The tail beyond the grid is integrated in closed form from the
    declared decay model; an algebraic tail with rate <= 2 is rejected
    as non-integrable.
    """
    n = dimension
    if n < 3:
        raise ValueError("dimension must be >= 3")
    g = source.values
    if np.any(g < 0):
        raise ValueError("source must be nonnegative")
    r = source.grid.nodes
    tag = source.decay_tag
    if tag is not None and tag.family is BarrierFamily.Z and tag.rate <= 2.0:
        raise NonIntegrableTailError(
            f"algebraic tail rate {tag.rate} <= 2 makes int s * Z_a ds diverge"
        )
    # int_R^inf s g(s) ds = -c F(R), where F(inf) = 0
    tail_j = -source.tail(source.grid.radius, weighted_antiderivative)

    pts, half, owner = next(_gauss_pieces(r, 8))
    g_pts = _not_a_knot(r, g)(pts, owner)
    inner = _cumulative_weighted(pts, half, g_pts, n - 1)  # int_0^r s^(N-1) g
    j_cum = _cumulative_weighted(pts, half, g_pts, 1)  # int_0^r s g
    outer = (j_cum[-1] - j_cum) + tail_j  # int_r^inf s g

    u = np.empty_like(g)
    u[0] = outer[0] / (n - 2.0)
    u[1:] = (r[1:] ** (2.0 - n) * inner[1:] + outer[1:]) / (n - 2.0)

    out_rate = float(n - 2)
    if tag is not None and tag.family is BarrierFamily.Z:
        out_rate = min(tag.rate - 2.0, float(n - 2))
    return RadialField(source.grid, u, BarrierProfile(BarrierFamily.Z, out_rate))


def bessel_potential_radial(
    dimension: int, shift: float, source: RadialField
) -> RadialField:
    """Convolution G_shift * source restricted to radii (shift > 0).

    Evaluated through the factored spherical mean: cumulative scaled
    integrals against I_nu below the diagonal and K_nu above it, on the
    shared Gauss pieces.  Each point's e^(k s) growth is suppressed
    against its own interval end, e^(k(s - r_(i+1))) for I_nu and
    e^(k(r_i - s)) for K_nu (e^(k(R - s)) in the tail beyond R), and the
    interval sums are chained with e^(-k h) factors, so no intermediate
    ever overflows.  Applying -Delta + shift discretely to the output
    reproduces the source to quadrature accuracy.
    """
    n = dimension
    if n < 3:
        raise ValueError("dimension must be >= 3")
    if shift <= 0:
        raise ValueError("shift must be positive; use newton_potential_radial for shift 0")
    g = source.values
    if np.any(g < 0):
        raise ValueError("source must be nonnegative")

    r = source.grid.nodes
    nu = n / 2.0 - 1.0
    k = math.sqrt(shift)
    wg = _gauss(12)[1]

    def weighted(pts, half, vals):
        # Gauss-weighted s^(N/2) g(s) at every point of every piece
        return half[:, None] * wg * vals * pts ** (n / 2.0)

    nnode = r.size
    spline = _not_a_knot(r, g)
    ip_int, iq_int = np.zeros((2, nnode - 1))
    # the piece count grows like sqrt(shift) * R; summing run by run
    # bounds the memory
    for pts, half, owner in _gauss_pieces(r, 12, k, _PIECE_BLOCK):
        core = weighted(pts, half, spline(pts, owner))
        ip = core * special.ive(nu, k * pts) * np.exp(k * (pts - r[1:][owner, None]))
        iq = core * special.kve(nu, k * pts) * np.exp(k * (r[:-1][owner, None] - pts))
        ip_int += np.bincount(owner, np.sum(ip, axis=1), minlength=nnode - 1)
        iq_int += np.bincount(owner, np.sum(iq, axis=1), minlength=nnode - 1)

    decay = np.exp(-k * np.diff(r))
    p_acc = np.zeros(nnode)
    for i in range(nnode - 1):
        p_acc[i + 1] = p_acc[i] * decay[i] + ip_int[i]

    # tail contribution to Q at r = R: geometric intervals until 46 e-folds
    q_tail = 0.0
    radius = source.grid.radius
    h = max(r[-1] - r[-2], 1e-3)
    ends = radius + np.concatenate(([0.0], np.cumsum(h * 1.25 ** np.arange(400))))
    ends = ends[: np.searchsorted(k * (ends - radius), 46.0, side="right") + 1]
    for tpts, thalf, _ in _gauss_pieces(ends, 12, k, _PIECE_BLOCK):
        tq = weighted(tpts, thalf, source.tail(tpts)) * special.kve(nu, k * tpts)
        q_tail += float(np.sum(tq * np.exp(k * (radius - tpts))))

    q_acc = np.zeros(nnode)
    q_acc[-1] = q_tail
    for i in range(nnode - 2, -1, -1):
        q_acc[i] = q_acc[i + 1] * decay[i] + iq_int[i]

    u = np.empty(nnode)
    zr = k * r[1:]
    u[1:] = r[1:] ** (1.0 - n / 2.0) * (
        special.kve(nu, zr) * p_acc[1:] + special.ive(nu, zr) * q_acc[1:]
    )
    u[0] = (k / 2.0) ** nu / math.gamma(nu + 1.0) * q_acc[0]

    if source.decay_tag is not None and source.decay_tag.family is BarrierFamily.Z:
        out_tag = source.decay_tag
    elif source.decay_tag is not None and source.decay_tag.family is BarrierFamily.W:
        out_tag = BarrierProfile(BarrierFamily.W, min(source.decay_tag.rate, k))
    else:
        out_tag = BarrierProfile(BarrierFamily.W, k)
    return RadialField(source.grid, u, out_tag)


def _combined_tail_rate(
    base: RadialField, power: float, other: RadialField, other_power: float
) -> float:
    """Decay rate of base^power / other^other_power from the fields' tags."""
    if base.decay_tag is None or other.decay_tag is None:
        raise ValueError("representation checks need decay tags on both fields")
    return power * base.decay_tag.rate - other_power * other.decay_tag.rate


def representation_residual(problem, exponents, u: RadialField, v: RadialField):
    """Sup-norm gap between (u, v) and the potentials of their own right sides.

    For positive shifts the kernel is G_lambda / G_mu; for zero shifts
    the Newtonian potential.  Differences are measured on r <= R/2 so
    the declared tail models, not truncation, dominate the comparison.
    Returns (residual_u, residual_v).
    """
    if np.any(u.values <= 0) or np.any(v.values <= 0):
        raise ValueError("fields must be positive")
    n = problem.dimension
    r = u.grid.nodes
    if u.grid.nodes.shape != v.grid.nodes.shape or np.any(u.grid.nodes != v.grid.nodes):
        raise ValueError("u and v must share a grid")

    family = problem.family
    rate_u_rhs = _combined_tail_rate(u, exponents.p, v, exponents.q)
    rate_v_rhs = _combined_tail_rate(u, exponents.m, v, exponents.s)
    rho_vals = problem.rho.evaluate(r)
    if problem.rho.family is not None:
        rate_u_rhs = min(rate_u_rhs, problem.rho.rate)
    if rate_u_rhs <= 0 or rate_v_rhs <= 0:
        raise ValueError("right-hand sides do not decay; representation undefined")

    rhs_u = RadialField(
        u.grid,
        u.values**exponents.p / v.values**exponents.q + rho_vals,
        BarrierProfile(family, rate_u_rhs),
    )
    rhs_v = RadialField(
        u.grid,
        u.values**exponents.m / v.values**exponents.s,
        BarrierProfile(family, rate_v_rhs),
    )
    mask = r <= 0.5 * u.grid.radius

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
        return float(np.max(np.abs(target.values[mask] - pot.values[mask])))

    res_u = one_side(u, problem.lam, rhs_u)
    res_v = one_side(v, problem.mu, rhs_v)
    return res_u, res_v


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


def convr_check(v: RadialField):
    """Sup of r |v'(r)| / v(r) on [1, R], plus a bounded-trend verdict.

    ``holds`` is True when the ratio stays finite and its tail does not
    keep growing (asymptotically constant ratios pass; linearly growing
    ones, typical of exponential decay, fail).  Returns (bound, holds).
    """
    r = v.grid.nodes
    vals = v.values
    if np.any(vals <= 0):
        raise ValueError("field must be positive")
    dv = np.gradient(vals, r)
    q = r * np.abs(dv) / vals
    # np.gradient is one-sided (first order) at the outer endpoint
    mask = (r >= 1.0) & (r < r[-1])
    if not np.any(mask):
        raise ValueError("grid must extend beyond r = 1")
    qm = q[mask]
    bound = float(np.max(qm))
    if not math.isfinite(bound):
        return math.inf, False
    if bound < 1e-12:
        return bound, True
    rm = r[mask]
    mid_idx = int(np.searchsorted(rm, 0.5 * rm[-1]))
    mid_idx = min(max(mid_idx, 0), qm.size - 2)
    tail_level = float(np.max(qm[-max(3, qm.size // 20):]))
    holds = tail_level <= 1.25 * max(qm[mid_idx], 1e-300)
    return bound, bool(holds)
