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
spherical mean evaluated analytically) is what production code uses;
the angular-quadrature form is kept for cross-checks.  All Bessel
factors are evaluated in exponentially scaled form so the scheme never
overflows, and tails beyond the grid are closed using the declared
decay model of the source.

Both potentials integrate the source's cubic-spline interpolant with
one Gauss-piece rule: equal pieces of at most 8 e-folds of e^(k r) per
grid interval (one 8-point piece when k = 0, 12-point pieces otherwise),
all points in one array.

Divergence probes classify improper integrals by exact exponent tests
for envelope sources and by dyadic shell sums otherwise.  Numerics
cannot prove divergence for tabulated data, so the shell heuristic
(eight consecutive non-decaying shells) is reported honestly as such.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dfield
from enum import Enum
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy import special

from .barriers import SourceKind, SourceModel
from .errors import NonIntegrableTailError
from .kernels import GreenParams, green_lambda, sphere_area
from .profiles import BarrierFamily, BarrierProfile, eval_barrier
from .radial_core import RadialField, RadialGrid

__all__ = [
    "DivergenceVerdict",
    "DivergenceReport",
    "newton_potential_radial",
    "bessel_potential_radial",
    "spherical_mean_kernel",
    "representation_residual",
    "divergence_probe_rho",
    "divergence_probe_nested",
    "convr_check",
]


@functools.cache
def _gauss(npts: int):
    return np.polynomial.legendre.leggauss(npts)


def _gauss_pieces(ends: np.ndarray, npts: int, rate: float = 0.0):
    """Gauss points on the intervals [ends[i], ends[i+1]], cut into equal
    pieces of at most 8 e-folds of e^(rate r) (one piece for rate 0).

    Returns the (pieces, npts) points mid + half*x, each piece's
    half-width (its weights are half*w) and the interval owning it.
    """
    a, b = ends[:-1], ends[1:]
    nsub = np.maximum(1, np.ceil(rate * (b - a) / 8.0)).astype(int)
    owner = np.repeat(np.arange(a.size), nsub)
    j = np.arange(owner.size) - np.repeat(np.cumsum(nsub) - nsub, nsub)
    step = ((b - a) / nsub)[owner]
    lo = a[owner] + j * step
    hi = np.where(j + 1 == nsub[owner], b[owner], lo + step)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid[:, None] + half[:, None] * _gauss(npts)[0], half, owner


def _cumulative_weighted(pts, half, g_pts, power: float) -> np.ndarray:
    """int_0^{r_i} s^power g(s) ds from one Gauss piece per grid interval.

    Gauss quadrature of the monomial weight keeps the near-origin
    contributions accurate where s^power vanishes fast.
    """
    contrib = half * np.sum(_gauss(pts.shape[1])[1] * pts**power * g_pts, axis=1)
    return np.concatenate(([0.0], np.cumsum(contrib)))


def _tail_weighted_integral(profile: BarrierProfile, radius: float) -> float:
    """int_R^inf s * profile(s) ds in closed form.

    W(a): substitute t = sqrt(1+s^2):  e^(-aT) (T/a + 1/a^2), T = sqrt(1+R^2).
    Z(a): (1+R^2)^((2-a)/2) / (a-2), requires a > 2.
    """
    t0 = math.sqrt(1.0 + radius * radius)
    a = profile.rate
    if profile.family is BarrierFamily.W:
        return math.exp(-a * t0) * (t0 / a + 1.0 / (a * a))
    if a <= 2.0:
        raise NonIntegrableTailError(
            f"algebraic tail rate {a} <= 2 makes int s * Z_a ds diverge"
        )
    return (1.0 + radius * radius) ** ((2.0 - a) / 2.0) / (a - 2.0)


def _tail_model(source: RadialField) -> tuple[Optional[Callable], float]:
    """(tail evaluator, amplitude) from the declared decay model.

    A missing tag is accepted only for compactly supported data (last
    node exactly zero), in which case the tail is zero.
    """
    if source.decay_tag is not None:
        amp = source.tail_amplitude()
        tag = source.decay_tag

        def tail(s):
            return amp * np.asarray(eval_barrier(tag, s), dtype=float)

        return tail, amp
    if source.values[-1] == 0.0:
        return None, 0.0
    raise ValueError(
        "source needs a decay_tag for tail closure (or must vanish at the last node)"
    )


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

    tail, amp = _tail_model(source)
    tail_j = 0.0
    if tail is not None:
        assert source.decay_tag is not None
        tail_j = amp * _tail_weighted_integral(source.decay_tag, source.grid.radius)

    pts, half, _ = _gauss_pieces(r, 8)
    g_pts = CubicSpline(r, g)(pts)
    inner = _cumulative_weighted(pts, half, g_pts, n - 1)  # int_0^r s^(N-1) g
    j_cum = _cumulative_weighted(pts, half, g_pts, 1)  # int_0^r s g
    outer = (j_cum[-1] - j_cum) + tail_j  # int_r^inf s g

    u = np.empty_like(g)
    u[0] = outer[0] / (n - 2.0)
    u[1:] = (r[1:] ** (2.0 - n) * inner[1:] + outer[1:]) / (n - 2.0)

    out_rate = float(n - 2)
    if source.decay_tag is not None and source.decay_tag.family is BarrierFamily.Z:
        out_rate = min(source.decay_tag.rate - 2.0, float(n - 2))
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
    tail, _ = _tail_model(source)
    wg = _gauss(12)[1]

    def weighted(pts, half, vals):
        # Gauss-weighted s^(N/2) g(s) at every point of every piece
        return half[:, None] * wg * vals * pts ** (n / 2.0)

    nnode = r.size
    pts, half, owner = _gauss_pieces(r, 12, k)
    core = weighted(pts, half, CubicSpline(r, g)(pts))
    ip = core * special.ive(nu, k * pts) * np.exp(k * (pts - r[1:][owner, None]))
    iq = core * special.kve(nu, k * pts) * np.exp(k * (r[:-1][owner, None] - pts))
    ip_int = np.bincount(owner, np.sum(ip, axis=1))
    iq_int = np.bincount(owner, np.sum(iq, axis=1))

    decay = np.exp(-k * np.diff(r))
    p_acc = np.zeros(nnode)
    for i in range(nnode - 1):
        p_acc[i + 1] = p_acc[i] * decay[i] + ip_int[i]

    # tail contribution to Q at r = R: geometric intervals until 46 e-folds
    q_tail = 0.0
    if tail is not None:
        radius = source.grid.radius
        h = max(r[-1] - r[-2], 1e-3)
        ends = radius + np.concatenate(([0.0], np.cumsum(h * 1.25 ** np.arange(400))))
        ends = ends[: np.searchsorted(k * (ends - radius), 46.0, side="right") + 1]
        tpts, thalf, _ = _gauss_pieces(ends, 12, k)
        tq = weighted(tpts, thalf, tail(tpts)) * special.kve(nu, k * tpts)
        q_tail = float(np.sum(tq * np.exp(k * (radius - tpts))))

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


def spherical_mean_kernel(
    params: GreenParams, r: float, s: float, method: str = "closed"
) -> float:
    """Angular surface integral of G_lambda over the sphere of radius s.

        S(r, s) = |S^(N-2)| int_0^pi G_lambda(d(t)) sin(t)^(N-2) dt,
        d(t) = sqrt(r^2 + s^2 - 2 r s cos t).

    ``method="closed"`` evaluates the equivalent Bessel product
    (r s)^(1-N/2) I_nu(k min) K_nu(k max); ``method="quad"`` performs
    the angular quadrature (reference implementation, used to validate
    the closed form).
    """
    if r <= 0 or s <= 0:
        raise ValueError("radii must be positive")
    n = params.dimension
    if params.shift <= 0:
        raise ValueError("spherical mean kernel requires shift > 0")
    k = math.sqrt(params.shift)
    nu = n / 2.0 - 1.0
    if method == "closed":
        lo, hi = (r, s) if r <= s else (s, r)
        return float(
            (r * s) ** (1.0 - n / 2.0)
            * special.ive(nu, k * lo)
            * special.kve(nu, k * hi)
            * math.exp(k * (lo - hi))
        )
    if method != "quad":
        raise ValueError(f"unknown method {method!r}")
    area = sphere_area(n - 1)

    def integrand(t: float) -> float:
        d = math.sqrt(max(r * r + s * s - 2.0 * r * s * math.cos(t), 0.0))
        if d == 0.0:
            return 0.0
        return green_lambda(params, d) * math.sin(t) ** (n - 2)

    val, _ = quad(integrand, 0.0, math.pi, limit=200, epsabs=1e-13, epsrel=1e-11)
    return area * val


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

    family = BarrierFamily.W if problem.lam > 0 else BarrierFamily.Z
    rate_u_rhs = _combined_tail_rate(u, exponents.p, v, exponents.q)
    rate_v_rhs = _combined_tail_rate(u, exponents.m, v, exponents.s)
    rho_vals = problem.rho.evaluate(r)
    if problem.rho.kind in (SourceKind.EXP_ENVELOPE, SourceKind.ALG_ENVELOPE):
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
# divergence probes
# ---------------------------------------------------------------------------


class DivergenceVerdict(Enum):
    CONVERGENT = "convergent"
    DIVERGENT = "divergent"
    INCONCLUSIVE = "inconclusive"


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

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "value": self.value,
            "growth_law": self.growth_law,
            "shell_sums": [[float(a), float(b)] for a, b in self.shell_sums],
        }


def _z_weighted_antiderivative(a: float, r: float) -> float:
    # int r (1+r^2)^(-a/2) dr
    if a == 2.0:
        return 0.5 * math.log1p(r * r)
    return -((1.0 + r * r) ** (1.0 - a / 2.0)) / (a - 2.0)


def _w_weighted_antiderivative(a: float, r: float) -> float:
    # int r e^(-a sqrt(1+r^2)) dr = -e^(-a t)(t/a + 1/a^2), t = sqrt(1+r^2)
    t = math.sqrt(1.0 + r * r)
    return -math.exp(-a * t) * (t / a + 1.0 / (a * a))


def _envelope_shells(kind: SourceKind, a: float, amp: float, dimension: int, kmax: int = 12):
    anti = _z_weighted_antiderivative if kind is SourceKind.ALG_ENVELOPE else _w_weighted_antiderivative
    w = sphere_area(dimension)
    sums = []
    for j in range(kmax):
        lo, hi = 2.0**j, 2.0 ** (j + 1)
        sums.append((hi, amp * w * (anti(a, hi) - anti(a, lo))))
    return sums


def divergence_probe_rho(dimension: int, rho: SourceModel) -> DivergenceReport:
    """Classify integral of rho(x) |x|^(2-N) over R^N.

    Envelope sources are decided by the exact exponent test (algebraic
    rate a <= 2 diverges, a > 2 converges; exponential envelopes always
    converge).  Tabulated sources fall back to the dyadic shell
    heuristic: at least eight consecutive non-decaying shells are
    required before divergence is reported.
    """
    n = dimension
    w = sphere_area(n)
    if rho.kind is SourceKind.ZERO:
        return DivergenceReport(DivergenceVerdict.CONVERGENT, value=0.0)
    if rho.kind is SourceKind.ALG_ENVELOPE:
        shells = _envelope_shells(rho.kind, rho.rate, rho.beta, n)
        if rho.rate <= 2.0:
            law = f"shell integrand ~ r^({1.0 - rho.rate}); rate a = {rho.rate} <= 2"
            return DivergenceReport(DivergenceVerdict.DIVERGENT, growth_law=law, shell_sums=shells)
        total = rho.beta * w / (rho.rate - 2.0)
        return DivergenceReport(DivergenceVerdict.CONVERGENT, value=total, shell_sums=shells)
    if rho.kind is SourceKind.EXP_ENVELOPE:
        shells = _envelope_shells(rho.kind, rho.rate, rho.beta, n)
        a = rho.rate
        total = rho.beta * w * math.exp(-a) * (1.0 / a + 1.0 / (a * a))
        return DivergenceReport(DivergenceVerdict.CONVERGENT, value=total, shell_sums=shells)

    assert isinstance(rho.profile, RadialField)
    return _tabulated_probe(n, rho.profile.grid, rho.profile.values)


def _tabulated_probe(dimension: int, grid: RadialGrid, vals: np.ndarray) -> DivergenceReport:
    """Shell heuristic for the integral of |x|^(2-N) g over R^N, g tabulated.

    The r <= 1 head and the dyadic shells [2^j, 2^(j+1)] inside the grid
    are trapezoid sums of |S^(N-1)| r g(r); a shell with fewer than four
    nodes ends the list.
    """
    r = grid.nodes
    w = sphere_area(dimension)
    head_mask = r <= 1.0
    head = float(w * np.trapezoid(r[head_mask] * vals[head_mask], r[head_mask]))
    shells = []
    j = 0
    while 2.0 ** (j + 1) <= grid.radius:
        lo, hi = 2.0**j, 2.0 ** (j + 1)
        mask = (r >= lo) & (r <= hi)
        if np.count_nonzero(mask) < 4:
            break
        contrib = w * np.trapezoid(r[mask] * vals[mask], r[mask])
        shells.append((hi, float(contrib)))
        j += 1
    return _classify_shells(shells, head)


def _classify_shells(shells: list, head: float = 0.0) -> DivergenceReport:
    """Dyadic shell heuristic; ``head`` is the (always finite) r < 1 part."""
    if len(shells) < 8:
        return DivergenceReport(DivergenceVerdict.INCONCLUSIVE, shell_sums=shells)
    vals = np.array([s for _, s in shells])
    tail = vals[-8:]
    if np.max(np.abs(tail)) <= 1e-300:  # vanished: compact support
        return DivergenceReport(
            DivergenceVerdict.CONVERGENT, value=head + float(np.sum(vals)),
            shell_sums=shells,
        )
    if np.all(np.diff(tail) >= -1e-15 * np.abs(tail[:-1])):
        return DivergenceReport(
            DivergenceVerdict.DIVERGENT,
            growth_law="non-decaying dyadic shells (heuristic)",
            shell_sums=shells,
        )
    ratios = tail[1:] / np.where(tail[:-1] == 0.0, 1.0, tail[:-1])
    if np.all(ratios <= 0.75):
        geo_tail = float(tail[-1] * ratios[-1] / (1.0 - ratios[-1])) if ratios[-1] < 1 else 0.0
        return DivergenceReport(
            DivergenceVerdict.CONVERGENT,
            value=head + float(np.sum(vals)) + geo_tail,
            shell_sums=shells,
        )
    return DivergenceReport(DivergenceVerdict.INCONCLUSIVE, shell_sums=shells)


def divergence_probe_nested(dimension: int, rho: SourceModel, m: float) -> DivergenceReport:
    """Classify integral of |x|^(2-N) (G_0-potential of rho)^m over R^N.

    For envelope sources the inner potential obeys the analytic lower
    bound ~ r^(2-a_eff) with a_eff = min(a, N) (the potential of an
    integrable source decays no slower than r^(2-N)), so the outer
    integrand scales like r^(1 - m(a_eff - 2)) on dyadic shells; the
    exact exponent test decides.  Tabulated sources use the numeric
    inner potential and shell heuristics.
    """
    n = dimension
    if m <= 0:
        raise ValueError("exponent m must be positive")
    if rho.kind is SourceKind.ZERO:
        return DivergenceReport(DivergenceVerdict.CONVERGENT, value=0.0)

    if rho.kind in (SourceKind.ALG_ENVELOPE, SourceKind.EXP_ENVELOPE):
        if rho.kind is SourceKind.ALG_ENVELOPE:
            if rho.rate <= 2.0:
                law = f"inner potential diverges (rate a = {rho.rate} <= 2)"
                return DivergenceReport(DivergenceVerdict.DIVERGENT, growth_law=law)
            a_eff = min(rho.rate, float(n))
        else:
            a_eff = float(n)  # integrable source: inner ~ r^(2-N)
        outer_exp = 1.0 - m * (a_eff - 2.0)
        shells = []
        for j in range(12):
            lo, hi = 2.0**j, 2.0 ** (j + 1)
            if outer_exp == -1.0:
                shells.append((hi, math.log(2.0)))
            else:
                shells.append(
                    (hi, (hi ** (outer_exp + 1.0) - lo ** (outer_exp + 1.0)) / (outer_exp + 1.0))
                )
        if m * (a_eff - 2.0) <= 2.0:
            law = f"outer integrand ~ r^({outer_exp}), m(a-2) = {m * (a_eff - 2.0)} <= 2"
            return DivergenceReport(DivergenceVerdict.DIVERGENT, growth_law=law, shell_sums=shells)
        return DivergenceReport(DivergenceVerdict.CONVERGENT, shell_sums=shells)

    assert isinstance(rho.profile, RadialField)
    inner = newton_potential_radial(n, rho.profile)
    return _tabulated_probe(n, inner.grid, inner.values**m)


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
