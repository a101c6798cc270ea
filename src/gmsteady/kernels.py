"""Radial fundamental solutions of -Delta + lambda and their Bessel factors.

The shifted operator -Delta + lambda on R^N (N >= 3, lambda > 0) has the
radial, delta-calibrated fundamental solution

    G_lambda(r) = (2*pi)^(-N/2) * (sqrt(lambda)/r)^(N/2-1)
                  * K_{N/2-1}(sqrt(lambda)*r),

where K_nu is the modified Bessel function of the second kind.  The
calibration means (-Delta + lambda) G_lambda = delta_0, equivalently the
total mass identity

    integral_{R^N} G_lambda dx = 1/lambda.

For lambda = 0 the fundamental solution of -Delta is

    G_0(r) = Gamma((N-2)/2) / (4*pi^(N/2)) * r^(2-N).

Asymptotics: G_lambda(r) is sandwiched between constant multiples of
r^(-(N-1)/2) * exp(-sqrt(lambda)*r) for r > 1 (far field) and of
r^(2-N) for 0 < r < 1 (near field).  ``verify_kernel_bounds`` measures
the sandwich constants on a grid.

``_scaled_bessel(nu)`` is the one Bessel evaluator: it gives the pair
I_nu(z) e^(-z), K_nu(z) e^z, and ``green_lambda``, the bounds, the mass
and the shifted potential all take K_nu from it.  The scaling avoids
premature underflow; far tails may still be subnormal, and every
consumer dominates them by a barrier anyway.  The orders of N = 3, 4, 5
need no AMOS: nu = 1/2 and 3/2 are elementary (DLMF 10.49.i), I_{3/2}
by its power series below z = 1 where the closed form cancels, and
nu = 1 is Cephes' i1e/k1e.  Against 40-digit mpmath on z in [1e-8, 1e4]
the closed forms stay within 9e-16 relative and Cephes within 1.4e-15,
where AMOS ive is off by up to 2.6e-14.  Other orders fall back to
scipy's ive/kve, the only scipy this module imports.

``green_lambda_mass`` sums 12-point Gauss-Legendre pieces of the
integrand x^(N-1) G_1(x), formed in log space from the same expression
as the bounds' far-field ratios; ``_gauss_points``, the one function
that places Gauss points on intervals, serves it and both potentials.
Its exact value is the Mellin integral
integral_0^inf x^(N/2) K_nu(x) dx = 2^(N/2-1) Gamma(N/2) (DLMF 10.43.19).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GreenParams",
    "KernelBoundsReport",
    "green_lambda",
    "green_zero",
    "green_lambda_mass",
    "sphere_area",
    "verify_kernel_bounds",
]

#: Surface area of the unit sphere S^{N-1} in R^N.
def sphere_area(dimension: int) -> float:
    return 2.0 * math.pi ** (dimension / 2.0) / math.gamma(dimension / 2.0)


_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class GreenParams:
    """Dimension N >= 3 and shift lambda >= 0 of the kernel G_lambda."""

    dimension: int
    shift: float

    def __post_init__(self) -> None:
        if self.dimension < 3:
            raise ValueError(f"dimension must be >= 3, got {self.dimension}")
        if not math.isfinite(self.shift):
            raise ValueError(f"shift must be finite, got {self.shift}")
        if self.shift < 0:
            raise ValueError(f"shift must be >= 0, got {self.shift}")


@dataclass
class KernelBoundsReport:
    """Sandwich constants observed on a kernel grid.

    c1 bounds the far-field ratio G_lambda / (r^(-(N-1)/2) e^(-sqrt(lambda) r))
    into [1/c1, c1]; c2 does the same for the near-field ratio
    G_lambda / r^(2-N).  samples holds the (r, ratio) pairs that were
    measured (far ratios for r > 1, near ratios for r < 1).
    """

    c1: float
    c2: float
    samples: list = field(default_factory=list)


def _ive_half(z):
    return -np.expm1(-2.0 * z) / np.sqrt(2.0 * np.pi * z)


def _kve_half(z):
    return np.sqrt(np.pi / (2.0 * z))


#: I_{3/2}(z) = sqrt(2z/pi) z sum_j z^(2j) / ((2j+1)! (2j+3)); 13 terms
#: reach rounding level for z < 1 (int / int is correctly rounded)
_I32_SERIES = [1 / (math.factorial(2 * j + 1) * (2 * j + 3)) for j in range(13)]


def _ive_three_halves(z):
    # the closed form sqrt(2/(pi z)) (cosh z - sinh z / z) e^-z cancels for
    # small z, so the series replaces it below 1
    big = np.maximum(z, 1.0)
    e2 = np.expm1(-2.0 * big)
    out = np.sqrt(2.0 / (np.pi * big)) * ((1.0 + 0.5 * e2) + e2 / (2.0 * big))
    small = z < 1.0
    if np.any(small):
        zs = z[small]
        t = zs * zs
        series = np.zeros_like(zs)
        for c in reversed(_I32_SERIES):
            series = series * t + c
        out[small] = np.sqrt(2.0 * zs / np.pi) * zs * series * np.exp(-zs)
    return out


def _kve_three_halves(z):
    return np.sqrt(np.pi / (2.0 * z)) * (1.0 + 1.0 / z)


def _scaled_bessel(nu: float):
    """(ive, kve): z -> I_nu(z) e^(-z) and z -> K_nu(z) e^z for arrays z > 0.

    Closed forms for nu = 1/2 and 3/2, Cephes for nu = 1, scipy's AMOS
    ive/kve for any other order (see the module docstring).
    """
    if nu == 0.5:
        return _ive_half, _kve_half
    if nu == 1.5:
        return _ive_three_halves, _kve_three_halves
    from scipy import special

    if nu == 1.0:
        return special.i1e, special.k1e
    return functools.partial(special.ive, nu), functools.partial(special.kve, nu)


def green_zero(dimension: int, r):
    """Fundamental solution of -Delta in R^N: c(N) * r^(2-N)."""
    if dimension < 3:
        raise ValueError(f"dimension must be >= 3, got {dimension}")
    rr = np.asarray(r, dtype=float)
    if np.any(rr <= 0):
        raise ValueError("radius must be positive")
    c = math.gamma((dimension - 2) / 2.0) / (4.0 * math.pi ** (dimension / 2.0))
    out = c * rr ** (2.0 - dimension)
    if np.isscalar(r) or np.ndim(r) == 0:
        return float(out)
    return out


def green_lambda(params: GreenParams, r):
    """Radial profile of the delta-calibrated kernel of -Delta + lambda.

    For shift 0 this routes to ``green_zero``.  Negative shifts are
    rejected by ``GreenParams``.
    """
    if params.shift == 0.0:
        return green_zero(params.dimension, r)
    rr = np.asarray(r, dtype=float)
    if np.any(rr <= 0):
        raise ValueError("radius must be positive")
    n = params.dimension
    nu = n / 2.0 - 1.0
    kve = _scaled_bessel(nu)[1]
    k = math.sqrt(params.shift)
    z = k * rr
    vals = (k / rr) ** nu * kve(z) * np.exp(-z) / (2.0 * math.pi) ** (n / 2.0)
    if np.isscalar(r) or np.ndim(r) == 0:
        return float(vals)
    return vals


@functools.cache
def _gauss(npts: int):
    return np.polynomial.legendre.leggauss(npts)


def _gauss_points(lo: np.ndarray, hi: np.ndarray, npts: int):
    """Gauss points mid + half*x on each [lo, hi], a row each, and the half-widths."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid[:, None] + half[:, None] * _gauss(npts)[0], half


#: the mass's Gauss pieces up to x = 4: [0, 2^-12], then doubling
_MASS_NEAR_ENDS = np.concatenate(([0.0], np.geomspace(2.0**-12, 4.0, 15)))


def green_lambda_mass(params: GreenParams) -> float:
    """omega_N * integral_0^inf s^(N-1) G_lambda(s) ds by Gauss-Legendre pieces.

    Equals 1/lambda for the delta-calibrated kernel.  Since
    G_lambda(s) = lambda^((N-2)/2) G_1(sqrt(lambda) s), the substitution
    x = sqrt(lambda) s gives omega_N / lambda * integral x^(N-1) G_1(x) dx,
    so the sum does not depend on lambda.  Up to x = 4 the pieces halve
    toward the origin, where the integrand vanishes like x and, for even
    N, carries an x^(N-1) log x term that slows Gauss on wide pieces
    near it.  Beyond 4 they are at most 4 wide and end where the
    far-field shape x^((N-1)/2) e^(-x) has fallen e^-40 below its peak
    at x = (N-1)/2.  Raises ValueError where the sum leaves float64
    range: from N = 88, K_nu overflows at the smallest nodes.
    """
    if params.shift <= 0:
        raise ValueError("mass identity requires shift > 0")
    n = params.dimension
    a = (n - 1) / 2.0
    # at x = a + t = a (1 + u) the shape is e^(-a (u - log(1 + u))) times its
    # peak, and a (u - log(1 + u)) >= t^2 / (2 (a + t)), which is 40 here
    end = a + 40.0 + math.sqrt(1600.0 + 80.0 * a)
    far = np.linspace(4.0, end, math.ceil((end - 4.0) / 4.0) + 1)
    ends = np.concatenate((_MASS_NEAR_ENDS, far[1:]))
    x, half = _gauss_points(ends[:-1], ends[1:], 12)
    integrand = np.exp((n - 1) * np.log(x) + _log_green_lambda(GreenParams(n, 1.0), x))
    total = float(half @ (integrand @ _gauss(12)[1]))
    if not math.isfinite(total):
        raise ValueError(f"kernel mass integral leaves float64 range at N = {n}")
    return sphere_area(n) * total / params.shift


def _log_green_lambda(params: GreenParams, rr: np.ndarray) -> np.ndarray:
    # log G_lambda with the exponential factor kept symbolic, for ratio tests
    # and the mass
    n = params.dimension
    nu = n / 2.0 - 1.0
    kve = _scaled_bessel(nu)[1]
    k = math.sqrt(params.shift)
    z = k * rr
    return (
        nu * (math.log(k) - np.log(rr))
        + np.log(kve(z))
        - z
        - (n / 2.0) * math.log(2.0 * math.pi)
    )


def verify_kernel_bounds(params: GreenParams, r_grid) -> KernelBoundsReport:
    """Measure the far/near sandwich constants of G_lambda on a grid.

    The grid must contain radii both below and above 1.  Far-field
    ratios are computed in log space so the exponential factors cancel
    analytically and the measurement stays finite for arbitrarily large
    radii.  Raises ValueError if a ratio is non-finite or below the
    smallest normal double, where its reciprocal, and so the constant,
    would overflow (the near-field ratio underflows as sqrt(lambda) r
    nears 700).
    """
    if params.shift <= 0:
        raise ValueError("kernel bounds apply to shift > 0")
    rr = np.asarray(r_grid, dtype=float)
    if rr.size == 0:
        raise ValueError("empty grid")
    if np.any(rr <= 0):
        raise ValueError("grid radii must be positive")
    far = rr[rr > 1.0]
    near = rr[rr < 1.0]
    if far.size == 0 or near.size == 0:
        raise ValueError("grid must span both r < 1 and r > 1")

    n = params.dimension
    k = math.sqrt(params.shift)
    log_far_ratio = _log_green_lambda(params, far) - (
        -(n - 1) / 2.0 * np.log(far) - k * far
    )
    far_ratio = np.exp(log_far_ratio)
    near_ratio = green_lambda(params, near) / near ** (2.0 - n)

    ratios = np.concatenate((far_ratio, near_ratio))
    if not np.all(np.isfinite(ratios) & (ratios >= _TINY)):
        raise ValueError("kernel ratios underflow or are non-finite on the supplied grid")

    def sandwich_constant(ratios: np.ndarray) -> float:
        hi = float(np.max(ratios))
        lo = float(np.min(ratios))
        c = max(hi, 1.0 / lo)
        return math.nextafter(c, math.inf)  # keep the constant strictly > ratios

    c1 = max(sandwich_constant(far_ratio), 1.0 + 1e-15)
    c2 = max(sandwich_constant(near_ratio), 1.0 + 1e-15)
    samples = [(float(r), float(q)) for r, q in zip(far, far_ratio)]
    samples += [(float(r), float(q)) for r, q in zip(near, near_ratio)]
    return KernelBoundsReport(c1=c1, c2=c2, samples=samples)
