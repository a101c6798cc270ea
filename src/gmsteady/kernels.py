"""Modified Bessel functions and radial fundamental solutions of -Delta + lambda.

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

``bessel_k``, ``green_lambda`` and the bounds use scipy.special's
AMOS kve; the scaled variant avoids premature underflow.  ``bessel_k``
returns values that would fall below the smallest normal double as
exact 0 rather than subnormal noise, so there an exact 0 is the
underflow indicator; ``green_lambda`` does not flush, and may return a
subnormal.  Every consumer dominates such tails by a barrier anyway.

``_scaled_bessel(nu)`` gives the shifted potential its pair
I_nu(z) e^(-z), K_nu(z) e^z.  The orders of N = 3, 4, 5 need no AMOS:
nu = 1/2 and 3/2 are elementary (DLMF 10.49.i), I_{3/2} by its power
series below z = 1 where the closed form cancels, and nu = 1 is
Cephes' i1e/k1e.  Against 40-digit mpmath on z in [1e-8, 1e4] the
closed forms stay within 9e-16 relative and Cephes within 1.4e-15,
where AMOS ive is off by up to 2.6e-14.  Other orders fall back to
scipy's ive/kve.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GreenParams",
    "KernelBoundsReport",
    "bessel_k",
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


def bessel_k(nu: float, z):
    """Modified Bessel function K_nu(z), nu >= 0, z > 0.

    Monotone decreasing in z.  Where the true value falls below the
    smallest normal double the result is exactly 0.0.  Scalar in,
    scalar out; array in, array out.
    """
    from scipy import special  # here, so importing the CLI loads no scipy

    if nu < 0:
        raise ValueError(f"order must be >= 0, got {nu}")
    zz = np.asarray(z, dtype=float)
    if np.any(zz <= 0):
        raise ValueError("argument of K_nu must be positive")
    # kve = K_nu(z) * e^z is well scaled for all z > 0
    vals = special.kve(nu, zz) * np.exp(-zz)
    vals = np.where(vals >= _TINY, vals, 0.0)
    if np.isscalar(z) or np.ndim(z) == 0:
        return float(vals)
    return vals


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
    from scipy import special
    rr = np.asarray(r, dtype=float)
    if np.any(rr <= 0):
        raise ValueError("radius must be positive")
    n = params.dimension
    nu = n / 2.0 - 1.0
    k = math.sqrt(params.shift)
    z = k * rr
    vals = (k / rr) ** nu * special.kve(nu, z) * np.exp(-z) / (2.0 * math.pi) ** (n / 2.0)
    if np.isscalar(r) or np.ndim(r) == 0:
        return float(vals)
    return vals


def green_lambda_mass(params: GreenParams) -> float:
    """omega_N * integral_0^inf s^(N-1) G_lambda(s) ds by adaptive quadrature.

    Equals 1/lambda for the delta-calibrated kernel.  Since
    G_lambda(s) = lambda^((N-2)/2) G_1(sqrt(lambda) s), the substitution
    x = sqrt(lambda) s gives omega_N / lambda * integral x^(N-1) G_1(x) dx,
    so the quadrature does not depend on lambda.  Raises ValueError
    where the quadrature reports that it failed.
    """
    from scipy.integrate import quad

    if params.shift <= 0:
        raise ValueError("mass identity requires shift > 0")
    n = params.dimension
    w = sphere_area(n)
    unit = GreenParams(n, 1.0)

    def integrand(x: float) -> float:
        return x ** (n - 1) * green_lambda(unit, x)

    # split at 1: integrable r^(2-N)-type behaviour near 0, exponential tail
    total = 0.0
    for lo, hi in ((0.0, 1.0), (1.0, np.inf)):
        val, _, _, *trouble = quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200,
                                   full_output=1)
        if trouble:
            reason = trouble[0].splitlines()[0]
            raise ValueError(f"kernel mass quadrature on [{lo:g}, {hi:g}] failed: {reason}")
        total += val
    return w * total / params.shift


def _log_green_lambda(params: GreenParams, rr: np.ndarray) -> np.ndarray:
    # log G_lambda with the exponential factor kept symbolic, for ratio tests
    from scipy import special

    n = params.dimension
    nu = n / 2.0 - 1.0
    k = math.sqrt(params.shift)
    z = k * rr
    return (
        nu * (math.log(k) - np.log(rr))
        + np.log(special.kve(nu, z))
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
