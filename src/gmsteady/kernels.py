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

Bessel evaluation is delegated to scipy.special (kv/kve); the scaled
variant kve avoids premature underflow.  Values that would fall below
the smallest normal double are reported as exact 0 with an underflow
flag rather than subnormal noise, since every consumer dominates such
tails by a barrier anyway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special
from scipy.integrate import quad

__all__ = [
    "BesselOrder",
    "GreenParams",
    "KernelBoundsReport",
    "bessel_k",
    "bessel_k_flagged",
    "gamma",
    "green_lambda",
    "green_zero",
    "green_lambda_mass",
    "sphere_area",
    "verify_kernel_bounds",
]

#: Surface area of the unit sphere S^{N-1} in R^N.
def sphere_area(dimension: int) -> float:
    return 2.0 * math.pi ** (dimension / 2.0) / math.gamma(dimension / 2.0)


gamma = special.gamma

_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class BesselOrder:
    """Order nu >= 0 of K_nu; in practice nu = N/2 - 1."""

    nu: float

    def __post_init__(self) -> None:
        if self.nu < 0:
            raise ValueError(f"order must be >= 0, got {self.nu}")


@dataclass(frozen=True)
class GreenParams:
    """Dimension N >= 3 and shift lambda >= 0 of the kernel G_lambda."""

    dimension: int
    shift: float

    def __post_init__(self) -> None:
        if self.dimension < 3:
            raise ValueError(f"dimension must be >= 3, got {self.dimension}")
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


def _order_value(order) -> float:
    if isinstance(order, BesselOrder):
        return order.nu
    return float(order)


def bessel_k_flagged(order, z):
    """K_nu(z) together with an underflow indicator.

    Returns ``(value, underflowed)``.  Where the true value falls below
    the smallest normal double, value is exactly 0.0 and the flag is
    True.  Scalar in, scalar out; array in, array out.
    """
    nu = _order_value(order)
    if nu < 0:
        raise ValueError(f"order must be >= 0, got {nu}")
    zz = np.asarray(z, dtype=float)
    if np.any(zz <= 0):
        raise ValueError("argument of K_nu must be positive")
    # kve = K_nu(z) * e^z is well scaled for all z > 0
    vals = special.kve(nu, zz) * np.exp(-zz)
    under = ~(vals >= _TINY)
    vals = np.where(under, 0.0, vals)
    if np.isscalar(z) or np.ndim(z) == 0:
        return float(vals), bool(under)
    return vals, under


def bessel_k(order, z):
    """Modified Bessel function K_nu(z), nu >= 0, z > 0.

    Monotone decreasing in z; deep-underflow arguments return exact 0.
    """
    vals, _ = bessel_k_flagged(order, z)
    return vals


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
    k = math.sqrt(params.shift)
    z = k * rr
    vals = (k / rr) ** nu * special.kve(nu, z) * np.exp(-z) / (2.0 * math.pi) ** (n / 2.0)
    if np.isscalar(r) or np.ndim(r) == 0:
        return float(vals)
    return vals


def green_lambda_mass(params: GreenParams, epsabs: float = 1e-13) -> float:
    """omega_N * integral_0^inf s^(N-1) G_lambda(s) ds by adaptive quadrature.

    Equals 1/lambda for the delta-calibrated kernel.
    """
    if params.shift <= 0:
        raise ValueError("mass identity requires shift > 0")
    n = params.dimension
    w = sphere_area(n)

    def integrand(s: float) -> float:
        return s ** (n - 1) * green_lambda(params, s)

    # split at 1: integrable r^(2-N)-type behaviour near 0, exponential tail
    head, _ = quad(integrand, 0.0, 1.0, epsabs=epsabs, epsrel=1e-13, limit=200)
    tail, _ = quad(integrand, 1.0, np.inf, epsabs=epsabs, epsrel=1e-13, limit=200)
    return w * (head + tail)


def _log_green_lambda(params: GreenParams, rr: np.ndarray) -> np.ndarray:
    # log G_lambda with the exponential factor kept symbolic, for ratio tests
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
    radii.  Raises if any ratio is non-finite.
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

    if not (np.all(np.isfinite(far_ratio)) and np.all(np.isfinite(near_ratio))):
        raise RuntimeError("kernel ratios unbounded on the supplied grid")

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
