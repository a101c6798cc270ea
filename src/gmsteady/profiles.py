"""Smooth radial decay profiles with exact derivative algebra.

Two families are used everywhere in this package:

* ``W(rate=a)``: exp(-a*sqrt(1+r^2)), a smooth stand-in for exponential
  decay e^{-a r};
* ``Z(rate=a)``: (1+r^2)^(-a/2), a smooth stand-in for algebraic decay
  r^{-a}.

Both are C^infinity on all of R^N, radial, and admit closed-form
Laplacians, which is what makes them usable as sub/super-solution
barriers.  Their other closed forms live here too: the log coordinate
that decay fits regress on, and the antiderivative of s * B(s) that
closes potential tails and sums dyadic shells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "BarrierFamily",
    "BarrierProfile",
    "eval_barrier",
    "log_coordinate",
    "weighted_antiderivative",
]


class BarrierFamily(Enum):
    W = "W"
    Z = "Z"


@dataclass(frozen=True)
class BarrierProfile:
    """A decay profile: family W (exponential) or Z (algebraic) with a rate.

    The rate must be positive for the W family.  The Z family admits
    rate 0 as the degenerate constant profile (used to tag fields with
    a non-decaying far-field model).
    """

    family: BarrierFamily
    rate: float

    def __post_init__(self) -> None:
        if self.family is BarrierFamily.W and not self.rate > 0:
            raise ValueError(f"W profile requires rate > 0, got {self.rate}")
        if self.family is BarrierFamily.Z and self.rate < 0:
            raise ValueError(f"Z profile requires rate >= 0, got {self.rate}")


def eval_barrier(profile: BarrierProfile, x_norm):
    """Evaluate the profile at radius ``x_norm`` (scalar or array).

    W(a): exp(-a*sqrt(1+r^2));  Z(a): (1+r^2)^(-a/2).  From r ~ 1.34e154
    1 + r^2 overflows, but it rounds to r^2 there, so W is exp(-a r) and
    Z is r^(-a): right at every finite r, without a warning.
    """
    r = np.asarray(x_norm, dtype=float)
    if (r < 0).any():
        raise ValueError("radius must be nonnegative")
    a = profile.rate
    # The checked path below takes 2-3x as long per call, which makes
    # solve-verify-alg ops about 5% slower, so radii short of the overflow
    # take the formula alone
    if r.max(initial=0.0) < 1e154:
        u = 1.0 + r * r
        out = np.exp(-a * np.sqrt(u)) if profile.family is BarrierFamily.W else u ** (-a / 2.0)
    else:
        # -a r may be -inf (W is 0 there), and r^(-a) is inf at r = 0, not far
        with np.errstate(over="ignore", divide="ignore"):
            u = 1.0 + r * r
            far = np.isinf(u)
            if profile.family is BarrierFamily.W:
                out = np.exp(-a * np.where(far, r, np.sqrt(u)))
            else:
                out = np.where(far, r**-a, u ** (-a / 2.0))
    if np.isscalar(x_norm) or np.ndim(x_norm) == 0:
        return float(out)
    return out


def log_coordinate(family: BarrierFamily, r):
    """x(r) with log B_a(r) = a * x(r): -sqrt(1+r^2) for W, -(1/2) log(1+r^2) for Z.

    Where 1 + r^2 overflows it rounds to r^2, as in ``eval_barrier``, so x
    is -r for W and -log r for Z there, without a warning.
    """
    r = np.asarray(r, dtype=float)
    # log r is -inf at r = 0 (and nan at r < 0), which is not far
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        rr = r * r
        far = np.isinf(rr)
        if family is BarrierFamily.W:
            return np.where(far, -r, -np.sqrt(1.0 + rr))
        return np.where(far, -np.log(r), -0.5 * np.log1p(rr))


def weighted_antiderivative(profile: BarrierProfile, r: float) -> float:
    """F(r) with F' = r * profile(r), chosen so that F(inf) = 0 where it is finite.

    W(a): -e^(-a t) (t/a + 1/a^2), t = sqrt(1+r^2).
    Z(a): -(1+r^2)^(1-a/2) / (a-2), or (1/2) log(1+r^2) at a = 2.
    """
    a = profile.rate
    if profile.family is BarrierFamily.W:
        t = math.sqrt(1.0 + r * r)
        return -math.exp(-a * t) * (t / a + 1.0 / (a * a))
    if a == 2.0:
        return 0.5 * math.log1p(r * r)
    return -((1.0 + r * r) ** (1.0 - a / 2.0)) / (a - 2.0)
