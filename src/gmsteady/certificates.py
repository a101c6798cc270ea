"""Closed-form solutions and end-to-end verification certificates.

For p above the Sobolev-critical exponent (N+2)/(N-2) the coupled
zero-shift system has an explicit radial solution: with

    w(r) = [ A sqrt(N(N-2)) / (A^2 + r^2) ]^((N-2)/2),   A > 0,

which satisfies -Delta w = w^((N+2)/(N-2)), the choice

    q = p - (N+2)/(N-2) > 0,   m = (N+2)/(N-2) + s

makes u = v = w solve both equations with zero source.  This is the
package's exactly-known benchmark: discrete residuals against it must
shrink at second order under grid refinement.

``verify_solution`` bundles every check this package can apply to a
candidate pair: pointwise differential residuals, integral
representation residuals, decay fits, the radial gradient criterion,
and advisory contradiction flags.  Flags are advisory rather than hard
failures because numerics cannot distinguish an approximate solution of
a problem with no solutions from discretization artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield
from typing import Optional

import numpy as np

from .barriers import Exponents, Problem, SourceKind
from .errors import HypothesisError
from .potentials import convr_check, representation_residual
from .profiles import BarrierFamily, BarrierProfile
from .radial_core import RadialField, RadialGrid, apply_radial_laplacian
from .solvers import _fit_window, _pde_residuals, decay_fit

__all__ = [
    "ClosedFormSolution",
    "Cor3Certificate",
    "SolutionCertificate",
    "aubin_talenti",
    "closed_form_ground_state",
    "verify_cor3",
    "verify_solution",
]


def aubin_talenti(dimension: int, amplitude: float, r):
    """Radial bubble solving -Delta w = w^((N+2)/(N-2)) in R^N.

    w(r) = [A sqrt(N(N-2)) / (A^2 + r^2)]^((N-2)/2); decays like
    r^(-(N-2)) at infinity.
    """
    n = dimension
    if n < 3:
        raise ValueError("dimension must be >= 3")
    if amplitude <= 0:
        raise ValueError("amplitude must be positive")
    rr = np.asarray(r, dtype=float)
    base = amplitude * math.sqrt(n * (n - 2.0)) / (amplitude**2 + rr * rr)
    out = base ** ((n - 2.0) / 2.0)
    if np.isscalar(r) or np.ndim(r) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class ClosedFormSolution:
    """The explicit ground-state pair u = v = w and its induced exponents."""

    kind: str
    dimension: int
    amplitude: float
    induced_exponents: Exponents

    def __post_init__(self) -> None:
        n = self.dimension
        crit = (n + 2.0) / (n - 2.0)
        ex = self.induced_exponents
        if not ex.q > 0:
            raise ValueError("induced q must be positive")
        if abs(ex.q - (ex.p - crit)) > 1e-12 * max(1.0, ex.p):
            raise ValueError("induced exponents must satisfy q = p - (N+2)/(N-2)")
        if abs(ex.m - (crit + ex.s)) > 1e-12 * max(1.0, ex.m):
            raise ValueError("induced exponents must satisfy m = (N+2)/(N-2) + s")


def closed_form_ground_state(
    dimension: int, p: float, s: float, amplitude: float
) -> ClosedFormSolution:
    """Pick q and m so that u = v = w solves the zero-shift system."""
    n = dimension
    crit = (n + 2.0) / (n - 2.0)
    if not p > crit:
        raise HypothesisError(
            f"need p > (N+2)/(N-2) = {crit} so the induced q stays positive, got p = {p}"
        )
    if s <= 0:
        raise HypothesisError("need s > 0")
    ex = Exponents(p, p - crit, crit + s, s)
    return ClosedFormSolution("aubin-talenti", n, amplitude, ex)


@dataclass
class Cor3Certificate:
    """Discrete residuals of the closed-form pair on one grid."""

    dimension: int
    exponents: Exponents
    amplitude: float
    residual_u: float
    residual_v: float
    grid: RadialGrid

    def as_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "p": self.exponents.p,
            "q": self.exponents.q,
            "m": self.exponents.m,
            "s": self.exponents.s,
            "amplitude": self.amplitude,
            "residual_u": self.residual_u,
            "residual_v": self.residual_v,
            "grid_nodes": self.grid.n,
            "grid_radius": self.grid.radius,
        }


def verify_cor3(
    dimension: int, p: float, s: float, amplitude: float, grid: RadialGrid
) -> Cor3Certificate:
    """Evaluate both discrete equation residuals with u = v = w on a grid.

    The last node is excluded from the sup (one-sided stencil).  The
    residuals are O(h^2): halving the grid spacing shrinks them by
    about four.
    """
    sol = closed_form_ground_state(dimension, p, s, amplitude)
    ex = sol.induced_exponents
    w = aubin_talenti(dimension, amplitude, grid.nodes)
    field = RadialField(grid, w, BarrierProfile(BarrierFamily.Z, float(dimension - 2)))
    lap = apply_radial_laplacian(field, dimension).values
    rhs_u = w**ex.p / w**ex.q
    rhs_v = w**ex.m / w**ex.s
    res_u = float(np.max(np.abs(lap - rhs_u)[:-1]))
    res_v = float(np.max(np.abs(lap - rhs_v)[:-1]))
    return Cor3Certificate(dimension, ex, amplitude, res_u, res_v, grid)


@dataclass
class SolutionCertificate:
    """Everything this package can check about one candidate pair (u, v)."""

    pde_residual_u: float
    pde_residual_v: float
    rep_residual_u: Optional[float]
    rep_residual_v: Optional[float]
    decay_u: tuple
    decay_v: tuple
    convr_bound: float
    convr_holds: bool
    flags: list = dfield(default_factory=list)

    def max_residual(self) -> float:
        vals = [self.pde_residual_u, self.pde_residual_v]
        if self.rep_residual_u is not None:
            vals += [self.rep_residual_u, self.rep_residual_v]
        return max(vals)

    def as_dict(self) -> dict:
        return {
            "pde_residual_u": self.pde_residual_u,
            "pde_residual_v": self.pde_residual_v,
            "rep_residual_u": self.rep_residual_u,
            "rep_residual_v": self.rep_residual_v,
            "decay_u": [float(x) for x in self.decay_u],
            "decay_v": [float(x) for x in self.decay_v],
            "convr_bound": self.convr_bound,
            "convr_holds": self.convr_holds,
            "flags": list(self.flags),
        }


def verify_solution(
    problem: Problem,
    exponents: Exponents,
    u: RadialField,
    v: RadialField,
    representation: bool = True,
) -> SolutionCertificate:
    """Bundle of residuals, decay fits, gradient criterion, and advisory flags.

    Differential residuals are sup norms over r <= R/2 (truncation
    stays out of the measurement); representation residuals compare
    against the integral form and need decay tags on both fields.

    Advisory flags (never hard errors):
      * "Theorem 1.2(iv)": zero shifts, zero source, N/(N-2) < p <
        (N+2)/(N-2), and the gradient criterion holds, which contradicts
        existence;
      * "Corollary 1.3(i)": same window, and the fitted algebraic decay
        rate of u lies below ((N-2)s + N)/m.
    """
    if np.any(u.values <= 0) or np.any(v.values <= 0):
        raise ValueError("fields must be positive")
    n = problem.dimension
    pde_u, pde_v = _pde_residuals(problem, exponents, u, v)

    rep_u = rep_v = None
    if representation:
        rep_u, rep_v = representation_residual(problem, exponents, u, v)

    family = BarrierFamily.W if problem.lam > 0 else BarrierFamily.Z
    window = _fit_window(family, u.grid.radius)
    fit_u = decay_fit(u, family, window)
    fit_v = decay_fit(v, family, window)
    bound, holds = convr_check(v)

    flags: list = []
    crit_low = n / (n - 2.0)
    crit_high = (n + 2.0) / (n - 2.0)
    in_window = (
        problem.lam == 0.0
        and problem.rho.kind is SourceKind.ZERO
        and crit_low < exponents.p < crit_high
    )
    if in_window and holds:
        flags.append(
            "Theorem 1.2(iv): bounded radial gradient ratio contradicts existence "
            f"for N/(N-2) < p = {exponents.p} < (N+2)/(N-2) with zero source"
        )
    if in_window and family is BarrierFamily.Z:
        rate_cap = ((n - 2.0) * exponents.s + n) / exponents.m
        if fit_u[0] < rate_cap:
            flags.append(
                "Corollary 1.3(i): fitted decay rate "
                f"{fit_u[0]:.4f} of u lies below ((N-2)s+N)/m = {rate_cap:.4f}, "
                "contradicting existence in this window"
            )

    return SolutionCertificate(
        pde_residual_u=pde_u,
        pde_residual_v=pde_v,
        rep_residual_u=rep_u,
        rep_residual_v=rep_v,
        decay_u=fit_u,
        decay_v=fit_v,
        convr_bound=bound,
        convr_holds=holds,
        flags=flags,
    )
