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
and advisory contradiction flags.  Each measurement comes from
``potentials``, so this module loads no solver.  Flags are advisory
rather than hard failures because numerics cannot distinguish an
approximate solution of a problem with no solutions from discretization
artifacts.  Their window N/(N-2) < p < (N+2)/(N-2) is decided exactly,
as ``classify``'s rule 2 is, by ``barriers._critical_exponents``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield
from typing import Optional

import numpy as np

from .barriers import Exponents, Problem, _critical_exponents
from .errors import HypothesisError
from .potentials import (_DiscreteSystem, _fit_windows, convr_check, decay_fit,
                         representation_residual)
from .radial_core import RadialField, RadialGrid, _flux_laplacian

__all__ = [
    "Cor3Certificate",
    "SolutionCertificate",
    "aubin_talenti",
    "closed_form_exponents",
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
    if not (amplitude > 0 and 0.0 < amplitude * amplitude < math.inf):
        raise ValueError("amplitude must be positive with a finite, nonzero square")
    rr = np.asarray(r, dtype=float)
    r_max = float(np.max(np.abs(rr)))
    if not math.isfinite(amplitude * amplitude + r_max * r_max):
        raise ValueError("A^2 + r^2 overflows float64 at the largest radius")
    base = amplitude * math.sqrt(n * (n - 2.0)) / (amplitude**2 + rr * rr)
    out = base ** ((n - 2.0) / 2.0)
    if np.isscalar(r) or np.ndim(r) == 0:
        return float(out)
    return out


def closed_form_exponents(dimension: int, p: float, s: float) -> Exponents:
    """The q and m that make u = v = w solve the zero-shift system.

    q = p - (N+2)/(N-2) and m = (N+2)/(N-2) + s are the exact values
    rounded once, so p is refused exactly when p <= (N+2)/(N-2).
    """
    n = dimension
    q, m = _plus_ratio(p, -(n + 2), n - 2), _plus_ratio(s, n + 2, n - 2)
    if not q > 0:
        raise HypothesisError(
            f"need p > (N+2)/(N-2) = {(n + 2.0) / (n - 2.0)} so the induced q stays "
            f"positive, got p = {p}"
        )
    if s <= 0:
        raise HypothesisError("need s > 0")
    return Exponents(p, q, m, s)


def _plus_ratio(x: float, num: int, den: int) -> float:
    """x + num/den rounded once (int division rounds correctly), for a
    finite x and den > 0; x itself when it is inf or nan."""
    if not math.isfinite(x):
        return x
    top, bottom = x.as_integer_ratio()
    return (top * den + num * bottom) / (bottom * den)


@dataclass
class Cor3Certificate:
    """Discrete residuals of the closed-form pair on one grid."""

    dimension: int
    p: float
    q: float
    m: float
    s: float
    amplitude: float
    residual_u: float
    residual_v: float
    grid_nodes: int
    grid_radius: float

    def residuals(self) -> dict:
        return {"residual_u": self.residual_u, "residual_v": self.residual_v}


def verify_cor3(
    dimension: int, p: float, s: float, amplitude: float, grid: RadialGrid
) -> Cor3Certificate:
    """The discrete residual of -Delta w = w^((N+2)/(N-2)) on a grid.

    Both equations of u = v = w reduce to this one for every p and s (see
    ``closed_form_exponents``), so it is reported as residual_u and as
    residual_v.  The last node has no right neighbour and is left out of
    the sup.  The residual is O(h^2): halving the grid spacing shrinks it
    by about four.  Raises ValueError where it is not finite.
    """
    # at extreme N, radii or amplitudes w, its power and the stencil leave
    # float64 range; the finiteness check below refuses those
    with np.errstate(all="ignore"):
        # the bubble checks N >= 3 before the exponents divide by N - 2
        w = aubin_talenti(dimension, amplitude, grid.nodes)
        ex = closed_form_exponents(dimension, p, s)
        lap = _flux_laplacian(grid, dimension, w)
        residual = float(np.max(np.abs(lap - w[:-1] ** ((dimension + 2) / (dimension - 2)))))
    if not math.isfinite(residual):
        raise ValueError("cor3 residual leaves float64 range on this grid")
    return Cor3Certificate(dimension, ex.p, ex.q, ex.m, ex.s, amplitude, residual, residual,
                           grid.n, grid.radius)


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

    def residuals(self) -> dict:
        """Name -> value of each residual measured (the representation ones are optional)."""
        names = ["pde_residual_u", "pde_residual_v"]
        if self.rep_residual_u is not None:
            names += ["rep_residual_u", "rep_residual_v"]
        return {name: getattr(self, name) for name in names}

    def max_residual(self) -> float:
        return max(self.residuals().values())


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
    Decay rates are fitted over the windows a solve report uses.  A
    pair that is not positive on one grid is refused (ValueError) before
    any residual.

    Advisory flags (never hard errors):
      * "Theorem 1.2(iv)": zero shifts, zero source, N/(N-2) < p <
        (N+2)/(N-2), and the gradient criterion holds, which contradicts
        existence;
      * "Corollary 1.3(i)": same window, and the fitted algebraic decay
        rate of u lies below ((N-2)s + N)/m.
    """
    n = problem.dimension
    system = _DiscreteSystem.admit(problem, exponents, u, v)
    sides = system.sides(u.values, v.values)  # both measurements read them
    pde_u, pde_v = system.pde_residuals(u.values, v.values, sides)

    rep_u = rep_v = None
    if representation:
        rep_u, rep_v = representation_residual(problem, exponents, u, v, sides)

    windows = _fit_windows(problem.family, u.grid.radius)
    fit_u = decay_fit(u, problem.family, windows["u"])
    fit_v = decay_fit(v, problem.family, windows["v"])
    bound, holds = convr_check(v)

    flags: list = []
    p_floor, _, p_ceiling = _critical_exponents(n)
    in_window = problem.lam == 0.0 and problem.rho.is_zero and p_floor < exponents.p < p_ceiling
    if in_window and holds:
        flags.append(
            "Theorem 1.2(iv): bounded radial gradient ratio contradicts existence "
            f"for N/(N-2) < p = {exponents.p} < (N+2)/(N-2) with zero source"
        )
    if in_window:
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
