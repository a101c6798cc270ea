"""Monotone iteration for the singular scalar problem and coupled fixed points.

Scalar problem.  Given a positive weight psi with declared decay and
s > 0, the equation

    -Delta v + mu v = psi(x) v^(-s),   v -> 0 at infinity,

is solved between explicit sub/super-solutions c*B <= v <= C*B built
from a barrier profile B.  The constructive scheme is a shifted
monotone iteration: with a pointwise shift L(r) >= s*psi(r)*vlow(r)^(-s-1)
the map

    v  |->  (-Delta + mu + L)^(-1) (psi v^(-s) + L v)

is order preserving on [vlow, vhigh], the iterates starting from vlow
increase pointwise, and the limit is the minimal solution on the ball.
The pointwise shift (rather than its supremum) keeps the contraction
rate domain-independent, which matters for slowly decaying algebraic
barriers on large balls.

Coupled problems.  The fixed-point map updates u by a resolvent or
Newtonian potential applied to u^p/v^q + rho and v by the scalar solve
with weight u^m.  When the feasibility ledger holds, every iterate
stays inside its barrier sandwich; this is checked on each iterate and
violations abort with an explicit status.  Plain Picard iteration is
used (existence comes from compactness, not contraction), with 0.5
damping engaged only if the update size oscillates; non-convergence
after the iteration cap is reported honestly.

Truncation.  Exponential-family runs pick the smallest radius where
the barrier has dropped by 1e12 relative to the origin; algebraic
families cannot reach that drop at any practical radius, so they start
from a configurable default.  Either way the ball is doubled once and
the solution accepted only if it moves by less than the boundary
barrier value on the original ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield
from enum import Enum
from typing import Optional

import numpy as np

from .barriers import ConstantsLedger, Exponents, Problem, Regime, SourceKind
from .errors import HypothesisError, NonexistenceError, RegimeError
from .potentials import newton_potential_radial
from .profiles import BarrierFamily, BarrierProfile, eval_barrier
from .radial_core import (
    RadialField,
    RadialGrid,
    apply_radial_laplacian,
    solve_linear_radial_variable,
)

__all__ = [
    "IterationState",
    "ScalarRegime",
    "SolveReport",
    "SolveStatus",
    "decay_fit",
    "algebraic_scalar_admissible",
    "solve_singular_scalar",
    "solve_coupled_exp",
    "solve_coupled_alg",
    "default_exp_radius",
    "DEFAULT_ALG_RADIUS",
]

#: Exponential truncation rule: barrier drops by this factor from r = 0.
_EXP_DROP = 1e12
#: Starting radius for algebraic-family runs (the 1e12 drop rule would
#: demand astronomically large balls for power-law decay).
DEFAULT_ALG_RADIUS = 480.0


def default_exp_radius(rate: float) -> float:
    """Smallest R with W_rate(R) <= 1e-12 * W_rate(0)."""
    t = 1.0 + math.log(_EXP_DROP) / rate
    return math.sqrt(t * t - 1.0)


class SolveStatus(Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max-iterations"
    SANDWICH_VIOLATED = "sandwich-violated"


@dataclass
class IterationState:
    """Snapshot of one fixed-point step (used for monotonicity traces)."""

    ball_radius: float
    iterate_index: int
    u: Optional[RadialField]
    v: RadialField
    residuals: tuple
    monotone_flag: bool


@dataclass
class SolveReport:
    """Outcome of a solver run.

    ``margins`` maps field name to (min, max) of field/(lower constant
    times barrier); converged runs keep these inside [1, upper/lower]
    up to 1e-9 slack.  ``decay`` maps field name to (fitted rate, fit
    residual).
    """

    status: SolveStatus
    u: Optional[RadialField]
    v: RadialField
    residual_u: Optional[float]
    residual_v: float
    margins: dict
    decay: dict
    iterations: int
    ball_radius: float
    stability_gap: float
    notes: list = dfield(default_factory=list)
    trace: list = dfield(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "status": self.status.value,
            "residual_u": self.residual_u,
            "residual_v": self.residual_v,
            "margins": {k: [float(a), float(b)] for k, (a, b) in self.margins.items()},
            "decay": {k: [float(a), float(b)] for k, (a, b) in self.decay.items()},
            "iterations": self.iterations,
            "ball_radius": self.ball_radius,
            "stability_gap": self.stability_gap,
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class ScalarRegime:
    """Decay regime of the scalar weight: W family (exp) or Z family (alg)."""

    family: BarrierFamily
    gamma: float

    def __post_init__(self) -> None:
        if self.gamma <= 0:
            raise ValueError("decay rate gamma must be positive")


def decay_fit(field: RadialField, family: BarrierFamily, window: tuple):
    """Least-squares decay rate of a positive field over a radius window.

    Regresses log(field) on -sqrt(1+r^2) for the W family and on
    -(1/2) log(1+r^2) for the Z family.  Returns (rate, rms residual).
    """
    r = field.grid.nodes
    lo, hi = window
    mask = (r >= lo) & (r <= hi)
    if np.count_nonzero(mask) < 4:
        raise ValueError("window contains fewer than 4 grid nodes")
    vals = field.values[mask]
    if np.any(vals <= 0):
        raise ValueError("field must be positive on the window")
    y = np.log(vals)
    rr = r[mask]
    if family is BarrierFamily.W:
        x = -np.sqrt(1.0 + rr * rr)
    else:
        x = -0.5 * np.log1p(rr * rr)
    design = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    fit = design @ coef
    rms = float(np.sqrt(np.mean((y - fit) ** 2)))
    return float(coef[0]), rms


def algebraic_scalar_admissible(dimension: int, s: float, gamma: float) -> bool:
    """Existence window of the zero-shift scalar problem: 2 < gamma < (N-2)s + N."""
    return 2.0 < gamma < (dimension - 2.0) * s + dimension


def _fit_window(family: BarrierFamily, radius: float) -> tuple:
    # Dirichlet truncation error decays exponentially inward for W runs
    # but only algebraically for Z runs, so Z fits sit deeper inside.
    if family is BarrierFamily.W:
        return (0.35 * radius, 0.75 * radius)
    return (0.04 * radius, 0.16 * radius)


def _pde_residuals(
    problem: Problem, exponents: Exponents, u: RadialField, v: RadialField
) -> tuple:
    """Sup over r <= R/2 of both equation residuals of the pair (u, v).

    The half ball keeps the Dirichlet truncation out of the measurement.
    """
    n = problem.dimension
    r = u.grid.nodes
    uu, vv = u.values, v.values
    rho_vals = problem.rho.evaluate(r)
    lap_u = apply_radial_laplacian(u, n).values
    lap_v = apply_radial_laplacian(v, n).values
    res_u = lap_u + problem.lam * uu - (uu**exponents.p / vv**exponents.q + rho_vals)
    res_v = lap_v + problem.mu * vv - uu**exponents.m / vv**exponents.s
    mask = r <= 0.5 * u.grid.radius
    return float(np.max(np.abs(res_u[mask]))), float(np.max(np.abs(res_v[mask])))


def _sandwich_margins(vals: np.ndarray, env: np.ndarray, lo: float, hi: float):
    """((min, max) of vals / (lo * env), whether both lie in [1, hi/lo] up to 1e-9)."""
    ratios = vals / (lo * env)
    margin = (float(np.min(ratios)), float(np.max(ratios)))
    return margin, margin[0] >= 1.0 - 1e-9 and margin[1] <= (hi / lo) * (1.0 + 1e-9)


def _field_envelope(psi: RadialField, profile: BarrierProfile):
    """Tightest constants (m, M) with m * B <= psi <= M * B on the grid."""
    env = np.asarray(eval_barrier(profile, psi.grid.nodes), dtype=float)
    good = env > 1e-290
    ratios = psi.values[good] / env[good]
    if np.any(psi.values <= 0):
        raise ValueError("weight psi must be positive")
    return float(np.min(ratios)), float(np.max(ratios))


def _monotone_ball(
    dimension: int,
    mu: float,
    s: float,
    psi_vals: np.ndarray,
    grid: RadialGrid,
    v_low: np.ndarray,
    tol_residual: float,
    max_iter: int,
    trace: Optional[list] = None,
    ball_radius: Optional[float] = None,
) -> tuple:
    """Shifted monotone iteration from the sub-solution on a fixed ball.

    Returns (values, residual, iterations, monotone_ok).  The boundary
    value is pinned to the sub-solution at R throughout.
    """
    shift_l = s * psi_vals * v_low ** (-s - 1.0) if s > 0 else np.zeros_like(psi_vals)
    shift_total = shift_l + mu
    v = v_low.copy()
    monotone_ok = True
    residual = math.inf
    for it in range(1, max_iter + 1):
        rhs_vals = psi_vals * np.maximum(v, v_low) ** (-s) + shift_l * v
        rhs = RadialField(grid, rhs_vals)
        v_new = solve_linear_radial_variable(dimension, shift_total, rhs, v_low[-1]).values
        drop = float(np.min(v_new - v))
        if drop < -1e-12 * max(1.0, float(np.max(np.abs(v)))):
            monotone_ok = False
        v = v_new
        lap = apply_radial_laplacian(RadialField(grid, v), dimension)
        res = lap.values + mu * v - psi_vals * np.maximum(v, v_low) ** (-s)
        residual = float(np.max(np.abs(res[:-1])))
        if trace is not None:
            trace.append(
                IterationState(
                    ball_radius if ball_radius is not None else grid.radius,
                    it,
                    None,
                    RadialField(grid, v.copy()),
                    (residual,),
                    monotone_ok,
                )
            )
        if residual <= tol_residual:
            return v, residual, it, monotone_ok
    return v, residual, max_iter, monotone_ok


def _extend_by_tag(field_vals: np.ndarray, grid: RadialGrid, big: RadialGrid, tag: BarrierProfile):
    """Values on the extended grid: original nodes kept, tail from the tag."""
    out = np.empty(big.n)
    out[: grid.n] = field_vals
    env_r = eval_barrier(tag, grid.radius)
    amp = field_vals[-1] / env_r if env_r > 0 else 0.0
    out[grid.n :] = amp * np.asarray(eval_barrier(tag, big.nodes[grid.n :]), dtype=float)
    return out


def solve_singular_scalar(
    dimension: int,
    shift: float,
    s: float,
    psi: RadialField,
    regime: ScalarRegime,
    tol_residual: float = 1e-9,
    max_iter: int = 500,
    record_trace: bool = False,
) -> SolveReport:
    """Solve -Delta v + shift v = psi v^(-s) between explicit barriers.

    Exponential regime (W family, decay rate gamma): requires
    shift > (gamma/(s+1))^2; with envelope m W_gamma <= psi <= M W_gamma
    the sandwich is

        a = gamma/(s+1),
        c = (m / (shift + N a))^(1/(s+1)),  C = (M / (shift - a^2))^(1/(s+1)).

    Algebraic regime (Z family): requires shift = 0 and
    2 < gamma < (N-2)s + N (rates gamma <= 2 provably admit no positive
    solution); the sandwich is

        a = (gamma-2)/(s+1),
        c = (m / (a N))^(1/(s+1)),  C = (M / (a (N - a - 2)))^(1/(s+1)).

    The run solves on the weight's grid, then re-solves on the doubled
    ball (weight extended by its envelope) and accepts only if the
    solution moves by at most the upper-barrier boundary value.
    """
    n = dimension
    gamma = regime.gamma
    if regime.family is BarrierFamily.W:
        a = gamma / (s + 1.0)
        if shift <= a * a:
            raise HypothesisError(
                f"exponential regime needs shift > (gamma/(s+1))^2 = {a * a}, got {shift}"
            )
        env_profile = BarrierProfile(BarrierFamily.W, gamma)
        m_env, big_m = _field_envelope(psi, env_profile)
        c_low = (m_env / (shift + n * a)) ** (1.0 / (s + 1.0))
        c_high = (big_m / (shift - a * a)) ** (1.0 / (s + 1.0))
        barrier = BarrierProfile(BarrierFamily.W, a)
    else:
        if shift != 0.0:
            raise HypothesisError("algebraic regime requires shift = 0")
        if gamma <= 2.0:
            raise NonexistenceError(
                f"weight decay gamma = {gamma} <= 2: the zero-shift singular problem "
                "has no positive solution (divergent representation)"
            )
        if not gamma < (n - 2.0) * s + n:
            raise HypothesisError(
                f"algebraic regime needs gamma < (N-2)s + N = {(n - 2.0) * s + n}"
            )
        a = (gamma - 2.0) / (s + 1.0)
        env_profile = BarrierProfile(BarrierFamily.Z, gamma)
        m_env, big_m = _field_envelope(psi, env_profile)
        c_low = (m_env / (a * n)) ** (1.0 / (s + 1.0))
        c_high = (big_m / (a * (n - a - 2.0))) ** (1.0 / (s + 1.0))
        barrier = BarrierProfile(BarrierFamily.Z, a)

    grid = psi.grid
    trace: Optional[list] = [] if record_trace else None

    def run(g: RadialGrid, psi_vals: np.ndarray):
        env = np.asarray(eval_barrier(barrier, g.nodes), dtype=float)
        v_low = c_low * env
        vals, res, its, mono = _monotone_ball(
            n, shift, s, psi_vals, g, v_low, tol_residual, max_iter,
            trace, ball_radius=g.radius,
        )
        return vals, env, res, its, mono

    vals, env, res, its, mono = run(grid, psi.values)

    big = grid.extended(2.0)
    psi_big = _extend_by_tag(psi.values, grid, big, env_profile)
    vals2, _, _res2, its2, _mono2 = run(big, psi_big)
    gap = float(np.max(np.abs(vals2[: grid.n] - vals)))
    allowance = c_high * float(eval_barrier(barrier, grid.radius)) + 1e-14
    notes = []
    if gap > allowance:
        notes.append(
            f"ball-growth stability gap {gap:.3e} exceeds boundary barrier {allowance:.3e}"
        )

    margin_v, sandwiched = _sandwich_margins(vals, env, c_low, c_high)
    margins = {"v": margin_v}

    radius = grid.radius
    window = _fit_window(barrier.family, radius)
    field_out = RadialField(grid, vals, barrier)
    rate, fit_res = decay_fit(field_out, barrier.family, window)

    if not sandwiched:
        status = SolveStatus.SANDWICH_VIOLATED
    elif res <= tol_residual and mono and not notes:
        status = SolveStatus.CONVERGED
    else:
        status = SolveStatus.MAX_ITERATIONS

    return SolveReport(
        status=status,
        u=None,
        v=field_out,
        residual_u=None,
        residual_v=res,
        margins=margins,
        decay={"v": (rate, fit_res)},
        iterations=its + its2,
        ball_radius=radius,
        stability_gap=gap,
        notes=notes,
        trace=trace or [],
    )


# ---------------------------------------------------------------------------
# coupled fixed points
# ---------------------------------------------------------------------------


def _picard_coupled(
    problem: Problem,
    exponents: Exponents,
    ledger: ConstantsLedger,
    grid: RadialGrid,
    tol_change: float,
    tol_residual: float,
    max_iter: int,
) -> tuple:
    """Shared Picard loop; returns fields, residuals, margins, iteration count."""
    n = problem.dimension
    p, q, m, s = exponents.p, exponents.q, exponents.m, exponents.s
    exp_regime = ledger.regime is Regime.EXPONENTIAL
    fam = BarrierFamily.W if exp_regime else BarrierFamily.Z
    b_u = BarrierProfile(fam, ledger.rate_u)
    b_v = BarrierProfile(fam, ledger.rate_v)
    env_u = np.asarray(eval_barrier(b_u, grid.nodes), dtype=float)
    env_v = np.asarray(eval_barrier(b_v, grid.nodes), dtype=float)
    rho_vals = problem.rho.evaluate(grid.nodes)

    u = ledger.m1_lower * env_u
    v = ledger.m2_lower * env_v
    if not np.all(v > 0):
        raise HypothesisError(f"M2_lower * B_v underflows to 0 within radius {grid.radius:g}")
    v_low_guard = ledger.m2_lower * env_v

    damping = False
    last_change = math.inf
    increases = 0
    its_used = 0
    for it in range(1, max_iter + 1):
        its_used = it
        rhs_u_vals = u**p / v**q + rho_vals
        if exp_regime:
            rhs_u = RadialField(grid, rhs_u_vals)
            u_new = solve_linear_radial_variable(
                n, np.full(grid.n, problem.lam), rhs_u, ledger.m1_lower * env_u[-1]
            ).values
        else:
            rhs_u = RadialField(grid, rhs_u_vals, BarrierProfile(fam, problem.rho.rate))
            u_new = newton_potential_radial(n, rhs_u).values

        psi_vals = u_new**m
        v_new, _, _, _ = _monotone_ball(
            n,
            problem.mu,
            s,
            psi_vals,
            grid,
            v_low_guard,
            tol_residual * max(ledger.m2_lower, 1e-300),
            max_iter,
        )

        change = max(
            float(np.max(np.abs(u_new - u))) / max(float(np.max(u_new)), 1e-300),
            float(np.max(np.abs(v_new - v))) / max(float(np.max(v_new)), 1e-300),
        )
        if change > last_change:
            increases += 1
            if increases >= 2:
                damping = True
        last_change = change
        if damping:
            u = 0.5 * (u + u_new)
            v = 0.5 * (v + v_new)
        else:
            u, v = u_new, v_new

        _, inside_u = _sandwich_margins(u, env_u, ledger.m1_lower, ledger.m1_upper)
        _, inside_v = _sandwich_margins(v, env_v, ledger.m2_lower, ledger.m2_upper)
        if not (inside_u and inside_v):
            return u, v, env_u, env_v, it, change, False
        if change <= tol_change:
            break

    return u, v, env_u, env_v, its_used, last_change, True


def _coupled_report(
    problem: Problem,
    exponents: Exponents,
    ledger: ConstantsLedger,
    grid: RadialGrid,
    tol_change: float,
    tol_residual: float,
    max_iter: int,
) -> SolveReport:
    exp_regime = ledger.regime is Regime.EXPONENTIAL
    fam = BarrierFamily.W if exp_regime else BarrierFamily.Z

    u, v, env_u, env_v, its, change, sandwiched = _picard_coupled(
        problem, exponents, ledger, grid, tol_change, tol_residual, max_iter
    )

    # re-run on the doubled ball and compare on the original one
    big = grid.extended(2.0)
    u2, v2, *_rest, sandwiched2 = _picard_coupled(
        problem, exponents, ledger, big, tol_change, tol_residual, max_iter
    )
    gap = max(
        float(np.max(np.abs(u2[: grid.n] - u))),
        float(np.max(np.abs(v2[: grid.n] - v))),
    )
    b_u = BarrierProfile(fam, ledger.rate_u)
    b_v = BarrierProfile(fam, ledger.rate_v)
    allowance = (
        ledger.m1_upper * float(eval_barrier(b_u, grid.radius))
        + ledger.m2_upper * float(eval_barrier(b_v, grid.radius))
        + 1e-14
    )
    notes = []
    if gap > allowance:
        notes.append(
            f"ball-growth stability gap {gap:.3e} exceeds boundary barrier {allowance:.3e}"
        )

    u_field = RadialField(grid, u, b_u)
    v_field = RadialField(grid, v, b_v)
    res_u, res_v = _pde_residuals(problem, exponents, u_field, v_field)

    margins = {
        "u": _sandwich_margins(u, env_u, ledger.m1_lower, ledger.m1_upper)[0],
        "v": _sandwich_margins(v, env_v, ledger.m2_lower, ledger.m2_upper)[0],
    }
    window = _fit_window(fam, grid.radius)
    # u in the algebraic regime comes from a tail-closed potential, so it
    # carries no truncation error and fits best in the far field
    window_u = window if exp_regime else (0.3 * grid.radius, 0.7 * grid.radius)
    decay = {
        "u": decay_fit(u_field, fam, window_u),
        "v": decay_fit(v_field, fam, window),
    }

    if not (sandwiched and sandwiched2):
        status = SolveStatus.SANDWICH_VIOLATED
    elif change <= tol_change and res_u <= tol_residual and res_v <= tol_residual and not notes:
        status = SolveStatus.CONVERGED
    else:
        status = SolveStatus.MAX_ITERATIONS

    return SolveReport(
        status=status,
        u=u_field,
        v=v_field,
        residual_u=res_u,
        residual_v=res_v,
        margins=margins,
        decay=decay,
        iterations=its,
        ball_radius=grid.radius,
        stability_gap=gap,
        notes=notes,
    )


def solve_coupled_exp(
    problem: Problem,
    exponents: Exponents,
    ledger: ConstantsLedger,
    grid: Optional[RadialGrid] = None,
    tol_change: float = 1e-9,
    tol_residual: float = 1e-6,
    max_iter: int = 500,
) -> SolveReport:
    """Coupled solve in the exponential regime (positive shifts).

    u is updated by the resolvent of -Delta + lam applied to
    u^p/v^q + rho, v by the singular scalar solve with weight u^m.
    Starts from the lower barriers (M1_lower W_a, M2_lower W_b); every
    iterate must stay inside the ledger sandwich.
    """
    if ledger.regime is not Regime.EXPONENTIAL:
        raise RegimeError("expected an exponential-regime ledger")
    if not ledger.feasible:
        raise RegimeError(f"ledger infeasible: {ledger.violated}")
    if problem.rho.kind is not SourceKind.EXP_ENVELOPE:
        raise RegimeError("exponential regime expects an exponential source envelope")
    if grid is None:
        radius = default_exp_radius(min(ledger.rate_u, ledger.rate_v))
        grid = RadialGrid.auto(radius, h0=0.02, stretch=1.02)
    return _coupled_report(
        problem, exponents, ledger, grid, tol_change, tol_residual, max_iter
    )


def solve_coupled_alg(
    problem: Problem,
    exponents: Exponents,
    ledger: ConstantsLedger,
    grid: Optional[RadialGrid] = None,
    tol_change: float = 1e-9,
    tol_residual: float = 1e-5,
    max_iter: int = 500,
) -> SolveReport:
    """Coupled solve in the algebraic regime (zero shifts).

    u is updated by the Newtonian potential of u^p/v^q + rho, v by the
    zero-shift singular scalar solve with weight u^m; barriers are
    Z-family with rates a-2 and b.  The default residual tolerance is
    looser than in the exponential regime because u mixes a quadrature
    route with the finite-difference residual operator, leaving an
    O(h^2) mismatch floor.
    """
    if ledger.regime is not Regime.ALGEBRAIC:
        raise RegimeError("expected an algebraic-regime ledger")
    if not ledger.feasible:
        raise RegimeError(f"ledger infeasible: {ledger.violated}")
    if problem.rho.kind is not SourceKind.ALG_ENVELOPE:
        raise RegimeError("algebraic regime expects an algebraic source envelope")
    if grid is None:
        grid = RadialGrid.auto(DEFAULT_ALG_RADIUS, h0=0.008, stretch=1.02)
    return _coupled_report(
        problem, exponents, ledger, grid, tol_change, tol_residual, max_iter
    )
