"""Newton's method for the singular scalar problem and coupled fixed points.

Scalar problem.  Given a positive weight psi with declared decay and
s > 0, the equation

    -Delta v + mu v = psi(x) v^(-s),   v -> 0 at infinity,

is solved between explicit sub/super-solutions c*B <= v <= C*B built
from a barrier profile B.  The discrete residual
F(v) = (-Delta + mu) v - psi v^(-s) is concave in v, and its Jacobian
-Delta + mu + L(v), with the pointwise shift L(v) = s*psi*v^(-s-1), is
a tridiagonal M-matrix.  So Newton's method

    v  |->  (-Delta + mu + L(v))^(-1) (psi v^(-s) + L(v) v),

started from vlow, increases pointwise, stays below every solution
above vlow and converges quadratically to the minimal solution on the
ball (Ortega & Rheinboldt, Iterative Solution of Nonlinear Equations
in Several Variables, 1970, section 13.3).  It is the shifted monotone
iteration of Pao (1992) with the shift re-evaluated at each iterate:
L(v) <= L(vlow) for v >= vlow, so each step is order preserving on
[v, infinity).

Coupled problems.  The fixed-point map updates u by a resolvent or
Newtonian potential applied to u^p/v^q + rho and v by the scalar solve
with weight u^m.  When the feasibility ledger holds, every iterate
stays inside its barrier sandwich; this is checked on each iterate and
violations abort with an explicit status.  Plain Picard iteration is
used (existence comes from compactness, not contraction);
non-convergence after the iteration cap is reported honestly.

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

from .barriers import ConstantsLedger, Exponents, Problem, Regime, operator_bounds
from .errors import HypothesisError, NonexistenceError, RegimeError
from .potentials import newton_potential_radial
from .profiles import BarrierFamily, BarrierProfile, eval_barrier, log_coordinate
from .radial_core import RadialField, RadialGrid, RadialOperator

__all__ = [
    "IterationState",
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
#: Iteration cap of the scalar Newton loop and of the coupled Picard loop.
MAX_ITER = 500


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
    v: RadialField
    residual: float
    monotone_flag: bool


@dataclass
class SolveReport:
    """Outcome of a solver run; its report holds every field but u, v and trace.

    ``margins`` maps field name to (min, max) of field/(lower constant
    times barrier); converged runs keep these inside [1, upper/lower]
    up to 1e-9 slack.  ``decay`` maps field name to (fitted rate, fit
    residual).
    """

    status: SolveStatus
    u: Optional[RadialField] = dfield(metadata={"report": False})
    v: RadialField = dfield(metadata={"report": False})
    residual_u: Optional[float]
    residual_v: float
    margins: dict
    decay: dict
    iterations: int
    ball_radius: float
    stability_gap: float
    notes: list = dfield(default_factory=list)
    trace: list = dfield(default_factory=list, metadata={"report": False})


def decay_fit(field: RadialField, family: BarrierFamily, window: tuple):
    """Least-squares decay rate of a positive field over a radius window.

    Regresses log(field) on the family's ``log_coordinate``.  Returns
    (rate, rms residual).
    """
    r = field.grid.nodes
    mask = _window_mask(r, window)
    vals = field.values[mask]
    if np.any(vals <= 0):
        raise ValueError("field must be positive on the window")
    y = np.log(vals)
    x = log_coordinate(family, r[mask])
    design = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    fit = design @ coef
    rms = float(np.sqrt(np.mean((y - fit) ** 2)))
    return float(coef[0]), rms


def algebraic_scalar_admissible(dimension: int, s: float, gamma: float) -> bool:
    """Existence window of the zero-shift scalar problem: 2 < gamma < (N-2)s + N."""
    return 2.0 < gamma < (dimension - 2.0) * s + dimension


def _window_mask(r: np.ndarray, window: tuple) -> np.ndarray:
    """Nodes of ``r`` inside ``window``; a window with fewer than 4 is refused."""
    lo, hi = window
    mask = (r >= lo) & (r <= hi)
    if np.count_nonzero(mask) < 4:
        raise ValueError(f"decay-fit window [{lo:.6g}, {hi:.6g}] contains fewer than 4 grid nodes")
    return mask


def _fit_window(family: BarrierFamily, grid: RadialGrid, far: bool = False) -> tuple:
    """Decay-fit window on ``grid``, refused (ValueError) if it holds fewer than 4 nodes.

    Dirichlet truncation error decays exponentially inward for W runs
    but only algebraically for Z runs, so Z fits sit deeper inside;
    ``far`` moves a Z fit to the far field, for a field that carries no
    truncation error.
    """
    radius = grid.radius
    if family is BarrierFamily.W:
        window = (0.35 * radius, 0.75 * radius)
    elif far:
        window = (0.3 * radius, 0.7 * radius)
    else:
        window = (0.04 * radius, 0.16 * radius)
    _window_mask(grid.nodes, window)
    return window


def _pde_residuals(
    problem: Problem, exponents: Exponents, u: RadialField, v: RadialField
) -> tuple:
    """Sup over r <= R/2 of both equation residuals of the pair (u, v).

    The half ball keeps the Dirichlet truncation out of the measurement.
    """
    op = RadialOperator(u.grid, problem.dimension)
    r = u.grid.nodes[:-1]  # the last node is never inside the half ball
    uu, vv = u.values[:-1], v.values[:-1]
    rho_vals = problem.rho.evaluate(u.grid.nodes)[:-1]
    lap_u = op.laplacian(u.values)
    lap_v = op.laplacian(v.values)
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


def _run_status(gap: float, allowance: float, sandwiched: bool, converged: bool) -> tuple:
    """(status, notes) of a run whose doubled-ball re-run moved it by ``gap``.

    A gap above ``allowance`` adds a ball-growth note and rules out
    convergence; a sandwich violation outranks both.
    """
    notes = []
    if gap > allowance:
        notes.append(
            f"ball-growth stability gap {gap:.3e} exceeds boundary barrier {allowance:.3e}"
        )
    if not sandwiched:
        return SolveStatus.SANDWICH_VIOLATED, notes
    if converged and not notes:
        return SolveStatus.CONVERGED, notes
    return SolveStatus.MAX_ITERATIONS, notes


def _monotone_ball(
    op: RadialOperator,
    mu: float,
    s: float,
    psi_vals: np.ndarray,
    v_low: np.ndarray,
    tol_residual: float,
    trace: Optional[list] = None,
) -> tuple:
    """Newton's method from the sub-solution on the ball of ``op``.

    Returns (values, residual, iterations, monotone_ok).  The boundary
    value is pinned to the sub-solution at R throughout.  The caller's
    operator on the ball serves every step and every residual (which
    skips the Dirichlet node at R); a step rewrites only its diagonal
    mu + L(v), and for s = 0, where L = 0, the diagonal is set to mu
    once.
    """
    grid = op.grid
    if s == 0:
        op.set_shift(mu)
    v = v_low.copy()
    monotone_ok = True
    residual = math.inf
    for it in range(1, MAX_ITER + 1):
        w = np.maximum(v, v_low)
        rhs_vals = psi_vals * w ** (-s)
        if s > 0:
            shift_l = s * psi_vals * w ** (-s - 1.0)
            op.set_shift(shift_l + mu)
            rhs_vals += shift_l * w
        v_new = op.solve(rhs_vals, v_low[-1])
        drop = float(np.min(v_new - v))
        if drop < -1e-12 * max(1.0, float(np.max(np.abs(v)))):
            monotone_ok = False
        v = v_new
        inner = v[:-1]
        res = op.laplacian(v) + mu * inner - psi_vals[:-1] * np.maximum(inner, v_low[:-1]) ** (-s)
        residual = float(np.max(np.abs(res)))
        if trace is not None:
            trace.append(IterationState(grid.radius, it, RadialField(grid, v.copy()),
                                        residual, monotone_ok))
        if residual <= tol_residual:
            return v, residual, it, monotone_ok
    return v, residual, MAX_ITER, monotone_ok


def solve_singular_scalar(
    dimension: int,
    shift: float,
    s: float,
    psi: RadialField,
    *,
    tol_residual: float = 1e-9,
    record_trace: bool = False,
) -> SolveReport:
    """Solve -Delta v + shift v = psi v^(-s) between explicit barriers.

    The weight's decay tag B_gamma is its envelope, m B_gamma <= psi <=
    M B_gamma on the grid; an untagged weight is refused.  The barrier
    B_a has the tag's family, and with (lo, hi) its ``operator_bounds``
    the sandwich, which needs lo > 0, is

        c = (m / hi)^(1/(s+1)),  C = (M / lo)^(1/(s+1)).

    Exponential regime (W tag): a = gamma/(s+1), lo = shift - a^2, so
    shift > (gamma/(s+1))^2.  Algebraic regime (Z tag): shift = 0 and
    a = (gamma-2)/(s+1), lo = a (N - a - 2), so 2 < gamma < (N-2)s + N
    (rates gamma <= 2 provably admit no positive solution).

    The run solves on the weight's grid, then re-solves on the doubled
    ball (weight continued by its tail) and accepts only if the
    solution moves by at most the upper-barrier boundary value.
    """
    n = dimension
    env_profile = psi.decay_tag
    if env_profile is None:
        raise ValueError("weight psi needs a decay_tag: it declares the envelope")
    family, gamma = env_profile.family, env_profile.rate
    if family is BarrierFamily.W:
        a = gamma / (s + 1.0)
    else:
        if shift != 0.0:
            raise HypothesisError("algebraic regime requires shift = 0")
        if gamma <= 2.0:
            raise NonexistenceError(
                f"weight decay gamma = {gamma} <= 2: the zero-shift singular problem "
                "has no positive solution (divergent representation)"
            )
        if not algebraic_scalar_admissible(n, s, gamma):
            raise HypothesisError(
                f"weight decay gamma = {gamma} lies outside the zero-shift window "
                f"2 < gamma < (N-2)s + N = {(n - 2.0) * s + n}"
            )
        a = (gamma - 2.0) / (s + 1.0)
    barrier = BarrierProfile(family, a)
    lo, hi = operator_bounds(barrier, shift, n)
    # for Z this is the window's upper end again, hit only where a rounds
    # to N - 2 for a gamma just inside the window
    if not lo > 0:
        raise HypothesisError(
            f"{family.value} barrier of rate {a} has lower operator bound {lo} <= 0: "
            "needs shift > (gamma/(s+1))^2 (W) or gamma < (N-2)s + N (Z)"
        )
    m_env, big_m = _field_envelope(psi, env_profile)
    c_low = (m_env / hi) ** (1.0 / (s + 1.0))
    c_high = (big_m / lo) ** (1.0 / (s + 1.0))

    grid = psi.grid
    # the fit window and the doubled ball come first, so a grid too coarse
    # for the decay fit or over the node cap costs no solve
    window = _fit_window(family, grid)
    big = grid.extended(2.0)
    trace: Optional[list] = [] if record_trace else None

    def run(g: RadialGrid, psi_vals: np.ndarray):
        env = np.asarray(eval_barrier(barrier, g.nodes), dtype=float)
        v_low = c_low * env
        vals, res, its, mono = _monotone_ball(
            RadialOperator(g, n), shift, s, psi_vals, v_low, tol_residual, trace
        )
        return vals, env, res, its, mono

    vals, env, res, its, mono = run(grid, psi.values)

    psi_big = np.concatenate((psi.values, psi.tail(big.nodes[grid.n :])))
    vals2, _, _res2, its2, _mono2 = run(big, psi_big)
    gap = float(np.max(np.abs(vals2[: grid.n] - vals)))
    allowance = c_high * float(eval_barrier(barrier, grid.radius)) + 1e-14
    margin_v, sandwiched = _sandwich_margins(vals, env, c_low, c_high)
    status, notes = _run_status(gap, allowance, sandwiched, res <= tol_residual and mono)

    radius = grid.radius
    field_out = RadialField(grid, vals, barrier)
    rate, fit_res = decay_fit(field_out, barrier.family, window)

    return SolveReport(
        status=status,
        u=None,
        v=field_out,
        residual_u=None,
        residual_v=res,
        margins={"v": margin_v},
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


def _ball_envelopes(
    ledger: ConstantsLedger,
    exponents: Exponents,
    b_u: BarrierProfile,
    b_v: BarrierProfile,
    grid: RadialGrid,
) -> tuple:
    """(B_u, B_v) on ``grid``; a ball on which the Picard loop leaves float64 is refused.

    The margins divide by both lower barriers, and the loop raises v to
    -q and -s-1: M1_lower B_u and M2_lower B_v must stay normal doubles
    on ``grid``, and neither power of M2_lower B_v may overflow
    (HypothesisError otherwise).
    """
    env_u = np.asarray(eval_barrier(b_u, grid.nodes), dtype=float)
    env_v = np.asarray(eval_barrier(b_v, grid.nodes), dtype=float)
    low_v = ledger.m2_lower * env_v
    for name, low in (("M1_lower * B_u", ledger.m1_lower * env_u), ("M2_lower * B_v", low_v)):
        if not np.min(low) >= np.finfo(float).tiny:
            raise HypothesisError(f"{name} underflows below the smallest normal double "
                                  f"within radius {grid.radius:g}")
    power = max(exponents.q, exponents.s + 1.0)
    if -power * math.log(np.min(low_v)) > math.log(np.finfo(float).max):
        raise HypothesisError(f"(M2_lower * B_v)^(-{power:g}) overflows "
                              f"within radius {grid.radius:g}")
    return env_u, env_v


def _picard_coupled(
    problem: Problem,
    exponents: Exponents,
    ledger: ConstantsLedger,
    grid: RadialGrid,
    envelopes: tuple,
    tol_change: float,
    tol_residual: float,
) -> tuple:
    """Shared Picard loop on a ball whose ``_ball_envelopes`` are given.

    Returns (u, v, final sandwich margins, iteration count, last change,
    whether every iterate stayed inside).
    """
    n = problem.dimension
    p, q, m, s = exponents.p, exponents.q, exponents.m, exponents.s
    env_u, env_v = envelopes
    rho_vals = problem.rho.evaluate(grid.nodes)

    u = ledger.m1_lower * env_u
    v = ledger.m2_lower * env_v
    v_low_guard = ledger.m2_lower * env_v

    def sandwich(u, v):
        margin_u, inside_u = _sandwich_margins(u, env_u, ledger.m1_lower, ledger.m1_upper)
        margin_v, inside_v = _sandwich_margins(v, env_v, ledger.m2_lower, ledger.m2_upper)
        return {"u": margin_u, "v": margin_v}, inside_u and inside_v

    margins, _ = sandwich(u, v)
    # one operator per ball for each field: the resolvent of -Delta + lam
    # (W runs) and the scalar solve's -Delta + mu + L(v)
    resolvent = RadialOperator(grid, n, problem.lam) if problem.family is BarrierFamily.W else None
    v_op = RadialOperator(grid, n)

    it, change = 0, math.inf
    for it in range(1, MAX_ITER + 1):
        rhs_u_vals = u**p / v**q + rho_vals
        if resolvent is not None:
            u_new = resolvent.solve(rhs_u_vals, ledger.m1_lower * env_u[-1])
        else:
            rhs_u = RadialField(grid, rhs_u_vals, problem.rho.envelope_profile)
            u_new = newton_potential_radial(n, rhs_u).values

        psi_vals = u_new**m
        v_new, _, _, _ = _monotone_ball(
            v_op,
            problem.mu,
            s,
            psi_vals,
            v_low_guard,
            tol_residual * max(ledger.m2_lower, 1e-300),
        )

        change = max(
            float(np.max(np.abs(u_new - u))) / max(float(np.max(u_new)), 1e-300),
            float(np.max(np.abs(v_new - v))) / max(float(np.max(v_new)), 1e-300),
        )
        u, v = u_new, v_new

        margins, inside = sandwich(u, v)
        if not inside:
            return u, v, margins, it, change, False
        if change <= tol_change:
            break

    return u, v, margins, it, change, True


def _coupled_report(
    problem: Problem,
    exponents: Exponents,
    ledger: ConstantsLedger,
    grid: RadialGrid,
    tol_change: float,
    tol_residual: float,
) -> SolveReport:
    """Both regimes' solve and doubled-ball check; callers check ledger regime and shifts."""
    if not ledger.feasible:
        raise RegimeError(f"ledger infeasible: {ledger.violated}")
    fam = problem.family
    if problem.rho.family is not fam:
        regime = ledger.regime.name.lower()
        raise RegimeError(f"{regime} regime expects an {regime} source envelope")
    # the fit windows and the doubled ball come first, so a grid too coarse
    # for a decay fit or over the node cap costs no solve; u in the
    # algebraic regime comes from a tail-closed potential, so it carries
    # no truncation error and fits best in the far field
    window_u = _fit_window(fam, grid, far=True)
    window = _fit_window(fam, grid)
    big = grid.extended(2.0)
    b_u = BarrierProfile(fam, ledger.rate_u)
    b_v = BarrierProfile(fam, ledger.rate_v)
    # a doubled ball that leaves float64 is refused before the first solve
    envelopes = _ball_envelopes(ledger, exponents, b_u, b_v, grid)
    big_envelopes = _ball_envelopes(ledger, exponents, b_u, b_v, big)
    u, v, margins, its, change, sandwiched = _picard_coupled(
        problem, exponents, ledger, grid, envelopes, tol_change, tol_residual
    )

    # re-run on the doubled ball and compare on the original one
    u2, v2, *_rest, sandwiched2 = _picard_coupled(
        problem, exponents, ledger, big, big_envelopes, tol_change, tol_residual
    )
    gap = max(
        float(np.max(np.abs(u2[: grid.n] - u))),
        float(np.max(np.abs(v2[: grid.n] - v))),
    )
    allowance = (
        ledger.m1_upper * float(eval_barrier(b_u, grid.radius))
        + ledger.m2_upper * float(eval_barrier(b_v, grid.radius))
        + 1e-14
    )

    u_field = RadialField(grid, u, b_u)
    v_field = RadialField(grid, v, b_v)
    res_u, res_v = _pde_residuals(problem, exponents, u_field, v_field)
    converged = change <= tol_change and res_u <= tol_residual and res_v <= tol_residual
    status, notes = _run_status(gap, allowance, sandwiched and sandwiched2, converged)

    decay = {
        "u": decay_fit(u_field, fam, window_u),
        "v": decay_fit(v_field, fam, window),
    }

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
) -> SolveReport:
    """Coupled solve in the exponential regime (positive shifts).

    u is updated by the resolvent of -Delta + lam applied to
    u^p/v^q + rho, v by the singular scalar solve with weight u^m.
    Starts from the lower barriers (M1_lower W_a, M2_lower W_b); every
    iterate must stay inside the ledger sandwich.
    """
    if ledger.regime is not Regime.EXPONENTIAL:
        raise RegimeError("expected an exponential-regime ledger")
    if problem.family is not BarrierFamily.W:
        raise RegimeError(f"exponential regime needs positive shifts, got lam = {problem.lam}")
    if grid is None:
        radius = default_exp_radius(min(ledger.rate_u, ledger.rate_v))
        grid = RadialGrid.auto(radius, h0=0.02, stretch=1.02)
    return _coupled_report(problem, exponents, ledger, grid, tol_change, tol_residual)


def solve_coupled_alg(
    problem: Problem,
    exponents: Exponents,
    ledger: ConstantsLedger,
    grid: Optional[RadialGrid] = None,
    tol_change: float = 1e-9,
    tol_residual: float = 1e-5,
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
    if problem.family is not BarrierFamily.Z:
        raise RegimeError(f"algebraic regime needs zero shifts, got lam = {problem.lam}")
    if grid is None:
        grid = RadialGrid.auto(DEFAULT_ALG_RADIUS, h0=0.008, stretch=1.02)
    return _coupled_report(problem, exponents, ledger, grid, tol_change, tol_residual)
