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

Any positive start reaches the same solution.  Each step is Newton's
step at w = max(v, vlow), and by concavity F(v_new) <= F(w) + F'(w)
(v_new - w) = 0: one step from anywhere lands on a positive
sub-solution, and so does its maximum with the sub-solution vlow, from
which the iterates rise as above.  The guarded residual
(-Delta + mu) v - psi max(v, vlow)^(-s), an M-matrix plus an isotone
diagonal map, has only one zero.  ``solve_singular_scalar`` starts from
vlow, so its whole trace is monotone; the coupled Picard loop starts
each step's solve from the previous step's v, and after a ball's first
solve Newton takes a step or two.

Coupled problems.  The fixed-point map updates u by a resolvent or
Newtonian potential applied to u^p/v^q + rho and v by the scalar solve
with weight u^m.  At s = 0 that solve is linear, and v is updated by
one solve of -Delta + mu, as u is by -Delta + lam.  When the
feasibility ledger holds, every iterate stays inside its barrier
sandwich; this is checked on each iterate and violations abort with an
explicit status.  Plain Picard iteration is used (existence comes from
compactness, not contraction); non-convergence after the iteration cap
is reported honestly.

Truncation.  Exponential-family runs pick the smallest radius where
the barrier has dropped by 1e12 relative to the origin; algebraic
families cannot reach that drop at any practical radius, so they start
from a configurable default; ``_BALL_GRIDS`` holds each family's grid
recipe.  Either way one driver,
``_two_ball_report``, runs the solve on the ball and again on the
doubled ball (``_ball_pair``), and reports the first run;
``SolveReport`` states its sandwich, convergence and allowance rules.
The default zero-shift ball and its doubled ball are one pair per
process (``_default_alg_balls``), so the plans on them are built once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dfield
from enum import Enum
from typing import NamedTuple, Optional

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
#: Each family's ball grid recipe: (h0, stretch) of ``RadialGrid.auto``.
_BALL_GRIDS = {BarrierFamily.W: (0.02, 1.02), BarrierFamily.Z: (0.008, 1.02)}


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

    Every solve runs on its ball (radius R) and again on the doubled
    ball, and reports the first run; the doubled ball only checks it.
    ``iterations`` counts the first ball's steps (Newton steps of the
    scalar solve, Picard steps of the coupled one), and the residuals are
    the first ball's.  ``margins`` maps field name to (min, max) of
    field/(lower constant times barrier) on the first ball.  ``decay``
    maps field name to (fitted rate, fit residual) over the family's fit
    window (``_fit_windows``).  The status is

    * ``sandwich-violated`` unless both balls' fields lie inside
      [1, upper/lower] on the original nodes r <= R, up to 1e-9 slack,
      and the coupled Picard loop, which stops at the first iterate that
      leaves the sandwich anywhere on its ball, never stopped so;
    * else ``converged`` if the first ball's run converged (scalar:
      Newton residual below its tolerance and every iterate monotone;
      coupled: relative change below ``tol_change`` and both PDE
      residuals on r <= R/2 below ``tol_residual``) and
      ``stability_gap``, the largest move of a field between the balls
      on r <= R, is at most the allowance: the sum over the fields of
      upper constant times barrier at R, plus 1e-14;
    * else ``max-iterations``, with a ball-growth note if the gap
      exceeds the allowance.
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

    Fits log(field) = rate * x + c, x the family's ``log_coordinate``, in
    closed form on the centred data xc = x - mean(x), yc = y - mean(y):
    rate = sum(xc yc) / sum(xc^2), and the residual is yc - rate * xc.
    The window's nodes, xc and sum(xc^2) are the grid's ``_fit_plan``.
    Returns (rate, rms residual).
    """
    mask, xc, xx = field.grid.plan(_fit_plan, family, window)
    vals = field.values[mask]
    if (vals <= 0).any():
        raise ValueError("field must be positive on the window")
    y = np.log(vals)
    yc = y - y.mean()
    rate = float(xc @ yc / xx)
    rms = float(np.sqrt(((yc - rate * xc) ** 2).mean()))
    return rate, rms


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


def _fit_plan(r: np.ndarray, family: BarrierFamily, window: tuple) -> tuple:
    """(mask, xc, xc @ xc): ``window``'s nodes and their centred ``log_coordinate``."""
    mask = _window_mask(r, window)
    x = log_coordinate(family, r[mask])
    xc = x - x.mean()
    return mask, xc, xc @ xc


def _fit_windows(family: BarrierFamily, radius: float) -> tuple:
    """Decay-fit windows (u's, v's) of a ``family`` run on a ball of ``radius``.

    Dirichlet truncation error decays exponentially inward for W runs
    but only algebraically for Z runs, so a Z fit of v sits deeper
    inside; Z-family u comes from a tail-closed potential, carries no
    truncation error and fits in the far field.
    """
    if family is BarrierFamily.W:
        window = (0.35 * radius, 0.75 * radius)
        return window, window
    return (0.3 * radius, 0.7 * radius), (0.04 * radius, 0.16 * radius)


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
    return float(np.abs(res_u[mask]).max()), float(np.abs(res_v[mask]).max())


def _sandwich_margins(vals: np.ndarray, low: np.ndarray, cap: float):
    """((min, max) of vals / low, whether both lie in [1, cap] up to 1e-9)."""
    ratios = vals / low
    margin = (float(ratios.min()), float(ratios.max()))
    return margin, margin[0] >= 1.0 - 1e-9 and margin[1] <= cap * (1.0 + 1e-9)


def _field_envelope(psi: RadialField, profile: BarrierProfile):
    """Tightest constants (m, M) with m * B <= psi <= M * B on the grid."""
    env = np.asarray(eval_barrier(profile, psi.grid.nodes), dtype=float)
    good = env > 1e-290
    ratios = psi.values[good] / env[good]
    if (psi.values <= 0).any():
        raise ValueError("weight psi must be positive")
    return float(ratios.min()), float(ratios.max())


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
    start: Optional[np.ndarray] = None,
) -> tuple:
    """Newton's method on the ball of ``op``, from ``start`` or else the sub-solution.

    Returns (values, residual, iterations, monotone_ok).  The boundary
    value is pinned to the sub-solution at R throughout.  Each step is
    taken at max(v, v_low), so any positive ``start`` reaches the
    solution that the start from v_low reaches (module docstring); its
    first step may fall, which clears ``monotone_ok``.  The caller's
    operator on the ball serves every step and every residual (which
    skips the Dirichlet node at R); a step rewrites only its diagonal
    mu + L(v), and for s = 0, where L = 0, the diagonal is set to mu
    once.  w = max(v, v_low) and w^(-s) are taken once per iterate: they
    serve its residual and the next step's right side.
    """
    grid = op.grid
    if s == 0:
        op.set_shift(mu)
    v = v_low if start is None else start
    w = np.maximum(v, v_low)
    w_s = w ** (-s)
    monotone_ok = True
    residual = math.inf
    for it in range(1, MAX_ITER + 1):
        rhs_vals = psi_vals * w_s
        if s > 0:
            shift_l = s * psi_vals * w ** (-s - 1.0)
            op.set_shift(shift_l + mu)
            rhs_vals += shift_l * w
        v_new = op.solve(rhs_vals, v_low[-1])
        if (v_new - v).min() < -1e-12 * max(1.0, float(np.abs(v).max())):
            monotone_ok = False
        v = v_new
        w = np.maximum(v, v_low)
        w_s = w ** (-s)
        res = op.laplacian(v) + mu * v[:-1] - psi_vals[:-1] * w_s[:-1]
        residual = float(np.abs(res).max())
        if trace is not None:
            trace.append(IterationState(grid.radius, it, RadialField(grid, v.copy()),
                                        residual, monotone_ok))
        if residual <= tol_residual:
            return v, residual, it, monotone_ok
    return v, residual, MAX_ITER, monotone_ok


class _Field(NamedTuple):
    """One field of a two-ball run, kept inside lower * B <= field <= upper * B."""

    label: str  # names lower * B in a refusal
    barrier: BarrierProfile
    lower: float
    upper: float
    power: float  # runs raise the field to powers down to -power
    window: tuple  # decay-fit window


def _ball_envelopes(grid: RadialGrid, fields: dict) -> dict:
    """Each field's lower * B on ``grid``; a ball on which a run leaves float64 is refused.

    The margins divide by every lower * B, and runs raise a field to
    -power: each lower * B must stay a normal double on ``grid``, and
    its -power-th power may not overflow (HypothesisError otherwise).
    """
    lows = {}
    for name, f in fields.items():
        low = f.lower * np.asarray(eval_barrier(f.barrier, grid.nodes), dtype=float)
        if not low.min() >= np.finfo(float).tiny:
            raise HypothesisError(f"{f.label} underflows below the smallest normal double "
                                  f"within radius {grid.radius:g}")
        if -f.power * math.log(low.min()) > math.log(np.finfo(float).max):
            raise HypothesisError(f"({f.label})^(-{f.power:g}) overflows "
                                  f"within radius {grid.radius:g}")
        lows[name] = low
    return lows


def _ball_pair(grid: RadialGrid) -> tuple:
    """The ball ``grid`` and the doubled ball that checks a run on it."""
    return grid, grid.extended(2.0)


@functools.cache
def _default_alg_balls() -> tuple:
    """The ``_ball_pair`` of every default zero-shift solve, built once per process.

    So are the plans on it; every other ball's radius follows its point's
    rates or its caller, and the ball lives only as long as its solve.
    """
    return _ball_pair(RadialGrid.auto(DEFAULT_ALG_RADIUS, *_BALL_GRIDS[BarrierFamily.Z]))


def _two_ball_report(balls: tuple, fields: dict, run) -> SolveReport:
    """Run on both balls of a ``_ball_pair``; report the first run by ``SolveReport``'s rules.

    ``fields`` maps each field name to its ``_Field``.  ``run(g, lows)``
    solves on ball ``g`` from the lower barriers ``lows`` (by name) and
    returns (values by name, iteration count, whether the run kept every
    iterate inside the sandwich, check), where ``check(out)`` takes the
    fields of the first ball's run and returns (residual of u or None,
    residual of v, whether the run converged).  The fit windows and
    both balls' float range are checked before either run, so a refusal
    costs no solve.
    """
    grid, big = balls
    for f in fields.values():
        _window_mask(grid.nodes, f.window)
    lows, lows2 = _ball_envelopes(grid, fields), _ball_envelopes(big, fields)
    (vals, its, inside, check), (vals2, _, inside2, _) = run(grid, lows), run(big, lows2)
    margins, gaps, sandwiched = {}, [], inside and inside2
    for name, f in fields.items():
        cap, near = f.upper / f.lower, vals2[name][: grid.n]
        margins[name], ok = _sandwich_margins(vals[name], lows[name], cap)
        sandwiched = sandwiched and ok and _sandwich_margins(near, lows[name], cap)[1]
        gaps.append(float(np.abs(near - vals[name]).max()))
    gap = max(gaps)
    allowance = sum(f.upper * float(eval_barrier(f.barrier, grid.radius))
                    for f in fields.values()) + 1e-14
    out = {name: RadialField(grid, vals[name], f.barrier) for name, f in fields.items()}
    res_u, res_v, converged = check(out)
    status, notes = _run_status(gap, allowance, sandwiched, converged)
    return SolveReport(
        status=status,
        u=out.get("u"),
        v=out["v"],
        residual_u=res_u,
        residual_v=res_v,
        margins=margins,
        decay={name: decay_fit(out[name], f.barrier.family, f.window)
               for name, f in fields.items()},
        iterations=its,
        ball_radius=grid.radius,
        stability_gap=gap,
        notes=notes,
    )


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

    The run solves on the weight's grid and re-solves on the doubled
    ball, the weight continued by its tail (``_two_ball_report``).  A
    ball on which c B leaves the normal float64 range, or on which
    (c B)^(-s-1) overflows, is refused before any solve.
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
    window = _fit_windows(family, psi.grid.radius)[1]
    trace: list = []

    def run(g: RadialGrid, lows: dict):
        psi_vals = np.concatenate((psi.values, psi.tail(g.nodes[psi.grid.n :])))
        vals, res, its, mono = _monotone_ball(RadialOperator(g, n), shift, s, psi_vals,
                                              lows["v"], tol_residual,
                                              trace if record_trace else None)
        return {"v": vals}, its, True, lambda out: (None, res, res <= tol_residual and mono)

    report = _two_ball_report(
        _ball_pair(psi.grid), {"v": _Field("c * B", barrier, c_low, c_high, s + 1.0, window)}, run)
    report.trace = trace
    return report


# ---------------------------------------------------------------------------
# coupled fixed points
# ---------------------------------------------------------------------------


def _picard_coupled(
    problem: Problem,
    exponents: Exponents,
    ledger: ConstantsLedger,
    grid: RadialGrid,
    lows: dict,
    tol_change: float,
    tol_residual: float,
) -> tuple:
    """Picard loop on ``grid`` from the lower barriers ``lows``: a ``_two_ball_report`` run.

    The loop stops at the first iterate that leaves the sandwich anywhere
    on the ball, before v's negative powers can leave float64.
    """
    n = problem.dimension
    p, q, m, s = exponents.p, exponents.q, exponents.m, exponents.s
    u, v = low_u, low_v = lows["u"], lows["v"]
    cap_u, cap_v = ledger.m1_upper / ledger.m1_lower, ledger.m2_upper / ledger.m2_lower
    rho_vals = problem.rho.evaluate(grid.nodes)

    # one operator per ball for each field: the resolvent of -Delta + lam
    # (W runs) and the scalar solve's -Delta + mu + L(v).  At s = 0 the v
    # equation is linear: Newton's first step from v_low solves
    # (-Delta + mu) v = psi, since v_low^(-0) = 1, and every later step
    # repeats that solve, so one solve gives Newton's v bit for bit
    resolvent = RadialOperator(grid, n, problem.lam) if problem.family is BarrierFamily.W else None
    v_op = RadialOperator(grid, n, problem.mu)

    it, change, inside = 0, math.inf, True
    for it in range(1, MAX_ITER + 1):
        rhs_u_vals = u**p / v**q + rho_vals
        if resolvent is not None:
            u_new = resolvent.solve(rhs_u_vals, low_u[-1])
        else:
            rhs_u = RadialField(grid, rhs_u_vals, problem.rho.envelope_profile)
            u_new = newton_potential_radial(n, rhs_u).values

        psi_vals = u_new**m
        if s == 0:
            v_new = v_op.solve(psi_vals, low_v[-1])
        else:
            v_new = _monotone_ball(v_op, problem.mu, s, psi_vals, low_v,
                                   tol_residual * max(ledger.m2_lower, 1e-300), start=v)[0]

        change = max(
            float(np.abs(u_new - u).max()) / max(float(u_new.max()), 1e-300),
            float(np.abs(v_new - v).max()) / max(float(v_new.max()), 1e-300),
        )
        u, v = u_new, v_new
        inside = _sandwich_margins(u, low_u, cap_u)[1] and _sandwich_margins(v, low_v, cap_v)[1]
        if not inside or change <= tol_change:
            break

    def check(out: dict) -> tuple:
        res_u, res_v = _pde_residuals(problem, exponents, out["u"], out["v"])
        converged = change <= tol_change and res_u <= tol_residual and res_v <= tol_residual
        return res_u, res_v, converged

    return {"u": u, "v": v}, it, inside, check


def _coupled_report(
    problem: Problem,
    exponents: Exponents,
    ledger: ConstantsLedger,
    grid: Optional[RadialGrid],
    tol_change: float,
    tol_residual: float,
) -> SolveReport:
    """Both regimes' two-ball solve; callers check ledger regime and shifts.

    Without a ``grid``, an exponential run takes the ball of
    ``default_exp_radius`` and a zero-shift run ``_default_alg_balls``.
    """
    if not ledger.feasible:
        raise RegimeError(f"ledger infeasible: {ledger.violated}")
    fam = problem.family
    if problem.rho.family is not fam:
        regime = ledger.regime.name.lower()
        raise RegimeError(f"{regime} regime expects an {regime} source envelope")
    if grid is not None:
        balls = _ball_pair(grid)
    elif fam is BarrierFamily.W:
        radius = default_exp_radius(min(ledger.rate_u, ledger.rate_v))
        balls = _ball_pair(RadialGrid.auto(radius, *_BALL_GRIDS[fam]))
    else:
        balls = _default_alg_balls()
    window_u, window_v = _fit_windows(fam, balls[0].radius)
    # the loop raises u to positive powers only, and v to -q and -s-1
    fields = {
        "u": _Field("M1_lower * B_u", BarrierProfile(fam, ledger.rate_u),
                    ledger.m1_lower, ledger.m1_upper, 0.0, window_u),
        "v": _Field("M2_lower * B_v", BarrierProfile(fam, ledger.rate_v), ledger.m2_lower,
                    ledger.m2_upper, max(exponents.q, exponents.s + 1.0), window_v),
    }
    return _two_ball_report(balls, fields, lambda g, lows: _picard_coupled(
        problem, exponents, ledger, g, lows, tol_change, tol_residual))


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
    return _coupled_report(problem, exponents, ledger, grid, tol_change, tol_residual)
