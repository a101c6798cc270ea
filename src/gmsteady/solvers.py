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

Truncation.  Exponential-family runs pick the smallest radius on
which the truncation bound of a sandwiched run is at most half its
limit; algebraic barriers cannot bring that bound down at any practical
radius, so those runs start from a configurable default;
``_BALL_GRIDS`` holds each family's grid recipe.
Either way one function, ``_ball_report``, runs the solve on that one
ball from the lower barriers and reports it by ``SolveReport``'s rules.
The default zero-shift ball is one per process (``_default_alg_ball``),
so the plans on it are built once.  A report's residuals and decay fits
come from ``potentials``, which measures a candidate pair for
``certificates`` too.
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
from .potentials import (_fit_windows, _pde_residuals, _window_mask, decay_fit,
                         newton_potential_radial)
from .profiles import BarrierFamily, BarrierProfile, eval_barrier
from .radial_core import RadialField, RadialGrid, RadialOperator

__all__ = [
    "IterationState",
    "SolveReport",
    "SolveStatus",
    "algebraic_scalar_admissible",
    "solve_singular_scalar",
    "solve_coupled_exp",
    "solve_coupled_alg",
    "default_exp_radius",
    "DEFAULT_ALG_RADIUS",
]

#: Largest truncation bound of a converged W run (``SolveReport``).
_TRUNCATION_LIMIT = 1e-6
#: Starting radius for algebraic-family runs (the truncation bound of a
#: power-law barrier falls too slowly to size a ball).
DEFAULT_ALG_RADIUS = 480.0
#: Iteration cap of the scalar Newton loop and of the coupled Picard loop.
MAX_ITER = 500
#: Each family's ball grid recipe: (h0, stretch) of ``RadialGrid.auto``.
_BALL_GRIDS = {BarrierFamily.W: (0.02, 1.02), BarrierFamily.Z: (0.008, 1.02)}


def default_exp_radius(rate: float, drop: float) -> float:
    """Smallest R with W_rate(R) <= W_rate(0) / drop; ``drop`` must be at least 1."""
    if not drop >= 1.0:
        raise ValueError(f"barrier drop must be at least 1, not {drop!r}")
    t = 1.0 + math.log(drop) / rate
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

    Every solve runs on its ball (radius R) from the lower barriers, to
    which every iterate is pinned at R; ``iterations`` counts its steps
    (Newton steps of the scalar solve, Picard steps of the coupled one).
    ``margins`` maps field name to (min, max) of field/(lower constant
    times barrier) on the ball, ``decay`` to (fitted rate, fit residual)
    over the family's fit window (``potentials._fit_windows``).
    ``truncation_bound``, the largest over the fields of
    (upper - lower) * B(R) / max field, bounds the relative error of the
    run's Dirichlet data at R, where every whole-space solution in the
    sandwich lies in [lower, upper] * B(R).  It gates W runs only:
    algebraic barriers keep it at 1.8e-3 to 0.67 at the default Z ball
    (the zero-shift benchmark points), so a Z run reports it and is
    judged without it; an exact exterior condition at R is what would
    replace the Dirichlet pin there.  The status is

    * ``sandwich-violated`` unless the fields lie inside [1, upper/lower]
      on the ball, up to 1e-9 slack (the coupled Picard loop stops at
      the first iterate that does not);
    * else ``converged`` if the run converged (scalar: Newton residual
      below its tolerance and every iterate monotone; coupled: relative
      change below ``tol_change`` and both PDE residuals on r <= R/2
      below ``tol_residual``) and, for W, the bound is at most
      ``_TRUNCATION_LIMIT``;
    * else ``max-iterations``, with a note naming the bound where it
      exceeds its limit.
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
    truncation_bound: float
    notes: list = dfield(default_factory=list)
    trace: list = dfield(default_factory=list, metadata={"report": False})


def algebraic_scalar_admissible(dimension: int, s: float, gamma: float) -> bool:
    """Existence window of the zero-shift scalar problem: 2 < gamma < (N-2)s + N."""
    return 2.0 < gamma < (dimension - 2.0) * s + dimension


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


def _run_status(notes: list, sandwiched: bool, converged: bool) -> SolveStatus:
    """Status of a run: a sandwich violation outranks ``notes``, the
    failed truncation check, and any note rules out convergence."""
    if not sandwiched:
        return SolveStatus.SANDWICH_VIOLATED
    if converged and not notes:
        return SolveStatus.CONVERGED
    return SolveStatus.MAX_ITERATIONS


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
    """One field of a run, kept inside lower * B <= field <= upper * B."""

    label: str  # names lower * B in a refusal
    barrier: BarrierProfile
    lower: float
    upper: float
    power: float  # runs raise the field to powers down to -power


def _ball_envelopes(grid: RadialGrid, fields: dict) -> dict:
    """Each field's lower * B on the ball ``grid``, by name.

    The margins divide by every lower * B, and runs raise a field to
    -power: each lower * B must stay a normal double on the ball, and its
    -power-th power may not overflow (HypothesisError otherwise).
    """
    lows = {}
    for name, f in fields.items():
        low = lows[name] = f.lower * np.asarray(eval_barrier(f.barrier, grid.nodes), dtype=float)
        if not low.min() >= np.finfo(float).tiny:
            raise HypothesisError(f"{f.label} underflows below the smallest normal double "
                                  f"within radius {grid.radius:g}")
        if -f.power * math.log(low.min()) > math.log(np.finfo(float).max):
            raise HypothesisError(f"({f.label})^(-{f.power:g}) overflows "
                                  f"within radius {grid.radius:g}")
    return lows


@functools.cache
def _default_alg_ball() -> RadialGrid:
    """The ball of every default zero-shift solve, built once per process.

    So are the plans on it; every other ball's radius follows its point's
    rates or its caller, and the ball lives only as long as its solve.
    """
    return RadialGrid.auto(DEFAULT_ALG_RADIUS, *_BALL_GRIDS[BarrierFamily.Z])


def _ball_report(grid: Optional[RadialGrid], fields: dict, run) -> SolveReport:
    """Run on ``grid`` from the lower barriers; report the run by ``SolveReport``'s rules.

    ``fields`` maps each field name to its ``_Field``.  ``run(grid, lows)``
    solves on the ball from the lower barriers ``lows`` (by name) and
    returns (values by name, iteration count, (residual of u or None,
    residual of v, whether the run converged)).  Without a ``grid`` the
    run takes its family's default ball: for Z ``_default_alg_ball``,
    for W the smallest ball on which the truncation bound of a
    sandwiched run is at most half its limit.  Each field is fitted over
    its window in ``_fit_windows``.  The fit windows and the ball's
    float range are checked before the run, so a refusal costs no solve.
    The truncation bound gates W runs only (1.9e-2 at the zero-shift
    worked case's default ball).
    """
    family = fields["v"].barrier.family  # one family per run
    if grid is None and family is BarrierFamily.Z:
        grid = _default_alg_ball()
    elif grid is None:
        # a sandwiched field's bound is at most (upper/lower - 1) B(R)/B(0)
        radius = max(default_exp_radius(f.barrier.rate, max(
            1.0, 2.0 * (f.upper / f.lower - 1.0) / _TRUNCATION_LIMIT))
            for f in fields.values())
        grid = RadialGrid.auto(radius, *_BALL_GRIDS[family])
    windows = _fit_windows(family, grid.radius)
    for name in fields:
        _window_mask(grid.nodes, windows[name])
    lows = _ball_envelopes(grid, fields)
    vals, its, (res_u, res_v, converged) = run(grid, lows)
    margins, sandwiched = {}, True
    for name, f in fields.items():
        margins[name], ok = _sandwich_margins(vals[name], lows[name], f.upper / f.lower)
        sandwiched = sandwiched and ok
    out = {name: RadialField(grid, vals[name], f.barrier) for name, f in fields.items()}
    bound = max((f.upper - f.lower) * float(eval_barrier(f.barrier, grid.radius))
                / float(vals[name].max()) for name, f in fields.items())
    notes = [] if family is BarrierFamily.Z or bound <= _TRUNCATION_LIMIT else [
        f"truncation bound {bound:.3e} exceeds limit {_TRUNCATION_LIMIT:.3e}"]
    return SolveReport(
        status=_run_status(notes, sandwiched, converged),
        u=out.get("u"),
        v=out["v"],
        residual_u=res_u,
        residual_v=res_v,
        margins=margins,
        decay={name: decay_fit(out[name], f.barrier.family, windows[name])
               for name, f in fields.items()},
        iterations=its,
        ball_radius=grid.radius,
        truncation_bound=bound,
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

    The run solves on the weight's grid (``_ball_report``).  A ball on
    which c B leaves the normal float64 range, or on which (c B)^(-s-1)
    overflows, is refused before the solve.
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
    trace: list = []

    # the run starts from v_low, so its trace is monotone
    def run(g: RadialGrid, lows: dict):
        vals, res, its, mono = _monotone_ball(RadialOperator(g, n), shift, s, psi.values,
                                              lows["v"], tol_residual,
                                              trace if record_trace else None)
        return {"v": vals}, its, (None, res, res <= tol_residual and mono)

    report = _ball_report(
        psi.grid, {"v": _Field("c * B", barrier, c_low, c_high, s + 1.0)}, run)
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
    """Picard loop on ``grid`` from the lower barriers ``lows``: a ``_ball_report`` run.

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

    it, change = 0, math.inf
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

    res_u, res_v = _pde_residuals(problem, exponents, RadialField(grid, u), RadialField(grid, v))
    converged = change <= tol_change and res_u <= tol_residual and res_v <= tol_residual
    return {"u": u, "v": v}, it, (res_u, res_v, converged)


def _coupled_report(
    problem: Problem,
    exponents: Exponents,
    ledger: ConstantsLedger,
    grid: Optional[RadialGrid],
    tol_change: float,
    tol_residual: float,
) -> SolveReport:
    """Both regimes' solve; callers check ledger regime and shifts.

    Without a ``grid`` the run takes its family's default ball
    (``_ball_report``).
    """
    if not ledger.feasible:
        raise RegimeError(f"ledger infeasible: {ledger.violated}")
    fam = problem.family
    if problem.rho.family is not fam:
        regime = ledger.regime.name.lower()
        raise RegimeError(f"{regime} regime expects an {regime} source envelope")
    # the loop raises u to positive powers only, and v to -q and -s-1
    fields = {
        "u": _Field("M1_lower * B_u", BarrierProfile(fam, ledger.rate_u),
                    ledger.m1_lower, ledger.m1_upper, 0.0),
        "v": _Field("M2_lower * B_v", BarrierProfile(fam, ledger.rate_v), ledger.m2_lower,
                    ledger.m2_upper, max(exponents.q, exponents.s + 1.0)),
    }
    return _ball_report(grid, fields, lambda g, lows: _picard_coupled(
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
