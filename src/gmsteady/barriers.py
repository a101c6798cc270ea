"""Barrier calculus, explicit feasibility constants, and parameter verdicts.

The coupled steady-state system treated by this package is

    -Delta u + lam * u = u^p / v^q + rho(x)      in R^N, N >= 3,
    -Delta v + mu  * v = u^m / v^s               in R^N,
    u, v > 0,  u(x), v(x) -> 0 as |x| -> infinity,

with exponents p, q, m > 0, s >= 0, shifts lam, mu >= 0 (both zero or
both positive) and a nonnegative continuous source rho.  The derived
cross-inhibition index is

    sigma = m*q / ((p-1)*(s+1)),   defined for p > 1.

Two explicit existence constructions are implemented as "constant
ledgers": closed-form sandwich constants M1_lower < M1_upper and
M2_lower < M2_upper such that the set

    { M1_lower * B_u <= u <= M1_upper * B_u,
      M2_lower * B_v <= v <= M2_upper * B_v }

is invariant under the natural fixed-point map, where B_u, B_v are
W- or Z-family barrier profiles.  When the ledger is feasible the
classifier returns an existence certificate; unconditional
nonexistence criteria are checked first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield
from enum import Enum
from typing import Optional

import numpy as np

from .errors import RegimeError, UndefinedIndexError
from .profiles import BarrierFamily, BarrierProfile, eval_barrier

__all__ = [
    "BarrierFamily",
    "BarrierProfile",
    "ConstantsLedger",
    "Exponents",
    "Problem",
    "Regime",
    "SandwichCheck",
    "SourceModel",
    "Verdict",
    "VerdictStatus",
    "alg_regime_ledger",
    "barrier_operator_value",
    "barrier_operator_factor",
    "check_sandwich",
    "classify",
    "eval_barrier",
    "exp_regime_ledger",
    "operator_bounds",
    "sigma_index",
    "NONEXISTENCE_TAGS",
]

# Verdict tags are stable vocabulary for reports; downstream tooling
# diffs classification tables on these exact strings.
NONEXISTENCE_TAGS = frozenset(
    {
        "Theorem 1.1(i)",
        "Theorem 1.1(ii)",
        "Theorem 1.2(i)",
        "Theorem 1.2(ii)",
        "Theorem 1.2(iii)",
        "Theorem 1.4(i)",
        "Corollary 1.3(i)",
        "Corollary 1.3(ii)",
    }
)

# relative tie tolerance: strict inequalities decided closer than this
# are reported as infeasible boundary cases
_TIE_REL = 1e-14


@dataclass(frozen=True)
class Exponents:
    """Reaction exponents p, q, m > 0 and s >= 0."""

    p: float
    q: float
    m: float
    s: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.p, self.q, self.m, self.s))):
            raise ValueError("p, q, m, s must be finite")
        if not (self.p > 0 and self.q > 0 and self.m > 0):
            raise ValueError("p, q, m must be positive")
        if self.s < 0:
            raise ValueError("s must be >= 0")


def sigma_index(exponents: Exponents) -> float:
    """Cross-inhibition index sigma = m*q / ((p-1)*(s+1)); needs p > 1."""
    if exponents.p <= 1:
        raise UndefinedIndexError(f"sigma undefined for p = {exponents.p} <= 1")
    return exponents.m * exponents.q / ((exponents.p - 1.0) * (exponents.s + 1.0))


@dataclass(frozen=True)
class SourceModel:
    """Source term rho: zero, or bounded by an envelope.

    ``family`` W (exp) or Z (alg) asserts alpha * E(r) <= rho <= beta * E(r),
    E that family's profile with the given rate; the existence results
    need it to equal ``Problem.family``.  It is None for the zero source.
    An envelope is evaluated as rho = c * E with the amplitude
    ``profile`` = c, alpha <= c <= beta (midpoint when None).
    """

    family: Optional[BarrierFamily] = None
    alpha: float = 0.0
    beta: float = 0.0
    rate: float = 1.0
    profile: Optional[float] = None

    def __post_init__(self) -> None:
        if self.profile is not None and not isinstance(self.profile, (int, float)):
            raise ValueError("source amplitude must be a float")
        amp = () if self.profile is None else (self.profile,)
        if not all(map(math.isfinite, (self.alpha, self.beta, self.rate, *amp))):
            raise ValueError("source alpha, beta, rate and amplitude must be finite")
        if self.family is None:
            if self.alpha != 0.0 or self.beta != 0.0 or self.profile is not None:
                raise ValueError("zero source forces alpha = beta = 0 and no amplitude")
            return
        if not (0.0 < self.alpha <= self.beta):
            raise ValueError("envelope requires 0 < alpha <= beta")
        if not self.rate > 0:
            raise ValueError("envelope rate must be positive")
        if amp and not (self.alpha <= self.profile <= self.beta):
            raise ValueError("profile amplitude must lie in [alpha, beta]")

    @classmethod
    def zero(cls) -> "SourceModel":
        return cls()

    @classmethod
    def exp_envelope(
        cls, alpha: float, beta: float, rate: float, amplitude: Optional[float] = None
    ) -> "SourceModel":
        return cls(BarrierFamily.W, alpha, beta, rate, amplitude)

    @classmethod
    def alg_envelope(
        cls, alpha: float, beta: float, rate: float, amplitude: Optional[float] = None
    ) -> "SourceModel":
        return cls(BarrierFamily.Z, alpha, beta, rate, amplitude)

    @property
    def is_zero(self) -> bool:
        return self.family is None

    @property
    def envelope_profile(self) -> Optional[BarrierProfile]:
        return None if self.family is None else BarrierProfile(self.family, self.rate)

    def amplitude(self) -> float:
        """Evaluable amplitude of an envelope (midpoint unless pinned)."""
        if self.profile is not None:
            return float(self.profile)
        return 0.5 * (self.alpha + self.beta)

    def evaluate(self, r) -> np.ndarray:
        """rho(r) on an array of radii."""
        rr = np.asarray(r, dtype=float)
        if self.family is None:
            return np.zeros_like(rr)
        return self.amplitude() * np.asarray(eval_barrier(self.envelope_profile, rr), dtype=float)


@dataclass(frozen=True)
class Problem:
    """Ambient dimension, linear shifts, and source model."""

    dimension: int
    lam: float
    mu: float
    rho: SourceModel

    def __post_init__(self) -> None:
        if self.dimension < 3:
            raise ValueError("dimension must be >= 3")
        if not (math.isfinite(self.lam) and math.isfinite(self.mu)):
            raise ValueError("shifts must be finite")
        if self.lam < 0 or self.mu < 0:
            raise ValueError("shifts must be >= 0")
        if (self.lam > 0) != (self.mu > 0):
            raise ValueError("shifts must be both zero or both positive")

    @property
    def family(self) -> BarrierFamily:
        """Barrier family of the regime: W for positive shifts, Z for zero shifts."""
        return BarrierFamily.W if self.lam > 0 else BarrierFamily.Z


# ---------------------------------------------------------------------------
# barrier operator calculus
# ---------------------------------------------------------------------------


def barrier_operator_factor(
    profile: BarrierProfile, shift: float, x_norm, dimension: int
):
    """Factor F(r) with (-Delta + shift) B(r) = F(r) * B(r) for W profiles,
    and -Delta Z_a = F(r) * Z_a for Z profiles (shift must be 0 there).

    Closed forms, with t = sqrt(1 + r^2):

        W(a):  F = shift - a^2 + a^2/t^2 + a/t^3 + (N-1)*a/t
        Z(a):  F = a * (N + (N-a-2) r^2) / t^4
    """
    r = np.asarray(x_norm, dtype=float)
    u = 1.0 + r * r
    a = profile.rate
    n = dimension
    if profile.family is BarrierFamily.W:
        if shift < 0:
            raise ValueError("W-family operator requires shift >= 0")
        t = np.sqrt(u)
        fac = shift - a * a + a * a / u + a / (u * t) + (n - 1) * a / t
    else:
        if shift != 0.0:
            raise ValueError("Z-family operator is evaluated with shift 0")
        fac = a * (n + (n - a - 2.0) * r * r) / (u * u)
    if np.isscalar(x_norm) or np.ndim(x_norm) == 0:
        return float(fac)
    return fac


def barrier_operator_value(
    profile: BarrierProfile, shift: float, x_norm, dimension: int
):
    """Exact value of (-Delta + shift) applied to the profile at radius r."""
    fac = barrier_operator_factor(profile, shift, x_norm, dimension)
    return fac * eval_barrier(profile, x_norm)


@dataclass
class SandwichCheck:
    """Result of a pointwise operator sandwich check on a grid."""

    ok: bool
    lower_margin: float
    upper_margin: float
    vacuous_lower: bool
    equality_at_zero: Optional[float] = None  # relative gap at r = 0 if on grid


def operator_bounds(profile: BarrierProfile, shift: float, dimension: int) -> tuple:
    """Constants (lo, hi) of the two-sided operator bounds of a barrier profile.

        W(a):  (shift - a^2) W_a <= (-Delta + shift) W_a <= (shift + N a) W_a
        Z(a):  a (N - a - 2) Z_{a+2} <= -Delta Z_a <= a N Z_{a+2}
    """
    a = profile.rate
    if profile.family is BarrierFamily.W:
        return shift - a * a, shift + dimension * a
    return a * (dimension - a - 2.0), a * dimension


def check_sandwich(
    profile: BarrierProfile,
    shift: float,
    dimension: int,
    r_grid,
) -> SandwichCheck:
    """Verify the two-sided ``operator_bounds`` at every grid point, to 1e-12 relative.

    Comparisons are done on the operator factors, so tail underflow of
    the profile itself cannot produce 0/0.  For the Z family with
    a >= N - 2 the lower coefficient is <= 0; the bound still holds but
    is flagged as vacuous.
    """
    r = np.asarray(r_grid, dtype=float)
    n = dimension
    a = profile.rate
    lo, hi = operator_bounds(profile, shift, n)
    if profile.family is BarrierFamily.W:
        fac = barrier_operator_factor(profile, shift, r, n)
        vacuous = False
    else:
        # compare -Delta Z_a against bounds times Z_{a+2}: divide out Z_{a+4} scale
        u = 1.0 + r * r
        fac = a * (n + (n - a - 2.0) * r * r) / u
        vacuous = lo <= 0.0
    scale = max(abs(lo), abs(hi), 1e-300)
    lower_margin = float(np.min(fac - lo) / scale)
    upper_margin = float(np.min(hi - fac) / scale)
    ok = lower_margin >= -1e-12 and upper_margin >= -1e-12
    eq0 = None
    if np.any(r == 0.0):
        f0 = fac[r == 0.0][0] if fac.ndim else float(fac)
        eq0 = abs(f0 - hi) / scale
    return SandwichCheck(ok, lower_margin, upper_margin, vacuous, eq0)


# ---------------------------------------------------------------------------
# explicit constant ledgers
# ---------------------------------------------------------------------------


class Regime(Enum):
    EXPONENTIAL = "Theorem 1.1(iii)"
    ALGEBRAIC = "Theorem 1.4(ii)"


@dataclass
class ConstantsLedger:
    """Closed-form sandwich constants for one existence construction.

    ``rate_u``/``rate_v`` are the decay rates of the u and v barriers
    (family W in the exponential regime, Z in the algebraic one).
    ``aux`` holds named auxiliary constants; ``violated`` names every
    failed feasibility inequality when infeasible.
    """

    regime: Regime
    m1_lower: float
    m1_upper: float
    m2_lower: float
    m2_upper: float
    rate_u: float
    rate_v: float
    aux: dict = dfield(default_factory=dict)
    feasible: bool = False
    violated: list = dfield(default_factory=list)


def _strict(lhs: float, rhs: float, name: str, violated: list) -> None:
    """Record ``name`` unless lhs > rhs strictly, with ties flagged."""
    scale = max(abs(lhs), abs(rhs), 1e-300)
    if math.isfinite(scale) and abs(lhs - rhs) <= _TIE_REL * scale:
        violated.append(name + " (boundary)")
    elif not lhs > rhs:
        violated.append(name)


def _pow_or_inf(base: float, exponent: float) -> float:
    """base**exponent, or inf where it exceeds the float range.

    Near sigma = 1 the alpha bounds overflow; an overflowing bound lies
    above every float alpha, so inf keeps the comparison exact.
    """
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def exp_regime_ledger(
    exponents: Exponents,
    dimension: int,
    lam: float,
    mu: float,
    alpha: float,
    beta: float,
    rate_a: float,
) -> ConstantsLedger:
    """Sandwich constants for the exponential regime (large shifts).

    Requires p > 1 >= sigma.  With a the source rate and b = a*m/(s+1),
    the four constants solve, in closed form,

        2*lam*M1_lower            = alpha
        (lam/4)*M1_upper          = M1_upper^p * M2_lower^(-q)
        (mu/2)*M2_upper           = M1_upper^m * M2_upper^(-s)
        2*mu*M2_lower             = M1_lower^m * M2_lower^(-s)

    Feasibility additionally needs the shift thresholds
    lam > max(2 a^2, N^2), mu > max(2 b^2, N^2), the orderings
    M1_upper > M1_lower, M2_upper > M2_lower, and the source budget
    (lam/4) M1_upper >= beta.  The budget is equivalent to
    mu <= c0 * lam^(p(s+1)/q - m) with the reported c0.  Constants that
    float64 cannot hold make the ledger infeasible ("float-range", NaN).
    """
    p, q, m, s = exponents.p, exponents.q, exponents.m, exponents.s
    if p <= 1:
        raise RegimeError("exponential regime requires p > 1")
    sig = sigma_index(exponents)
    if sig > 1:
        raise RegimeError(f"exponential regime requires sigma <= 1, got {sig}")
    if not (alpha > 0 and beta >= alpha):
        raise ValueError("need 0 < alpha <= beta")
    if not rate_a > 0:
        raise ValueError("source rate must be positive")
    if not (lam > 0 and mu > 0):
        raise ValueError("shifts must be positive in this regime")

    a = rate_a
    b = a * m / (s + 1.0)
    n = dimension

    violated: list = []
    _strict(lam, max(2.0 * a * a, float(n * n)), "lambda-threshold", violated)
    _strict(mu, max(2.0 * b * b, float(n * n)), "mu-threshold", violated)
    try:
        m1_lo = alpha / (2.0 * lam)
        m2_lo = ((alpha**m / 2.0 ** (m + 1.0)) ** (1.0 / (s + 1.0))
                 * mu ** (-1.0 / (s + 1.0)) * lam ** (-m / (s + 1.0)))
        m1_hi = ((lam / 4.0) * m2_lo**q) ** (1.0 / (p - 1.0))
        m2_hi = (2.0 * m1_hi**m / mu) ** (1.0 / (s + 1.0))

        # budget constant: (lam/4) M1_upper >= beta  <=>  mu <= c0 lam^(p(s+1)/q - m)
        kconst = (0.25 * (alpha**m / 2.0 ** (m + 1.0)) ** (q / (s + 1.0))) ** (1.0 / (p - 1.0))
        c0 = (kconst / (4.0 * beta)) ** (m / sig)
        if not all(0.0 < c < math.inf for c in (m1_lo, m2_lo, m1_hi, m2_hi)):
            raise OverflowError
    except OverflowError:  # such constants cannot certify a sandwich
        m1_lo = m2_lo = m1_hi = m2_hi = c0 = math.nan
        violated.append("float-range")
    else:
        _strict(m1_hi, m1_lo, "m1-ordering", violated)
        _strict(m2_hi, m2_lo, "m2-ordering", violated)
        if not (lam / 4.0) * m1_hi >= beta:
            violated.append("beta-budget")

    return ConstantsLedger(
        regime=Regime.EXPONENTIAL,
        m1_lower=m1_lo,
        m1_upper=m1_hi,
        m2_lower=m2_lo,
        m2_upper=m2_hi,
        rate_u=a,
        rate_v=b,
        aux={"c0": c0, "sigma": sig, "lambda": lam, "mu": mu, "alpha": alpha, "beta": beta},
        feasible=not violated,
        violated=violated,
    )


def alg_regime_ledger(
    exponents: Exponents,
    dimension: int,
    alpha: float,
    beta: float,
    rate_a: float,
) -> ConstantsLedger:
    """Sandwich constants for the algebraic regime (zero shifts).

    Requires 2(1 + 1/m) < a < N, 0 < sigma < 1, m(a-2) < (N-2)s + N and
    2p/(p-1) <= a + sigma*(2(1+1/m) - a).  With b = (m(a-2)-2)/(s+1),

        A = 1/((a-2)N)                   C = ((a-2)(N-a) B^q / 2)^(1/(p-1))
        B = (A^m/(bN))^(1/(s+1))         D = (C^m/(b(N-b-2)))^(1/(s+1))

        M1_lower = A alpha               M1_upper = C alpha^sigma
        M2_lower = B alpha^(m/(s+1))     M2_upper = D alpha^(sigma m/(s+1))

    Feasible iff 0 < alpha < eps and alpha < beta < delta * alpha^sigma,
    where delta = ((a-2)(N-a)/2) C and eps is the minimum of
    (C/A)^(1/(1-sigma)), (D/B)^((s+1)/(m(1-sigma))) and delta^(1/(1-sigma)).
    """
    p, q, m, s = exponents.p, exponents.q, exponents.m, exponents.s
    n = dimension
    a = rate_a
    if p <= 1:
        raise RegimeError("algebraic regime requires p > 1")
    sig = sigma_index(exponents)
    if not 0.0 < sig < 1.0:
        raise RegimeError(f"algebraic regime requires 0 < sigma < 1, got {sig}")
    a_low = 2.0 * (1.0 + 1.0 / m)
    if not a_low < a < n:
        raise RegimeError(
            f"source rate must satisfy 2(1+1/m) = {a_low} < a < N = {n}, got {a}"
        )
    if not m * (a - 2.0) < (n - 2.0) * s + n:
        raise RegimeError(
            f"need m(a-2) = {m * (a - 2.0)} < (N-2)s + N = {(n - 2.0) * s + n}"
        )
    lhs_gap = 2.0 * p / (p - 1.0)
    rhs_gap = a + sig * (a_low - a)
    if not lhs_gap <= rhs_gap:
        raise RegimeError(
            f"need 2p/(p-1) = {lhs_gap} <= a + sigma(2(1+1/m) - a) = {rhs_gap}"
        )
    if not (alpha > 0 and beta >= alpha):
        raise ValueError("need 0 < alpha <= beta")

    b = (m * (a - 2.0) - 2.0) / (s + 1.0)
    big_a = 1.0 / ((a - 2.0) * n)
    big_b = (big_a**m / (b * n)) ** (1.0 / (s + 1.0))
    big_c = ((a - 2.0) * (n - a) * big_b**q / 2.0) ** (1.0 / (p - 1.0))
    big_d = (big_c**m / (b * (n - b - 2.0))) ** (1.0 / (s + 1.0))
    delta = (a - 2.0) * (n - a) / 2.0 * big_c
    eps = min(
        _pow_or_inf(big_c / big_a, 1.0 / (1.0 - sig)),
        _pow_or_inf(big_d / big_b, (s + 1.0) / (m * (1.0 - sig))),
        _pow_or_inf(delta, 1.0 / (1.0 - sig)),
    )

    m1_lo = big_a * alpha
    m1_hi = big_c * alpha**sig
    m2_lo = big_b * alpha ** (m / (s + 1.0))
    m2_hi = big_d * alpha ** (sig * m / (s + 1.0))

    violated: list = []
    _strict(eps, alpha, "alpha-upper", violated)
    _strict(beta, alpha, "alpha-beta-order", violated)
    _strict(delta * alpha**sig, beta, "beta-window", violated)

    return ConstantsLedger(
        regime=Regime.ALGEBRAIC,
        m1_lower=m1_lo,
        m1_upper=m1_hi,
        m2_lower=m2_lo,
        m2_upper=m2_hi,
        rate_u=a - 2.0,
        rate_v=b,
        aux={
            "A": big_a,
            "B": big_b,
            "C": big_c,
            "D": big_d,
            "epsilon": eps,
            "delta": delta,
            "sigma": sig,
            "alpha": alpha,
            "beta": beta,
            "source_rate": a,
        },
        feasible=not violated,
        violated=violated,
    )


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


class VerdictStatus(Enum):
    NONEXISTENCE = "nonexistence"
    EXISTENCE_GUARANTEED = "existence-guaranteed"
    UNKNOWN = "unknown"


@dataclass
class Verdict:
    """Classification of a parameter point, with its justifying tag."""

    status: VerdictStatus
    tag: Optional[str]
    reason: str
    ledger: Optional[ConstantsLedger] = None
    advisories: list = dfield(default_factory=list)

    def __post_init__(self) -> None:
        if self.status is VerdictStatus.NONEXISTENCE and self.tag not in NONEXISTENCE_TAGS:
            raise ValueError(f"invalid nonexistence tag {self.tag!r}")
        if self.status is VerdictStatus.EXISTENCE_GUARANTEED:
            if self.ledger is None or not self.ledger.feasible:
                raise ValueError("existence verdict requires a feasible ledger")


def classify(problem: Problem, exponents: Exponents) -> Verdict:
    """Strongest applicable verdict for a parameter point, in fixed priority:

    1. positive shifts and p <= 1: nonexistence;
    2. zero shifts and (p <= N/(N-2) or m <= 2/(N-2)): nonexistence;
    3. zero shifts, algebraic envelope with rate a <= 2(1+1/m): nonexistence;
    4. positive shifts, exponential envelope, p > 1 >= sigma, feasible
       exponential ledger: existence with certificate;
    5. zero shifts, algebraic envelope, feasible algebraic ledger:
       existence with certificate;
    otherwise unknown.  Unconditional nonexistence always wins over a
    conditional certificate, hence the ordering.
    """
    n = problem.dimension
    p, m = exponents.p, exponents.m
    shifted = problem.lam > 0
    rho = problem.rho
    # the existence rules need a source envelope of the regime's family
    matched = rho.family is problem.family

    if shifted and p <= 1.0:
        return Verdict(
            VerdictStatus.NONEXISTENCE,
            "Theorem 1.1(i)",
            "Theorem 1.1(i): no positive solutions for 0 < p <= 1 with positive shifts.",
        )
    if not shifted and (p <= n / (n - 2.0) or m <= 2.0 / (n - 2.0)):
        return Verdict(
            VerdictStatus.NONEXISTENCE,
            "Theorem 1.2(i)",
            f"Theorem 1.2(i): zero shifts with p <= N/(N-2) = {n / (n - 2.0)} "
            f"or m <= 2/(N-2) = {2.0 / (n - 2.0)} admit no positive solutions.",
        )
    if not shifted and matched and rho.rate <= 2.0 * (1.0 + 1.0 / m):
        return Verdict(
            VerdictStatus.NONEXISTENCE,
            "Theorem 1.4(i)",
            f"Theorem 1.4(i): algebraic source rate a = {rho.rate} <= "
            f"2(1+1/m) = {2.0 * (1.0 + 1.0 / m)} forces a divergent representation.",
        )

    if shifted and matched and sigma_index(exponents) <= 1.0:
        ledger = exp_regime_ledger(
            exponents, n, problem.lam, problem.mu, rho.alpha, rho.beta, rho.rate
        )
        if ledger.feasible:
            return Verdict(
                VerdictStatus.EXISTENCE_GUARANTEED,
                "Theorem 1.1(iii)",
                "Theorem 1.1(iii): feasible exponential-regime ledger; "
                "a solution with exponential decay exists inside the sandwich.",
                ledger=ledger,
            )
        return _unknown(problem, exponents, f"exponential ledger infeasible: {ledger.violated}")

    if not shifted and matched:
        try:
            ledger = alg_regime_ledger(exponents, n, rho.alpha, rho.beta, rho.rate)
        except RegimeError as exc:
            return _unknown(problem, exponents, f"algebraic regime not applicable: {exc}")
        if ledger.feasible:
            return Verdict(
                VerdictStatus.EXISTENCE_GUARANTEED,
                "Theorem 1.4(ii)",
                "Theorem 1.4(ii): feasible algebraic-regime ledger; "
                "a solution with algebraic decay exists inside the sandwich.",
                ledger=ledger,
            )
        return _unknown(problem, exponents, f"algebraic ledger infeasible: {ledger.violated}")

    return _unknown(problem, exponents, "no criterion applies")


def _unknown(problem: Problem, exponents: Exponents, detail: str) -> Verdict:
    advisories = []
    if problem.lam > 0 and exponents.p > 1:
        sig = sigma_index(exponents)
        if sig > 1.0:
            thresh = (exponents.m / (exponents.s + 1.0)) ** 2 * problem.lam
            if problem.mu > thresh:
                advisories.append(
                    "Theorem 1.1(ii): no solution with exponentially decaying u "
                    f"(sigma = {sig} > 1 and mu > (m/(s+1))^2 lambda = {thresh})"
                )
    return Verdict(
        VerdictStatus.UNKNOWN,
        None,
        f"unknown: {detail}",
        advisories=advisories,
    )
