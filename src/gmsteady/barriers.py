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
from functools import lru_cache, partialmethod
from typing import Optional

import numpy as np

from .errors import RegimeError, UndefinedIndexError
from .profiles import BarrierFamily, BarrierProfile, eval_barrier

__all__ = [
    "DEFERRED",
    "VERDICT_CODES",
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
    "classify_many",
    "eval_barrier",
    "exp_regime_ledger",
    "operator_bounds",
    "sigma_index",
]

# relative tie tolerance: strict inequalities decided closer than this
# are reported as infeasible boundary cases
_TIE_REL = 1e-14
# the smallest normal double (sys.float_info.min): a ledger constant below
# it has lost precision to underflow, and the solvers refuse its barrier
_MIN_NORMAL = 2.0**-1022


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
        # Python floats overflow to inf silently where numpy scalars warn
        for name in ("p", "q", "m", "s"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (self.p > 0 and self.q > 0 and self.m > 0):
            raise ValueError("p, q, m must be positive")
        if self.s < 0:
            raise ValueError("s must be >= 0")


def sigma_index(exponents: Exponents) -> float:
    """Cross-inhibition index sigma = m*q / ((p-1)*(s+1)); needs p > 1."""
    if exponents.p <= 1:
        raise UndefinedIndexError(f"sigma undefined for p = {exponents.p} <= 1")
    return _sigma(exponents.p, exponents.q, exponents.m, exponents.s)


def _sigma(p, q, m, s):
    return m * q / ((p - 1.0) * (s + 1.0))


def _rate_floor(m):
    """The largest double <= 2(1+1/m), Theorem 1.4's bound on the algebraic
    source rate a, at or below which no solution exists and above which
    its regime starts.

    A float a satisfies a <= 2(1+1/m) exactly iff it is at most this,
    where the rounded quotient 2.0 * (1.0 + 1.0 / m) is above 2(1+1/m) at
    m = 0.3, 0.7, 1.1, 1.2, 6, ...  On floats, or elementwise once per
    distinct m; nan where m is not finite and positive.
    """
    if np.ndim(m):
        values, inverse = np.unique(m, return_inverse=True)
        return np.array([_rate_floor(x) for x in values.tolist()])[inverse]
    m = float(m)
    if not 0.0 < m < math.inf:
        return math.nan
    top, bottom = m.as_integer_ratio()
    try:
        return _ratio_floor(2 * (top + bottom), top)  # 2(1+1/m) exactly
    except OverflowError:
        return math.nextafter(math.inf, 0.0)


def _ratio_floor(num: int, den: int) -> float:
    """The largest double <= num/den, for ints den > 0 (OverflowError past float64)."""
    x = num / den  # int division rounds correctly; compare its exact ratio
    top, bottom = x.as_integer_ratio()
    return math.nextafter(x, -math.inf) if top * den > num * bottom else x


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
        for name in ("lam", "mu"):  # Python floats, as in Exponents
            object.__setattr__(self, name, float(getattr(self, name)))
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

    Comparisons are done on ``barrier_operator_factor`` (a Z profile takes
    shift 0), so tail underflow of the profile cannot produce 0/0.  For
    the Z family with a >= N - 2 the lower coefficient is <= 0; the bound
    still holds but is flagged as vacuous.
    """
    r = np.asarray(r_grid, dtype=float)
    lo, hi = operator_bounds(profile, shift, dimension)
    fac = barrier_operator_factor(profile, shift, r, dimension)
    vacuous = profile.family is BarrierFamily.Z and lo <= 0.0
    if profile.family is BarrierFamily.Z:
        fac = fac * (1.0 + r * r)  # the bounds are on Z_{a+2} = (1 + r^2) Z_{a+4}
    scale = max(abs(lo), abs(hi), 1e-300)
    lower_margin = float(np.min(fac - lo) / scale)
    upper_margin = float(np.min(hi - fac) / scale)
    ok = lower_margin >= -1e-12 and upper_margin >= -1e-12
    eq0 = None
    if np.any(r == 0.0):
        f0 = fac[r == 0.0][0] if np.ndim(fac) else float(fac)
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


class _FloatOps:
    """The ledger primitives on Python floats, flagging where float64
    cannot hold a power or quotient: ``in_range`` turns False and the
    result is inf for an overflow, nan otherwise (a zero divisor, zero to
    a negative power, a negative base's fractional power).  Each ledger
    makes one pass.  ``power_or_inf`` lets an overflow stand as inf:
    an alpha bound that overflows lies above every float alpha, so inf
    keeps its comparison exact."""

    in_range = True
    maximum = staticmethod(max)  # x unless y > x
    minimum = staticmethod(min)  # the first x unless a later y < x: a nan y never wins

    def power(self, base, exponent, overflow_is_inf=False):
        try:
            value = base**exponent
            if type(value) is not complex:
                return value
        except OverflowError:
            self.in_range &= overflow_is_inf
            return math.inf
        except ZeroDivisionError:  # zero to a negative power
            pass
        self.in_range = False
        return math.nan

    power_or_inf = partialmethod(power, overflow_is_inf=True)

    def divide(self, x, y):
        if y == 0.0:
            self.in_range = False
            return math.nan
        return x / y

    @staticmethod
    def strict(lhs, rhs):
        """(lhs > rhs, whether they tie within _TIE_REL of the larger of
        |lhs|, |rhs| and 1e-300, taken as Python's max takes it)."""
        scale, other = abs(lhs), abs(rhs)
        if other > scale:
            scale = other
        if 1e-300 > scale:
            scale = 1e-300
        return lhs > rhs, scale < math.inf and abs(lhs - rhs) <= _TIE_REL * scale


class _ArrayOps:
    """The same primitives elementwise on float arrays, flagging like
    ``_FloatOps`` and bit for bit: + - * / and comparisons round alike,
    ``np.float_power`` calls the C ``pow`` that float ``**`` calls (``np.power``
    may run a SIMD kernel, an ulp off), and a non-finite power is redone on floats."""

    in_range = True  # an array once a power or quotient is taken

    def power(self, base, exponent, overflow_is_inf=False):
        bases, exponents = np.broadcast_arrays(base, exponent)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            values = np.float_power(bases, exponents)
        flags = np.isfinite(values)  # an overflow, 0 ** -y, nan or complex: flag as on floats
        for i in np.flatnonzero(~flags).tolist():
            ops = _FloatOps()
            values[i] = ops.power(bases.item(i), exponents.item(i), overflow_is_inf)
            flags[i] = ops.in_range
        self.in_range &= flags
        return values

    power_or_inf = partialmethod(power, overflow_is_inf=True)

    def divide(self, x, y):
        self.in_range &= y != 0.0
        return x / y

    @staticmethod
    def maximum(x, y):
        return np.where(y > x, y, x)

    @staticmethod
    def minimum(x, *ys):
        for y in ys:
            x = np.where(y < x, y, x)
        return x

    @staticmethod
    def strict(lhs, rhs):
        scale = _ArrayOps.maximum(_ArrayOps.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
        return lhs > rhs, np.isfinite(scale) & (np.abs(lhs - rhs) <= _TIE_REL * scale)


# A ledger body runs on one of the primitive sets above: on floats for the
# scalar ledgers, on arrays for ``classify_many``.  It returns the rate b of
# the v barrier, (M1_lower, M1_upper, M2_lower, M2_upper), the constants it
# names in ``aux``, its checks and ``in_range``: whether float64 holds the
# constants as normal doubles.  A check is (name, (holds, tie),
# on_constants), in the order ``violated`` lists them; tie is None for a
# non-strict inequality.


def _in_normal_range(ops, *constants):
    """``ops.in_range``, and whether each constant is a finite normal double."""
    in_range = ops.in_range
    for x in constants:
        in_range = in_range & (_MIN_NORMAL <= x) & (x < math.inf)
    return in_range


def _exp_ledger_body(ops, n_sq, p, q, m, s, lam, mu, alpha, beta, a, sig):
    """Theorem 1.1(iii)'s ledger, naming (c0,); see ``exp_regime_ledger``.
    Every base is nonnegative, so a power can only overflow or divide by
    zero."""
    power, divide, strict = ops.power, ops.divide, ops.strict
    b = a * m / (s + 1.0)
    root, inv_p1, lam_4 = 1.0 / (s + 1.0), 1.0 / (p - 1.0), lam / 4.0
    m1_lo = alpha / (2.0 * lam)
    t = power(alpha, m) / power(2.0, m + 1.0)
    m2_lo = power(t, root) * power(mu, -root) * power(lam, -m / (s + 1.0))
    m1_hi = power(lam_4 * power(m2_lo, q), inv_p1)
    m2_hi = power(2.0 * power(m1_hi, m) / mu, root)
    # budget constant: (lam/4) M1_upper >= beta  <=>  mu <= c0 lam^(p(s+1)/q - m)
    kconst = power(0.25 * power(t, q / (s + 1.0)), inv_p1)
    c0 = power(kconst / (4.0 * beta), divide(m, sig))
    in_range = _in_normal_range(ops, m1_lo, m1_hi, m2_lo, m2_hi)
    checks = (
        ("lambda-threshold", strict(lam, ops.maximum(2.0 * a * a, n_sq)), False),
        ("mu-threshold", strict(mu, ops.maximum(2.0 * b * b, n_sq)), False),
        ("m1-ordering", strict(m1_hi, m1_lo), True),
        ("m2-ordering", strict(m2_hi, m2_lo), True),
        ("beta-budget", (lam_4 * m1_hi >= beta, None), True),
    )
    return b, (m1_lo, m1_hi, m2_lo, m2_hi), (c0,), checks, in_range


def _alg_ledger_body(ops, n, p, q, m, s, alpha, beta, a, sig):
    """Theorem 1.4(ii)'s ledger inside its regime, where a > 2 and
    sigma < 1, naming (A, B, C, D, epsilon, delta); see
    ``alg_regime_ledger``."""
    power, power_or_inf, divide, strict = ops.power, ops.power_or_inf, ops.divide, ops.strict
    a2, root = a - 2.0, 1.0 / (s + 1.0)
    b = (m * a2 - 2.0) / (s + 1.0)
    big_a = 1.0 / (a2 * n)
    big_b = power(divide(power(big_a, m), b * n), root)
    span = a2 * (n - a)
    big_c = power(span * power(big_b, q) / 2.0, 1.0 / (p - 1.0))
    big_d = power(divide(power(big_c, m), b * (n - b - 2.0)), root)
    delta = span / 2.0 * big_c
    inv_gap = 1.0 / (1.0 - sig)
    eps = ops.minimum(power_or_inf(divide(big_c, big_a), inv_gap),
                      power_or_inf(divide(big_d, big_b), divide(s + 1.0, m * (1.0 - sig))),
                      power_or_inf(delta, inv_gap))
    alpha_sig = power(alpha, sig)
    m1_lo = big_a * alpha
    m1_hi = big_c * alpha_sig
    m2_lo = big_b * power(alpha, m / (s + 1.0))
    m2_hi = big_d * power(alpha, sig * m / (s + 1.0))
    in_range = _in_normal_range(ops, m1_lo, m1_hi, m2_lo, m2_hi)
    checks = (
        ("alpha-upper", strict(eps, alpha), True),
        ("alpha-beta-order", strict(beta, alpha), False),
        ("beta-window", strict(delta * alpha_sig, beta), True),
    )
    named = big_a, big_b, big_c, big_d, eps, delta
    return b, (m1_lo, m1_hi, m2_lo, m2_hi), named, checks, in_range


def _violated(checks, in_range) -> list:
    """A float ledger's failed checks in order: "name (boundary)" at a tie,
    the bare name where the inequality fails, and "float-range" once in
    place of the checks on constants that float64 cannot hold."""
    violated = []
    for name, (holds, tie), on_constants in checks:
        if on_constants and not in_range:
            if "float-range" not in violated:
                violated.append("float-range")
        elif tie:
            violated.append(name + " (boundary)")
        elif not holds:
            violated.append(name)
    return violated


def _feasible(checks, in_range):
    """Where an array ledger's ``_violated`` would be empty."""
    for _, (holds, tie), _ in checks:
        in_range = in_range & holds if tie is None else in_range & holds & ~tie
    return in_range


# alg_regime_ledger's RegimeError texts, one per condition of _alg_regime
_ALG_REGIME_TEXTS = (
    "algebraic regime requires 0 < sigma < 1, got {0}",
    "source rate must satisfy 2(1+1/m) = {1} < a < N = {2}, got {3}",
    "need m(a-2) = {4} < (N-2)s + N = {5}",
    "need 2p/(p-1) = {6} <= a + sigma(2(1+1/m) - a) = {7}",
)


def _alg_regime(n, p, m, s, a, sig):
    """Theorem 1.4(ii)'s regime for p > 1, on floats or elementwise: its
    four conditions, with a > 2(1+1/m) decided exactly, and the values
    their RegimeError texts quote (2(1+1/m) as the rounded quotient)."""
    a_low = 2.0 * (1.0 + 1.0 / m)
    room, cap = m * (a - 2.0), (n - 2.0) * s + n
    gap, window = 2.0 * p / (p - 1.0), a + sig * (a_low - a)
    return (((0.0 < sig) & (sig < 1.0), (_rate_floor(m) < a) & (a < n), room < cap, gap <= window),
            (sig, a_low, n, a, room, cap, gap, window))


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
    float64 cannot hold as normal doubles make the ledger infeasible
    ("float-range", NaN), and so does a sigma that underflows to 0, where
    c0 is undefined.
    """
    # floats raise where float64 cannot hold a power; numpy scalars only warn
    p, q, m, s = map(float, (exponents.p, exponents.q, exponents.m, exponents.s))
    lam, mu, alpha, beta, rate_a = map(float, (lam, mu, alpha, beta, rate_a))
    if p <= 1:
        raise RegimeError("exponential regime requires p > 1")
    sig = _sigma(p, q, m, s)
    if sig > 1:
        raise RegimeError(f"exponential regime requires sigma <= 1, got {sig}")
    if not (alpha > 0 and beta >= alpha):
        raise ValueError("need 0 < alpha <= beta")
    if not rate_a > 0:
        raise ValueError("source rate must be positive")
    if not (lam > 0 and mu > 0):
        raise ValueError("shifts must be positive in this regime")

    n_sq = float(dimension * dimension)
    b, constants, (c0,), checks, in_range = _exp_ledger_body(
        _FloatOps(), n_sq, p, q, m, s, lam, mu, alpha, beta, rate_a, sig)
    if not in_range:
        constants, c0 = (math.nan,) * 4, math.nan
    violated = _violated(checks, in_range)
    aux = {"c0": c0, "sigma": sig, "lambda": lam, "mu": mu, "alpha": alpha, "beta": beta}
    # positional: the fields are regime, the four constants, rate_u, rate_v, ...
    return ConstantsLedger(Regime.EXPONENTIAL, *constants, rate_a, b, aux, not violated, violated)


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
    A constant that overflows float64 or falls below its smallest normal
    double, a zero divisor or a base that rounds negative makes it
    infeasible ("float-range", NaN).
    """
    p, q, m, s = map(float, (exponents.p, exponents.q, exponents.m, exponents.s))
    alpha, beta, rate_a = map(float, (alpha, beta, rate_a))  # as in exp_regime_ledger
    if p <= 1:
        raise RegimeError("algebraic regime requires p > 1")
    sig = _sigma(p, q, m, s)
    holds, quoted = _alg_regime(dimension, p, m, s, rate_a, sig)
    if False in holds:
        raise RegimeError(_ALG_REGIME_TEXTS[holds.index(False)].format(*quoted))
    if not (alpha > 0 and beta >= alpha):
        raise ValueError("need 0 < alpha <= beta")

    b, constants, named, checks, in_range = _alg_ledger_body(
        _FloatOps(), float(dimension), p, q, m, s, alpha, beta, rate_a, sig)
    if not in_range:
        constants, named = (math.nan,) * 4, (math.nan,) * 6
    violated = _violated(checks, in_range)
    big_a, big_b, big_c, big_d, eps, delta = named
    aux = {"A": big_a, "B": big_b, "C": big_c, "D": big_d, "epsilon": eps, "delta": delta,
           "sigma": sig, "alpha": alpha, "beta": beta, "source_rate": rate_a}
    return ConstantsLedger(Regime.ALGEBRAIC, *constants, rate_a - 2.0, b, aux,
                           not violated, violated)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


class VerdictStatus(Enum):
    NONEXISTENCE = "nonexistence"
    EXISTENCE_GUARANTEED = "existence-guaranteed"
    UNKNOWN = "unknown"


#: Every (status value, tag or "") a verdict can carry, and the one that
#: each code of ``classify_many`` stands for.  Reports and region tables
#: are diffed on these exact strings.
VERDICT_CODES = (
    (VerdictStatus.NONEXISTENCE.value, "Theorem 1.1(i)"),
    (VerdictStatus.NONEXISTENCE.value, "Theorem 1.2(i)"),
    (VerdictStatus.NONEXISTENCE.value, "Theorem 1.4(i)"),
    (VerdictStatus.EXISTENCE_GUARANTEED.value, Regime.EXPONENTIAL.value),
    (VerdictStatus.EXISTENCE_GUARANTEED.value, Regime.ALGEBRAIC.value),
    (VerdictStatus.UNKNOWN.value, ""),
)


@dataclass
class Verdict:
    """Classification of a parameter point, with its justifying tag."""

    status: VerdictStatus
    tag: Optional[str]
    reason: str
    ledger: Optional[ConstantsLedger] = None
    advisories: list = dfield(default_factory=list)

    def __post_init__(self) -> None:
        if (self.status.value, self.tag or "") not in VERDICT_CODES:
            raise ValueError(f"invalid {self.status.value} tag {self.tag!r}")
        if self.status is VerdictStatus.EXISTENCE_GUARANTEED:
            if self.ledger is None or not self.ledger.feasible:
                raise ValueError("existence verdict requires a feasible ledger")


def _nonexistence_shifted(p):
    """Theorem 1.1(i): with positive shifts, no solution for p <= 1."""
    return p <= 1.0


@lru_cache(maxsize=None)
def _critical_exponents(n):
    """The largest doubles <= N/(N-2) and <= 2/(N-2) and the smallest
    double >= (N+2)/(N-2), by which ``classify`` and ``verify_solution``
    decide the critical exponents: a float x satisfies x <= N/(N-2) exactly
    iff it is at most the first, and x < (N+2)/(N-2) iff it is below the
    third.  The rounded quotients lie above N/(N-2) at N = 5, 9, 11, ...,
    above 2/(N-2) at N = 7, 12, ..., and below (N+2)/(N-2) at N = 9, 11, ...
    """
    a, b = float(n).as_integer_ratio()  # N = a/b exactly
    den = a - 2 * b
    return _ratio_floor(a, den), _ratio_floor(2 * b, den), -_ratio_floor(-a - 2 * b, den)


def _nonexistence_zero_shift(n, p, m, rate, matched):
    """Theorems 1.2(i) and 1.4(i) with zero shifts, on floats or
    elementwise: whether p <= N/(N-2) or m <= 2/(N-2), and whether the
    regime's algebraic envelope has rate a <= 2(1+1/m), each decided
    exactly, and those bounds as rounded quotients, for messages."""
    p_floor, m_floor, _ = _critical_exponents(n)
    p_crit, m_crit, a_low = n / (n - 2.0), 2.0 / (n - 2.0), 2.0 * (1.0 + 1.0 / m)
    return ((p <= p_floor) | (m <= m_floor), matched & (rate <= _rate_floor(m)),
            p_crit, m_crit, a_low)


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
    shifted = problem.lam > 0
    rho = problem.rho
    # the existence rules need a source envelope of the regime's family
    matched = rho.family is problem.family

    if shifted and _nonexistence_shifted(exponents.p):
        return _nonexistence(
            "Theorem 1.1(i)", "no positive solutions for 0 < p <= 1 with positive shifts.")
    if not shifted:
        rule2, rule3, p_crit, m_crit, a_low = _nonexistence_zero_shift(
            n, exponents.p, exponents.m, rho.rate, matched)
        if rule2:
            return _nonexistence("Theorem 1.2(i)", f"zero shifts with p <= N/(N-2) = {p_crit} "
                                 f"or m <= 2/(N-2) = {m_crit} admit no positive solutions.")
        if rule3:
            return _nonexistence("Theorem 1.4(i)", f"algebraic source rate a = {rho.rate} <= "
                                 f"2(1+1/m) = {a_low} forces a divergent representation.")

    if shifted and matched and sigma_index(exponents) <= 1.0:
        ledger = exp_regime_ledger(
            exponents, n, problem.lam, problem.mu, rho.alpha, rho.beta, rho.rate)
    elif not shifted and matched:
        try:
            ledger = alg_regime_ledger(exponents, n, rho.alpha, rho.beta, rho.rate)
        except RegimeError as exc:
            return _unknown(problem, exponents, f"algebraic regime not applicable: {exc}")
    else:
        return _unknown(problem, exponents, "no criterion applies")
    tag, kind = ledger.regime.value, ledger.regime.name.lower()
    if not ledger.feasible:
        return _unknown(problem, exponents, f"{kind} ledger infeasible: {ledger.violated}")
    return Verdict(VerdictStatus.EXISTENCE_GUARANTEED, tag,
                   f"{tag}: feasible {kind}-regime ledger; "
                   f"a solution with {kind} decay exists inside the sandwich.", ledger)


def _nonexistence(tag: str, detail: str) -> Verdict:
    return Verdict(VerdictStatus.NONEXISTENCE, tag, f"{tag}: {detail}")


def _unknown(problem: Problem, exponents: Exponents, detail: str) -> Verdict:
    advisories = []
    if problem.lam > 0 and exponents.p > 1:
        sig = sigma_index(exponents)
        if sig > 1.0:
            thresh = _FloatOps().power_or_inf(exponents.m / (exponents.s + 1.0), 2.0)
            thresh *= problem.lam
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


# ---------------------------------------------------------------------------
# classification of whole arrays of points
# ---------------------------------------------------------------------------

#: ``classify_many``'s code for a point it leaves to ``classify``.
DEFERRED = -1


def classify_many(dimension, family, p, q, m, s, lam, mu, alpha, beta, rate) -> np.ndarray:
    """``classify`` at every point of broadcast arrays, as one code per point.

    ``family`` is the source's envelope family, None for the zero source;
    ``alpha``, ``beta`` and ``rate`` are ignored for the zero source.
    Code k >= 0 stands for ``VERDICT_CODES[k]``, the status and tag that
    ``classify`` gives the same point: the rules, the regime and the
    ledger bodies are ``classify``'s own, evaluated elementwise with the
    same bits.  ``DEFERRED`` marks a point left to the scalar path,
    because ``Exponents``, ``SourceModel`` or ``Problem`` refuses it;
    every point is deferred when float64 cannot hold the dimension or its
    square exactly.
    """
    values = np.broadcast_arrays(
        *(np.asarray(x, dtype=float) for x in (p, q, m, s, lam, mu, alpha, beta, rate)))
    shape = values[0].shape
    p, q, m, s, lam, mu, alpha, beta, rate = (x.ravel() for x in values)
    try:
        n, n_sq = float(dimension), float(dimension * dimension)
    except OverflowError:
        n = n_sq = math.nan
    if not (dimension >= 3 and n == dimension and n_sq < math.inf):
        # Problem refuses the dimension, or float64 cannot carry it exactly
        return np.full(shape, DEFERRED, dtype=np.int8)

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        valid = (np.isfinite(p) & np.isfinite(q) & np.isfinite(m) & np.isfinite(s)
                 & (p > 0) & (q > 0) & (m > 0) & (s >= 0)
                 & np.isfinite(lam) & np.isfinite(mu) & (lam >= 0) & (mu >= 0)
                 & ((lam > 0) == (mu > 0)))
        if family is not None:
            valid &= (np.isfinite(alpha) & np.isfinite(beta) & np.isfinite(rate)
                      & (0.0 < alpha) & (alpha <= beta) & (rate > 0))
        shifted = lam > 0
        matched = shifted == (family is BarrierFamily.W) if family is not None else False
        sig = _sigma(p, q, m, s)
        rule1 = shifted & _nonexistence_shifted(p)
        rule2, rule3, *_ = _nonexistence_zero_shift(n, p, m, rate, matched)
        rule2, rule3 = ~shifted & rule2, ~shifted & rule3
        feasible = np.zeros(p.size, dtype=bool)

        at = np.flatnonzero(valid & shifted & matched & ~rule1 & (sig <= 1.0))
        *_, checks, in_range = _exp_ledger_body(_ArrayOps(), n_sq, *(
            x[at] for x in (p, q, m, s, lam, mu, alpha, beta, rate, sig)))
        feasible[at] = _feasible(checks, in_range)
        # inside alg_regime_ledger's regime (p > 1 where rule 2 fails);
        # outside it classify reads unknown
        inside = valid & ~shifted & matched & ~rule2 & ~rule3
        for holds in _alg_regime(n, p, m, s, rate, sig)[0]:
            inside &= holds
        at = np.flatnonzero(inside)
        *_, checks, in_range = _alg_ledger_body(_ArrayOps(), n, *(
            x[at] for x in (p, q, m, s, alpha, beta, rate, sig)))
        feasible[at] = _feasible(checks, in_range)

        codes = np.select(
            [~valid, rule1, rule2, rule3, feasible & shifted, feasible],
            [DEFERRED, 0, 1, 2, 3, 4], default=5)
    return codes.astype(np.int8).reshape(shape)
