import dataclasses
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmsteady.barriers import (
    DEFERRED,
    VERDICT_CODES,
    BarrierFamily,
    BarrierProfile,
    Exponents,
    Problem,
    Regime,
    SourceModel,
    Verdict,
    VerdictStatus,
    alg_regime_ledger,
    barrier_operator_factor,
    check_sandwich,
    classify,
    classify_many,
    eval_barrier,
    exp_regime_ledger,
    sigma_index,
)
from gmsteady.errors import RegimeError, UndefinedIndexError
from gmsteady.radial_core import RadialField, RadialGrid, apply_radial_laplacian


def test_eval_barrier_values():
    w1 = BarrierProfile(BarrierFamily.W, 1.0)
    assert eval_barrier(w1, 0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    z2 = BarrierProfile(BarrierFamily.Z, 2.0)
    assert eval_barrier(z2, 1.0) == pytest.approx(0.5, rel=1e-15)
    z0 = BarrierProfile(BarrierFamily.Z, 0.0)  # constant limit of the family
    assert eval_barrier(z0, 17.3) == 1.0
    with pytest.raises(ValueError):
        BarrierProfile(BarrierFamily.W, 0.0)


def test_operator_value_at_origin_hits_upper_bound():
    w = BarrierProfile(BarrierFamily.W, 1.0)
    assert barrier_operator_factor(w, 2.0, 0.0, 3) * eval_barrier(w, 0.0) == pytest.approx(
        5.0 * math.exp(-1.0), rel=1e-14
    )
    z = BarrierProfile(BarrierFamily.Z, 2.0)
    assert barrier_operator_factor(z, 0.0, 0.0, 5) * eval_barrier(z, 0.0) == pytest.approx(
        10.0, rel=1e-14)


def test_operator_far_field_limit():
    # ratio to the lower sandwich bound tends to 1; compare the operator
    # factors since the profile itself underflows at r = 1e3
    w = BarrierProfile(BarrierFamily.W, 1.0)
    factor = barrier_operator_factor(w, 2.0, 1e3, 3)
    assert factor / (2.0 - 1.0) == pytest.approx(1.0, abs=0.01)


def test_operator_matches_discrete_laplacian():
    # cross-check the closed forms against the independent FD operator
    grid = RadialGrid.uniform(6.0, 1201)
    for profile, shift, n in [
        (BarrierProfile(BarrierFamily.Z, 2.0), 0.0, 5),
        (BarrierProfile(BarrierFamily.W, 1.5), 2.0, 3),
    ]:
        vals = np.asarray(eval_barrier(profile, grid.nodes))
        lap = apply_radial_laplacian(RadialField(grid, vals), n).values
        closed = barrier_operator_factor(profile, shift, grid.nodes[:-1], n) * np.asarray(
            eval_barrier(profile, grid.nodes[:-1]))
        diff = np.abs(lap[:-1] + shift * vals[:-1] - closed)
        assert np.max(diff) <= 1e-3  # O(h^2) at h = 5e-3


def test_sandwich_holds_and_is_tight_at_zero():
    r = np.linspace(0.0, 100.0, 10001)
    ck = check_sandwich(BarrierProfile(BarrierFamily.W, 1.0), 2.0, 3, r)
    assert ck.ok and not ck.vacuous_lower
    assert ck.equality_at_zero <= 1e-12
    ck_z = check_sandwich(BarrierProfile(BarrierFamily.Z, 2.0), 0.0, 5, r)
    assert ck_z.ok and not ck_z.vacuous_lower
    assert ck_z.equality_at_zero <= 1e-12
    # lower Z margin tightens as r grows
    assert ck_z.lower_margin >= 0.0


@pytest.mark.parametrize("family, shift", [(BarrierFamily.W, 2.0), (BarrierFamily.Z, 0.0)])
def test_sandwich_at_one_radius(family, shift):
    # both families share one path, scalar radii included; a Z profile
    # takes no shift, as barrier_operator_factor refuses one
    ck = check_sandwich(BarrierProfile(family, 1.0), shift, 3, 0.0)
    assert ck.ok and ck.equality_at_zero == 0.0
    with pytest.raises(ValueError, match="shift"):
        check_sandwich(BarrierProfile(family, 1.0), -1.0 if family is BarrierFamily.W else 1.0,
                       3, 0.0)


def test_sandwich_vacuous_lower_flag():
    r = np.linspace(0.0, 50.0, 2001)
    ck = check_sandwich(BarrierProfile(BarrierFamily.Z, 4.0), 0.0, 5, r)
    assert ck.vacuous_lower  # a(N-a-2) = -4 < 0
    assert ck.ok


def test_sigma_values_and_errors():
    assert sigma_index(Exponents(2, 1, 2, 0)) == pytest.approx(2.0)
    assert sigma_index(Exponents(2, 1, 1, 0)) == pytest.approx(1.0)
    assert sigma_index(Exponents(5, 2, 2, 1)) == pytest.approx(0.5)
    with pytest.raises(UndefinedIndexError):
        sigma_index(Exponents(1.0, 1, 1, 0))
    with pytest.raises(UndefinedIndexError):
        sigma_index(Exponents(0.5, 1, 1, 0))


def test_exponents_validation():
    with pytest.raises(ValueError):
        Exponents(0.0, 1, 1, 0)
    with pytest.raises(ValueError):
        Exponents(2, 1, 1, -0.1)
    Exponents(2, 1, 1, 0.0)  # s = 0 is allowed


def test_exp_ledger_worked_example():
    ex = Exponents(2, 1, 1, 0)
    led = exp_regime_ledger(ex, 3, 4096.0, 16.0, 1.0, 2.0, 1.0)
    assert led.feasible
    assert led.m1_lower == pytest.approx(1.0 / 8192.0, rel=1e-12)
    assert led.m1_upper == pytest.approx(1.0 / 256.0, rel=1e-12)
    assert led.m2_lower == pytest.approx(1.0 / 262144.0, rel=1e-12)
    assert led.m2_upper == pytest.approx(1.0 / 2048.0, rel=1e-12)
    assert led.rate_v == pytest.approx(1.0, rel=1e-15)


def test_exp_ledger_identities_hold():
    ex = Exponents(2, 1, 1, 0)
    led = exp_regime_ledger(ex, 3, 4096.0, 16.0, 1.0, 2.0, 1.0)
    lam, mu, alpha = 4096.0, 16.0, 1.0
    p, q, m, s = 2, 1, 1, 0
    assert 2 * lam * led.m1_lower == pytest.approx(alpha, rel=1e-12)
    assert (lam / 4) * led.m1_upper == pytest.approx(
        led.m1_upper**p * led.m2_lower**-q, rel=1e-12
    )
    assert (mu / 2) * led.m2_upper == pytest.approx(
        led.m1_upper**m * led.m2_upper**-s, rel=1e-12
    )
    assert 2 * mu * led.m2_lower == pytest.approx(
        led.m1_lower**m * led.m2_lower**-s, rel=1e-12
    )


def test_exp_ledger_infeasible_cases():
    ex = Exponents(2, 1, 1, 0)
    led = exp_regime_ledger(ex, 3, 16.0, 16.0, 1.0, 2.0, 1.0)
    assert not led.feasible
    assert "m1-ordering" in led.violated
    led2 = exp_regime_ledger(ex, 3, 8.0, 16.0, 1.0, 2.0, 1.0)  # lam <= N^2
    assert not led2.feasible
    assert "lambda-threshold" in led2.violated


def test_exp_ledger_float_range_is_infeasible():
    # p near 1: M1_upper = ((lam/4) M2_lower^q)^(1/(p-1)) leaves the float
    # range while every threshold holds
    ex = Exponents(1.001, 0.0005, 1, 0)
    led = exp_regime_ledger(ex, 3, 4096.0, 16.0, 1.0, 2.0, 1.0)
    assert not led.feasible
    assert led.violated == ["float-range"]
    verdict = classify(Problem(3, 4096.0, 16.0, SourceModel.exp_envelope(1.0, 2.0, 1.0)), ex)
    assert verdict.status is VerdictStatus.UNKNOWN


# (N, family, point, ledger): points whose ledger or advisory float64 cannot
# evaluate; each reads unknown, with float-range where a ledger applies
_FLOAT_RANGE_POINTS = [
    # m q underflows, so sigma = 0 and c0's m / sigma divides by zero
    (3, BarrierFamily.W, (2.0, 1e-200, 1e-200, 0.0, 4096.0, 16.0, 1.0, 2.0, 1.0), True),
    # A^m overflows
    (3, BarrierFamily.Z, (1e5, 1.0, 1000.0, 0.0, 0.0, 0.0, 0.01, 0.015, 2.0021), True),
    # alpha^(m/(s+1)) overflows
    (5, BarrierFamily.Z, (5.0, 1.0, 4.0, 1.0, 0.0, 0.0, 1e300, 1e300, 3.5), True),
    # sigma > 1: the Theorem 1.1(ii) advisory squares m/(s+1) = 1e200
    (3, None, (2.0, 1e200, 1e200, 0.0, 4096.0, 16.0, 1.0, 2.0, 1.0), False),
    # the alg worked case's exponents: M1_lower = 1e-311 and M2_lower =
    # 4.5e-312 are subnormal
    (5, BarrierFamily.Z, (5.0, 2.0, 2.0, 1.0, 0.0, 0.0, 1e-310, 1.2e-310, 4.0), True),
    # the exp worked case's: M1_lower = 1.2e-309 and M2_lower = 3.8e-311
    (3, BarrierFamily.W, (2.0, 1.0, 1.0, 0.0, 4096.0, 16.0, 1e-305, 2e-305, 1.0), True),
]


@pytest.mark.parametrize("n, family, point, ledger", _FLOAT_RANGE_POINTS)
def test_float_range_points_read_unknown(n, family, point, ledger):
    p, q, m, s, lam, mu, alpha, beta, rate = point
    rho = SourceModel.zero() if family is None else SourceModel(family, alpha, beta, rate)
    verdict = classify(Problem(n, lam, mu, rho), Exponents(p, q, m, s))
    assert verdict.status is VerdictStatus.UNKNOWN
    if ledger:
        assert verdict.ledger is None or not verdict.ledger.feasible
        assert "float-range" in verdict.reason
    assert verdict.advisories == []
    # the array classifier reads the same verdict without the scalar path
    codes = classify_many(n, family, *np.array([point]).T)
    assert VERDICT_CODES[codes[0]] == ("unknown", "")


_WORKED_POINTS = [
    (3, BarrierFamily.W, (2.0, 1.0, 1.0, 0.0, 4096.0, 16.0, 1.0, 2.0, 1.0)),
    (5, BarrierFamily.Z, (5.0, 2.0, 2.0, 1.0, 0.0, 0.0, 0.01, 0.015, 4.0)),
]


@pytest.mark.parametrize("n, family, point",
                         [case[:3] for case in _FLOAT_RANGE_POINTS] + _WORKED_POINTS)
def test_classify_takes_numpy_scalars_as_floats(n, family, point):
    # numpy scalars warn where Python floats overflow to inf silently (at
    # (2, 1e200, 1e200, 0), sigma's m q and the Theorem 1.1(ii) threshold);
    # Exponents and Problem keep them as floats, so the verdict is the
    # floats' verdict and nothing warns
    def verdict(p, q, m, s, lam, mu, alpha, beta, rate):
        rho = SourceModel.zero() if family is None else SourceModel(family, alpha, beta, rate)
        return classify(Problem(n, lam, mu, rho), Exponents(p, q, m, s))

    expected = verdict(*point)
    as_numpy = np.array(point)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = verdict(*as_numpy)
        exponents, problem = Exponents(*as_numpy[:4]), Problem(n, *as_numpy[4:6], SourceModel.zero())
    assert repr(got) == repr(expected)
    assert {type(x) for x in (*dataclasses.astuple(exponents), problem.lam, problem.mu)} == {float}


def test_float_range_sweep_reads_unknown_where_only_float_range_fails():
    # the README's float-range sweep, -N 3 --mu 16 --q 0.0005 --m 1 --s 0
    # --rho exp --alpha 1 --beta 2 --rate 1 --sweep p=1.001:1.02:20
    # --sweep lam=16:4096:5: near p = 1, M1_upper = ((lam/4) M2_lower^q)^(1/(p-1))
    # overflows while every threshold, ordering and the budget hold, so
    # float-range is the only violation; elsewhere the ledger is feasible
    p, lam = (x.ravel() for x in np.meshgrid(np.linspace(1.001, 1.02, 20),
                                             np.linspace(16.0, 4096.0, 5), indexing="ij"))
    violated = [exp_regime_ledger(Exponents(pk, 0.0005, 1.0, 0.0), 3, lk, 16.0, 1.0, 2.0,
                                  1.0).violated for pk, lk in zip(p.tolist(), lam.tolist())]
    only_range = np.array([v == ["float-range"] for v in violated])
    assert only_range.sum() == 34
    assert all(v == [] for v, bad in zip(violated, only_range) if not bad)
    codes = classify_many(3, BarrierFamily.W, p, 0.0005, 1.0, 0.0, lam, 16.0, 1.0, 2.0, 1.0)
    assert [VERDICT_CODES[code] for code in codes.tolist()] == [
        ("unknown", "") if bad else ("existence-guaranteed", "Theorem 1.1(iii)")
        for bad in only_range]


def test_alg_ledger_underflowing_lower_barrier_reads_float_range():
    # alpha^(m/(s+1)) underflows, so M2_lower = 0 while the theorem's
    # conditions hold: a constant below the smallest normal double reads
    # float-range, as an overflowing one does
    point = (1e5, 3.7942141000975074, 11.78086015945043, 3.419350855590295,
             0.0, 0.0, 1.4955270482839752e-250, 5.832253967854931e-250, 2.169766890781369)
    p, q, m, s, lam, mu, alpha, beta, rate = point
    ledger = alg_regime_ledger(Exponents(p, q, m, s), 3, alpha, beta, rate)
    assert ledger.violated == ["float-range"]
    rho = SourceModel(BarrierFamily.Z, alpha, beta, rate)
    verdict = classify(Problem(3, lam, mu, rho), Exponents(p, q, m, s))
    assert verdict.status is VerdictStatus.UNKNOWN and "float-range" in verdict.reason
    codes = classify_many(3, BarrierFamily.Z, *np.array([point]).T)
    assert VERDICT_CODES[codes[0]] == ("unknown", "")


def test_alg_ledger_lists_alpha_upper_first():
    # beta ties alpha where alpha-upper and the beta window also fail
    ledger = alg_regime_ledger(Exponents(7.235471241191534, 1e-200, 11.771593718698877,
                                         10.376665540536226), 7, 1960142513057990.0,
                               1960142513057990.0, 4.0)
    assert ledger.violated == ["alpha-upper", "alpha-beta-order (boundary)", "beta-window"]


# (exponents, ledger arguments, violated): every named inequality of both
# ledgers at a tie, where it reads "name (boundary)", and beyond the tie,
# where it reads the bare name.  A tie is equality or a gap within 1e-14
# relative, on either side.  beta-budget is the one non-strict inequality:
# equality satisfies it, so it never reads "(boundary)".  beta >= alpha
# is an input check, so alpha-beta-order never reads the bare name.
# sigma = 1 at (2, 1, 1, 0), so there every exp constant is alpha times a
# power of 2 and the ties below are exact.
_EXP = Exponents(2, 1, 1, 0)
_ALG = Exponents(5, 2, 2, 1)
_ALG_EPS = 0.0447213595499958  # epsilon of the alg worked example (N = 5, a = 4)
_LABELLED_LEDGERS = [
    (_EXP, (3, 9.0, 16.0, 1.0, 2.0, 1.0),
     ["lambda-threshold (boundary)", "m1-ordering", "m2-ordering", "beta-budget"]),
    (_EXP, (3, 9.0 * (1.0 + 4e-15), 16.0, 1.0, 2.0, 1.0),
     ["lambda-threshold (boundary)", "m1-ordering", "m2-ordering", "beta-budget"]),
    (_EXP, (3, 8.9, 16.0, 1.0, 2.0, 1.0),
     ["lambda-threshold", "m1-ordering", "m2-ordering", "beta-budget"]),
    (_EXP, (3, 4096.0, 9.0, 1.0, 2.0, 1.0), ["mu-threshold (boundary)"]),
    (_EXP, (3, 4096.0, 8.99, 1.0, 2.0, 1.0), ["mu-threshold"]),
    (_EXP, (3, 4096.0, 512.0, 1.0, 1.0, 1.0), ["m1-ordering (boundary)", "beta-budget"]),
    (_EXP, (3, 4096.0, 1024.0, 1.0, 1.0, 1.0), ["m1-ordering", "beta-budget"]),
    (_EXP, (3, 4096.0, 2048.0, 1.0, 1.0, 1.0),
     ["m1-ordering", "m2-ordering (boundary)", "beta-budget"]),
    (_EXP, (3, 4096.0, 4096.0, 1.0, 1.0, 1.0), ["m1-ordering", "m2-ordering", "beta-budget"]),
    (_EXP, (3, 4096.0, 16.0, 1.0, 4.0, 1.0), []),  # (lam/4) M1_upper = beta
    (_EXP, (3, 4096.0, 16.0, 1.0, 4.000000000001, 1.0), ["beta-budget"]),
    # float-range takes the place of the checks on the constants
    (Exponents(1.001, 0.0005, 1, 0), (3, 4096.0, 9.0, 1.0, 2.0, 1.0),
     ["mu-threshold (boundary)", "float-range"]),
    (Exponents(1.001, 0.0005, 1, 0), (3, 4096.0, 8.0, 1.0, 2.0, 1.0),
     ["mu-threshold", "float-range"]),
    # sigma = 1e-10: only c0 = (K/(4 beta))^(m/sigma) overflows
    (Exponents(2, 1e-10, 1, 0), (3, 4096.0, 16.0, 1e-3, 1e-3, 1.0), ["float-range"]),
    (_ALG, (5, _ALG_EPS, _ALG_EPS, 4.0),
     ["alpha-upper (boundary)", "alpha-beta-order (boundary)", "beta-window (boundary)"]),
    (_ALG, (5, 0.05, 0.05 * (1.0 + 1e-12), 4.0), ["alpha-upper", "beta-window"]),
    (_ALG, (5, 0.01, 0.01, 4.0), ["alpha-beta-order (boundary)"]),
    (_ALG, (5, 0.01, 0.01 * (1.0 + 4e-15), 4.0), ["alpha-beta-order (boundary)"]),
    (_ALG, (5, 0.01, 0.015, 4.0), []),
    (_ALG, (5, 0.01, 0.021147425268811287, 4.0), ["beta-window (boundary)"]),
    (_ALG, (5, _ALG_EPS * (1.0 - 1e-12), _ALG_EPS, 4.0), ["beta-window"]),
    (Exponents(5.0, 1.0, 4.0, 1.0), (5, 1e300, 1e300, 3.5),
     ["float-range", "alpha-beta-order (boundary)"]),
]


@pytest.mark.parametrize("exponents, args, violated", _LABELLED_LEDGERS)
def test_ledgers_label_each_inequality(exponents, args, violated):
    ledger = (exp_regime_ledger if len(args) == 6 else alg_regime_ledger)(exponents, *args)
    assert ledger.violated == violated
    assert ledger.feasible == (not violated)


def test_ledgers_take_numpy_scalars_as_floats():
    # numpy scalars warn and give inf or nan where Python floats raise;
    # the ledgers take their operands as floats, so a point read from an
    # array flags float-range as the same point given as floats does
    points = [
        (exp_regime_ledger, Exponents(1.001, 0.0005, 1.0, 0.0), (3, 4096.0, 16.0, 1.0, 2.0, 1.0)),
        (alg_regime_ledger, Exponents(1e5, 1.0, 1000.0, 0.0), (3, 0.01, 0.015, 2.0021)),
        (alg_regime_ledger, Exponents(5.0, 1.0, 4.0, 1.0), (5, 1e300, 1e300, 3.5)),
        (exp_regime_ledger, Exponents(2.0, 1.0, 1.0, 0.0), (3, 4096.0, 16.0, 1.0, 2.0, 1.0)),
        (alg_regime_ledger, Exponents(5.0, 2.0, 2.0, 1.0), (5, 0.01, 0.015, 4.0)),
    ]
    for ledger, exponents, args in points:
        expected = ledger(exponents, *args)
        as_numpy = Exponents(*np.array(dataclasses.astuple(exponents)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ledger(as_numpy, np.int64(args[0]), *np.array(args[1:]))
        assert repr(got) == repr(expected)
    assert [ledger(e, *args).violated[0] for ledger, e, args in points[:3]] == ["float-range"] * 3


# (base, exponent): Python's float power overflows, divides by zero or
# turns complex, or gives a plain float
_POWERS = [(1e300, 2.0), (0.0, -1.0), (-8.0, 1.0 / 3.0), (8.0, 1.0 / 3.0), (1e-300, 2.0)]


def test_ledger_primitives_flag_what_float_arithmetic_raises():
    from gmsteady.barriers import _ArrayOps, _FloatOps

    bases, exponents = np.array(_POWERS).T
    for name, overflow_in_range in (("power", False), ("power_or_inf", True)):
        arrays = _ArrayOps()
        values = getattr(arrays, name)(bases, exponents)
        for i, (base, exponent) in enumerate(_POWERS):
            floats = _FloatOps()
            value = getattr(floats, name)(base, exponent)
            assert floats.in_range == arrays.in_range[i] == (i > 2 or (i == 0 and overflow_in_range))
            assert value == values[i] or math.isnan(value) and math.isnan(values[i])
        assert values[0] == math.inf and values[3] == 8.0 ** (1.0 / 3.0) and values[4] == 0.0
    floats, arrays = _FloatOps(), _ArrayOps()
    assert math.isnan(floats.divide(1.0, 0.0)) and not floats.in_range
    with np.errstate(divide="ignore"):  # classify_many runs the primitives under errstate
        arrays.divide(np.ones(2), np.array([0.0, 2.0]))
    assert arrays.in_range.tolist() == [False, True]


def _python_powers(bases, exponents):
    """Python's float ** of each pair, inf where it overflows."""
    values = []
    for x, y in zip(bases.tolist(), exponents.tolist()):
        try:
            values.append(x**y)
        except OverflowError:
            values.append(math.inf)
    return np.array(values)


def test_array_powers_are_pythons_float_powers():
    # _ArrayOps.power rests on np.float_power calling the C library's pow,
    # as Python's float ** does, so the two agree bit for bit; numpy's
    # np.power may not (on an AVX-512 host it is an ulp off on 1339 of
    # these 40k pairs).  How a mixed array flags its overflow, zero
    # divisor and complex power is the test above.
    from gmsteady.barriers import _ArrayOps

    rng = np.random.default_rng(20261019)
    k = 20000
    # the ledgers' ranges: bases from 1e-300 to 1e300 with exponents up
    # to 3 in size, and exponents from 1.1 to 1e4 in size whose results
    # are subnormal or just below overflow (bases within 1e-288 to 1e288)
    wide = 10.0 ** rng.uniform(-300.0, 300.0, k), rng.uniform(-3.0, 3.0, k)
    large = rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(0.05, 4.0, k)
    logs = np.concatenate([rng.uniform(-744.0, -708.4, k // 2), rng.uniform(700.0, 709.78, k // 2)])
    steep = np.exp(logs / large), large
    for bases, exponents in (wide, steep):
        expected = _python_powers(bases, exponents)
        ops = _ArrayOps()
        values = ops.power(bases, exponents)
        assert values.view(np.int64).tolist() == expected.view(np.int64).tolist()
        assert np.array_equal(np.broadcast_to(ops.in_range, k), np.isfinite(expected))
    subnormal = (0.0 < expected) & (expected < 2.2250738585072014e-308)
    assert np.count_nonzero(subnormal) > 1000
    assert np.count_nonzero((1e307 < expected) & (expected < math.inf)) > 1000


def test_strict_primitive_is_the_same_on_floats_and_arrays():
    from gmsteady.barriers import _ArrayOps, _FloatOps

    tie = 9.0 * (1.0 + 4e-15)
    pairs = [(9.0, 9.0), (tie, 9.0), (9.0, tie), (9.1, 9.0), (8.9, 9.0), (math.nan, 1.0),
             (1.0, math.nan), (math.inf, math.inf), (math.inf, 1.0), (1e-310, 0.0), (0.0, 0.0),
             (-1.0, -1.0 - 1e-15), (-math.inf, 0.0)]
    with np.errstate(invalid="ignore"):
        holds, ties = _ArrayOps.strict(*np.array(pairs).T)
    assert [_FloatOps.strict(lhs, rhs) for lhs, rhs in pairs] == list(zip(holds, ties))
    assert ties.tolist()[:3] == [True, True, True] and not ties[3] and not ties[4]


def test_exp_ledger_regime_errors():
    with pytest.raises(RegimeError):
        exp_regime_ledger(Exponents(2, 1, 2, 0), 3, 4096.0, 16.0, 1.0, 2.0, 1.0)  # sigma 2
    with pytest.raises(RegimeError):
        exp_regime_ledger(Exponents(1.0, 1, 1, 0), 3, 4096.0, 16.0, 1.0, 2.0, 1.0)


def test_exp_ledger_budget_constant():
    # feasibility of the source budget is equivalent to mu <= c0 lam^(p(s+1)/q - m)
    ex = Exponents(2, 1, 1, 0)
    led = exp_regime_ledger(ex, 3, 4096.0, 16.0, 1.0, 2.0, 1.0)
    c0 = led.aux["c0"]
    expo = ex.p * (ex.s + 1) / ex.q - ex.m
    assert expo > 0
    assert 16.0 <= c0 * 4096.0**expo


def test_alg_ledger_worked_example():
    ex = Exponents(5, 2, 2, 1)
    led = alg_regime_ledger(ex, 5, 0.01, 0.015, 4.0)
    assert led.feasible
    assert led.aux["A"] == pytest.approx(0.1, rel=1e-12)
    assert led.aux["B"] == pytest.approx(1.0 / math.sqrt(500.0), rel=1e-12)
    assert led.aux["C"] == pytest.approx((1.0 / 500.0) ** 0.25, rel=1e-12)
    assert led.aux["D"] == pytest.approx((1.0 / 500.0) ** 0.25 / math.sqrt(2.0), rel=1e-12)
    assert led.aux["delta"] == pytest.approx(led.aux["C"], rel=1e-12)
    assert led.aux["epsilon"] == pytest.approx(led.aux["C"] ** 2, rel=1e-12)
    assert led.m1_lower == pytest.approx(0.001, rel=1e-12)
    assert led.m1_upper == pytest.approx(led.aux["C"] * 0.1, rel=1e-12)
    assert led.m2_lower == pytest.approx(led.aux["B"] * 0.01, rel=1e-12)
    assert led.m2_upper == pytest.approx(led.aux["D"] * 0.1, rel=1e-12)
    assert led.rate_u == pytest.approx(2.0) and led.rate_v == pytest.approx(1.0)


def test_alg_ledger_identities_hold():
    ex = Exponents(5, 2, 2, 1)
    led = alg_regime_ledger(ex, 5, 0.01, 0.015, 4.0)
    a, n, alpha = 4.0, 5, 0.01
    b = led.rate_v
    p, q, m, s = 5, 2, 2, 1
    assert (a - 2) * n * led.m1_lower == pytest.approx(alpha, rel=1e-12)
    assert (a - 2) * (n - a) / 2 * led.m1_upper == pytest.approx(
        led.m1_upper**p * led.m2_lower**-q, rel=1e-12
    )
    assert b * (n - b - 2) * led.m2_upper == pytest.approx(
        led.m1_upper**m * led.m2_upper**-s, rel=1e-12
    )
    assert b * n * led.m2_lower == pytest.approx(
        led.m1_lower**m * led.m2_lower**-s, rel=1e-12
    )


def test_alg_ledger_window_violation():
    ex = Exponents(5, 2, 2, 1)
    led = alg_regime_ledger(ex, 5, 0.01, 0.05, 4.0)
    assert not led.feasible
    assert "beta-window" in led.violated


def test_alg_ledger_regime_errors():
    ex = Exponents(5, 2, 2, 1)
    with pytest.raises(RegimeError):
        alg_regime_ledger(ex, 5, 0.01, 0.015, 3.0)  # a = 2(1+1/m) boundary
    with pytest.raises(RegimeError):
        alg_regime_ledger(ex, 5, 0.01, 0.015, 5.0)  # a = N
    with pytest.raises(RegimeError):
        alg_regime_ledger(Exponents(2, 1, 1, 0), 5, 0.01, 0.015, 4.0)  # sigma = 1
    with pytest.raises(RegimeError):
        # m(a-2) >= (N-2)s + N
        alg_regime_ledger(Exponents(9, 0.5, 4.0, 0.1), 5, 0.001, 0.002, 4.2)


def test_source_model_validation():
    with pytest.raises(ValueError):
        SourceModel.exp_envelope(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        SourceModel.exp_envelope(2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        SourceModel.exp_envelope(1.0, 2.0, 1.0, amplitude=3.0)
    src = SourceModel.exp_envelope(1.0, 2.0, 1.0)
    assert src.amplitude() == pytest.approx(1.5)
    vals = src.evaluate(np.array([0.0, 1.0]))
    assert vals[0] == pytest.approx(1.5 * math.exp(-1.0))
    zero = SourceModel.zero()
    assert np.all(zero.evaluate(np.array([0.0, 2.0])) == 0.0)
    # a source is zero or an envelope with a float amplitude
    with pytest.raises(ValueError, match="no amplitude"):
        SourceModel(profile=1.5)
    with pytest.raises(ValueError, match="alpha = beta = 0"):
        SourceModel(alpha=1.0, beta=2.0)
    grid = RadialGrid.uniform(2.0, 17)
    with pytest.raises(ValueError, match="amplitude must be a float"):
        SourceModel.exp_envelope(1.0, 2.0, 1.0, RadialField(grid, np.ones(grid.n)))


def test_source_model_family():
    assert SourceModel.exp_envelope(1.0, 2.0, 1.0).family is BarrierFamily.W
    alg = SourceModel.alg_envelope(1.0, 2.0, 3.0)
    assert alg.family is BarrierFamily.Z and not alg.is_zero
    assert alg.envelope_profile == BarrierProfile(BarrierFamily.Z, 3.0)
    zero = SourceModel.zero()
    assert zero.family is None and zero.is_zero and zero.envelope_profile is None


def test_problem_validation():
    with pytest.raises(ValueError):
        Problem(3, 1.0, 0.0, SourceModel.zero())  # mixed shift signs
    with pytest.raises(ValueError):
        Problem(2, 0.0, 0.0, SourceModel.zero())


def test_classify_nonexistence_rules():
    v = classify(Problem(3, 1.0, 1.0, SourceModel.zero()), Exponents(1.0, 1, 1, 1))
    assert v.status is VerdictStatus.NONEXISTENCE and v.tag == "Theorem 1.1(i)"

    v = classify(Problem(3, 0.0, 0.0, SourceModel.zero()), Exponents(3.0, 1, 5, 1))
    assert v.status is VerdictStatus.NONEXISTENCE and v.tag == "Theorem 1.2(i)"

    v = classify(
        Problem(5, 0.0, 0.0, SourceModel.alg_envelope(0.1, 0.2, 2.5)),
        Exponents(5, 2, 2, 1),
    )
    assert v.status is VerdictStatus.NONEXISTENCE and v.tag == "Theorem 1.4(i)"


def _largest_double_at_most(bound: Fraction) -> float:
    x = float(bound)
    while Fraction(x) > bound:
        x = math.nextafter(x, -math.inf)
    assert Fraction(math.nextafter(x, math.inf)) > bound
    return x


# rule 2 is decided on the exact quotients: the rounded n / (n - 2.0) lies
# above N/(N-2) at N = 5, 9, 11, ..., and 2.0 / (n - 2.0) above 2/(N-2) at
# N = 7, 12, ..., so a point on the rounded quotient is strictly beyond
@pytest.mark.parametrize("n", range(3, 41))
def test_rule_2_thresholds_are_the_exact_quotients(n):
    p_at = _largest_double_at_most(Fraction(n, n - 2))
    m_at = _largest_double_at_most(Fraction(2, n - 2))
    up = lambda x: math.nextafter(x, math.inf)
    # (p, m, whether rule 2 holds); p = 10 and m = 10 lie beyond both bounds
    points = [(p_at, 10.0, True), (up(p_at), 10.0, False),
              (10.0, m_at, True), (10.0, up(m_at), False)]
    problem = Problem(n, 0.0, 0.0, SourceModel.zero())
    codes = classify_many(n, None, [p for p, _, _ in points], 1.0, [m for _, m, _ in points],
                          0.0, 0.0, 0.0, 1.0, 2.0, 1.0)
    rule_2 = VERDICT_CODES.index((VerdictStatus.NONEXISTENCE.value, "Theorem 1.2(i)"))
    for (p, m, holds), code in zip(points, codes):
        verdict = classify(problem, Exponents(p, 1.0, m, 0.0))
        assert (verdict.tag == "Theorem 1.2(i)") is holds, (n, p, m)
        assert (int(code) == rule_2) is holds, (n, p, m)
        if holds:  # the message quotes the rounded quotients
            assert f"N/(N-2) = {n / (n - 2.0)} " in verdict.reason
            assert f"2/(N-2) = {2.0 / (n - 2.0)} " in verdict.reason


def _quotient_rounds_up(m):
    return Fraction(2.0 * (1.0 + 1.0 / m)) > 2 * (1 + 1 / Fraction(m))


# rule 3 and the algebraic regime decide a <= 2(1+1/m) on the exact bound:
# the rounded 2.0 * (1.0 + 1.0 / m) lies above it at m = 0.3, 0.7, 1.1,
# 1.2, 6, ..., so a rate on the rounded quotient is strictly beyond
def test_rule_3_threshold_is_the_exact_bound():
    rng = np.random.default_rng(27)
    seeded = [m for m in rng.uniform(0.25, 8.0, 200).tolist() if _quotient_rounds_up(m)]
    ms = [0.3, 0.7, 1.1, 1.2, 1.7, 6.0] + seeded[:30]
    assert all(map(_quotient_rounds_up, ms)) and len(ms) == 36
    # at N = 12, p = 12 and m > 0.25 rule 2 fails and every bound lies below N
    n, p, q, s, alpha, beta = 12, 12.0, 0.5, 1.0, 0.01, 0.015
    rule_3 = VERDICT_CODES.index((VerdictStatus.NONEXISTENCE.value, "Theorem 1.4(i)"))
    for m in ms:
        quotient = 2.0 * (1.0 + 1.0 / m)
        at = _largest_double_at_most(2 * (1 + 1 / Fraction(m)))
        assert at < quotient
        codes = classify_many(n, BarrierFamily.Z, p, q, m, s, 0.0, 0.0, alpha, beta,
                              [at, quotient])
        for rate, code in zip((at, quotient), codes.tolist()):
            rho = SourceModel.alg_envelope(alpha, beta, rate)
            verdict = classify(Problem(n, 0.0, 0.0, rho), Exponents(p, q, m, s))
            assert VERDICT_CODES[code] == (verdict.status.value, verdict.tag or ""), (m, rate)
            assert (code == rule_3) is (rate == at), (m, rate)
            if rate == at:  # the message quotes the rounded quotient
                assert f"2(1+1/m) = {quotient} " in verdict.reason
    # the double m = 1.2 puts 2(1+1/m) below the rate 3.666666666666667
    rho = SourceModel.alg_envelope(0.01, 0.015, 3.666666666666667)
    verdict = classify(Problem(5, 0.0, 0.0, rho), Exponents(5.0, 2.0, 1.2, 1.0))
    assert verdict.tag != "Theorem 1.4(i)"


# Zero shifts: the potential of a source of rate a decays like
# r^(2 - min(a, N)), so the representation of v diverges iff
# m (min(a, N) - 2) <= 2; rule 3 decides a < N, rule 2's m <= 2/(N-2)
# decides a >= N and every exponential source
@pytest.mark.parametrize("n, rho, exponents, tag", [
    # m(a-2) = 2: the tie a = 2(1+1/m) is nonexistence
    (3, SourceModel.alg_envelope(1.0, 1.0, 8.0 / 3.0), Exponents(4, 1, 3, 1), "Theorem 1.4(i)"),
    # a = 5 > N: m = 1 <= 2/(N-2)
    (3, SourceModel.alg_envelope(1.0, 1.0, 5.0), Exponents(4, 1, 1, 1), "Theorem 1.2(i)"),
    # the alg worked case: m(a-2) = 4
    (5, SourceModel.alg_envelope(0.01, 0.015, 4.0), Exponents(5, 2, 2, 1), None),
    (3, SourceModel.exp_envelope(1.0, 1.0, 1.0), Exponents(4, 1, 2, 1), "Theorem 1.2(i)"),
    (3, SourceModel.exp_envelope(1.0, 1.0, 1.0), Exponents(4, 1, 3, 1), None),
])
def test_classify_divergent_representation_rules(n, rho, exponents, tag):
    v = classify(Problem(n, 0.0, 0.0, rho), exponents)
    if tag is None:
        assert v.status is not VerdictStatus.NONEXISTENCE
    else:
        assert v.status is VerdictStatus.NONEXISTENCE and v.tag == tag


def test_classify_existence_rules():
    v = classify(
        Problem(3, 4096.0, 16.0, SourceModel.exp_envelope(1.0, 2.0, 1.0)),
        Exponents(2, 1, 1, 0),
    )
    assert v.status is VerdictStatus.EXISTENCE_GUARANTEED and v.tag == "Theorem 1.1(iii)"
    assert v.ledger is not None and v.ledger.feasible
    assert v.ledger.regime is Regime.EXPONENTIAL

    v = classify(
        Problem(5, 0.0, 0.0, SourceModel.alg_envelope(0.01, 0.015, 4.0)),
        Exponents(5, 2, 2, 1),
    )
    assert v.status is VerdictStatus.EXISTENCE_GUARANTEED and v.tag == "Theorem 1.4(ii)"


def test_verdict_refuses_what_verdict_codes_does_not_hold():
    ledger = classify(Problem(3, 4096.0, 16.0, SourceModel.exp_envelope(1.0, 2.0, 1.0)),
                      Exponents(2, 1, 1, 0)).ledger
    for status, tag in VERDICT_CODES:
        Verdict(VerdictStatus(status), tag or None, "", ledger)
    for status, tag in [(VerdictStatus.NONEXISTENCE, "Theorem 1.1(ii)"),
                        (VerdictStatus.NONEXISTENCE, None),
                        (VerdictStatus.UNKNOWN, "Theorem 1.1(i)"),
                        (VerdictStatus.EXISTENCE_GUARANTEED, "Theorem 1.2(i)")]:
        with pytest.raises(ValueError, match="invalid"):
            Verdict(status, tag, "", ledger)
    for without in (None, dataclasses.replace(ledger, feasible=False)):
        with pytest.raises(ValueError, match="feasible ledger"):
            Verdict(VerdictStatus.EXISTENCE_GUARANTEED, "Theorem 1.1(iii)", "", without)


def test_classify_unknown_and_advisory():
    # sigma > 1 with mu above the advisory threshold: unknown with a note
    v = classify(
        Problem(3, 1.0, 100.0, SourceModel.exp_envelope(1.0, 2.0, 1.0)),
        Exponents(2, 1, 2, 0),
    )
    assert v.status is VerdictStatus.UNKNOWN
    assert any("Theorem 1.1(ii)" in a for a in v.advisories)

    # priority: nonexistence rule 2 beats any would-be ledger
    v = classify(
        Problem(5, 0.0, 0.0, SourceModel.alg_envelope(0.01, 0.015, 4.0)),
        Exponents(5, 2, 0.5, 1),
    )
    assert v.status is VerdictStatus.NONEXISTENCE  # m <= 2/(N-2) fails first


@pytest.mark.parametrize("mu, advised", [
    (1.0, False),
    (1.0000000000000002, True),
    (1.0000000000000004, True),
])
def test_theorem_1_1_ii_advisory_compares_exactly(mu, advised):
    # (m/(s+1))^2 lambda with m = 0.1 and lambda = 100 is 1 + 1.1e-16
    # exactly, between the first two doubles of mu; rounded, it reads as
    # the second, which then drew no advisory
    exponents = Exponents(2.0, 20.0, 0.1, 0.0)
    exact = (Fraction(exponents.m) / (Fraction(exponents.s) + 1)) ** 2 * 100
    assert (Fraction(mu) > exact) is advised
    v = classify(Problem(3, 100.0, mu, SourceModel.zero()), exponents)
    assert v.status is VerdictStatus.UNKNOWN
    assert v.advisories == ([
        "Theorem 1.1(ii): no solution with exponentially decaying u "
        "(sigma = 2.0 > 1 and mu > (m/(s+1))^2 lambda = 1.0000000000000002)"] if advised else [])


@pytest.mark.parametrize("problem, exponents", [
    # the alg worked case with an exp envelope at zero shifts
    (Problem(5, 0.0, 0.0, SourceModel.exp_envelope(0.01, 0.015, 4.0)), Exponents(5, 2, 2, 1)),
    # the README exp point with an alg envelope
    (Problem(3, 4096.0, 16.0, SourceModel.alg_envelope(1.0, 2.0, 1.0)), Exponents(2, 1, 1, 0)),
])
def test_classify_source_of_the_other_family_is_unknown(problem, exponents):
    v = classify(problem, exponents)
    assert v.status is VerdictStatus.UNKNOWN and v.reason == "unknown: no criterion applies"
    assert v.ledger is None and v.advisories == []


def test_classify_deterministic_and_total(rng):
    for _ in range(200):
        n = int(rng.integers(3, 7))
        shifted = bool(rng.integers(0, 2))
        lam = float(rng.uniform(0.1, 5000.0)) if shifted else 0.0
        mu = float(rng.uniform(0.1, 5000.0)) if shifted else 0.0
        kind = rng.integers(0, 3)
        if kind == 0:
            rho = SourceModel.zero()
        elif kind == 1:
            rho = SourceModel.exp_envelope(1.0, 2.0, float(rng.uniform(0.2, 3.0)))
        else:
            rho = SourceModel.alg_envelope(
                float(rng.uniform(0.001, 0.05)), float(rng.uniform(0.05, 0.2)),
                float(rng.uniform(0.5, 6.0))
            )
        ex = Exponents(
            float(rng.uniform(0.2, 6.0)), float(rng.uniform(0.2, 3.0)),
            float(rng.uniform(0.2, 4.0)), float(rng.uniform(0.0, 2.0)),
        )
        problem = Problem(n, lam, mu, rho)
        v1 = classify(problem, ex)
        v2 = classify(problem, ex)
        assert v1.status == v2.status and v1.tag == v2.tag


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_inputs_rejected(bad):
    for i in range(4):
        values = [2.0, 1.0, 1.0, 0.5]
        values[i] = bad
        with pytest.raises(ValueError, match="finite"):
            Exponents(*values)
    for i in range(3):
        values = [1.0, 2.0, 1.0]
        values[i] = bad
        with pytest.raises(ValueError, match="finite"):
            SourceModel.exp_envelope(*values)
        with pytest.raises(ValueError, match="finite"):
            SourceModel.alg_envelope(*values)
    with pytest.raises(ValueError, match="finite"):
        SourceModel.exp_envelope(1.0, 2.0, 1.0, amplitude=bad)
    src = SourceModel.exp_envelope(1.0, 2.0, 1.0)
    with pytest.raises(ValueError, match="finite"):
        Problem(3, bad, 16.0, src)
    with pytest.raises(ValueError, match="finite"):
        Problem(3, 16.0, bad, src)


def test_alg_ledger_near_sigma_one_does_not_overflow():
    # sigma = 4 / (2 (p - 1)) -> 1 as p -> 3: two alpha bounds exceed
    # the float range, and an overflowing bound never binds
    ex = Exponents(3.0001, 2.0, 2.0, 1.0)
    ledger = alg_regime_ledger(ex, 5, 0.01, 0.015, 3.05)
    assert "alpha-upper (boundary)" not in ledger.violated
    problem = Problem(5, 0.0, 0.0, SourceModel.alg_envelope(0.01, 0.015, 3.05))
    assert classify(problem, ex).status is VerdictStatus.UNKNOWN
    for p in np.linspace(2.99, 3.01, 41):
        for a in np.linspace(3.0, 5.0, 21):
            problem = Problem(5, 0.0, 0.0, SourceModel.alg_envelope(0.01, 0.015, float(a)))
            classify(problem, Exponents(float(p), 2.0, 2.0, 1.0))
    # sigma = 1 - 3.3e-5 here: all three alpha bounds overflow, so
    # epsilon is inf and bounds nothing, while the four constants stay finite
    ex = Exponents(1.454301091668461, 3.799950782391188, 0.34392977928354646, 1.876857468403601)
    ledger = alg_regime_ledger(ex, 8, 0.01, 0.015, 7.879799343259501)
    assert ledger.aux["epsilon"] == math.inf
    assert ledger.feasible and ledger.violated == []


# ---------------------------------------------------------------------------
# classify_many against classify, point for point
# ---------------------------------------------------------------------------

_NAMES = ("p", "q", "m", "s", "lam", "mu", "alpha", "beta", "rate")


def _scalar_label(n, family, point):
    """classify's (status value, tag or "") at one point, or None where
    building the point or classifying it raises."""
    p, q, m, s, lam, mu, alpha, beta, rate = point
    try:
        rho = SourceModel.zero() if family is None else SourceModel(family, alpha, beta, rate)
        verdict = classify(Problem(n, lam, mu, rho), Exponents(p, q, m, s))
    except (ValueError, ArithmeticError, TypeError):
        return None
    return verdict.status.value, verdict.tag or ""


def _assert_matches_classify(n, family, points, fixed=()):
    """classify_many's code at every point names classify's label, and it
    defers exactly the points where the scalar path raises.  The inputs
    named in ``fixed`` are the same at every point; passed as one Python
    float each, they give the codes of the all-array call."""
    columns = np.array(points, dtype=float).T
    codes = classify_many(n, family, *columns)
    assert codes.shape == (len(points),)
    if fixed:
        mixed = classify_many(n, family, *(
            float(x[0]) if name in fixed else x for name, x in zip(_NAMES, columns)))
        assert mixed.shape == (() if len(fixed) == len(_NAMES) else codes.shape)
        assert np.array_equal(np.broadcast_to(mixed, codes.shape), codes)
    for point, code in zip(points, codes.tolist()):
        got = None if code == DEFERRED else VERDICT_CODES[code]
        assert got == _scalar_label(n, family, point), (n, family, dict(zip(_NAMES, point)))
    return codes


@st.composite
def _points(draw, n, shifted):
    """One point, often on a boundary of classify's rules or ledgers."""
    p = draw(st.floats(0.2, 12.0) | st.sampled_from([1.0, 1.037, n / (n - 2.0), 5.0, 1e5]))
    q = draw(st.floats(1e-3, 8.0) | st.sampled_from([0.0178, 1.0, 1e-200, 1e200]))
    m = draw(st.floats(1e-2, 20.0) | st.sampled_from([1.0, 2.463, 1000.0, 1e-200, 1e200]))
    s = draw(st.floats(0.0, 40.0) | st.sampled_from([0.0, 0.8182]))
    if p > 1.0 and draw(st.booleans()):
        q = (p - 1.0) * (s + 1.0) / m  # sigma = 1, to rounding
    a_low = 2.0 * (1.0 + 1.0 / m)
    rate = draw(st.floats(0.1, 9.0) | st.sampled_from(
        [a_low, math.nextafter(a_low, math.inf), 2.758, 4.0, float(n), 2.0021]))
    alpha = draw(st.floats(1e-300, 1e300) | st.sampled_from([1.0, 0.01, -1.0, math.nan]))
    beta = alpha if draw(st.booleans()) else alpha * draw(st.floats(1.0, 4.0))
    lam = mu = 0.0
    if shifted:
        b = rate * m / (s + 1.0)
        lam = draw(st.floats(1e-3, 1e300) | st.sampled_from(
            [max(2.0 * rate * rate, float(n * n)), 4096.0, 5.851e7, 1e300]))
        mu = draw(st.floats(1e-3, 1e300) | st.sampled_from(
            [max(2.0 * b * b, float(n * n)), 16.0, 0.001139, 0.0]))
    return p, q, m, s, lam, mu, alpha, beta, rate


@st.composite
def _lattices(draw):
    n = draw(st.integers(3, 7))
    family = draw(st.sampled_from([None, BarrierFamily.W, BarrierFamily.Z]))
    points = draw(st.lists(_points(n, draw(st.booleans())), min_size=1, max_size=12))
    return n, family, points


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(_lattices())
def test_classify_many_matches_classify(lattice):
    _assert_matches_classify(*lattice)


# fixed values whose ledger powers overflow, underflow or divide by zero
_HOSTILE_FIXED = {"lam": (1e300,), "mu": (0.0,), "m": (1e200,), "alpha": (1e-300, 1e300)}


@st.composite
def _lattices_with_fixed(draw):
    """A drawn lattice whose inputs named in a drawn set are the same at
    every point: the first point's value or a hostile one."""
    n, family, points = draw(_lattices())
    fixed = draw(st.sets(st.sampled_from(_NAMES)))
    columns = dict(zip(_NAMES, zip(*points)))
    for name in fixed:
        value = draw(st.sampled_from([columns[name][0], *_HOSTILE_FIXED.get(name, ())]))
        columns[name] = (value,) * len(points)
    return n, family, list(zip(*columns.values())), fixed


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(_lattices_with_fixed())
def test_classify_many_takes_fixed_inputs_as_floats(lattice):
    _assert_matches_classify(*lattice)


def _grid(fixed, **swept):
    """The points of the lattice over ``swept``'s values, in C order, with
    ``fixed``'s value of every other input."""
    return [tuple({**fixed, **dict(zip(swept, values))}[name] for name in _NAMES)
            for values in itertools.product(*swept.values())]


_EXP_FIXED = dict(zip(_NAMES, (2.0, 1.0, 1.0, 0.0, 4096.0, 16.0, 1.0, 2.0, 1.0)))
_ALG_FIXED = dict(zip(_NAMES, (5.0, 2.0, 2.0, 1.0, 0.0, 0.0, 0.01, 0.015, 4.0)))
_PS, _QS, _RATES = [0.5, 1.5, 2.0, 3.0, 6.0], [0.1, 1.0, 4.0], [2.0, 3.0, 4.0, 4.9]


# (N, family, fixed values, swept values): fixed constants whose ledger
# powers overflow, underflow or divide by zero, a one-point lattice, an
# all-scalar call, and sweeps on which neither ledger has a candidate
@pytest.mark.parametrize("n, family, fixed, swept", [
    (3, BarrierFamily.W, {**_EXP_FIXED, "lam": 1e300}, {"p": _PS, "q": _QS}),
    (3, BarrierFamily.W, {**_EXP_FIXED, "alpha": 1e-300, "beta": 2e-300}, {"p": _PS, "q": _QS}),
    (3, BarrierFamily.W, {**_EXP_FIXED, "m": 1e200, "q": 1e-200}, {"p": _PS, "lam": [9.5, 1e5]}),
    (5, BarrierFamily.Z, {**_ALG_FIXED, "alpha": 1e300, "beta": 1e300}, {"p": _PS, "rate": _RATES}),
    (5, BarrierFamily.Z, {**_ALG_FIXED, "alpha": 1e-300, "beta": 2e-300}, {"p": _PS, "rate": _RATES}),
    (3, BarrierFamily.W, _EXP_FIXED, {"p": [2.0]}),
    (3, BarrierFamily.W, _EXP_FIXED, {}),
    (5, BarrierFamily.Z, _ALG_FIXED, {}),
    # mu = 0 with family W: invalid where lam > 0, the wrong family where lam = 0
    (3, BarrierFamily.W, {**_EXP_FIXED, "mu": 0.0}, {"p": _PS, "lam": [0.0, 4096.0]}),
    (5, BarrierFamily.W, _ALG_FIXED, {"p": _PS, "rate": _RATES}),
    (3, None, _EXP_FIXED, {"p": _PS, "q": _QS}),
    (3, BarrierFamily.W, _EXP_FIXED, {"p": [0.5, 1.0], "q": _QS}),
])
def test_classify_many_fixed_inputs_edge_lattices(n, family, fixed, swept):
    _assert_matches_classify(n, family, _grid(fixed, **swept), set(fixed) - set(swept))


@pytest.mark.parametrize("n, family, fixed, swept, skipped", [
    (3, BarrierFamily.W, _EXP_FIXED, {"p": _PS, "q": _QS},
     ("_nonexistence_zero_shift", "_alg_regime")),
    (3, None, _EXP_FIXED, {"p": _PS, "lam": [9.5, 1e5]}, ("_nonexistence_zero_shift", "_alg_regime")),
    (5, BarrierFamily.Z, _ALG_FIXED, {"p": _PS, "rate": _RATES}, ("_nonexistence_shifted",)),
    (5, None, _ALG_FIXED, {"p": _PS, "q": _QS}, ("_nonexistence_shifted",)),
])
def test_classify_many_skips_the_rules_of_a_regime_no_point_is_in(n, family, fixed, swept,
                                                                  skipped, monkeypatch):
    # a sweep with no zero-shift point runs neither zero-shift rule nor
    # _alg_regime, one with no shifted point not the shifted rule; the codes
    # are classify's all the same
    import gmsteady.barriers as barriers

    def never(*args):
        raise AssertionError("a rule of a regime no point is in ran")

    for name in skipped:
        monkeypatch.setattr(barriers, name, never)
    _assert_matches_classify(n, family, _grid(fixed, **swept), set(fixed) - set(swept))


# (N, family, point): ties, sigma = 1, p = N/(N-2), a = 2(1+1/m), float-range
_EDGE_POINTS = [
    (3, BarrierFamily.W, (2.0, 1.0, 1.0, 0.0, 9.0, 16.0, 1.0, 2.0, 1.0)),  # lam = N^2
    (3, BarrierFamily.W, (2.0, 1.0, 1.0, 0.0, 4096.0, 18.0, 1.0, 2.0, 3.0)),  # mu = 2 b^2
    (3, BarrierFamily.W, (3.0, 1.0, 2.0, 0.0, 4096.0, 16.0, 1.0, 2.0, 1.0)),  # sigma = 1
    (3, BarrierFamily.W, (1.037, 0.0178, 2.463, 0.8182, 5.851e7, 0.001139, 1.0, 2.0, 2.758)),
    (3, BarrierFamily.W, (2.0, 1.0, 1.0, 0.0, 1e300, 16.0, 1.0, 2.0, 1.0)),
    (3, BarrierFamily.W, (2.0, 1e-200, 1e-200, 0.0, 4096.0, 16.0, 1.0, 2.0, 1.0)),  # sigma = 0
    (3, None, (2.0, 1e200, 1e200, 0.0, 4096.0, 16.0, 1.0, 2.0, 1.0)),  # advisory overflows
    (5, BarrierFamily.Z, (5.0, 2.0, 2.0, 1.0, 0.0, 0.0, 0.01, 0.01, 4.0)),  # beta = alpha
    (5, BarrierFamily.Z, (5.0, 2.0, 2.0, 1.0, 0.0, 0.0, 0.01, 0.015, 3.0)),  # a = 2(1+1/m)
    (5, BarrierFamily.Z, (5.0 / 3.0, 2.0, 2.0, 1.0, 0.0, 0.0, 0.01, 0.015, 4.0)),  # p = N/(N-2)
    (5, BarrierFamily.Z, (3.0, 2.0, 2.0, 1.0, 0.0, 0.0, 0.01, 0.015, 4.0)),  # sigma = 1
    (3, BarrierFamily.Z, (1e5, 1.0, 1000.0, 0.0, 0.0, 0.0, 0.01, 0.015, 2.0021)),  # A^m overflows
    (5, BarrierFamily.Z, (5.0, 1.0, 4.0, 1.0, 0.0, 0.0, 1e300, 1e300, 3.5)),  # alpha^(m/(s+1))
    # beta within _TIE_REL of alpha
    (5, BarrierFamily.Z, (1072.9244708689594, 0.0037059321495103072, 3.54203918791952,
                          2.0014015105263687, 0.0, 0.0, 1.4018945859946596e-21,
                          1.4018945859946624e-21, 2.564646492874627)),
    # M1_lower underflows to 0: float-range
    (3, BarrierFamily.W, (1.4731662114153883, 1.3605367062881348, 0.04183483765025946, 0.0,
                          2.534724391353854e+275, 3.333167135814419e+78, 1.731906505677018e-276,
                          1.736189707425111e-276, 0.07347511881210227)),
    # the second alpha bound is nan, which Python's min passes over
    (7, BarrierFamily.Z, (46122.60138888013, 0.04153003005641884, 245.47819600575173,
                          1.699622746492167, 0.0, 0.0, 9.915038663848e-155,
                          2.2002615190695535e-154, 2.008147366978817)),
]


@pytest.mark.parametrize("n, family, point", _EDGE_POINTS)
def test_classify_many_edge_points(n, family, point):
    _assert_matches_classify(n, family, [point])


def _broad_points(rng, k, shifted):
    """k points spread over both regimes, shifts up to 1e300 and s up to 40."""
    alpha = 10.0 ** rng.uniform(-6.0, 2.0, k)
    return np.column_stack([
        np.exp(rng.uniform(-1.0, 3.0, k)), np.exp(rng.uniform(-4.0, 3.0, k)),
        np.exp(rng.uniform(-3.0, 3.0, k)), rng.uniform(0.0, 40.0, k) * (rng.random(k) < 0.7),
        10.0 ** rng.uniform(-2.0, 300.0, k) * shifted,
        10.0 ** rng.uniform(-5.0, 300.0, k) * shifted,
        alpha, alpha * (1.0 + rng.uniform(0.0, 3.0, k) * (rng.random(k) < 0.9)),
        rng.uniform(0.1, 9.0, k)])


def _near_tie(rng, x):
    """x, or x moved up by 0 to 60 units of 1e-16, inside _TIE_REL, at random."""
    return x * (1.0 + rng.integers(0, 60, x.size) * 1e-16)


def _hostile_points(rng, k, n, shifted):
    """k points in one ledger's regime near its ties and its float range:
    thresholds and beta within _TIE_REL, alpha from 1e-300 to 1e300, and
    zero-shift rates just above 2(1+1/m)."""
    alpha = 10.0 ** rng.uniform(-300.0, 300.0, k)
    beta = np.where(rng.random(k) < 0.3, _near_tie(rng, alpha), alpha * rng.uniform(1.0, 4.0, k))
    if shifted:
        p = 1.0 + 10.0 ** rng.uniform(-3.0, 1.0, k)
        m, s = 10.0 ** rng.uniform(-2.0, 1.5, k), rng.uniform(0.0, 40.0, k) * (rng.random(k) < 0.5)
        rate = 10.0 ** rng.uniform(-2.0, 1.5, k)
        b = rate * m / (s + 1.0)
        lam = np.where(rng.random(k) < 0.3, _near_tie(rng, np.maximum(2.0 * rate * rate, n * n)),
                       10.0 ** rng.uniform(-2.0, 300.0, k))
        mu = np.where(rng.random(k) < 0.3, _near_tie(rng, np.maximum(2.0 * b * b, n * n)),
                      10.0 ** rng.uniform(-5.0, 300.0, k))
        q = 10.0 ** rng.uniform(-3.0, 1.0, k)
    else:
        m = 10.0 ** rng.uniform(-0.5, 3.5, k)
        rate = 2.0 * (1.0 + 1.0 / m) * (1.0 + 10.0 ** rng.uniform(-17.0, 0.0, k))
        p, q = 10.0 ** rng.uniform(0.1, 9.0, k), 10.0 ** rng.uniform(-3.0, 1.0, k)
        s, lam = rng.uniform(0.0, 5.0, k), np.zeros(k)
        mu = lam
    return np.column_stack([p, q, m, s, lam, mu, alpha, beta, rate])


def test_classify_many_bulk_matches_classify():
    # 20k seeded points: 10k broad ones in both regimes and for the zero
    # source, which are all valid and where classify never raises, and
    # 10k near the ledgers' ties and float range
    rng = np.random.default_rng(20261018)
    for n, family, shifted in [(3, BarrierFamily.W, True), (7, None, True),
                               (5, BarrierFamily.Z, False), (4, BarrierFamily.W, False)]:
        codes = _assert_matches_classify(n, family, _broad_points(rng, 2500, shifted).tolist())
        assert not np.any(codes == DEFERRED)
    for n, family, shifted in [(3, BarrierFamily.W, True), (6, BarrierFamily.W, True),
                               (5, BarrierFamily.Z, False), (7, BarrierFamily.Z, False)]:
        _assert_matches_classify(n, family, _hostile_points(rng, 2500, n, shifted).tolist())
