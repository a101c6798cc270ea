import math

import numpy as np
import pytest

from gmsteady.barriers import (
    BarrierFamily,
    BarrierProfile,
    Exponents,
    Problem,
    Regime,
    SourceModel,
    VerdictStatus,
    alg_regime_ledger,
    barrier_operator_value,
    check_sandwich,
    classify,
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
    assert barrier_operator_value(w, 2.0, 0.0, 3) == pytest.approx(
        5.0 * math.exp(-1.0), rel=1e-14
    )
    z = BarrierProfile(BarrierFamily.Z, 2.0)
    assert barrier_operator_value(z, 0.0, 0.0, 5) == pytest.approx(10.0, rel=1e-14)


def test_operator_far_field_limit():
    # ratio to the lower sandwich bound tends to 1; compare the operator
    # factors since the profile itself underflows at r = 1e3
    from gmsteady.barriers import barrier_operator_factor

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
        closed = np.asarray(
            barrier_operator_value(profile, shift, grid.nodes[:-1], n)
        )
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
