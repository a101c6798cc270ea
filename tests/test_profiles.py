import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from gmsteady.barriers import Problem, SourceModel
from gmsteady.profiles import (
    BarrierFamily,
    BarrierProfile,
    eval_barrier,
    log_coordinate,
    weighted_antiderivative,
)
from gmsteady.radial_core import RadialField, RadialGrid

_PROFILES = [
    BarrierProfile(BarrierFamily.W, 0.5),
    BarrierProfile(BarrierFamily.W, 3.0),
    BarrierProfile(BarrierFamily.Z, 1.5),
    BarrierProfile(BarrierFamily.Z, 2.0),
    BarrierProfile(BarrierFamily.Z, 4.5),
]


@pytest.mark.parametrize("profile", _PROFILES, ids=repr)
def test_log_coordinate_linearises_the_profile(profile):
    r = np.linspace(0.0, 30.0, 61)
    x = log_coordinate(profile.family, r)
    assert x[0] == (-1.0 if profile.family is BarrierFamily.W else 0.0)
    logs = np.log(np.asarray(eval_barrier(profile, r)))
    assert np.allclose(profile.rate * x, logs, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("profile", _PROFILES, ids=repr)
@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (2.0, 4.0), (7.5, 40.0)])
def test_weighted_antiderivative_differences_are_integrals(profile, lo, hi):
    exact, _ = quad(lambda s: s * eval_barrier(profile, s), lo, hi, epsabs=0, epsrel=1e-12)
    got = weighted_antiderivative(profile, hi) - weighted_antiderivative(profile, lo)
    assert got == pytest.approx(exact, rel=1e-10)


@pytest.mark.parametrize("profile", [p for p in _PROFILES if p.rate > 2.0], ids=repr)
def test_weighted_antiderivative_vanishes_at_infinity(profile):
    # -F(R) is the tail integral int_R^inf s B(s) ds
    tail, _ = quad(lambda s: s * eval_barrier(profile, s), 5.0, np.inf, epsrel=1e-12)
    assert -weighted_antiderivative(profile, 5.0) == pytest.approx(tail, rel=1e-9)
    assert abs(weighted_antiderivative(profile, 1e8)) < 1e-10


def test_field_tail_matches_the_last_value():
    grid = RadialGrid.uniform(10.0, 41)
    tag = BarrierProfile(BarrierFamily.Z, 3.0)
    field = RadialField(grid, 2.5 * np.asarray(eval_barrier(tag, grid.nodes)), tag)
    r = np.array([10.0, 12.0, 20.0])
    assert np.allclose(field.tail(r), 2.5 * np.asarray(eval_barrier(tag, r)), rtol=1e-14)
    anti = field.tail(10.0, weighted_antiderivative)
    assert anti == pytest.approx(2.5 * weighted_antiderivative(tag, 10.0), rel=1e-14)


def test_field_tail_is_zero_where_there_is_none():
    grid = RadialGrid.uniform(10.0, 41)
    r = np.array([11.0, 15.0])
    compact = RadialField(grid, np.maximum(0.0, 5.0 - grid.nodes))
    assert np.array_equal(compact.tail(r), np.zeros(2))
    # W_80 underflows at R = 10: the tail is dropped, as on a doubled ball
    steep = RadialField(grid, np.exp(-grid.nodes), BarrierProfile(BarrierFamily.W, 80.0))
    assert np.array_equal(steep.tail(r), np.zeros(2))
    with pytest.raises(ValueError, match="decay_tag"):
        RadialField(grid, np.ones(grid.n)).tail(r)


def test_problem_family_follows_the_shifts():
    rho = SourceModel.zero()
    assert Problem(3, 4.0, 1.0, rho).family is BarrierFamily.W
    assert Problem(3, 0.0, 0.0, rho).family is BarrierFamily.Z
    assert Problem(5, 1e-300, 1e-300, rho).family is BarrierFamily.W


def test_barriers_are_right_at_every_finite_radius():
    # 1 + r^2 overflows from r ~ 1.34e154; beyond it W is exp(-a r) and Z
    # is r^(-a), and below it the values are the formula's bit for bit
    z1, z3 = BarrierProfile(BarrierFamily.Z, 1.0), BarrierProfile(BarrierFamily.Z, 3.0)
    w_small = BarrierProfile(BarrierFamily.W, 1e-300)
    near = np.array([0.0, 1.0, 480.0, 1e100, 1e154, 1.3e154, 1.34e154])
    far = np.array([1.35e154, 1e200, 1e300, np.finfo(float).max])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert eval_barrier(z1, 1e200) == 1e-200
        assert eval_barrier(z1, 1e300) == 1e-300
        assert eval_barrier(z3, 1e200) == 0.0
        assert eval_barrier(w_small, 1e200) == math.exp(-1e-100)
        assert eval_barrier(BarrierProfile(BarrierFamily.Z, 0.0), 1e300) == 1.0
        for profile in (*_PROFILES, z1):
            a = profile.rate
            u = 1.0 + near * near
            exact = np.exp(-a * np.sqrt(u)) if profile.family is BarrierFamily.W else u ** (-a / 2)
            both = np.asarray(eval_barrier(profile, np.concatenate((near, far))))
            assert both[: near.size].tobytes() == exact.tobytes()
            assert [eval_barrier(profile, float(r)) for r in near] == exact.tolist()
            with np.errstate(over="ignore"):
                tail = np.exp(-a * far) if profile.family is BarrierFamily.W else far ** -a
            assert both[near.size:].tobytes() == tail.tobytes()
