import math

import mpmath as mp
import numpy as np
import pytest
from scipy import special

from gmsteady.kernels import (
    GreenParams,
    _scaled_bessel,
    green_lambda,
    green_lambda_mass,
    green_zero,
    sphere_area,
    verify_kernel_bounds,
)


def k_half_integer_closed(nu: float, z):
    """Closed forms for K_{1/2}, K_{3/2}, K_{5/2}."""
    z = np.asarray(z, dtype=float)
    base = np.sqrt(np.pi / (2.0 * z)) * np.exp(-z)
    if nu == 0.5:
        return base
    if nu == 1.5:
        return base * (1.0 + 1.0 / z)
    if nu == 2.5:
        return base * (1.0 + 3.0 / z + 3.0 / z**2)
    raise ValueError(nu)


def k_series_oracle(s: float, z: float) -> float:
    """High-precision summation of the defining series (independent oracle)."""
    with mp.workdps(40):
        def i_series(order):
            return mp.fsum(
                (mp.mpf(z) / 2) ** (2 * k + order) / (mp.factorial(k) * mp.gamma(k + order + 1))
                for k in range(80)
            )

        val = mp.pi / 2 * (i_series(-mp.mpf(s)) - i_series(mp.mpf(s))) / mp.sin(mp.pi * s)
        return float(val)


def bessel_k(nu: float, z):
    """K_nu(z) from the kernels' one evaluator, K_nu(z) e^z times e^-z."""
    zz = np.asarray(z, dtype=float)
    vals = _scaled_bessel(nu)[1](zz) * np.exp(-zz)
    return float(vals) if np.ndim(z) == 0 else vals


def test_half_integer_values_match_series_oracle():
    # frozen from the series oracle at 40 digits
    assert bessel_k(0.5, 1.0) == pytest.approx(0.46106850444789455844, rel=1e-13)
    assert bessel_k(0.5, 2.0) == pytest.approx(0.11993777196806144737, rel=1e-13)
    # and the closed form sqrt(pi/(2z)) e^-z agrees with both
    assert bessel_k(0.5, 1.0) == pytest.approx(math.sqrt(math.pi / 2) * math.exp(-1), rel=1e-13)
    assert bessel_k(0.5, 2.0) == pytest.approx(math.sqrt(math.pi / 4) * math.exp(-2), rel=1e-13)


def test_series_oracle_cross_check_generic_order():
    for z in (0.3, 1.0, 1.7):
        assert bessel_k(0.3, z) == pytest.approx(k_series_oracle(0.3, z), rel=1e-11)


def test_half_integer_closed_forms_over_range():
    z = np.geomspace(0.01, 50.0, 300)
    for nu in (0.5, 1.5, 2.5):
        vals = bessel_k(nu, z)
        ref = k_half_integer_closed(nu, z)
        assert np.max(np.abs(vals - ref) / ref) <= 1e-12


#: z from 1e-8 to 1e4, with both sides of the nu = 3/2 branch switch at 1
_SCALED_Z = np.concatenate((np.geomspace(1e-8, 1e4, 97),
                            [0.999, math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0), 1.001]))


@pytest.mark.parametrize("nu", [0.5, 1.0, 1.5])
def test_scaled_bessel_matches_mpmath(nu):
    # I_nu(z) e^-z and K_nu(z) e^z at 40 digits: the closed forms and
    # Cephes stay within a few units of the last place
    ive, kve = _scaled_bessel(nu)
    with mp.workdps(40):
        exact_i = [float(mp.besseli(nu, mp.mpf(z)) * mp.exp(-mp.mpf(z))) for z in _SCALED_Z]
        exact_k = [float(mp.besselk(nu, mp.mpf(z)) * mp.exp(mp.mpf(z))) for z in _SCALED_Z]
    assert np.max(np.abs(ive(_SCALED_Z) / exact_i - 1.0)) <= 2e-15
    assert np.max(np.abs(kve(_SCALED_Z) / exact_k - 1.0)) <= 2e-15


def test_scaled_bessel_other_orders_are_scipy():
    ive, kve = _scaled_bessel(2.0)
    assert np.array_equal(ive(_SCALED_Z), special.ive(2.0, _SCALED_Z))
    assert np.array_equal(kve(_SCALED_Z), special.kve(2.0, _SCALED_Z))


def test_large_argument_asymptotics():
    # K_{3/2}(z) = sqrt(pi/(2z)) e^-z (1 + 1/z) exactly; the generic
    # asymptotic series gives 1 + (4 nu^2 - 1)/(8 z) + O(1/z^2)
    for z in (50.0, 200.0, 400.0):
        ratio = bessel_k(1.5, z) / (math.sqrt(math.pi / (2 * z)) * math.exp(-z))
        assert ratio == pytest.approx(1.0 + 1.0 / z, rel=1e-12)
        ratio1 = bessel_k(1.0, z) / (math.sqrt(math.pi / (2 * z)) * math.exp(-z))
        # (4*1-1)/8 = 3/8 leading correction
        assert abs(ratio1 - 1.0 - 3.0 / (8.0 * z)) <= 1.0 / z**2


def test_monotone_decreasing_and_positive():
    z = np.geomspace(1e-6, 600.0, 2000)
    for nu in (0.5, 1.0, 1.5, 2.0):
        vals = bessel_k(nu, z)
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) < 0)


def test_green_zero_values():
    assert green_zero(3, 1.0) == pytest.approx(1.0 / (4 * math.pi), rel=1e-14)
    assert green_zero(3, 2.0) == pytest.approx(1.0 / (8 * math.pi), rel=1e-14)
    assert green_zero(4, 1.0) == pytest.approx(1.0 / (4 * math.pi**2), rel=1e-14)
    with pytest.raises(ValueError):
        green_zero(3, 0.0)
    with pytest.raises(ValueError):
        green_zero(2, 1.0)


def test_green_lambda_closed_form_n3():
    params = GreenParams(3, 1.0)
    r = np.geomspace(0.01, 20.0, 400)
    ref = np.exp(-r) / (4 * math.pi * r)
    vals = green_lambda(params, r)
    assert np.max(np.abs(vals / ref - 1.0)) <= 1e-10
    assert green_lambda(params, 1.0) == pytest.approx(math.exp(-1) / (4 * math.pi), rel=1e-12)
    # shift 0 routes to green_zero; negative shift rejected at the type
    assert green_lambda(GreenParams(3, 0.0), 1.0) == green_zero(3, 1.0)
    with pytest.raises(ValueError):
        GreenParams(3, -1.0)


def test_green_lambda_matches_mpmath():
    # measured at most 6.7e-16 relative (N = 7, 8) against 40 digits;
    # the bound, 2e-15, is three times that
    r = np.geomspace(1e-3, 50.0, 40)
    for n in range(3, 9):
        vals = green_lambda(GreenParams(n, 4.0), r)
        with mp.workdps(40):
            nu, half_n = mp.mpf(n) / 2 - 1, mp.mpf(n) / 2
            exact = [float((2 / mp.mpf(x)) ** nu * mp.besselk(nu, 2 * mp.mpf(x))
                           / (2 * mp.pi) ** half_n) for x in r]
        assert np.max(np.abs(vals / exact - 1.0)) <= 2e-15, n


def test_green_lambda_monotone_in_r():
    for n, lam in [(3, 1.0), (4, 4.0), (5, 2.0)]:
        params = GreenParams(n, lam)
        r = np.geomspace(1e-3, 40.0, 800)
        vals = green_lambda(params, r)
        assert np.all(np.diff(vals) < 0)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("lam", [1.0, 4.0, 9.0])
def test_delta_calibration_mass_identity(n, lam):
    mass = green_lambda_mass(GreenParams(n, lam))
    assert abs(mass - 1.0 / lam) <= 1e-8 / lam


@pytest.mark.parametrize("n, lam", [(3, 1e-300), (7, 1e-20), (5, 1e300)])
def test_mass_identity_at_extreme_shifts(n, lam):
    # the quadrature runs in x = sqrt(lam) s, so it does not see lam
    mass = green_lambda_mass(GreenParams(n, lam))
    assert abs(mass - 1.0 / lam) <= 1e-8 / lam


@pytest.mark.parametrize("lam", [1e-20, 1.0, 4.0, 1e300])
def test_mass_identity_to_rounding(lam):
    # the Gauss pieces meet omega_N 2^(N/2-1) Gamma(N/2) (2 pi)^(-N/2) = 1
    # (DLMF 10.43.19) to rounding: measured within 8.0e-15 for N = 3-68
    for n in range(3, 69):
        mass = green_lambda_mass(GreenParams(n, lam))
        assert abs(lam * mass - 1.0) <= 1e-13, n


def test_mass_integral_out_of_range_is_refused():
    # from N = 88, K_nu overflows at the smallest Gauss nodes
    assert abs(4.0 * green_lambda_mass(GreenParams(87, 4.0)) - 1.0) <= 1e-13
    with pytest.raises(ValueError, match="kernel mass integral leaves float64 range"):
        green_lambda_mass(GreenParams(88, 4.0))


def test_near_field_bound_small_radius():
    # near the origin the kernel behaves like the unshifted one
    params = GreenParams(3, 1.0)
    ratio = green_lambda(params, 1e-3) / (1e-3) ** (-1)
    assert 0.0 < ratio < 1.0  # finite sandwich constant exists
    params4 = GreenParams(4, 1.0)
    r = np.geomspace(1e-3, 0.5, 50)
    ratios = green_lambda(params4, r) / r ** (-2.0)
    assert np.all(np.isfinite(ratios)) and np.all(ratios > 0)


def test_verify_kernel_bounds_reports():
    params = GreenParams(3, 1.0)
    grid = np.concatenate([np.geomspace(1e-3, 0.5, 40), np.geomspace(2.0, 64.0, 40)])
    report = verify_kernel_bounds(params, grid)
    assert report.c1 > 1.0 and report.c2 > 1.0
    # N=3 far-field ratio is the constant 1/(4 pi) exactly
    far = [q for r, q in report.samples if r > 1.0]
    assert np.max(np.abs(np.asarray(far) - 1.0 / (4 * math.pi))) <= 1e-6 / (4 * math.pi)
    for r, q in report.samples:
        c = report.c1 if r > 1.0 else report.c2
        assert 1.0 / c <= q <= c

    report5 = verify_kernel_bounds(GreenParams(5, 2.0), np.concatenate(
        [np.geomspace(1e-2, 0.9, 30), np.geomspace(2.0, 40.0, 30)]))
    assert math.isfinite(report5.c1) and math.isfinite(report5.c2)


def test_verify_kernel_bounds_argument_errors():
    params = GreenParams(3, 1.0)
    with pytest.raises(ValueError):
        verify_kernel_bounds(params, [])
    with pytest.raises(ValueError):
        verify_kernel_bounds(params, [2.0, 3.0])  # no near-field radii
    # sqrt(1e6) * 0.9 = 900: the near-field ratio underflows to 0
    with pytest.raises(ValueError, match="kernel ratios"):
        verify_kernel_bounds(GreenParams(3, 1e6), [0.01, 0.9, 2.0])


@pytest.mark.parametrize("shift", [math.nan, math.inf])
def test_green_params_reject_non_finite_shift(shift):
    with pytest.raises(ValueError, match="finite"):
        GreenParams(3, shift)


def test_green_zero_discrete_harmonicity():
    # the discrete radial Laplacian of c r^(2-N) vanishes at second order
    from gmsteady.radial_core import RadialField, RadialGrid, apply_radial_laplacian

    def residual(n_nodes):
        grid = RadialGrid.uniform(6.0, n_nodes)
        r = np.maximum(grid.nodes, 0.3)
        field = RadialField(grid, green_zero(4, r))
        lap = apply_radial_laplacian(field, 4).values
        mask = (grid.nodes >= 0.5) & (grid.nodes <= 5.0)
        return np.max(np.abs(lap[mask]))

    r1, r2 = residual(601), residual(1201)
    assert r1 / r2 == pytest.approx(4.0, rel=0.2)


def test_sphere_area():
    assert sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-14)
    assert sphere_area(4) == pytest.approx(2 * math.pi**2, rel=1e-14)
