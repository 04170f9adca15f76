"""Moving point dipole: scattering amplitude, spectral integral, mass shift."""

import math

import numpy as np
import pytest

from zpmomentum.point_dipole import (DipoleSpec, QuadratureError, mass_shift,
                                     p_rad_spectral, p_rad_total,
                                     spectral_integral_exact,
                                     spectral_integral_quadrature,
                                     spectral_integral_target, t0, t_matrix)
from zpmomentum.units_materials import CONSTANTS

NARROW = DipoleSpec(alpha=1.0, alpha0=1.0, gamma=1e-4)
# alpha 1e-30 m^3, alpha0 5e-31 m^3, gamma 1e-12 m: |J| is about 4e-17 cm^2
ATOMIC = DipoleSpec(alpha=1e-24, alpha0=5e-25, gamma=1e-10)


def random_narrow_spec(rng):
    alpha0 = float(10.0 ** rng.uniform(-0.3, 0.3))
    alpha = alpha0 / float(rng.uniform(0.3, 1.0))
    gamma = float(10.0 ** rng.uniform(math.log10(1e-5), math.log10(5e-4)))
    return DipoleSpec(alpha=alpha, alpha0=alpha0, gamma=gamma)


def test_spec_validation_and_derived_quantities():
    spec = DipoleSpec(alpha=2.0, alpha0=1.0, gamma=1e-4)
    assert spec.kappa0 == pytest.approx(math.sqrt(4.0 * math.pi * 1e-4), rel=1e-15)
    assert spec.omega0 == pytest.approx(CONSTANTS.c0_gaussian * spec.kappa0,
                                        rel=1e-15)
    assert spec.damping_ratio == pytest.approx(2.0 / 3.0 * 1e-4 * spec.kappa0,
                                               rel=1e-15)
    with pytest.raises(ValueError):
        DipoleSpec(alpha=1.0, alpha0=2.0, gamma=1e-4)  # alpha0 > alpha
    with pytest.raises(ValueError):
        DipoleSpec(alpha=1.0, alpha0=1.0, gamma=0.0)
    with pytest.raises(ValueError):
        DipoleSpec(alpha=0.0, alpha0=0.0, gamma=1e-4)


def test_t0_on_resonance():
    expected = -6.0j * math.pi / NARROW.kappa0
    assert t0(NARROW, NARROW.omega0) == pytest.approx(expected, rel=1e-12)


def test_t0_low_frequency_limit():
    # t0 -> -alpha0 kappa^2 as kappa -> 0
    kappa = 1e-6 * NARROW.kappa0
    omega = kappa * CONSTANTS.c0_gaussian
    assert t0(NARROW, omega) == pytest.approx(-NARROW.alpha0 * kappa**2,
                                              rel=1e-9)


def test_t0_is_dissipative_everywhere(rng):
    for _ in range(50):
        spec = random_narrow_spec(rng)
        kappa = spec.kappa0 * float(10.0 ** rng.uniform(-3, 3))
        omega = kappa * CONSTANTS.c0_gaussian
        assert t0(spec, omega).imag < 0.0


def test_t0_rejects_nonpositive_frequency():
    with pytest.raises(ValueError):
        t0(NARROW, 0.0)
    with pytest.raises(ValueError):
        t0(NARROW, -1.0)


# --- the moving-dipole t-matrix --------------------------------------------

def test_t_matrix_at_rest_is_scalar():
    omega = NARROW.omega0
    k = np.array([NARROW.kappa0, 0.0, 0.0])
    out = t_matrix(NARROW, omega, k, k, np.zeros(3))
    assert np.array_equal(out, t0(NARROW, omega) * np.eye(3))


def test_t_matrix_linear_in_velocity():
    omega = 0.7 * NARROW.omega0
    kappa = omega / CONSTANTS.c0_gaussian
    k = kappa * np.array([0.0, 0.0, 1.0])
    kp = kappa * np.array([1.0, 0.0, 0.0])
    v = np.array([3.0, -2.0, 1.0]) * 1e4
    amp = t0(NARROW, omega)
    base = amp * np.eye(3)
    # the returned matrix is amp * (identity + correction), so correction
    # entries recovered by subtraction carry absolute noise ~ eps |amp|
    floor = 20.0 * np.finfo(float).eps * abs(amp)
    corr1 = t_matrix(NARROW, omega, k, kp, v) - base
    corr2 = t_matrix(NARROW, omega, k, kp, 2.0 * v) - base
    assert np.allclose(corr2, 2.0 * corr1, rtol=1e-12, atol=floor)
    flipped = t_matrix(NARROW, omega, k, kp, -v) - base
    assert np.allclose(flipped, -corr1, rtol=1e-12, atol=floor)


def test_t_matrix_forward_correction_symmetric_traceless():
    # For kp = k the velocity correction reduces to
    # -(t0/kappa)[k v + v k - 2 (k.v) 1]: symmetric, and traceless when v | k.
    omega = NARROW.omega0
    kappa = omega / CONSTANTS.c0_gaussian
    k = kappa * np.array([0.0, 0.0, 1.0])
    v = np.array([5.0, 0.0, 0.0])  # orthogonal to k
    corr = t_matrix(NARROW, omega, k, k, v) - t0(NARROW, omega) * np.eye(3)
    scale = np.max(np.abs(corr))
    assert scale > 0.0
    assert np.max(np.abs(corr - corr.T)) <= 1e-13 * scale
    assert abs(np.trace(corr)) <= 1e-13 * scale
    # and it matches the hand-reduced dyadic form
    beta = v / CONSTANTS.c0_si
    khat_beta = np.outer(k, beta) + np.outer(beta, k) - 2.0 * np.dot(k, beta) * np.eye(3)
    expected = -(t0(NARROW, omega) / kappa) * khat_beta
    assert np.allclose(corr, expected, rtol=1e-12, atol=1e-30)


def test_t_matrix_velocity_bound():
    k = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        t_matrix(NARROW, NARROW.omega0, k, k, np.array([0.02 * CONSTANTS.c0_si, 0, 0]))


# --- spectral integral and totals ------------------------------------------

def test_p_rad_spectral_is_along_velocity():
    v = np.array([0.0, 2.0, 0.0])
    out = p_rad_spectral(NARROW, NARROW.omega0, v)
    assert out[0] == 0.0 and out[2] == 0.0
    assert out[1] != 0.0
    with pytest.raises(ValueError):
        p_rad_spectral(NARROW, 0.0, v)


def test_spectral_integral_quadrature_matches_exact(rng):
    for spec in [random_narrow_spec(rng) for _ in range(5)] + [ATOMIC]:
        j_quad = spectral_integral_quadrature(spec)
        j_exact = spectral_integral_exact(spec)
        assert j_quad == pytest.approx(j_exact, rel=1e-6)


def test_spectral_integral_reaches_sum_rule_target(rng):
    for _ in range(10):
        spec = random_narrow_spec(rng)
        j_quad = spectral_integral_quadrature(spec)
        target = spectral_integral_target(spec)
        assert j_quad == pytest.approx(target, rel=1e-4)
        # the deviation is controlled by the damping ratio
        deviation = abs(j_quad - target) / abs(target)
        assert deviation <= 2.0 * spec.damping_ratio + 1e-12


def test_spectral_integral_exact_rejects_overdamped():
    overdamped = DipoleSpec(alpha=1e6, alpha0=1e6, gamma=100.0)
    assert overdamped.damping_ratio > 2.0
    with pytest.raises(ValueError, match="overdamped"):
        spectral_integral_exact(overdamped)


def test_quadrature_error_when_tolerance_unreachable():
    with pytest.raises(QuadratureError):
        spectral_integral_quadrature(NARROW, rel_tol=1e-16)


def test_p_rad_total_matches_polarizability_ratio_form(rng):
    for _ in range(10):
        spec = random_narrow_spec(rng)
        v = rng.normal(size=3)
        total = p_rad_total(spec, v)
        expected = (-(spec.alpha0 / spec.alpha) * CONSTANTS.hbar_si
                    * (spec.omega0 / CONSTANTS.c0_si**2) * v)
        assert np.allclose(total, expected, rtol=1e-4, atol=0.0)


def test_p_rad_total_vanishes_at_rest():
    assert np.array_equal(p_rad_total(NARROW, np.zeros(3)), np.zeros(3))


def test_mass_shift_formula_and_scale():
    # a 10 eV resonance with alpha0 = alpha loses hbar omega0 / c0^2
    omega0_si = 10.0 * CONSTANTS.ev_in_joule / CONSTANTS.hbar_si
    kappa0 = omega0_si / CONSTANTS.c0_gaussian        # 1/cm
    gamma = 1e-5
    alpha0 = 4.0 * math.pi * gamma / kappa0**2
    spec = DipoleSpec(alpha=alpha0, alpha0=alpha0, gamma=gamma)
    assert spec.omega0 == pytest.approx(omega0_si, rel=1e-12)
    shift = mass_shift(spec)
    expected = -CONSTANTS.hbar_si * omega0_si / CONSTANTS.c0_si**2
    assert shift == pytest.approx(expected, rel=1e-12)
    assert abs(shift) == pytest.approx(1.78266192e-35, rel=1e-3)  # kg
    # halving the bare-to-static ratio halves the shift
    spec2 = DipoleSpec(alpha=2.0 * alpha0, alpha0=alpha0, gamma=gamma)
    assert mass_shift(spec2) == pytest.approx(0.5 * expected, rel=1e-12)
