"""Moving point dipole: scattering amplitude, spectral integral, mass shift."""

import math

import numpy as np
import pytest

from zpmomentum import point_dipole
from zpmomentum.point_dipole import (DipoleSpec, mass_shift,
                                     p_rad_spectral, p_rad_total,
                                     spectral_integral_exact,
                                     spectral_integral_quadrature,
                                     spectral_integral_target, t0, t_matrix)
from zpmomentum.base import CONSTANTS, ConvergenceError

NARROW = DipoleSpec(alpha=1.0, alpha0=1.0, gamma=1e-4)
# alpha 1e-30 m^3, alpha0 5e-31 m^3, gamma 1e-12 m: |J| is about 4e-21 m^2
ATOMIC = DipoleSpec(alpha=1e-30, alpha0=5e-31, gamma=1e-12)


def random_narrow_spec(rng):
    alpha0 = float(10.0 ** rng.uniform(-0.3, 0.3))
    alpha = alpha0 / float(rng.uniform(0.3, 1.0))
    gamma = float(10.0 ** rng.uniform(math.log10(1e-5), math.log10(5e-4)))
    return DipoleSpec(alpha=alpha, alpha0=alpha0, gamma=gamma)


def test_spec_validation_and_derived_quantities():
    spec = DipoleSpec(alpha=2.0, alpha0=1.0, gamma=1e-4)
    assert spec.kappa0 == pytest.approx(math.sqrt(4.0 * math.pi * 1e-4), rel=1e-15)
    assert spec.omega0 == pytest.approx(CONSTANTS.c0_si * spec.kappa0,
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
    omega = kappa * CONSTANTS.c0_si
    assert t0(NARROW, omega) == pytest.approx(-NARROW.alpha0 * kappa**2,
                                              rel=1e-9)


def test_t0_is_dissipative_everywhere(rng):
    for _ in range(50):
        spec = random_narrow_spec(rng)
        kappa = spec.kappa0 * float(10.0 ** rng.uniform(-3, 3))
        omega = kappa * CONSTANTS.c0_si
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
    kappa = omega / CONSTANTS.c0_si
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
    kappa = omega / CONSTANTS.c0_si
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


@pytest.mark.parametrize("k, kp, message", [
    ((1e4, 2e4), (1.0, 0.0, 0.0), "k must be a 3-vector"),
    ((1.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0), "k must be a 3-vector"),
    ((math.nan, 0.0, 0.0), (1.0, 0.0, 0.0), "k must be finite"),
    ((1.0, 0.0, 0.0), (1e4, 2e4), "kp must be a 3-vector"),
    ((1.0, 0.0, 0.0), (0.0, math.inf, 0.0), "kp must be finite"),
])
def test_t_matrix_refuses_a_wavevector_that_is_not_three_finite_numbers(
        k, kp, message):
    # each wavevector is checked like v, so none is truncated to fit
    with pytest.raises(ValueError, match=f"^{message}"):
        t_matrix(NARROW, NARROW.omega0, k, kp, (1.0, 0.0, 0.0))


def test_t0_and_t_matrix_stay_finite_far_from_resonance():
    # kappa^2 overflows at omega = 1e200 rad/s, where t0 tends to 4 pi
    # gamma, and 1/kappa at 1e-300 rad/s, where t0/kappa underflows
    assert t0(NARROW, 1e200) == pytest.approx(4.0 * math.pi * NARROW.gamma,
                                              rel=1e-12)
    for omega in (1e200, 1e-300):
        out = t_matrix(NARROW, omega, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                       (1.0, 2.0, 3.0))
        assert all(math.isfinite(part) for row in out for z in row
                   for part in (z.real, z.imag))
    with pytest.raises(FloatingPointError,
                       match="kappa = omega / c0 underflows to 0"):
        t0(NARROW, 5e-324)


def test_p_rad_spectral_stays_finite_where_kappa_over_kappa0_overflows():
    # kappa0 is 1.1e-103 1/m, so r = kappa/kappa0 is inf at omega = 1e300
    spec = DipoleSpec(alpha=1e100, alpha0=1e100, gamma=1e-107)
    assert p_rad_spectral(spec, 1e300, (1.0, 0.0, 0.0)) == (0.0, 0.0, 0.0)


def test_t_matrix_velocity_bound():
    k = np.array([1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        t_matrix(NARROW, NARROW.omega0, k, k, np.array([0.02 * CONSTANTS.c0_si, 0, 0]))


FAST = np.array([0.02 * CONSTANTS.c0_si, 0.0, 0.0])


@pytest.mark.parametrize("call", [
    lambda: p_rad_spectral(NARROW, NARROW.omega0, FAST),
    lambda: p_rad_total(NARROW, FAST),
], ids=["p_rad_spectral", "p_rad_total"])
def test_radiated_momentum_velocity_bound(call):
    # like t_matrix, both are first order in v/c0
    with pytest.raises(ValueError, match=r"\|v\|/c0 must stay below 0.01"):
        call()


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


def spec_at_damping_ratio(x, alpha0, alpha):
    """The spec whose damping ratio (2/3) gamma sqrt(4 pi gamma / alpha0) is
    x, up to rounding."""
    gamma = (1.5 * x / math.sqrt(4.0 * math.pi / alpha0)) ** (2.0 / 3.0)
    return DipoleSpec(alpha=alpha, alpha0=alpha0, gamma=gamma)


def test_quadrature_matches_exact_without_cancellation_at_resonance(rng):
    # kappa0^2 - kappa^2 as a difference lost digits like 1e-16 / x near the
    # resonance; as a product the quadrature keeps them at every x
    for _ in range(200):
        x = float(10.0 ** rng.uniform(-14.0, math.log10(1.6)))
        alpha0 = float(10.0 ** rng.uniform(-30.0, -6.0))
        spec = spec_at_damping_ratio(x, alpha0, 2.0 * alpha0)
        assert spectral_integral_quadrature(spec) == pytest.approx(
            spectral_integral_exact(spec), rel=1e-13, abs=0.0)


def test_spectral_integral_exact_covers_every_damping_ratio():
    # one formula on both sides of the critical damping x = 2, and at x = 2
    # itself, where g(1) = 1 is the limit of both branches
    critical = DipoleSpec(alpha=1.0, alpha0=1.0, gamma=0.8947002289396495)
    assert critical.damping_ratio == 2.0
    for spec in [spec_at_damping_ratio(x, 1e-6, 1e-6)
                 for x in (1.9, 2.1, 6.7, 26.4)] + [critical]:
        assert spectral_integral_exact(spec) == pytest.approx(
            spectral_integral_quadrature(spec), rel=1e-12, abs=0.0)
    # at x = 2.4e300 no square overflows, and J is a nonzero float
    huge = DipoleSpec(alpha=1.0, alpha0=1.0, gamma=1e200)
    assert huge.damping_ratio > 1e300
    assert -math.inf < spectral_integral_exact(huge) < 0.0
    # x underflows to 0, and J is then the sum-rule target
    flat = DipoleSpec(alpha=1e94, alpha0=1e94, gamma=1e-202)
    assert flat.damping_ratio == 0.0
    assert spectral_integral_exact(flat) == spectral_integral_target(flat)


@pytest.mark.parametrize("call", [
    lambda spec: t0(spec, spec.omega0),
    lambda spec: t_matrix(spec, spec.omega0, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                          (1.0, 0.0, 0.0)),
    lambda spec: p_rad_spectral(spec, spec.omega0, (1.0, 0.0, 0.0)),
], ids=["t0", "t_matrix", "p_rad_spectral"])
def test_undamped_resonance_names_an_infinite_t0(call):
    # x underflows to 0, so r^2 - 1 + i x r is exactly 0 at kappa = kappa0
    flat = DipoleSpec(alpha=1e94, alpha0=1e94, gamma=1e-202)
    with pytest.raises(ZeroDivisionError,
                       match="^t0 is infinite on resonance at damping ratio 0"):
        call(flat)


def test_quadrature_names_an_underflowing_central_panel():
    # kappa0 = 3.5e-148 1/m is a float, but (2/3) gamma kappa0 is not
    flat = DipoleSpec(alpha=1e94, alpha0=1e94, gamma=1e-202)
    with pytest.raises(FloatingPointError) as exc:
        spectral_integral_quadrature(flat)
    assert str(exc.value) == (
        "the central panel half-width 1e-3 (2/3) gamma kappa0 underflows to 0 "
        "at gamma = 1e-202 m, kappa0 = 3.544907701811032e-148 1/m")


def test_quadrature_error_when_tolerance_unreachable(monkeypatch):
    monkeypatch.setattr(point_dipole, "SPECTRAL_REL_TOL", 1e-16)
    with pytest.raises(ConvergenceError):
        spectral_integral_quadrature(NARROW)


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
    kappa0 = omega0_si / CONSTANTS.c0_si              # 1/m
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
