"""Acceptance suite: the contracted end-to-end checks, one test per criterion.

Run with ``pytest -v`` to get one pass/fail line per criterion.  Each test also
prints a one-line summary with the measured numbers (visible with ``-s`` or
``-rA``).  Criterion 1 clears the quadrature caches first so its timing bound
is honest; later criteria deliberately reuse the warm cache.
"""

import math
import time

import numpy as np
import pytest

from zpmomentum.base import CONSTANTS
from zpmomentum.units_materials import (FieldConfig, MaterialSpec, SphereSpec,
                                        material_from_json, preset_path)
from zpmomentum.contour_frequency import compare, freq_closed_form
from zpmomentum import oscillatory_integrals as osc
from zpmomentum.oscillatory_integrals import (eval_bruteforce, eval_trig)
from zpmomentum.tensor_assembly import (ChiTensor, closed_form_p_rad, eta,
                                        eta_consistency, regularized_K,
                                        second_born_momentum)
from zpmomentum.point_dipole import (DipoleSpec, p_rad_total,
                                     spectral_integral_quadrature,
                                     spectral_integral_target)
from zpmomentum.predictions import (empty_vacuum_momentum, first_born,
                                    me_sphere_velocity, moving_sphere)

SEED = 20260823

# printed reference values for the radial constants: magnitudes for the four
# constants whose printed signs disagree with both computational routes,
# signed values for the three pieces of E
PRINTED_MAGNITUDES = {"I0": 0.589, "I1": 4.123, "A": 1.374, "C": 1.767}
PRINTED_E_PIECES = {"E1": 8.246, "E2": -13.744, "E3": 24.74}


def _sphere(radius=1e-6, epsilon=1.5, rho=1000.0, **coeffs):
    return SphereSpec(radius=radius,
                      material=MaterialSpec(epsilon=epsilon, mass_density=rho,
                                            **coeffs))


def test_criterion_1_radial_constants_dual_route():
    """Seven printed constants via the trig route (0.5%), magnitudes confirmed
    by regulated quadrature (1%), inside the five-minute budget."""
    osc._regulated_pass.cache_clear()
    start = time.perf_counter()
    trig = {name: eval_trig(name).value for name in osc.TRIG_NAMES}
    for name, mag in PRINTED_MAGNITUDES.items():
        assert abs(trig[name]) == pytest.approx(mag, rel=5e-3), name
    for name, val in PRINTED_E_PIECES.items():
        assert trig[name] == pytest.approx(val, rel=5e-3), name
    brute = {name: eval_bruteforce(name).value
             for name in ("I0", "I1", "A", "C")}
    for name in brute:
        assert abs(brute[name]) == pytest.approx(abs(trig[name]), rel=1e-2), name
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"criterion 1 PASS: 7 trig values within 0.5% of print, "
          f"4 quadrature magnitudes within 1% of trig, {elapsed:.1f}s")


def test_criterion_2_eta_value_and_consistency():
    """|eta| within 5% of the printed 0.007909, and the implied-vs-quadrature
    D discrepancy reported explicitly."""
    value = eta()
    assert abs(value) == pytest.approx(0.007909, rel=0.05)
    rep = eta_consistency()
    assert rep.discrepancy == rep.d_implied - rep.d_quadrature
    assert rep.ratio > 1.0  # the reference eta does not pin D
    print(f"criterion 2 PASS: eta = {value:.6f} (|eta| vs 0.007909: "
          f"{abs(abs(value) / 0.007909 - 1.0):.2%}); D consistency: "
          f"implied {rep.d_implied:.2f} vs quadrature {rep.d_quadrature:.4f}, "
          f"ratio {rep.ratio:.0f}")


def test_criterion_3_frequency_contour_oracle():
    """Closed-form contour integrals vs the regulated numeric oracle to 1e-5
    on twenty random wavenumber pairs, inside the one-minute budget."""
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        k, kp = 10.0 ** rng.uniform(-1.0, 1.0, 2)
        for kind in ("transverse", "one_longitudinal"):
            res = compare(kind, float(k), float(kp))
            rel = res.error_estimate / abs(freq_closed_form(kind, k, kp))
            assert rel <= 1e-5, (kind, k, kp, rel)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 3 PASS: worst relative error {worst:.2e} over 20 pairs "
          f"x 2 kinds, {elapsed:.1f}s")


def _random_chi(rng):
    pick = rng.integers(0, 3)
    if pick == 0:
        e = rng.normal(size=3)
        b = rng.normal(size=3)
        return ChiTensor.magneto_electric(e, b, 10.0 ** rng.uniform(-6, -2))
    if pick == 1:
        return ChiTensor.moving_medium(1.0 + rng.uniform(-0.4, 0.4),
                                       rng.normal(size=3) * 100.0)
    return ChiTensor(matrix=rng.normal(size=(3, 3)) * 1e-3, kind="general")


def test_criterion_4_tensor_momentum_matches_closed_form():
    """The assembled tensor momentum equals the closed form to 1e-6 on fifty
    random couplings; symmetric couplings give exactly zero."""
    rng = np.random.default_rng(SEED)
    sphere = _sphere()
    worst = 0.0
    for _ in range(50):
        chi = _random_chi(rng)
        total = second_born_momentum(sphere, chi).total
        closed = closed_form_p_rad(sphere, chi)
        scale = np.linalg.norm(closed)
        if scale == 0.0:
            assert np.array_equal(total, np.zeros(3))
            continue
        rel = np.linalg.norm(np.subtract(total, closed)) / scale
        assert rel <= 1e-6, (chi.kind, rel)
        worst = max(worst, rel)
    zeros = np.zeros(3)
    for _ in range(10):
        m = rng.normal(size=(3, 3))
        chi = ChiTensor(matrix=(m + m.T) / 2.0, kind="general")
        assert np.array_equal(second_born_momentum(sphere, chi).total, zeros)
    chi = ChiTensor.chiral(0.37)
    assert np.array_equal(second_born_momentum(sphere, chi).total, zeros)
    print(f"criterion 4 PASS: worst closed-form deviation {worst:.2e} over 50 "
          f"random couplings; symmetric couplings exactly zero")


def _random_narrow_spec(rng):
    alpha0 = 10.0 ** rng.uniform(-0.3, 0.3)
    alpha = alpha0 / rng.uniform(0.3, 1.0)
    gamma = 10.0 ** rng.uniform(math.log10(1e-5), math.log10(5e-4))
    return DipoleSpec(alpha=alpha, alpha0=alpha0, gamma=gamma)


def test_criterion_5_dipole_sum_rule_and_momentum():
    """The dipole spectral integral hits -(pi/2) alpha0 kappa0 to 1e-4, and the
    total momentum matches the mass-shift closed form to 1e-4, on ten random
    narrow resonances."""
    rng = np.random.default_rng(SEED)
    worst_j = 0.0
    worst_p = 0.0
    for _ in range(10):
        spec = _random_narrow_spec(rng)
        j = spectral_integral_quadrature(spec)
        target = spectral_integral_target(spec)
        rel = abs(j - target) / abs(target)
        assert rel <= 1e-4, spec
        worst_j = max(worst_j, rel)

        v = rng.normal(size=3)
        v *= rng.uniform(0.1, 100.0) / np.linalg.norm(v)
        p = p_rad_total(spec, v)
        expected = (-(spec.alpha0 / spec.alpha) * CONSTANTS.hbar_si
                    * spec.omega0 / CONSTANTS.c0_si**2 * v)
        rel_p = np.linalg.norm(p - expected) / np.linalg.norm(expected)
        assert rel_p <= 1e-4, spec
        worst_p = max(worst_p, rel_p)
    print(f"criterion 5 PASS: worst sum-rule deviation {worst_j:.2e}, worst "
          f"momentum deviation {worst_p:.2e} over 10 random specs")


def test_criterion_6_headline_magnitudes():
    """The headline numbers: magneto-electric drift ~1e-20 m/s, hard-cutoff
    estimate ~30 nm/s, ~12 orders of magnitude apart, and moving-sphere mass
    shifts ~1e-9 (micron) / ~1e-4 (atomic) electron masses."""
    fegao3 = SphereSpec(radius=1e-6,
                        material=material_from_json(preset_path("fegao3")))
    fields = FieldConfig(e0=(1.0, 0.0, 0.0), b0=(0.0, 1.0, 0.0))
    me_speed = float(np.linalg.norm(me_sphere_velocity(fegao3, fields).velocity))
    assert 1e-21 <= me_speed <= 1e-19

    cutoff_sphere = _sphere(epsilon=1.0, me_coupling=1e-11)
    chi = ChiTensor.magneto_electric((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), 1e-11)
    cutoff = first_born(cutoff_sphere, chi, mode="cutoff",
                        k_cut=2.0 * math.pi / 1e-10)
    cutoff_speed = float(np.linalg.norm(cutoff.velocity))
    assert 10e-9 <= cutoff_speed <= 90e-9

    orders = math.log10(cutoff_speed / me_speed)
    assert 10.0 <= orders <= 14.0

    m_e = CONSTANTS.electron_mass_si
    micron = moving_sphere(_sphere(radius=1e-6, epsilon=2.0), (1.0, 0.0, 0.0))
    micron_shift = abs(micron.mass_shift) / m_e
    assert 1e-10 <= micron_shift <= 1e-8
    bohr_radius = 5.29177210903e-11  # m, CODATA 2018
    atomic = moving_sphere(_sphere(radius=bohr_radius, epsilon=2.0),
                           (1.0, 0.0, 0.0))
    atomic_shift = abs(atomic.mass_shift) / m_e
    assert 1e-5 <= atomic_shift <= 1e-3
    print(f"criterion 6 PASS: ME drift {me_speed:.2e} m/s, cutoff estimate "
          f"{cutoff_speed:.2e} m/s ({orders:.1f} orders apart); mass shifts "
          f"{micron_shift:.2e} m_e (micron), {atomic_shift:.2e} m_e (atomic)")


def test_criterion_7_exact_zeros_and_k():
    """Empty vacuum and the dimensional-regularization first Born term are
    exactly zero; the regularized self-overlap at unit radius is -pi^2/12."""
    assert np.array_equal(empty_vacuum_momentum(), np.zeros(3))
    sphere = _sphere(epsilon=1.0, me_coupling=1e-11)
    chi = ChiTensor.magneto_electric((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), 1e-11)
    dimensional = first_born(sphere, chi, mode="dimensional")
    assert np.array_equal(dimensional.momentum, np.zeros(3))
    assert np.array_equal(dimensional.velocity, np.zeros(3))
    k1 = regularized_K(1.0)
    assert abs(k1 + math.pi**2 / 12.0) <= 1e-12
    print(f"criterion 7 PASS: vacuum and dimensional first Born exactly zero; "
          f"K(1) = {k1:.12f} vs -pi^2/12 = {-math.pi**2 / 12.0:.12f}")
