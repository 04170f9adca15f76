"""Levi-Civita contractions, the eta constant, and the momentum tensor path."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zpmomentum.tensor_assembly import (ChiTensor, PerturbativeDomainError,
                                        axial_vector, closed_form_p_rad, eta,
                                        eta_consistency, levi_civita,
                                        regularized_K, second_born_momentum)
from zpmomentum.units_materials import CONSTANTS, MaterialSpec, SphereSpec


def make_sphere(epsilon=1.3, radius=1e-6, density=2000.0):
    return SphereSpec(radius=radius,
                      material=MaterialSpec(epsilon=epsilon,
                                            mass_density=density))


# --- K and epsilon-tensor plumbing -----------------------------------------

def test_regularized_K_reference_value():
    assert abs(regularized_K(1.0) + math.pi**2 / 12.0) <= 1e-12


@given(a=st.floats(min_value=1e-9, max_value=1e3))
def test_regularized_K_scales_as_inverse_radius(a):
    assert regularized_K(2.0 * a) == regularized_K(a) / 2.0
    assert regularized_K(a) < 0.0


def test_regularized_K_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        regularized_K(0.0)
    with pytest.raises(ValueError):
        regularized_K(-1.0)


def test_levi_civita_tensor():
    eps = levi_civita()
    assert eps.shape == (3, 3, 3)
    assert eps[0, 1, 2] == 1.0
    for i, j, k in itertools.product(range(3), repeat=3):
        # antisymmetry under swapping any index pair
        assert eps[i, j, k] == -eps[j, i, k]
        assert eps[i, j, k] == -eps[i, k, j]


def test_axial_vector_known_matrix():
    m = np.array([[0.0, 1.0, 0.0],
                  [-1.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0]])
    # w_i = eps_inm chi_mn picks twice the antisymmetric part
    assert np.array_equal(axial_vector(m), np.array([0.0, 0.0, -2.0]))


@given(st.lists(st.floats(min_value=-10, max_value=10), min_size=9, max_size=9))
def test_axial_vector_of_symmetric_matrix_is_exactly_zero(vals):
    m = np.array(vals).reshape(3, 3)
    sym = 0.5 * (m + m.T)
    assert np.array_equal(axial_vector(sym), np.zeros(3))


# --- ChiTensor kinds --------------------------------------------------------

def test_chi_magneto_electric_is_antisymmetric():
    chi = ChiTensor.magneto_electric((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), 2e-4)
    assert np.array_equal(chi.matrix, -chi.matrix.T)
    assert chi.matrix[0, 1] == 2e-4
    assert chi.kind == "magneto_electric"


def test_chi_moving_medium_structure():
    v = np.array([10.0, -20.0, 5.0])
    eps_r = 1.4
    chi = ChiTensor.moving_medium(eps_r, v)
    eps3 = levi_civita()
    expected = np.einsum("ijk,k->ij", (1.0 - eps_r) * eps3, v / CONSTANTS.c0_si)
    assert np.allclose(chi.matrix, expected, rtol=1e-14, atol=0.0)
    assert chi.kind == "moving_medium"


def test_chi_chiral_is_diagonal():
    chi = ChiTensor.chiral(3e-5)
    assert np.array_equal(chi.matrix, 3e-5 * np.eye(3))
    assert chi.kind == "chiral"


def test_chi_kind_invariants_enforced():
    sym = np.eye(3)
    with pytest.raises(ValueError):
        ChiTensor(matrix=sym, kind="magneto_electric")  # not antisymmetric
    with pytest.raises(ValueError):
        ChiTensor(matrix=np.diag([1.0, 2.0, 3.0]), kind="chiral")
    with pytest.raises(ValueError):
        ChiTensor(matrix=np.ones((2, 2)), kind="general")
    with pytest.raises(ValueError):
        ChiTensor(matrix=sym, kind="bespoke")


# --- eta and its consistency check -----------------------------------------

def test_eta_value():
    value = eta()
    # assembled from the exact constant table, this collapses to -29/(1152 pi)
    assert value == -29.0 / (1152.0 * math.pi)
    # magnitude within 5% of the literature reference value 0.007909
    assert abs(value) == pytest.approx(0.007909, rel=0.05)
    assert value < 0.0


def test_eta_consistency_reports_d_discrepancy():
    rep = eta_consistency()
    assert rep.eta_reference == 0.007909
    assert rep.d_quadrature == 3.0 * math.pi / 16.0
    # the D value implied by the reference eta is two orders away from the
    # quadrature value: the reference eta does not pin D
    assert rep.d_implied == pytest.approx(87.6, rel=0.05)
    assert rep.ratio > 100.0
    assert rep.discrepancy == pytest.approx(
        abs(rep.d_implied - rep.d_quadrature), rel=1e-12)


# --- the tensor path vs the closed form ------------------------------------

def random_chi(rng):
    kind = rng.integers(0, 3)
    if kind == 0:
        e, b = rng.normal(size=3), rng.normal(size=3)
        return ChiTensor.magneto_electric(e, b, float(10.0 ** rng.uniform(-6, -2)))
    if kind == 1:
        return ChiTensor.moving_medium(1.0 + float(rng.uniform(-0.4, 0.4)),
                                       rng.normal(size=3) * 100.0)
    return ChiTensor(matrix=rng.normal(size=(3, 3)), kind="general")


def test_tensor_path_equals_closed_form_for_random_chi(rng):
    sphere = make_sphere()
    for _ in range(50):
        chi = random_chi(rng)
        breakdown = second_born_momentum(sphere, chi)
        closed = closed_form_p_rad(sphere, chi)
        scale = np.linalg.norm(closed)
        if scale == 0.0:
            assert np.linalg.norm(breakdown.total) == 0.0
            continue
        assert np.linalg.norm(breakdown.total - closed) <= 1e-6 * scale


def test_symmetric_chi_gives_exactly_zero(rng):
    sphere = make_sphere()
    for _ in range(20):
        m = rng.normal(size=(3, 3))
        chi = ChiTensor(matrix=0.5 * (m + m.T), kind="general")
        breakdown = second_born_momentum(sphere, chi)
        assert np.array_equal(breakdown.total, np.zeros(3))
    chiral = ChiTensor.chiral(0.37)
    assert np.array_equal(second_born_momentum(sphere, chiral).total,
                          np.zeros(3))


def test_breakdown_total_is_sum_of_contributions(rng):
    sphere = make_sphere()
    chi = random_chi(rng)
    b = second_born_momentum(sphere, chi)
    assert np.array_equal(b.total, b.contrib_0 + b.contrib_1 + b.contrib_2)
    assert b.K_used == regularized_K(sphere.radius)


def test_linearity_in_chi_is_exact():
    sphere = make_sphere()
    chi = ChiTensor.magneto_electric((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), 1e-4)
    chi2 = ChiTensor.magneto_electric((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), 2e-4)
    assert np.array_equal(second_born_momentum(sphere, chi2).total,
                          2.0 * second_born_momentum(sphere, chi).total)


def test_scaling_with_contrast_and_radius():
    chi = ChiTensor.magneto_electric((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), 1e-4)
    base = second_born_momentum(make_sphere(epsilon=1.2), chi).total
    doubled = second_born_momentum(make_sphere(epsilon=1.4), chi).total
    assert np.array_equal(doubled, 2.0 * base)  # linear in (epsilon - 1)
    half = second_born_momentum(make_sphere(radius=2e-6), chi).total
    base_r = second_born_momentum(make_sphere(radius=1e-6), chi).total
    assert np.array_equal(half, 0.5 * base_r)  # momentum ~ 1/a through K


def test_perturbative_domain_guard():
    chi = ChiTensor.magneto_electric((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), 1e-4)
    with pytest.raises(PerturbativeDomainError):
        second_born_momentum(make_sphere(epsilon=1.6), chi)
    # the closed form is exposed without the guard for extrapolated estimates
    out = closed_form_p_rad(make_sphere(epsilon=2.0), chi)
    assert np.all(np.isfinite(out))


def test_closed_form_direction_for_crossed_fields():
    # crossed static fields along x and y leave only the z component
    chi = ChiTensor.magneto_electric((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), 1e-4)
    p = closed_form_p_rad(make_sphere(), chi)
    assert p[0] == 0.0 and p[1] == 0.0
    assert p[2] != 0.0
    w = axial_vector(chi.matrix)
    expected = (-eta() * (CONSTANTS.hbar_si / 1e-6) * 0.3) * w
    assert np.allclose(p, expected, rtol=1e-12, atol=0.0)
