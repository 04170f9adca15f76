"""Levi-Civita contractions, the eta constant, and the momentum tensor path."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zpmomentum.oscillatory_integrals import reconciled_constants
from zpmomentum.base import CONSTANTS, _EPS3 as EPS3_TUPLE
from zpmomentum.tensor_assembly import (ChiTensor, axial_vector,
                                        closed_form_p_rad, eta,
                                        eta_consistency, regularized_K,
                                        second_born_momentum, solve_D1_D3)
from zpmomentum.units_materials import MaterialSpec, SphereSpec


# the Levi-Civita is stored as a nested tuple; the references index an array
_EPS3 = np.array(EPS3_TUPLE)


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
    assert np.array_equal(np.einsum("ijk->ijk", EPS3_TUPLE), _EPS3)
    eps = _EPS3
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


def test_eps_contractions_match_index_loops_bitwise(rng):
    # The closed expressions keep the bits of index-loop sums started at
    # +0.0, signed zeros included: the CLI prints 0.0, never -0.0, there.
    matrices = [np.array(z).reshape(3, 3)
                for z in itertools.product([0.0, -0.0], repeat=9)]
    matrices += [np.where(rng.random((3, 3)) < 0.5,
                          rng.choice([0.0, -0.0], size=(3, 3)),
                          rng.normal(size=(3, 3))) for _ in range(200)]
    for m in matrices:
        v = m[0] / CONSTANTS.c0_si
        w = np.zeros(3)
        chi = np.zeros((3, 3))
        for i, j, k in itertools.product(range(3), repeat=3):
            w[i] += _EPS3[i, j, k] * m[k, j]
            chi[i, j] += (1.0 - 1.4) * _EPS3[i, j, k] * v[k]
        assert np.array(axial_vector(m)).tobytes() == w.tobytes()
        assert np.array(ChiTensor.moving_medium(1.4, m[0]).matrix).tobytes() \
            == chi.tobytes()


# --- ChiTensor kinds --------------------------------------------------------

def test_chi_magneto_electric_is_antisymmetric():
    chi = ChiTensor.magneto_electric((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), 2e-4)
    m = np.array(chi.matrix)
    assert np.array_equal(m, -m.T)
    assert m[0, 1] == 2e-4
    assert chi.kind == "magneto_electric"


def test_chi_moving_medium_structure():
    v = np.array([10.0, -20.0, 5.0])
    eps_r = 1.4
    chi = ChiTensor.moving_medium(eps_r, v)
    expected = np.einsum("ijk,k->ij", (1.0 - eps_r) * _EPS3, v / CONSTANTS.c0_si)
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


def test_eta_consistency_with_computed_signs_implies_twice_d():
    # with I0 < 0 and the reference eta at the computed (negative) sign, the
    # printed values imply 3 pi/8 within their rounding: twice the computed D
    rep = eta_consistency()
    assert rep.d_implied_computed_signs == pytest.approx(3.0 * math.pi / 8.0,
                                                         rel=1e-4)
    assert rep.ratio_computed_signs == (rep.d_implied_computed_signs
                                        / rep.d_quadrature)
    assert f"{rep.ratio_computed_signs:.3f}" == "2.000"


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
        assert np.linalg.norm(np.subtract(breakdown.total, closed)) <= \
            1e-6 * scale


def test_tensor_path_equals_closed_form_constant_by_constant(rng):
    # eta and the tensor path state each constant's coefficient apart, so
    # each unit set (one constant 1, the others 0) and random sets tie them
    # one by one.  Each path rounds a few dozen products and sums, so the
    # two agree within 16 ulp of the result's scale.
    names = ("I0", "I1", "A", "C", "D", "E")
    sets = ([{n: float(n == unit) for n in names} for unit in names]
            + [dict(zip(names, map(float, 5.0 * rng.normal(size=6))))
               for _ in range(5)])
    for constants in sets:
        for _ in range(4):
            sphere = make_sphere(epsilon=1.0 + float(rng.uniform(-0.5, 0.5)),
                                 radius=float(10.0 ** rng.uniform(-8, -4)))
            chi = ChiTensor(matrix=rng.normal(size=(3, 3)), kind="general")
            total = second_born_momentum(sphere, chi,
                                         constants=constants).total
            closed = closed_form_p_rad(sphere, chi,
                                       eta_value=eta(constants))
            scale = max(map(abs, closed))
            assert max(abs(x - y) for x, y in zip(total, closed)) <= \
                16 * 2.0**-53 * scale, constants


def test_einsum_contractions_match_index_loops(rng):
    # reference: both mode-sum tensors summed entry by entry, then
    # contracted as T_ijj - T_jij; the package builds each half of T and
    # sums its contraction over j instead, which only reorders the sums
    sphere = make_sphere()
    c = reconciled_constants()
    K = regularized_K(sphere.radius)
    contrast = sphere.material.epsilon - 1.0
    D1, D3 = solve_D1_D3(c["D"], c["E"])
    a1 = D1 + (c["C"] - c["A"]) / 15.0
    a3 = D3 + (c["C"] - c["A"]) / 15.0
    coeff0 = -K / (48.0 * math.pi**4) * contrast * (c["I0"] - c["I1"])
    coeff1 = K / (16.0 * math.pi**4) * contrast
    eps, d = _EPS3, np.eye(3)
    for _ in range(30):
        m = rng.normal(size=(3, 3))
        t0, t1 = np.zeros((3, 3, 3)), np.zeros((3, 3, 3))
        for i, j, l, k in itertools.product(range(3), repeat=4):
            t0[i, j, l] += coeff0 * (eps[j, k, i] * m[l, k]
                                     + m[j, k] * eps[l, k, i])
            t1[i, j, l] += coeff1 * a3 * (eps[k, l, i] * m[j, k]
                                          + eps[k, j, i] * m[l, k])
            for n in range(3):
                t1[i, j, l] += coeff1 * a1 * m[k, n] * (
                    d[i, j] * eps[n, l, k] + d[i, l] * eps[n, j, k])
        b = second_born_momentum(sphere, ChiTensor(matrix=m))
        for got, t in ((b.contrib_0, t0), (b.contrib_1, t1)):
            want = CONSTANTS.hbar_si * np.array(
                [sum(t[i, j, j] - t[j, i, j] for j in range(3))
                 for i in range(3)])
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


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
    assert np.array_equal(b.total, np.array(b.contrib_0) + b.contrib_1
                          + b.contrib_2)


def test_linearity_in_chi_is_exact():
    sphere = make_sphere()
    chi = ChiTensor.magneto_electric((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), 1e-4)
    chi2 = ChiTensor.magneto_electric((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), 2e-4)
    once = np.array(second_born_momentum(sphere, chi).total)
    assert np.array_equal(second_born_momentum(sphere, chi2).total, 2.0 * once)


def test_scaling_with_contrast_and_radius():
    chi = ChiTensor.magneto_electric((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), 1e-4)
    base = np.array(second_born_momentum(make_sphere(epsilon=1.2), chi).total)
    doubled = second_born_momentum(make_sphere(epsilon=1.4), chi).total
    assert np.array_equal(doubled, 2.0 * base)  # linear in (epsilon - 1)
    half = second_born_momentum(make_sphere(radius=2e-6), chi).total
    base_r = np.array(
        second_born_momentum(make_sphere(radius=1e-6), chi).total)
    assert np.array_equal(half, 0.5 * base_r)  # momentum ~ 1/a through K


def test_perturbative_domain_guard():
    chi = ChiTensor.magneto_electric((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), 1e-4)
    with pytest.raises(ValueError, match="exceeds 0.5"):
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
    w = np.array(axial_vector(chi.matrix))
    expected = (-eta() * (CONSTANTS.hbar_si / 1e-6) * 0.3) * w
    assert np.allclose(p, expected, rtol=1e-12, atol=0.0)
