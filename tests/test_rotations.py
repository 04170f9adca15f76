"""Rotation covariance: each vector- or tensor-valued result turns with its
inputs the way its formula says.

For an orthogonal Q (a proper rotation R, or the improper -R), rotating the
inputs turns a polar vector result P into Q P, an axial one into
det(Q) Q P, and a tensor T into Q T Q^T.  The rotated inputs are rounded
once more than the originals, so each comparison allows a few times the
rounding of the products that build the result, on a stated scale: the
worst deviation over 3000 random draws is quoted with each tolerance.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from zpmomentum.base import CONSTANTS
from zpmomentum.point_dipole import DipoleSpec, p_rad_spectral, t0, t_matrix
from zpmomentum.predictions import (first_born, magneto_chiral,
                                    me_sphere_velocity, moving_sphere)
from zpmomentum.tensor_assembly import (ChiTensor, axial_vector,
                                        closed_form_p_rad,
                                        second_born_momentum)
from zpmomentum.units_materials import FieldConfig, MaterialSpec, SphereSpec

U = 2.0**-53
# A scalar times one rotated vector: Q x rounds each component by about
# 2 ulp and the scalar product by 1 more; worst measured 4.8 ulp.
SCALED_TOL = 16 * U
# Differences of entries of a rotated matrix Q M Q^T, two 3-term products
# deep, on the scale of max|M| (or of the result for an antisymmetric M);
# worst measured 17 ulp.
CONTRACTED_TOL = 64 * U

SPHERE = SphereSpec(1e-6, MaterialSpec(epsilon=1.3, mass_density=2000.0,
                                       me_coupling=1e-4, verdet_v0=3.0,
                                       chirality_g=0.5))
NARROW = DipoleSpec(alpha=1.0, alpha0=1.0, gamma=1e-4)
SLOW = 1e-3 * CONSTANTS.c0_si  # |v| stays below the 0.01 c0 bound

fraction = st.floats(0.0, 1.0)


def _vector(z, turn, size):
    # a vector of length size in [0.1, 1], its direction uniform on the
    # sphere for uniform z and turn; drawn this way no example is degenerate
    s = math.sqrt((1.0 - z) * (1.0 + z))
    return size * np.array([s * math.cos(2 * math.pi * turn),
                            s * math.sin(2 * math.pi * turn), z])


vectors = st.builds(_vector, st.floats(-1.0, 1.0), fraction,
                    st.floats(0.1, 1.0))


@st.composite
def orthogonal(draw):
    """Q = s R: R the rotation of the normalised quaternion (w, x, y, z) that
    Shoemake's map (Graphics Gems III, 1992) makes of three fractions, and
    s = +1 or -1, so det Q = s."""
    u = draw(fraction)
    a, b = (2 * math.pi * draw(fraction) for _ in range(2))
    w, x = math.sqrt(1 - u) * math.sin(a), math.sqrt(1 - u) * math.cos(a)
    y, z = math.sqrt(u) * math.sin(b), math.sqrt(u) * math.cos(b)
    rotation = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])
    return draw(st.sampled_from([1.0, -1.0])) * rotation


def _det(q):
    return round(np.linalg.det(q))


def _deviation(got, expected, scale):
    return np.max(np.abs(np.array(got) - expected)) / scale


def _antisymmetric(w):
    return np.array([[0.0, w[2], -w[1]], [-w[2], 0.0, w[0]],
                     [w[1], -w[0], 0.0]])


@settings(max_examples=20, deadline=None)
@given(q=orthogonal(), w=vectors)
def test_tensor_path_and_closed_form_are_axial(q, w):
    # P_i is a contraction of eps_ijk with chi, so it picks up det(Q)
    chi = _antisymmetric(1e-4 * w)
    turned = ChiTensor((q @ chi @ q.T).tolist())
    for path in (lambda c: second_born_momentum(SPHERE, c).total,
                 lambda c: closed_form_p_rad(SPHERE, c)):
        expected = _det(q) * q @ path(ChiTensor(chi.tolist()))
        scale = np.max(np.abs(expected))
        assert _deviation(path(turned), expected, scale) <= CONTRACTED_TOL


@settings(max_examples=20, deadline=None)
@given(q=orthogonal(), k=vectors, kp=vectors, v=vectors,
       log_r=st.floats(-1.0, 1.0))
def test_t_matrix_correction_turns_as_a_tensor(q, k, kp, v, log_r):
    # T - t0 1 against Q (T - t0 1) Q^T: t0 1 is invariant and dominates T,
    # so the correction, at most 1e-2 of t0, is compared on its own scale
    # plus the rounding of T's diagonal, 8 ulp of |t0| (worst measured
    # 1.8 ulp of |t0| + max|correction|)
    omega = NARROW.omega0 * 10.0**log_r
    kappa = omega / CONSTANTS.c0_si
    amp = t0(NARROW, omega)
    correction = np.array(t_matrix(NARROW, omega, kappa * k, kappa * kp,
                                   SLOW * v)) - amp * np.eye(3)
    turned = np.array(t_matrix(NARROW, omega, q @ (kappa * k),
                               q @ (kappa * kp), q @ (SLOW * v)))
    expected = q @ correction @ q.T
    scale = abs(amp) + np.max(np.abs(expected))
    assert _deviation(turned - amp * np.eye(3), expected, scale) <= 8 * U


@settings(max_examples=20, deadline=None)
@given(q=orthogonal(), v=vectors, log_r=st.floats(-1.0, 1.0))
def test_p_rad_spectral_is_polar(q, v, log_r):
    omega = NARROW.omega0 * 10.0**log_r
    expected = q @ p_rad_spectral(NARROW, omega, SLOW * v)
    got = p_rad_spectral(NARROW, omega, q @ (SLOW * v))
    assert _deviation(got, expected, np.max(np.abs(expected))) <= SCALED_TOL


@settings(max_examples=20, deadline=None)
@given(q=orthogonal(), w=vectors)
def test_first_born_cutoff_is_axial(q, w):
    chi = _antisymmetric(1e-4 * w)
    expected = _det(q) * q @ first_born(SPHERE, ChiTensor(chi.tolist()),
                                        "cutoff", 1e9).momentum
    got = first_born(SPHERE, ChiTensor((q @ chi @ q.T).tolist()), "cutoff",
                     1e9).momentum
    assert _deviation(got, expected,
                      np.max(np.abs(expected))) <= CONTRACTED_TOL


@settings(max_examples=20, deadline=None)
@given(q=orthogonal(), e0=vectors, b0=vectors)
def test_me_sphere_velocity_is_axial(q, e0, b0):
    # the momentum goes as e^ x b^; the rotated fields round relative to
    # their own size, which the cross product does not shrink, so the scale
    # is the momentum for orthogonal fields
    scale = max(map(abs, me_sphere_velocity(
        SPHERE, FieldConfig((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))).momentum))
    expected = _det(q) * q @ me_sphere_velocity(
        SPHERE, FieldConfig(e0, b0)).momentum
    got = me_sphere_velocity(SPHERE, FieldConfig(q @ e0, q @ b0)).momentum
    assert _deviation(got, expected, scale) <= CONTRACTED_TOL


@settings(max_examples=20, deadline=None)
@given(q=orthogonal(), v=vectors)
def test_moving_sphere_is_polar(q, v):
    # chi carries eps_ijk v_k and P contracts it with eps again: det(Q)^2 = 1
    expected = q @ moving_sphere(SPHERE, SLOW * v).momentum
    got = moving_sphere(SPHERE, q @ (SLOW * v)).momentum
    assert _deviation(got, expected, np.max(np.abs(expected))) <= SCALED_TOL


@settings(max_examples=20, deadline=None)
@given(q=orthogonal(), b=vectors)
def test_magneto_chiral_turns_with_the_field(q, b):
    # the estimate is a scalar times B, so B's components turn through it
    expected = q @ magneto_chiral(SPHERE, b).momentum
    got = magneto_chiral(SPHERE, q @ b).momentum
    assert _deviation(got, expected, np.max(np.abs(expected))) <= SCALED_TOL


@settings(max_examples=20, deadline=None)
@given(q=orthogonal(), rows=st.tuples(vectors, vectors, vectors))
def test_axial_vector_is_axial(q, rows):
    # on the scale of the matrix: a nearly symmetric M has a small w
    matrix = np.array(rows)
    expected = _det(q) * q @ axial_vector(matrix.tolist())
    got = axial_vector((q @ matrix @ q.T).tolist())
    assert _deviation(got, expected,
                      np.max(np.abs(matrix))) <= CONTRACTED_TOL
