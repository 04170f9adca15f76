"""End-user predictions: estimates, caveats, digests, and replay."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from zpmomentum import point_dipole
from zpmomentum.predictions import (Prediction, empty_vacuum_momentum,
                                    first_born, magneto_chiral,
                                    me_sphere_velocity, moving_sphere, replay)
from zpmomentum.tensor_assembly import (BornMomentumBreakdown, ChiTensor,
                                        axial_vector, closed_form_p_rad,
                                        regularized_K, second_born_momentum)
from zpmomentum.base import CONSTANTS
from zpmomentum.units_materials import (FieldConfig, MaterialSpec, SphereSpec,
                                        material_from_json, preset_path)

FEIGEL_CHI = 1e-11
FEIGEL_K_CUT = 2.0 * math.pi / 1e-10  # 0.1 nm cutoff wavelength


def feigel_sphere(radius=1e-6):
    mat = MaterialSpec(epsilon=1.0, mass_density=1000.0, me_coupling=FEIGEL_CHI)
    return SphereSpec(radius=radius, material=mat)


def crossed_chi(scale):
    return ChiTensor.magneto_electric((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), scale)


# --- first Born -------------------------------------------------------------

def test_first_born_dimensional_mode_is_exactly_zero():
    pred = first_born(feigel_sphere(), crossed_chi(FEIGEL_CHI),
                      mode="dimensional")
    assert np.array_equal(pred.momentum, np.zeros(3))
    assert np.array_equal(pred.velocity, np.zeros(3))


def test_first_born_cutoff_reproduces_canonical_estimate():
    pred = first_born(feigel_sphere(), crossed_chi(FEIGEL_CHI),
                      mode="cutoff", k_cut=FEIGEL_K_CUT)
    speed = np.linalg.norm(pred.velocity)
    assert speed == pytest.approx(30e-9, rel=2.0)  # within a factor 3
    assert pred.model == "first_born"


def test_first_born_cutoff_requires_k_cut():
    with pytest.raises(ValueError):
        first_born(feigel_sphere(), crossed_chi(FEIGEL_CHI), mode="cutoff")
    with pytest.raises(ValueError):
        first_born(feigel_sphere(), crossed_chi(FEIGEL_CHI), mode="sideways",
                   k_cut=1.0)


def test_first_born_zero_coupling_gives_zero():
    pred = first_born(feigel_sphere(), crossed_chi(0.0), mode="cutoff",
                      k_cut=FEIGEL_K_CUT)
    assert np.array_equal(pred.momentum, np.zeros(3))


def test_first_born_cutoff_scalings():
    base = first_born(feigel_sphere(), crossed_chi(FEIGEL_CHI),
                      mode="cutoff", k_cut=FEIGEL_K_CUT)
    harder = first_born(feigel_sphere(), crossed_chi(FEIGEL_CHI),
                        mode="cutoff", k_cut=2.0 * FEIGEL_K_CUT)
    base_p = np.array(base.momentum)
    assert np.array_equal(harder.momentum, 16.0 * base_p)  # k_cut^4
    bigger = first_born(feigel_sphere(radius=2e-6), crossed_chi(FEIGEL_CHI),
                        mode="cutoff", k_cut=FEIGEL_K_CUT)
    # momentum grows with the volume; the speed is radius-independent
    assert np.allclose(bigger.momentum, 8.0 * base_p, rtol=1e-12)
    assert np.allclose(bigger.velocity, base.velocity, rtol=1e-12)


# --- ME sphere --------------------------------------------------------------

def test_me_sphere_literature_magnitude():
    mat = material_from_json(preset_path("fegao3"))
    sphere = SphereSpec(radius=1e-6, material=mat)
    pred = me_sphere_velocity(sphere, FieldConfig(e0=(1, 0, 0), b0=(0, 1, 0)))
    speed = np.linalg.norm(pred.velocity)
    assert 1e-21 <= speed <= 1e-19  # 1e-20 m/s within a factor 10
    assert np.array_equal(pred.velocity,
                          np.array(pred.momentum) / sphere.mass())


def test_me_sphere_parallel_fields_give_zero():
    pred = me_sphere_velocity(feigel_sphere(),
                              FieldConfig(e0=(1, 0, 0), b0=(2, 0, 0)))
    assert np.array_equal(pred.momentum, np.zeros(3))


def test_me_sphere_rejects_vanishing_fields():
    with pytest.raises(ValueError):
        me_sphere_velocity(feigel_sphere(), FieldConfig(e0=(0, 0, 0),
                                                        b0=(0, 1, 0)))


def test_me_sphere_notes_flag_sign_and_domain():
    mat = material_from_json(preset_path("fegao3"))  # epsilon = 2
    pred = me_sphere_velocity(SphereSpec(radius=1e-6, material=mat),
                              FieldConfig(e0=(1, 0, 0), b0=(0, 1, 0)))
    notes = " ".join(pred.inputs_digest["notes"])
    assert "eta" in notes
    assert "perturbative" in notes


def test_me_sphere_momentum_scales_inversely_with_radius():
    fields = FieldConfig(e0=(1, 0, 0), b0=(0, 1, 0))
    mat = MaterialSpec(epsilon=1.3, mass_density=1000.0, me_coupling=1e-6)
    p1 = me_sphere_velocity(SphereSpec(radius=1e-6, material=mat), fields)
    p2 = me_sphere_velocity(SphereSpec(radius=2e-6, material=mat), fields)
    assert np.allclose(p2.momentum, 0.5 * np.array(p1.momentum), rtol=1e-12)


# --- moving sphere ----------------------------------------------------------

def test_moving_sphere_momentum_and_mass_shift():
    sphere = SphereSpec(radius=1e-6,
                        material=MaterialSpec(epsilon=2.0, mass_density=1000.0))
    v = np.array([1.0, 0.0, 0.0])
    pred = moving_sphere(sphere, v)
    from zpmomentum.tensor_assembly import eta
    coeff = -2.0 * eta() * CONSTANTS.hbar_si / (1e-6 * CONSTANTS.c0_si)
    assert pred.mass_shift == pytest.approx(coeff, rel=1e-12)
    assert np.allclose(pred.momentum, coeff * v, rtol=1e-12)
    # with the computed (negative) eta the shift comes out positive; the
    # result carries a note flagging the sign-convention difference
    assert pred.mass_shift > 0.0
    notes = " ".join(pred.inputs_digest["notes"])
    assert "mass_shift" in notes


def test_moving_sphere_mass_shift_magnitudes():
    micron = SphereSpec(radius=1e-6,
                        material=MaterialSpec(epsilon=2.0, mass_density=1000.0))
    atomic = SphereSpec(radius=CONSTANTS.bohr_radius_si,
                        material=MaterialSpec(epsilon=2.0, mass_density=1000.0))
    shift_um = moving_sphere(micron, (1, 0, 0)).mass_shift
    shift_a0 = moving_sphere(atomic, (1, 0, 0)).mass_shift
    m_e = CONSTANTS.electron_mass_si
    assert 1e-10 <= abs(shift_um) / m_e <= 1e-8     # ~1e-9 m_e
    assert 1e-5 <= abs(shift_a0) / m_e <= 1e-3      # ~1e-4 m_e


def test_moving_sphere_at_rest_and_scaling():
    sphere = SphereSpec(radius=1e-6,
                        material=MaterialSpec(epsilon=1.5, mass_density=1000.0))
    rest = moving_sphere(sphere, np.zeros(3))
    assert np.array_equal(rest.momentum, np.zeros(3))
    double_a = SphereSpec(radius=2e-6, material=sphere.material)
    assert moving_sphere(double_a, (1, 0, 0)).mass_shift == \
        0.5 * moving_sphere(sphere, (1, 0, 0)).mass_shift
    # first order in v/c0: the model refuses |v|/c0 >= 0.01
    moving_sphere(sphere, (0.009 * CONSTANTS.c0_si, 0.0, 0.0))
    with pytest.raises(ValueError):
        moving_sphere(sphere, (0.02 * CONSTANTS.c0_si, 0.0, 0.0))


def test_moving_sphere_matches_tensor_path(rng):
    # the command's momentum against the independent route: the explicit
    # second-order tensor contractions of the moving-medium coupling
    for _ in range(50):
        eps = 1.0 + float(rng.uniform(-0.5, 0.5))
        sphere = SphereSpec(radius=float(10.0 ** rng.uniform(-8.0, -4.0)),
                            material=MaterialSpec(epsilon=eps,
                                                  mass_density=1000.0))
        v = rng.normal(size=3) * 10.0 ** rng.uniform(0.0, 5.0)
        pred = moving_sphere(sphere, v)
        tensor = second_born_momentum(sphere,
                                      ChiTensor.moving_medium(eps, v)).total
        assert np.linalg.norm(np.subtract(pred.momentum, tensor)) <= \
            1e-6 * np.linalg.norm(tensor)


# --- magneto-chiral ---------------------------------------------------------

MC_MATERIAL = MaterialSpec(epsilon=1.5, mass_density=1000.0,
                           verdet_v0=1e-26, chirality_g=1e-4)


def test_magneto_chiral_always_carries_caveat():
    sphere = SphereSpec(radius=1e-6, material=MC_MATERIAL)
    pred = magneto_chiral(sphere, (0.0, 0.0, 1.0))
    assert "macroscopic_model_probably_wrong" in pred.inputs_digest["notes"]
    assert pred.inputs_digest["constants"]["macroscopic_model_probably_wrong"] is True


def test_magneto_chiral_enantiomer_sign_flip():
    sphere = SphereSpec(radius=1e-6, material=MC_MATERIAL)
    mirrored = MaterialSpec(epsilon=1.5, mass_density=1000.0,
                            verdet_v0=1e-26, chirality_g=-1e-4)
    p = magneto_chiral(sphere, (0, 0, 1)).momentum
    p_mirror = magneto_chiral(SphereSpec(radius=1e-6, material=mirrored),
                              (0, 0, 1)).momentum
    assert np.array_equal(p_mirror, -np.array(p))


def test_magneto_chiral_field_and_radius_scaling():
    sphere = SphereSpec(radius=1e-6, material=MC_MATERIAL)
    zero_b = magneto_chiral(sphere, np.zeros(3))
    assert np.array_equal(zero_b.momentum, np.zeros(3))
    p1 = magneto_chiral(sphere, (0, 0, 1)).momentum
    p2 = magneto_chiral(SphereSpec(radius=2e-6, material=MC_MATERIAL),
                        (0, 0, 1)).momentum
    assert np.allclose(p2, np.array(p1) / 8.0, rtol=1e-12)  # 1/a^3


def test_magneto_chiral_si_product_matches_the_gaussian_chain(rng):
    # the published product evaluated as it is written: hbar in erg s, c0 in
    # cm/s, a in cm and B in gauss, the result in g cm/s times 1e-5 kg m/s
    hbar_erg_s, c0_cm_s = 1.054571817e-27, 2.99792458e10
    for _ in range(200):
        a = 10.0 ** rng.uniform(math.log10(5e-8), math.log10(5e-5))
        v0, g = (rng.choice([-1.0, 1.0], 2)
                 * 10.0 ** rng.uniform(-6.0, -2.0, 2))
        b = rng.normal(size=3)
        b *= rng.uniform(0.0, 10.0) / np.linalg.norm(b)
        mat = MaterialSpec(epsilon=1.5, mass_density=1000.0, verdet_v0=v0,
                           chirality_g=g)
        reference = (-0.005098 * hbar_erg_s * v0 * c0_cm_s**2 * g
                     / (a * 1e2)**3) * (b * 1e4) * 1e-5
        momentum = magneto_chiral(SphereSpec(radius=a, material=mat),
                                  b).momentum
        np.testing.assert_allclose(momentum, reference, rtol=2e-15, atol=0.0)


def test_magneto_chiral_requires_material_coefficients():
    bare = SphereSpec(radius=1e-6,
                      material=MaterialSpec(epsilon=1.5, mass_density=1000.0))
    with pytest.raises(ValueError, match="requires verdet_v0 and chirality_g"):
        magneto_chiral(bare, (0, 0, 1))


# --- vacuum control and replay ---------------------------------------------

def test_empty_vacuum_momentum_is_exactly_zero_and_fresh():
    out = empty_vacuum_momentum()
    assert out == (0.0, 0.0, 0.0)
    assert all(math.copysign(1.0, x) == 1.0 for x in out)
    with pytest.raises(TypeError):  # a tuple: no caller can change it
        out[0] = 1.0
    assert empty_vacuum_momentum() == (0.0, 0.0, 0.0)


def test_replay_is_bit_exact_for_every_model():
    preds = [
        first_born(feigel_sphere(), crossed_chi(FEIGEL_CHI), mode="cutoff",
                   k_cut=FEIGEL_K_CUT),
        me_sphere_velocity(
            SphereSpec(radius=1e-6, material=material_from_json(preset_path("fegao3"))),
            FieldConfig(e0=(1, 0, 0), b0=(0, 1, 0))),
        moving_sphere(SphereSpec(radius=2e-6,
                                 material=MaterialSpec(epsilon=1.4,
                                                       mass_density=2500.0)),
                      (3.0, 0.0, -1.0)),
        magneto_chiral(SphereSpec(radius=1e-6, material=MC_MATERIAL),
                       (0.0, 0.5, 1.0)),
    ]
    for pred in preds:
        again = replay(pred.inputs_digest)
        assert again == pred and hash(again) == hash(pred), pred.model
        assert again.model == pred.model
        assert np.array_equal(again.momentum, pred.momentum), pred.model
        assert np.array_equal(again.velocity, pred.velocity), pred.model
        assert again.mass_shift == pred.mass_shift, pred.model


def test_replay_survives_json_round_trip():
    import json
    pred = moving_sphere(SphereSpec(radius=1e-6,
                                    material=MaterialSpec(epsilon=1.2,
                                                          mass_density=1500.0)),
                         (1.0, 2.0, 3.0))
    digest = json.loads(json.dumps(pred.inputs_digest))
    again = replay(digest)
    assert again == pred
    assert np.array_equal(again.momentum, pred.momentum)


def test_replay_refuses_an_unknown_model():
    digest = {"model": "levitating_sphere", "inputs": {}, "constants": {}}
    with pytest.raises(ValueError, match="unknown model 'levitating_sphere'"):
        replay(digest)


def test_digest_is_complete():
    pred = first_born(feigel_sphere(), crossed_chi(FEIGEL_CHI), mode="cutoff",
                      k_cut=FEIGEL_K_CUT)
    digest = pred.inputs_digest
    assert set(digest) >= {"model", "inputs", "constants", "notes"}
    assert digest["model"] == "first_born"
    assert "hbar_si" in digest["constants"]


# --- the error contract of the closed-form callables ------------------------

HOSTILE = (math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -1e300, 5e-324,
           1e-300, 1e-100, 1e100, 1e300, 1.7976931348623157e308)
hostile = st.one_of(st.sampled_from(HOSTILE), st.floats())


def _mostly(ordinary, other):
    """other one draw in eight, ordinary otherwise, so that most draws get
    past the input checks to the arithmetic."""
    return st.integers(0, 7).flatmap(lambda i: other if i == 0 else ordinary)


number = _mostly(st.floats(-10.0, 10.0), hostile)
positive = _mostly(st.floats(-107.0, 100.0).map(lambda e: 10.0 ** e),
                   hostile)
vector = _mostly(st.tuples(number, number, number),
                 st.lists(number, max_size=4))
matrix = _mostly(st.tuples(vector, vector, vector),
                 st.lists(vector, max_size=4))
kind = st.sampled_from(["general", "magneto_electric", "moving_medium",
                        "chiral", "bespoke"])


@st.composite
def spheres(draw):
    material = MaterialSpec(
        epsilon=draw(number), mass_density=draw(positive),
        me_coupling=draw(number), verdet_v0=draw(number),
        chirality_g=draw(number))
    return SphereSpec(radius=draw(positive), material=material)


@st.composite
def chis(draw):
    return draw(st.sampled_from([
        lambda: ChiTensor(draw(matrix), kind=draw(kind)),
        lambda: ChiTensor.magneto_electric(draw(vector), draw(vector),
                                           draw(number)),
        lambda: ChiTensor.moving_medium(draw(number), draw(vector)),
        lambda: ChiTensor.chiral(draw(number))]))()


@st.composite
def dipoles(draw):
    alpha0 = draw(positive)
    return point_dipole.DipoleSpec(
        alpha=alpha0 * draw(_mostly(st.floats(1.0, 10.0), hostile)),
        alpha0=alpha0, gamma=draw(positive))


def _dipole_closed_forms(spec):
    """The dipole's derived scales and closed forms, none by quadrature."""
    return (spec.kappa0, spec.omega0, spec.damping_ratio,
            point_dipole.spectral_integral_exact(spec),
            point_dipole.spectral_integral_target(spec),
            point_dipole.mass_shift(spec))


CLOSED_FORM_CALLS = {
    "ChiTensor": lambda d: d(chis()),
    "FieldConfig": lambda d: FieldConfig(e0=d(vector), b0=d(vector)),
    "axial_vector": lambda d: axial_vector(d(matrix)),
    "closed_form_p_rad": lambda d: closed_form_p_rad(
        d(spheres()), d(chis()), eta_value=d(st.none() | number)),
    "first_born": lambda d: first_born(
        d(spheres()), d(chis()), mode=d(st.sampled_from(
            ["cutoff", "dimensional"])), k_cut=d(positive), mu=d(number)),
    "me_sphere_velocity": lambda d: me_sphere_velocity(
        d(spheres()), FieldConfig(e0=d(vector), b0=d(vector)),
        eta_value=d(st.none() | number)),
    "moving_sphere": lambda d: moving_sphere(
        d(spheres()), d(vector), eta_value=d(st.none() | number)),
    "magneto_chiral": lambda d: magneto_chiral(d(spheres()), d(vector)),
    "point_dipole": lambda d: _dipole_closed_forms(d(dipoles())),
    "t0": lambda d: _parts(point_dipole.t0(d(dipoles()), d(positive))),
    "t_matrix": lambda d: _matrix_parts(point_dipole.t_matrix(
        d(dipoles()), d(positive), d(vector), d(vector), d(vector))),
    "p_rad_spectral": lambda d: point_dipole.p_rad_spectral(
        d(dipoles()), d(positive), d(vector)),
    "second_born_momentum": lambda d: _breakdown_parts(
        second_born_momentum(d(spheres()), d(chis()))),
}


def _parts(z):
    """The real and imaginary parts of a complex result."""
    assert type(z) is complex
    return (z.real, z.imag)


def _matrix_parts(rows):
    """The parts of a 3x3 complex result, row by row."""
    assert type(rows) is tuple and len(rows) == 3
    assert all(type(row) is tuple and len(row) == 3 for row in rows)
    return sum((_parts(z) for row in rows for z in row), ())


def _breakdown_parts(out):
    """The four 3-tuples of a Born momentum breakdown, field by field."""
    assert type(out) is BornMomentumBreakdown
    fields = (out.contrib_0, out.contrib_1, out.contrib_2, out.total)
    assert all(type(v) is tuple and len(v) == 3 for v in fields)
    return sum(fields, ())


# the one length each of these returns; the rest share the set below
OWN_LENGTH = {"t0": 2, "t_matrix": 18, "p_rad_spectral": 3,
              "second_born_momentum": 12}


def _floats_of(out):
    """Every float a closed-form callable returned, checking the types."""
    if isinstance(out, ChiTensor):
        assert type(out.matrix) is tuple and len(out.matrix) == 3
        return sum(out.matrix, ())
    if isinstance(out, FieldConfig):
        return out.e0 + out.b0
    if isinstance(out, Prediction):
        return out.momentum + out.velocity + (out.mass_shift,)
    return out


@settings(max_examples=200, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(CLOSED_FORM_CALLS)))
def test_closed_form_callables_return_finite_tuples_or_refuse(data, name):
    # a refusal is a ValueError (input) or an ArithmeticError (overflow);
    # a TypeError or IndexError would be a defect, and fails the test
    try:
        out = CLOSED_FORM_CALLS[name](data.draw)
    except (ValueError, ArithmeticError):
        return
    values = _floats_of(out)
    lengths = (OWN_LENGTH[name],) if name in OWN_LENGTH else (3, 6, 7, 9)
    assert type(values) is tuple and len(values) in lengths
    assert all(type(x) is float and math.isfinite(x) for x in values)


@pytest.mark.parametrize("call, error, message", [
    (lambda: axial_vector([[0, 1e308, 0], [-1e308, 0, 0], [0, 0, 0]]),
     FloatingPointError, "axial vector w_i = eps_inm chi_mn overflows"),
    (lambda: closed_form_p_rad(SphereSpec(radius=1e-100,
                                          material=MC_MATERIAL),
                               crossed_chi(1e300)),
     FloatingPointError, "P_rad = -eta .* overflows a float"),
    (lambda: second_born_momentum(
        SphereSpec(radius=1e-100, material=MaterialSpec(1.3, 1000.0)),
        crossed_chi(1e300)),
     FloatingPointError, "the second-order Born momentum .* overflows"),
    (lambda: closed_form_p_rad(feigel_sphere(), crossed_chi(1.0),
                               eta_value=math.nan),
     ValueError, "eta must be finite, got nan"),
    (lambda: first_born(feigel_sphere(), crossed_chi(1e300), mode="cutoff",
                        k_cut=1e12),
     FloatingPointError, r"momentum \(.*inf\) kg m/s .* overflows a float"),
    (lambda: first_born(feigel_sphere(), crossed_chi(1.0), mode="cutoff",
                        k_cut=1e6, mu=0.0),
     ValueError, "mu must be positive and finite, got 0.0"),
    (lambda: moving_sphere(feigel_sphere(), (math.nan, 0.0, 0.0)),
     ValueError, "v must be finite"),
    (lambda: magneto_chiral(SphereSpec(radius=1e-6, material=MC_MATERIAL),
                            (1.0, math.inf, 0.0)),
     ValueError, "b_field must be finite"),
    (lambda: moving_sphere(SphereSpec(radius=1e-6, material=MaterialSpec(
        epsilon=1e200, mass_density=1000.0)), (0.0, 0.0, 0.0)),
     OverflowError,
     r"\(epsilon - 1\)\^2 overflows a float at epsilon = 1e\+200"),
    (lambda: regularized_K(1e-320),
     FloatingPointError, r"K = -pi\^2/\(12 a\) overflows a float at a = 1e-320"),
], ids=["axial_vector", "closed_form_p_rad", "second_born_momentum",
        "eta_value", "first_born", "mu", "moving_sphere", "magneto_chiral",
        "contrast_squared", "regularized_K"])
def test_plain_float_failures_name_their_quantity(call, error, message):
    # plain float arithmetic overflows to inf silently, so each result that
    # could is checked; a non-finite input is refused before any arithmetic
    with pytest.raises(error, match=message):
        call()
