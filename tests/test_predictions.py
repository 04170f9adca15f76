"""End-user predictions: estimates, caveats, digests, and replay."""

import math

import numpy as np
import pytest

from zpmomentum.predictions import (MissingCoefficientError,
                                    empty_vacuum_momentum, first_born,
                                    magneto_chiral, me_sphere_velocity,
                                    moving_sphere, replay)
from zpmomentum.tensor_assembly import ChiTensor
from zpmomentum.units_materials import (CONSTANTS, FieldConfig, MaterialSpec,
                                        SphereSpec, material_from_json,
                                        preset_path)

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
    assert np.array_equal(harder.momentum, 16.0 * base.momentum)  # k_cut^4
    bigger = first_born(feigel_sphere(radius=2e-6), crossed_chi(FEIGEL_CHI),
                        mode="cutoff", k_cut=FEIGEL_K_CUT)
    # momentum grows with the volume; the speed is radius-independent
    assert np.allclose(bigger.momentum, 8.0 * base.momentum, rtol=1e-12)
    assert np.allclose(bigger.velocity, base.velocity, rtol=1e-12)


# --- ME sphere --------------------------------------------------------------

def test_me_sphere_literature_magnitude():
    mat = material_from_json(preset_path("fegao3"))
    sphere = SphereSpec(radius=1e-6, material=mat)
    pred = me_sphere_velocity(sphere, FieldConfig(e0=(1, 0, 0), b0=(0, 1, 0)))
    speed = np.linalg.norm(pred.velocity)
    assert 1e-21 <= speed <= 1e-19  # 1e-20 m/s within a factor 10
    assert np.array_equal(pred.velocity, pred.momentum / sphere.mass())


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
    assert np.allclose(p2.momentum, 0.5 * p1.momentum, rtol=1e-12)


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
    assert np.array_equal(p_mirror, -p)


def test_magneto_chiral_field_and_radius_scaling():
    sphere = SphereSpec(radius=1e-6, material=MC_MATERIAL)
    zero_b = magneto_chiral(sphere, np.zeros(3))
    assert np.array_equal(zero_b.momentum, np.zeros(3))
    p1 = magneto_chiral(sphere, (0, 0, 1)).momentum
    p2 = magneto_chiral(SphereSpec(radius=2e-6, material=MC_MATERIAL),
                        (0, 0, 1)).momentum
    assert np.allclose(p2, p1 / 8.0, rtol=1e-12)  # 1/a^3


def test_magneto_chiral_requires_material_coefficients():
    bare = SphereSpec(radius=1e-6,
                      material=MaterialSpec(epsilon=1.5, mass_density=1000.0))
    with pytest.raises(MissingCoefficientError):
        magneto_chiral(bare, (0, 0, 1))


# --- vacuum control and replay ---------------------------------------------

def test_empty_vacuum_momentum_is_exactly_zero_and_fresh():
    out = empty_vacuum_momentum()
    assert np.array_equal(out, np.zeros(3))
    out[0] = 1.0  # mutating the returned array must not leak into later calls
    assert np.array_equal(empty_vacuum_momentum(), np.zeros(3))


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
    assert np.array_equal(again.momentum, pred.momentum)


def test_digest_is_complete():
    pred = first_born(feigel_sphere(), crossed_chi(FEIGEL_CHI), mode="cutoff",
                      k_cut=FEIGEL_K_CUT)
    digest = pred.inputs_digest
    assert set(digest) >= {"model", "inputs", "constants", "notes"}
    assert digest["model"] == "first_born"
    assert "hbar_si" in digest["constants"]
