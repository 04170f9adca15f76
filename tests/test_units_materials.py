"""Constants, material IO, and input validation."""

import json
import math

import pytest

from zpmomentum.predictions import MAGNETO_CHIRAL_COEFF, magneto_chiral
from zpmomentum.base import CONSTANTS
from zpmomentum.units_materials import (FieldConfig, MaterialSpec, SphereSpec,
                                        material_from_json, preset_path)


def test_known_conversion_factors():
    # the unit factors the magneto-chiral estimate folds into its single 1e4:
    # hbar J -> erg s, c0^2 and a^3 m -> cm, B T -> G, momentum g cm/s -> kg m/s
    erg_per_joule, cm_per_m, gauss_per_tesla, kg_m_per_g_cm = 1e7, 1e2, 1e4, 1e-5
    factor = (erg_per_joule * cm_per_m**2 * gauss_per_tesla * kg_m_per_g_cm
              / cm_per_m**3)
    assert factor == pytest.approx(1e4, rel=1e-15)
    v0, g, a = 1e-3, -2e-4, 1e-6
    mat = MaterialSpec(epsilon=1.5, mass_density=1000.0, verdet_v0=v0,
                       chirality_g=g)
    si_product = (MAGNETO_CHIRAL_COEFF * CONSTANTS.hbar_si * v0
                  * CONSTANTS.c0_si**2 * g / a**3)
    momentum = magneto_chiral(SphereSpec(radius=a, material=mat),
                              (0.0, 0.0, 1.0)).momentum
    assert momentum[0] == momentum[1] == 0.0
    assert momentum[2] == pytest.approx(factor * si_product, rel=1e-15)


def test_constants_are_consistent_across_systems():
    # the SI constants read back the erg s and cm/s values of the published
    # Gaussian coefficient
    assert CONSTANTS.hbar_si * 1e7 == pytest.approx(1.054571817e-27, rel=1e-15)
    assert CONSTANTS.c0_si * 1e2 == pytest.approx(2.99792458e10, rel=1e-15)


def test_material_validation():
    with pytest.raises(ValueError):
        MaterialSpec(epsilon=float("nan"), mass_density=1000.0)
    with pytest.raises(ValueError):
        MaterialSpec(epsilon=1.5, mass_density=0.0)
    with pytest.raises(ValueError):
        MaterialSpec(epsilon=1.5, mass_density=-1.0)
    with pytest.raises(ValueError):
        MaterialSpec(epsilon=1.5, mass_density=1000.0,
                     me_coupling=float("inf"))


def test_sphere_geometry():
    mat = MaterialSpec(epsilon=1.5, mass_density=2000.0)
    sphere = SphereSpec(radius=2e-6, material=mat)
    assert sphere.volume == pytest.approx(4.0 * math.pi * 8e-18 / 3.0, rel=1e-15)
    assert sphere.mass() == pytest.approx(2000.0 * sphere.volume, rel=1e-15)
    with pytest.raises(ValueError):
        SphereSpec(radius=0.0, material=mat)
    with pytest.raises(ValueError):
        SphereSpec(radius=-1e-6, material=mat)
    with pytest.raises(ValueError, match="mass"):
        SphereSpec(radius=1e-300, material=mat)  # radius**3 underflows to 0
    with pytest.raises(ValueError, match="mass"):
        SphereSpec(radius=1e200, material=mat)   # radius**3 overflows


def test_records_are_frozen_values():
    # fields by position or keyword, defaults filled in, equality by value
    # within one class, and no assignment or deletion afterwards
    spec = MaterialSpec(1.3, mass_density=2000.0)
    assert spec == MaterialSpec(epsilon=1.3, mass_density=2000.0,
                                me_coupling=0.0)
    assert hash(spec) == hash(MaterialSpec(1.3, 2000.0))
    assert spec != MaterialSpec(1.3, 2001.0)
    assert spec != (1.3, 2000.0, 0.0, 0.0, 0.0)
    assert eval(repr(spec), {"MaterialSpec": MaterialSpec}) == spec
    for change in (lambda: setattr(spec, "epsilon", 2.0),
                   lambda: delattr(spec, "epsilon"),
                   lambda: setattr(spec, "other", 1.0)):
        with pytest.raises(AttributeError):
            change()
    assert spec.epsilon == 1.3 and not hasattr(spec, "other")
    for bad in (lambda: MaterialSpec(1.3),
                lambda: MaterialSpec(1.3, 2000.0, epsilon=1.3),
                lambda: MaterialSpec(1.3, 2000.0, 0.0, 0.0, 0.0, 0.0),
                lambda: MaterialSpec(1.3, 2000.0, density=1.0)):
        with pytest.raises(TypeError):
            bad()
    # a normalising check still runs: FieldConfig stores tuples of floats
    fields = FieldConfig(e0=(1, 0, 0), b0=[0, 1, 0])
    assert fields.e0 == (1.0, 0.0, 0.0) and fields.b0 == (0.0, 1.0, 0.0)
    assert all(type(x) is float for x in fields.e0 + fields.b0)


def test_field_config_rejects_bad_vectors():
    with pytest.raises(ValueError, match="e0 must be a 3-vector"):
        FieldConfig(e0=(1.0, 2.0), b0=(0.0, 1.0, 0.0))
    with pytest.raises(ValueError, match="b0 must be finite"):
        FieldConfig(e0=(1.0, 0.0, 0.0), b0=(1.0, float("nan"), 0.0))
    # a scalar or an entry that is no number is an input error too
    for bad in (5.0, (1.0, None, 0.0)):
        with pytest.raises(ValueError, match="e0 must be a 3-vector"):
            FieldConfig(e0=bad, b0=(0.0, 1.0, 0.0))


def test_material_json_round_trip(tmp_path):
    mat = MaterialSpec(epsilon=1.7, mass_density=1234.5, me_coupling=1e-5,
                       verdet_v0=2e-26, chirality_g=3e-4)
    path = tmp_path / "mat.json"
    path.write_text(json.dumps({"epsilon": 1.7, "mass_density_kg_m3": 1234.5,
                                "me_coupling": 1e-5, "verdet_v0": 2e-26,
                                "chirality_g": 3e-4}))
    assert material_from_json(path) == mat


def test_material_json_rejects_unknown_keys(tmp_path):
    path = tmp_path / "mat.json"
    path.write_text(json.dumps({"epsilon": 1.5, "mass_density_kg_m3": 1000.0,
                                "refractive_index": 1.2}))
    with pytest.raises(ValueError, match="unknown keys"):
        material_from_json(path)


def test_material_json_requires_core_keys(tmp_path):
    path = tmp_path / "mat.json"
    path.write_text(json.dumps({"epsilon": 1.5}))
    with pytest.raises(ValueError, match="missing required"):
        material_from_json(path)


@pytest.mark.parametrize("value", [[1.2], None, True, "1.2"])
def test_material_json_values_must_be_numbers(tmp_path, value):
    # a boolean is no number either, although Python counts it as an int
    path = tmp_path / "mat.json"
    path.write_text(json.dumps({"epsilon": value,
                                "mass_density_kg_m3": 1000.0}))
    with pytest.raises(ValueError, match="epsilon must be a number"):
        material_from_json(path)


def test_material_json_integer_beyond_float_range(tmp_path):
    # JSON integers are unbounded; one no float can hold is an input error
    path = tmp_path / "mat.json"
    path.write_text('{"epsilon": 1.5, "mass_density_kg_m3": 1' + "0" * 400
                    + "}")
    with pytest.raises(ValueError, match="mass_density_kg_m3 is too large"):
        material_from_json(path)


def test_bundled_presets():
    fegao3 = material_from_json(preset_path("fegao3"))
    assert fegao3.epsilon == 2.0
    assert fegao3.mass_density == 4500.0
    assert fegao3.me_coupling == 1e-4
    generic = material_from_json(preset_path("generic_dielectric"))
    assert generic.epsilon == 1.5
    assert generic.me_coupling == 0.0
    with pytest.raises(FileNotFoundError):
        preset_path("unobtanium")


def test_preset_path_accepts_only_bare_names(tmp_path):
    # a name with a directory part must not lead the lookup elsewhere, and
    # the error lists the bundled presets, not the files of that directory
    (tmp_path / "outside.json").write_text("{}")
    for name in (str(tmp_path / "outside"), "../presets/fegao3",
                 "/nonexistent"):
        with pytest.raises(FileNotFoundError,
                           match=r"\['fegao3', 'generic_dielectric'\]"):
            preset_path(name)
