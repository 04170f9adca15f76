"""Unit conversion, material IO, and input validation."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zpmomentum.units_materials import (CONSTANTS, FieldConfig, MaterialSpec,
                                        SphereSpec, UnknownDimensionError,
                                        from_gaussian, gaussian_unit,
                                        material_from_json, material_to_json,
                                        preset_path, s0_vector, si_unit,
                                        to_gaussian)

DIMENSIONS = ("length", "mass", "time", "frequency", "velocity", "momentum",
              "energy", "action", "force", "mass_density", "wavenumber",
              "volume", "magnetic_field")


@given(value=st.floats(min_value=1e-30, max_value=1e30,
                       allow_nan=False, allow_infinity=False),
       dimension=st.sampled_from(DIMENSIONS))
def test_conversion_round_trip(value, dimension):
    back = from_gaussian(to_gaussian(value, dimension), dimension)
    assert abs(back - value) <= 1e-12 * abs(value)


def test_known_conversion_factors():
    assert to_gaussian(1.0, "length") == 100.0            # m -> cm
    assert to_gaussian(1.0, "momentum") == 1e5            # kg m/s -> g cm/s
    assert to_gaussian(1.0, "energy") == 1e7              # J -> erg
    assert to_gaussian(1.0, "magnetic_field") == 1e4      # T -> G
    assert to_gaussian(1.0, "mass_density") == 1e-3       # kg/m^3 -> g/cm^3
    assert to_gaussian(1.0, "wavenumber") == 1e-2         # 1/m -> 1/cm
    assert to_gaussian(1.0, "volume") == 1e6              # m^3 -> cm^3
    assert to_gaussian(1.0, "time") == 1.0


def test_constants_are_consistent_across_systems():
    assert CONSTANTS.hbar_gaussian == pytest.approx(
        to_gaussian(CONSTANTS.hbar_si, "action"), rel=1e-15)
    assert CONSTANTS.c0_gaussian == pytest.approx(
        to_gaussian(CONSTANTS.c0_si, "velocity"), rel=1e-15)


def test_unknown_dimension_raises():
    with pytest.raises(UnknownDimensionError):
        to_gaussian(1.0, "charge")
    with pytest.raises(UnknownDimensionError):
        from_gaussian(1.0, "")


def test_unit_labels():
    assert si_unit("momentum") == "kg m/s"
    assert gaussian_unit("momentum") == "g cm/s"
    assert si_unit("magnetic_field") == "T"
    assert gaussian_unit("magnetic_field") == "G"


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


vec3 = st.lists(st.floats(min_value=-1e3, max_value=1e3,
                          allow_nan=False, allow_infinity=False),
                min_size=3, max_size=3)


@given(e=vec3, b=vec3)
def test_s0_vector_antisymmetric_under_field_exchange(e, b):
    fwd = s0_vector(FieldConfig(e0=e, b0=b))
    rev = s0_vector(FieldConfig(e0=b, b0=e))
    assert np.array_equal(fwd, -rev)


def test_s0_vector_is_cross_product():
    fields = FieldConfig(e0=(1.0, 0.0, 0.0), b0=(0.0, 1.0, 0.0))
    assert np.array_equal(s0_vector(fields), np.array([0.0, 0.0, 1.0]))


def test_field_config_rejects_bad_vectors():
    with pytest.raises(ValueError):
        FieldConfig(e0=(1.0, 2.0))
    with pytest.raises(ValueError):
        FieldConfig(b0=(1.0, float("nan"), 0.0))


def test_material_json_round_trip(tmp_path):
    mat = MaterialSpec(epsilon=1.7, mass_density=1234.5, me_coupling=1e-5,
                       verdet_v0=2e-26, chirality_g=3e-4)
    path = tmp_path / "mat.json"
    material_to_json(mat, path)
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
