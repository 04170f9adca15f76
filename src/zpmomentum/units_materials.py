"""Validated input specifications and the material-file IO.

The package computes in SI, with the constants of module base.  Its only
non-SI inputs are the material's verdet_v0 and chirality_g, which the
magneto-chiral estimate takes in Gaussian units because its published
coefficient is a Gaussian product.  This module holds the validated records
of materials, spheres and external field configurations, and reads material
files.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .base import _as_vec3, _Record

__all__ = [
    "MaterialSpec",
    "SphereSpec",
    "FieldConfig",
    "material_from_json",
    "preset_path",
]


class MaterialSpec(_Record):
    """Linear response coefficients of an isotropic material.

    epsilon        relative permittivity (real; weak contrast assumed downstream)
    mass_density   kg/m^3
    me_coupling    scalar magneto-electric cross-coupling strength, i.e. the
                   magnitude of the antisymmetric part of the dimensionless
                   bi-anisotropy tensor when the static fields are orthogonal
    verdet_v0      Verdet-type magneto-optical coefficient (Gaussian units)
    chirality_g    chirality coefficient (Gaussian units)
    """

    epsilon: float
    mass_density: float
    me_coupling: float = 0.0
    verdet_v0: float = 0.0
    chirality_g: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and isinstance(self.epsilon, (int, float))):
            raise ValueError(f"epsilon must be finite and real, got {self.epsilon!r}")
        if not (math.isfinite(self.mass_density) and self.mass_density > 0):
            raise ValueError(f"mass_density must be positive, got {self.mass_density!r}")
        for name in ("me_coupling", "verdet_v0", "chirality_g"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


class SphereSpec(_Record):
    """A homogeneous sphere: radius in meters plus its material."""

    radius: float
    material: MaterialSpec

    def __post_init__(self) -> None:
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be positive, got {self.radius!r}")
        try:
            mass = self.mass()
        except OverflowError:  # radius**3 beyond the float range
            mass = math.inf
        if not (math.isfinite(mass) and mass > 0):
            raise ValueError(
                f"sphere mass must be positive and finite, got {mass!r} kg")

    @property
    def volume(self) -> float:
        """Sphere volume in m^3."""
        return 4.0 * math.pi * self.radius**3 / 3.0

    def mass(self) -> float:
        """Sphere rest mass in kg."""
        return self.material.mass_density * self.volume


class FieldConfig(_Record):
    """Orientations of the static external fields.

    e0        orientation of the static electric field, 3 finite floats
    b0        orientation of the static magnetic field, 3 finite floats

    The models read only the directions: the field magnitudes are folded
    into the material's me_coupling.
    """

    e0: tuple
    b0: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "e0", _as_vec3(self.e0, "e0"))
        object.__setattr__(self, "b0", _as_vec3(self.b0, "b0"))


# --- material file IO ------------------------------------------------------

_JSON_KEYS = {
    "epsilon": "epsilon",
    "mass_density_kg_m3": "mass_density",
    "me_coupling": "me_coupling",
    "verdet_v0": "verdet_v0",
    "chirality_g": "chirality_g",
}
_REQUIRED_KEYS = ("epsilon", "mass_density_kg_m3")


def material_from_json(path: str | Path) -> MaterialSpec:
    """Load a material description; unknown keys are rejected, not ignored."""
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ValueError(f"material file {path} must contain a JSON object")
    unknown = set(raw) - set(_JSON_KEYS)
    if unknown:
        raise ValueError(
            f"material file {path} has unknown keys: {sorted(unknown)}; "
            f"allowed keys: {sorted(_JSON_KEYS)}"
        )
    missing = [k for k in _REQUIRED_KEYS if k not in raw]
    if missing:
        raise ValueError(f"material file {path} is missing required keys: {missing}")
    values = {}
    for key, val in raw.items():
        if type(val) not in (int, float):  # true and false parse as bool
            raise ValueError(
                f"material file {path}: {key} must be a number, got {val!r}")
        try:
            values[_JSON_KEYS[key]] = float(val)
        except OverflowError:  # an integer beyond the float range
            raise ValueError(f"material file {path}: {key} is too large for "
                             "a float") from None
    return MaterialSpec(**values)


def preset_path(name: str) -> Path:
    """Path of a bundled material preset, e.g. 'fegao3' or 'generic_dielectric'.

    Only bare preset names are accepted: a name holding a directory part
    would lead the lookup out of the presets directory.
    """
    presets = Path(__file__).parent / "presets"
    p = presets / f"{name}.json"
    if Path(name).name != name or not p.is_file():
        available = sorted(q.stem for q in presets.glob("*.json"))
        raise FileNotFoundError(f"no preset {name!r}; available: {available}")
    return p
