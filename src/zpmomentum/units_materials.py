"""Physical constants, SI/Gaussian unit conversion, and input specifications.

Internally the numerical core works in Gaussian (CGS) units, usually with
lengths in centimeters; all boundary values (CLI flags, material files,
reported results) are SI.  This module holds the constant values, a
table-driven converter between the two systems, and the validated dataclasses
describing materials, spheres and external field configurations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

__all__ = [
    "PhysicalConstants",
    "CONSTANTS",
    "UnknownDimensionError",
    "to_gaussian",
    "from_gaussian",
    "gaussian_unit",
    "si_unit",
    "MaterialSpec",
    "SphereSpec",
    "FieldConfig",
    "s0_vector",
    "material_from_json",
    "material_to_json",
    "preset_path",
]


class UnknownDimensionError(ValueError):
    """Raised when a conversion is requested for an unsupported dimension tag."""


@dataclass(frozen=True)
class PhysicalConstants:
    """Fundamental constants in SI and Gaussian units (CODATA 2018 values)."""

    hbar_si: float = 1.054571817e-34        # J s
    hbar_gaussian: float = 1.054571817e-27  # erg s
    c0_si: float = 2.99792458e8             # m/s
    c0_gaussian: float = 2.99792458e10      # cm/s
    electron_mass_si: float = 9.1093837015e-31  # kg
    ev_in_joule: float = 1.602176634e-19    # J per eV
    bohr_radius_si: float = 5.29177210903e-11  # m


CONSTANTS = PhysicalConstants()

# dimension tag -> (multiplicative factor SI -> Gaussian, SI unit, Gaussian unit)
_CONVERSIONS: dict[str, tuple[float, str, str]] = {
    "length": (1e2, "m", "cm"),
    "mass": (1e3, "kg", "g"),
    "time": (1.0, "s", "s"),
    "frequency": (1.0, "1/s", "1/s"),
    "velocity": (1e2, "m/s", "cm/s"),
    "momentum": (1e5, "kg m/s", "g cm/s"),
    "energy": (1e7, "J", "erg"),
    "action": (1e7, "J s", "erg s"),
    "force": (1e5, "N", "dyn"),
    "mass_density": (1e-3, "kg/m^3", "g/cm^3"),
    "wavenumber": (1e-2, "1/m", "1/cm"),
    "volume": (1e6, "m^3", "cm^3"),
    "magnetic_field": (1e4, "T", "G"),
}


def _lookup(dimension: str) -> tuple[float, str, str]:
    try:
        return _CONVERSIONS[dimension]
    except KeyError:
        known = ", ".join(sorted(_CONVERSIONS))
        raise UnknownDimensionError(
            f"unknown dimension {dimension!r}; known dimensions: {known}"
        ) from None


def to_gaussian(value: float, dimension: str) -> float:
    """Convert an SI value to Gaussian units.  E.g. 1 'length' (m) -> 100 (cm)."""
    factor, _, _ = _lookup(dimension)
    return value * factor


def from_gaussian(value: float, dimension: str) -> float:
    """Inverse of :func:`to_gaussian`; round-trips are exact up to float arithmetic."""
    factor, _, _ = _lookup(dimension)
    return value / factor


def si_unit(dimension: str) -> str:
    """Display label of the SI unit for a dimension tag."""
    return _lookup(dimension)[1]


def gaussian_unit(dimension: str) -> str:
    """Display label of the Gaussian unit for a dimension tag."""
    return _lookup(dimension)[2]


@dataclass(frozen=True)
class MaterialSpec:
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


@dataclass(frozen=True)
class SphereSpec:
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


def _as_vec3(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass(frozen=True)
class FieldConfig:
    """Static external fields (SI).

    e0        static electric field, V/m
    b0        static magnetic field, T
    """

    e0: np.ndarray = field(default_factory=lambda: np.zeros(3))
    b0: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self) -> None:
        object.__setattr__(self, "e0", _as_vec3(self.e0, "e0"))
        object.__setattr__(self, "b0", _as_vec3(self.b0, "b0"))


def s0_vector(fields: FieldConfig) -> np.ndarray:
    """Poynting-like direction set by the static fields: e0 x b0 (SI units)."""
    return np.cross(fields.e0, fields.b0)


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
    kwargs = {attr: float(raw[key]) for key, attr in _JSON_KEYS.items() if key in raw}
    return MaterialSpec(**kwargs)


def material_to_json(material: MaterialSpec, path: str | Path) -> None:
    """Write a material description using the same schema material_from_json reads."""
    data = asdict(material)
    out = {key: data[attr] for key, attr in _JSON_KEYS.items()}
    Path(path).write_text(json.dumps(out, indent=2) + "\n")


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
