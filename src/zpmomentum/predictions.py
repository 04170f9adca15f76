"""End-user predictions: momenta, velocities and mass shifts of small spheres.

Four sphere models return a Prediction: velocity is momentum over the
sphere's mass, and the inputs_digest records the sphere's radius, epsilon and
mass density, then the model's own inputs, the constants and the notes, so
replay() rebuilds the Prediction bit-exactly.  The control case is a vector:

* first_born        — lowest-order zero-point momentum of a cross-coupled
                      sphere: exactly zero under dimensional regularization,
                      or the hard-cutoff estimate p_density =
                      (1/32 pi^3)(1/mu + epsilon) hbar k_cut^4 * chi S0.
* me_sphere         — drift of a magneto-electric sphere in crossed static
                      fields, from the second-order closed form.
* moving_sphere     — zero-point momentum radiated by a uniformly moving
                      dielectric sphere, and the implied mass shift.
* magneto_chiral    — macroscopic magneto-chiral estimate, in SI; always
                      carries the macroscopic_model_probably_wrong caveat,
                      as the microscopic calculation of it gives zero.
* empty_vacuum      — the control case: no scatterer, exactly zero.

Signs downstream of eta are reported as computed, and a digest carries the
eta-sign note of tensor_assembly when eta < 0.  Zeros keep their sign here;
the CLI reports print them unsigned.  All inputs and outputs are SI, except
the material's Gaussian verdet_v0 and chirality_g.
"""

from __future__ import annotations

import math

from .base import (CONSTANTS, _as_vec3, _finite, _norm, _Record,
                   _slow_velocity)
from .units_materials import FieldConfig, MaterialSpec, SphereSpec
from .tensor_assembly import (_ETA_SIGN_NOTE, PERTURBATIVE_WINDOW, ChiTensor,
                              axial_vector, closed_form_p_rad, eta)

__all__ = [
    "Prediction",
    "first_born",
    "me_sphere_velocity",
    "moving_sphere",
    "magneto_chiral",
    "empty_vacuum_momentum",
    "replay",
]

_PERTURBATIVE_NOTE = (f"dielectric contrast |epsilon-1| > {PERTURBATIVE_WINDOW}"
                      ": closed form extrapolated beyond its perturbative "
                      "window; order-of-magnitude only")
MAGNETO_CHIRAL_COEFF = -0.005098


class Prediction(_Record):
    """One model evaluation.

    momentum     3-tuple, kg m/s
    velocity     3-tuple, m/s (momentum / sphere mass for sphere models)
    mass_shift   kg; 0 when the model has no mass interpretation
    inputs_digest  complete record: model, raw inputs, constants used, notes
    model        which estimate produced this
    """

    model: str
    momentum: tuple
    velocity: tuple
    mass_shift: float
    inputs_digest: dict


def _sphere_prediction(model: str, sphere: SphereSpec, momentum: tuple,
                       constants: dict, notes: list[str],
                       mass_shift: float = 0.0, **inputs) -> Prediction:
    """The Prediction every sphere model returns: velocity is momentum over
    the sphere's mass, and the digest records the sphere's radius, epsilon
    and mass density ahead of the model's own inputs."""
    mat = sphere.material
    inputs = {"radius": sphere.radius, "epsilon": mat.epsilon,
              "mass_density": mat.mass_density, **inputs}
    digest = {"model": model, "inputs": inputs, "constants": constants,
              "notes": list(notes)}
    mass = sphere.mass()
    _finite((*momentum, mass_shift), f"momentum {momentum!r} kg m/s or "
            f"mass_shift {mass_shift!r} kg overflows a float")
    velocity = _finite(tuple(p / mass for p in momentum), "velocity = momentum"
                       f" / mass overflows a float at mass = {mass!r} kg")
    return Prediction(model=model, momentum=momentum, velocity=velocity,
                      mass_shift=mass_shift, inputs_digest=digest)


def first_born(sphere: SphereSpec, chi: ChiTensor, mode: str = "dimensional",
               k_cut: float | None = None, mu: float = 1.0) -> Prediction:
    """Lowest-order zero-point momentum of the sphere.

    The first-order mode sum is an odd integral of hbar k over all of k-space:
    dimensional regularization evaluates it to exactly zero ('dimensional'
    mode).  'cutoff' mode instead keeps modes up to k_cut (1/m) and returns
    the finite sphere momentum

        V * (1/32 pi^3) (1/mu + epsilon) hbar k_cut^4 * (1/2) eps_ijk chi_jk,

    the hard-cutoff estimate this package exists to scrutinize.
    """
    if mode not in ("dimensional", "cutoff"):
        raise ValueError(f"mode must be 'dimensional' or 'cutoff', got {mode!r}")
    notes: list[str] = []
    if mode == "dimensional":
        momentum = (0.0, 0.0, 0.0)
        notes.append("dimensional regularization: odd k-integral is exactly zero")
        k_cut_rec = 0.0
    else:
        if k_cut is None or not (math.isfinite(k_cut) and k_cut > 0):
            raise ValueError("cutoff mode requires k_cut > 0")
        if not (math.isfinite(mu) and mu > 0):
            raise ValueError(f"mu must be positive and finite, got {mu!r}")
        try:
            k_cut4 = k_cut**4
        except OverflowError:
            raise OverflowError(f"k_cut^4 overflows a float at k_cut = "
                                f"{k_cut!r} 1/m") from None
        # p_density from chi S0 as a vector: half the Levi-Civita trace of chi
        density = (1.0 / (32.0 * math.pi**3)
                   * (1.0 / mu + sphere.material.epsilon)
                   * CONSTANTS.hbar_si * k_cut4)
        momentum = tuple(density * (-0.5 * w) * sphere.volume
                         for w in axial_vector(chi))
        k_cut_rec = float(k_cut)
    return _sphere_prediction(
        "first_born", sphere, momentum, {"hbar_si": CONSTANTS.hbar_si}, notes,
        chi_matrix=[list(row) for row in chi.matrix], chi_kind=chi.kind,
        mode=mode, k_cut=k_cut_rec, mu=mu)


def _eta_and_notes(sphere: SphereSpec, eta_value: float | None
                   ) -> tuple[float, list[str]]:
    ev = eta() if eta_value is None else eta_value
    notes = [_ETA_SIGN_NOTE] if ev < 0 else []
    if abs(sphere.material.epsilon - 1.0) > PERTURBATIVE_WINDOW:
        notes.append(_PERTURBATIVE_NOTE)
    return ev, notes


def _direction(vec: tuple) -> tuple:
    """vec / |vec|.  Below 2^-500 the squares in |vec| would underflow, above
    2^500 they would overflow, so vec is first scaled by 2^600 or 2^-600:
    exact, and it leaves the direction unchanged."""
    size = max(map(abs, vec))
    scale = (2.0**600 if size < 2.0**-500
             else 2.0**-600 if size > 2.0**500 else 1.0)
    vec = tuple(x * scale for x in vec)
    norm = _norm(vec)
    return tuple(x / norm for x in vec)


def me_sphere_velocity(sphere: SphereSpec, fields: FieldConfig,
                       eta_value: float | None = None) -> Prediction:
    """Drift of a magneto-electric sphere in crossed static fields.

    The material's me_coupling is the magnitude of the dimensionless
    cross-coupling for the given field orientations (field magnitudes are
    folded into the coefficient); the orientations of fields.e0 and fields.b0
    set the direction.  The sphere momentum is the second-order closed form
    m v = 2|eta| (hbar/a)(epsilon-1) * me_coupling * (e_hat x b_hat), with the
    actual sign carried from the contraction and any discrepancy with the
    reference sign convention recorded in the digest notes.
    """
    e0, b0 = fields.e0, fields.b0
    if not (any(e0) and any(b0)):
        raise ValueError("me_sphere needs nonzero e0 and b0 orientations")
    e_hat, b_hat = _direction(e0), _direction(b0)
    ev, notes = _eta_and_notes(sphere, eta_value)
    chi = ChiTensor.magneto_electric(e_hat, b_hat, sphere.material.me_coupling)
    # sphere momentum is minus the radiated momentum
    momentum = tuple(-p for p in closed_form_p_rad(sphere, chi, eta_value=ev))
    return _sphere_prediction(
        "me_sphere", sphere, momentum,
        {"eta": ev, "hbar_si": CONSTANTS.hbar_si}, notes,
        me_coupling=sphere.material.me_coupling, e0=list(e0), b0=list(b0))


def moving_sphere(sphere: SphereSpec, v, eta_value: float | None = None
                  ) -> Prediction:
    """Zero-point momentum radiated by a sphere moving at velocity v (m/s).

    The radiated field momentum is the second-order closed form for the
    moving-medium coupling chi_ij = (1 - epsilon) eps_ijk v_k / c0, which
    collapses to -2 eta (hbar/(a c0)) (epsilon-1)^2 v; that coefficient is
    reported as mass_shift because the pair behaves exactly like a
    velocity-proportional momentum deficit.  With the computed (negative)
    eta the shift comes out positive — a mass increase — which contradicts
    the reference claim of a reduction; the digest says so.
    """
    v_si = _slow_velocity(v)
    ev, notes = _eta_and_notes(sphere, eta_value)
    try:
        contrast2 = (sphere.material.epsilon - 1.0)**2
    except OverflowError:
        raise OverflowError(f"(epsilon - 1)^2 overflows a float at epsilon = "
                            f"{sphere.material.epsilon!r}") from None
    shift = (-2.0 * ev * CONSTANTS.hbar_si
             / (sphere.radius * CONSTANTS.c0_si) * contrast2)
    if shift > 0:
        notes.append("mass_shift > 0 (increase); the reference sign "
                     "convention expects a reduction")
    chi = ChiTensor.moving_medium(sphere.material.epsilon, v_si)
    momentum = closed_form_p_rad(sphere, chi, eta_value=ev)
    consts = {"eta": ev, "hbar_si": CONSTANTS.hbar_si, "c0_si": CONSTANTS.c0_si}
    return _sphere_prediction("moving_sphere", sphere, momentum, consts, notes,
                              mass_shift=shift, v=list(v_si))


def magneto_chiral(sphere: SphereSpec, b_field) -> Prediction:
    """Macroscopic magneto-chiral momentum estimate in a static field B (tesla).

    momentum = -0.005098 hbar V0 c0^2 g / a^3 * B, a published Gaussian
    product, evaluated with hbar, c0, a and B in SI and with V0 and g in the
    Gaussian units of the material file.  The prominent caveat flag in the
    digest is not optional: the microscopic version of this quantity
    vanishes identically, so the macroscopic estimate is probably wrong.
    """
    mat = sphere.material
    if mat.verdet_v0 == 0.0 or mat.chirality_g == 0.0:
        raise ValueError(
            "magneto_chiral requires verdet_v0 and chirality_g in the material")
    b_si = _as_vec3(b_field, "b_field")
    # The coefficient takes V0 g in Gaussian units, so they stay as given.
    # The Gaussian product, read in kg m/s, is 1e4 times the SI product:
    # 1e7 (hbar, erg/J) x 1e4 (c0^2, cm^2/m^2) x 1e4 (B, G/T) x 1e-5
    # (kg m/s per g cm/s) / 1e6 (a^3, cm^3/m^3).
    scale = (1e4 * MAGNETO_CHIRAL_COEFF * CONSTANTS.hbar_si * mat.verdet_v0
             * CONSTANTS.c0_si**2 * mat.chirality_g / sphere.radius**3)
    momentum = tuple(scale * b for b in b_si)
    consts = {"coefficient": MAGNETO_CHIRAL_COEFF,
              "hbar_si": CONSTANTS.hbar_si, "c0_si": CONSTANTS.c0_si,
              "macroscopic_model_probably_wrong": True}
    return _sphere_prediction(
        "magneto_chiral", sphere, momentum, consts,
        ["macroscopic_model_probably_wrong"], verdet_v0=mat.verdet_v0,
        chirality_g=mat.chirality_g, b_field=list(b_si))


def empty_vacuum_momentum() -> tuple:
    """Zero-point momentum of empty space: exactly (0, 0, 0), returned
    without a sum.  The mode sum is odd in k, so on any k-grid with inversion
    symmetry every +k term would cancel its -k partner exactly.
    """
    return (0.0, 0.0, 0.0)


def replay(digest: dict) -> Prediction:
    """Re-run a prediction from its inputs_digest; bit-exact reconstruction.

    Accepts digests that round-tripped through JSON (floats survive exactly;
    vectors come back as lists).
    """
    model = digest["model"]
    ins = dict(digest["inputs"])
    consts = digest.get("constants", {})

    def rebuild_sphere(**extra) -> SphereSpec:
        mat = MaterialSpec(epsilon=ins["epsilon"],
                           mass_density=ins["mass_density"], **extra)
        return SphereSpec(radius=ins["radius"], material=mat)

    if model == "first_born":
        chi = ChiTensor(matrix=ins["chi_matrix"], kind=ins["chi_kind"])
        k_cut = ins["k_cut"] if ins["mode"] == "cutoff" else None
        return first_born(rebuild_sphere(), chi, mode=ins["mode"],
                          k_cut=k_cut, mu=ins["mu"])
    if model == "me_sphere":
        return me_sphere_velocity(
            rebuild_sphere(me_coupling=ins["me_coupling"]),
            FieldConfig(e0=ins["e0"], b0=ins["b0"]), eta_value=consts["eta"])
    if model == "moving_sphere":
        return moving_sphere(rebuild_sphere(), ins["v"],
                             eta_value=consts["eta"])
    if model == "magneto_chiral":
        sphere = rebuild_sphere(verdet_v0=ins["verdet_v0"],
                                chirality_g=ins["chirality_g"])
        return magneto_chiral(sphere, ins["b_field"])
    raise ValueError(f"unknown model {model!r} in digest")
