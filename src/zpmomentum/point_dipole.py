"""Radiative momentum and mass shift of a moving resonant point dipole.

A point scatterer with bare polarizability alpha, regularized static
polarizability alpha0 <= alpha, and a transverse-regularization length gamma
has the resonant scattering amplitude (lengths in cm, c0 = 1 internally, so
frequencies appear as wavenumbers kappa = omega / c0)

    t0(kappa) = -4 pi gamma kappa^2 / (kappa0^2 - kappa^2 - (2/3) i gamma kappa0^2 kappa)

whose resonance wavenumber kappa0 = sqrt(4 pi gamma / alpha0) is fixed by
requiring the spectral sum rule below; it is always derived, never a free
input.  When the dipole moves at velocity v the zero-point field drags a
momentum along: the spectral density is proportional to Im(t0/kappa^2) v and
its frequency integral obeys

    int_0^inf Im(t0/kappa^2) dkappa = -(pi/2) alpha0 kappa0   (up to O(gamma kappa0)),

so the total radiated momentum is -(alpha0/alpha)(hbar omega0 / c0^2) v: the
dipole behaves as if its mass changed by -(alpha0/alpha) hbar omega0 / c0^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special_functions import _graded_edges, _panel_quad
from .tensor_assembly import _eps_dot
from .units_materials import CONSTANTS

__all__ = [
    "DipoleSpec",
    "QuadratureError",
    "t0",
    "t_matrix",
    "p_rad_spectral",
    "p_rad_total",
    "spectral_integral_quadrature",
    "spectral_integral_exact",
    "spectral_integral_target",
    "mass_shift",
]

_GAUSS_TO_SI_MOMENTUM = 1e-5  # g cm/s -> kg m/s


class QuadratureError(RuntimeError):
    """Frequency quadrature failed to converge to the required accuracy."""


@dataclass(frozen=True)
class DipoleSpec:
    """Point-dipole parameters (Gaussian units).

    alpha    bare polarizability volume, cm^3
    alpha0   regularized static polarizability, cm^3; alpha0 <= alpha because
             the longitudinal counterterm only ever decreases it
    gamma    transverse regularization length, cm

    The resonance omega0 (rad/s) is derived from (alpha0, gamma) — it is the
    unique value for which the spectral sum rule holds.
    """

    alpha: float
    alpha0: float
    gamma: float

    def __post_init__(self) -> None:
        for name in ("alpha", "alpha0", "gamma"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0):
                raise ValueError(f"{name} must be positive, got {val!r}")
        if self.alpha0 > self.alpha * (1.0 + 1e-12):
            raise ValueError(
                f"alpha0 = {self.alpha0!r} exceeds alpha = {self.alpha!r}")

    @property
    def kappa0(self) -> float:
        """Resonance wavenumber sqrt(4 pi gamma / alpha0), 1/cm."""
        return math.sqrt(4.0 * math.pi * self.gamma / self.alpha0)

    @property
    def omega0(self) -> float:
        """Resonance frequency c0 * kappa0, rad/s."""
        return CONSTANTS.c0_gaussian * self.kappa0

    @property
    def damping_ratio(self) -> float:
        """x = (2/3) gamma kappa0, the fractional resonance width (dimensionless)."""
        return 2.0 / 3.0 * self.gamma * self.kappa0


def _t0_kappa(spec: DipoleSpec, kappa: float) -> complex:
    k0 = spec.kappa0
    denom = k0 * k0 - kappa * kappa - (2.0 / 3.0) * 1j * spec.gamma * k0 * k0 * kappa
    return -4.0 * math.pi * spec.gamma * kappa * kappa / denom


def t0(spec: DipoleSpec, omega: float) -> complex:
    """Summed scattering amplitude at frequency omega (rad/s); value in cm.

    Vanishes as omega^2 at low frequency; exactly -6 pi i / kappa0 on
    resonance; Im t0 < 0 for all omega > 0 (radiation always removes energy).
    """
    if not (math.isfinite(omega) and omega > 0):
        raise ValueError(f"omega must be positive, got {omega!r}")
    return _t0_kappa(spec, omega / CONSTANTS.c0_gaussian)


def t_matrix(spec: DipoleSpec, omega: float, k, kp, v) -> np.ndarray:
    """Summed 3x3 t-matrix of the moving dipole, first order in v/c0.

    k and kp are incoming/outgoing wavevectors in 1/cm; v is the lab velocity
    in m/s (|v|/c0 < 0.01).  The motion enters through the generator
    M_ij = eps_ijk (v/c0)_k as

        T = t0 [ 1 + (1/kappa) (-i phi_k M^T + i M phi_kp) ]

    with the momentum rotation generator (phi_p)_nm = i eps_nml p_l.  T is
    linear in v, equal to t0 * identity at rest.  For kp = k the correction
    is the symmetric traceless-for-orthogonal-v matrix
    -(t0/kappa)[k v + v k - 2 (k.v) 1].
    """
    if not (math.isfinite(omega) and omega > 0):
        raise ValueError(f"omega must be positive, got {omega!r}")
    k = np.asarray(k, dtype=float)
    kp = np.asarray(kp, dtype=float)
    beta = np.asarray(v, dtype=float) / CONSTANTS.c0_si
    if np.linalg.norm(beta) >= 0.01:
        raise ValueError("|v|/c0 must stay below 0.01")
    kappa = omega / CONSTANTS.c0_gaussian
    m = _eps_dot(beta)
    amp = _t0_kappa(spec, kappa)
    phi_k, phi_kp = 1j * _eps_dot(k), 1j * _eps_dot(kp)
    correction = (-1j * phi_k @ m.T + 1j * m @ phi_kp) / kappa
    return amp * (np.eye(3) + correction)


def p_rad_spectral(spec: DipoleSpec, omega: float, v) -> np.ndarray:
    """Spectral density of radiated zero-point momentum, kg m/s per rad/s.

    Proportional to Im(t0/kappa^2) and directed along v for every frequency;
    the c0 = 1 form is (2 hbar / pi) Im(t0 / (alpha omega^2)) v.
    """
    if not (math.isfinite(omega) and omega > 0):
        raise ValueError(f"omega must be positive, got {omega!r}")
    v_si = np.asarray(v, dtype=float)
    c0 = CONSTANTS.c0_gaussian
    kappa = omega / c0
    amp = _t0_kappa(spec, kappa)
    density_gauss = (2.0 * CONSTANTS.hbar_gaussian / math.pi
                     * (amp / (kappa * kappa)).imag / spec.alpha
                     * (v_si * 1e2 / c0) / c0)
    return density_gauss * _GAUSS_TO_SI_MOMENTUM


def spectral_integral_exact(spec: DipoleSpec) -> float:
    """Closed form of J = int_0^inf Im(t0/kappa^2) dkappa, in cm^2.

    With x = (2/3) gamma kappa0 and theta = 2 arcsin(x/2),
    J = -2 pi gamma (pi - theta) / (kappa0 cos(theta/2)); the arcsin form
    stays accurate at small damping where 1 - cos theta would lose digits.
    """
    x = spec.damping_ratio
    if x >= 2.0:
        raise ValueError(
            f"damping_ratio = {x:.3g} >= 2: overdamped resonance, the "
            "underdamped closed form does not apply")
    theta = 2.0 * math.asin(0.5 * x)
    return (-2.0 * math.pi * spec.gamma * (math.pi - theta)
            / (spec.kappa0 * math.cos(0.5 * theta)))


def spectral_integral_target(spec: DipoleSpec) -> float:
    """The sum-rule value -(pi/2) alpha0 kappa0 that J approaches as the
    resonance narrows (relative deviation ~ x/pi), in cm^2."""
    return -0.5 * math.pi * spec.alpha0 * spec.kappa0


def spectral_integral_quadrature(spec: DipoleSpec,
                                 rel_tol: float = 1e-5) -> float:
    """J = int_0^inf Im(t0/kappa^2) dkappa by direct quadrature, in cm^2.

    Compactifies with kappa = kappa0 tan(theta) — the integrand decays as
    1/kappa^2, so the tail becomes polynomial — and integrates over theta in
    (0, pi/2) with 30 Gauss-Legendre points on panels that double in width
    away from a central panel at theta = pi/4, 1e-3 damping_ratio wide on
    each side, so a narrow resonance peak is resolved.  Raises
    QuadratureError when the error estimate exceeds rel_tol of the result.
    """
    k0 = spec.kappa0

    def integrand(theta: np.ndarray) -> np.ndarray:
        kappa = k0 * np.tan(theta)
        amp = _t0_kappa(spec, kappa)
        return (amp / (kappa * kappa)).imag * k0 / np.cos(theta) ** 2

    quarter = 0.25 * math.pi
    edges = quarter + _graded_edges(-quarter, quarter,
                                    1e-3 * spec.damping_ratio)
    total, err = _panel_quad(integrand, edges, 30)
    if err > rel_tol * abs(total):
        raise QuadratureError(
            f"spectral integral did not converge: residual {err:.2e} "
            f"vs |value| {abs(total):.2e}")
    return total


def p_rad_total(spec: DipoleSpec, v) -> np.ndarray:
    """Total radiated zero-point momentum for lab velocity v (m/s), kg m/s.

    Integrates the spectral density over all frequencies by the compactified
    quadrature and matches the closed form -(alpha0/alpha)(hbar omega0/c0^2) v
    to better than 1e-4 relative for narrow resonances.  Antiparallel to v:
    the dipole's effective mass is reduced.
    """
    v_si = np.asarray(v, dtype=float)
    beta_si = np.linalg.norm(v_si) / CONSTANTS.c0_si
    if beta_si >= 0.01:
        raise ValueError("|v|/c0 must stay below 0.01")
    j_cm2 = spectral_integral_quadrature(spec)
    c0 = CONSTANTS.c0_gaussian
    total_gauss = (2.0 * CONSTANTS.hbar_gaussian / math.pi / spec.alpha
                   * j_cm2 * (v_si * 1e2 / c0))
    return total_gauss * _GAUSS_TO_SI_MOMENTUM


def mass_shift(spec: DipoleSpec) -> float:
    """Effective mass change -(alpha0/alpha) hbar omega0 / c0^2, in kg.

    This is the coefficient linking p_rad_total to -v; it is negative (a mass
    reduction) and vanishes when the regularized polarizability does.
    """
    return (-(spec.alpha0 / spec.alpha) * CONSTANTS.hbar_si * spec.omega0
            / CONSTANTS.c0_si**2)
