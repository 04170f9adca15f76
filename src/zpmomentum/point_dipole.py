"""Radiative momentum and mass shift of a moving resonant point dipole.

A point scatterer with bare polarizability alpha, regularized static
polarizability alpha0 <= alpha, and a transverse-regularization length gamma
has the resonant scattering amplitude (SI, lengths in m; the formulas hold in
any unit system, and frequencies enter as wavenumbers kappa = omega / c0)

    t0(kappa) = -4 pi gamma kappa^2 / (kappa0^2 - kappa^2 - (2/3) i gamma kappa0^2 kappa)

whose resonance wavenumber kappa0 = sqrt(4 pi gamma / alpha0) is fixed by
requiring the spectral sum rule below; it is always derived, never a free
input.  When the dipole moves at velocity v the zero-point field drags a
momentum along: the spectral density is proportional to Im(t0/kappa^2) v and
its frequency integral obeys

    int_0^inf Im(t0/kappa^2) dkappa = -(pi/2) alpha0 kappa0   (up to O(gamma kappa0)),

so the total radiated momentum is -(alpha0/alpha)(hbar omega0 / c0^2) v: the
dipole behaves as if its mass changed by -(alpha0/alpha) hbar omega0 / c0^2.

Vectors are 3-tuples of floats and t_matrix is three rows of three complex
numbers, built on the one Levi-Civita of module base.  Only the quadrature
of J runs numpy, imported in its own body.
"""

from __future__ import annotations

import math

from .base import (CONSTANTS, ConvergenceError, _as_vec3, _dot, _eps_dot,
                   _finite, _Record, _slow_velocity)

__all__ = [
    "DipoleSpec",
    "t0",
    "t_matrix",
    "p_rad_spectral",
    "p_rad_total",
    "spectral_integral_quadrature",
    "spectral_integral_exact",
    "spectral_integral_target",
    "mass_shift",
]

SPECTRAL_REL_TOL = 1e-5  # largest error estimate / |J| the quadrature accepts


class DipoleSpec(_Record):
    """Point-dipole parameters (SI).

    alpha    bare polarizability volume, m^3
    alpha0   regularized static polarizability, m^3; alpha0 <= alpha because
             the longitudinal counterterm only ever decreases it
    gamma    transverse regularization length, m

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
        """Resonance wavenumber sqrt(4 pi gamma / alpha0), 1/m."""
        square = 4.0 * math.pi * self.gamma / self.alpha0
        if square in (0.0, math.inf):
            raise FloatingPointError(
                "kappa0^2 = 4 pi gamma / alpha0 "
                f"{'overflows' if square else 'underflows to 0'} at gamma = "
                f"{self.gamma!r} m, alpha0 = {self.alpha0!r} m^3")
        return math.sqrt(square)

    @property
    def omega0(self) -> float:
        """Resonance frequency c0 * kappa0, rad/s."""
        return CONSTANTS.c0_si * self.kappa0

    @property
    def damping_ratio(self) -> float:
        """x = (2/3) gamma kappa0, the fractional resonance width (dimensionless)."""
        x = 2.0 / 3.0 * self.gamma * self.kappa0
        return _finite((x,), "damping_ratio = (2/3) gamma kappa0 overflows at "
                             f"gamma = {self.gamma!r} m")[0]


def _kappa(omega: float) -> float:
    """The wavenumber omega / c0 (1/m) of a frequency omega > 0 (rad/s)."""
    if not (math.isfinite(omega) and omega > 0):
        raise ValueError(f"omega must be positive, got {omega!r}")
    kappa = omega / CONSTANTS.c0_si
    if kappa == 0.0:
        raise FloatingPointError(f"kappa = omega / c0 underflows to 0 at "
                                 f"omega = {omega!r} rad/s")
    return kappa


def _spectral_kernel(spec: DipoleSpec, r, d):
    """Im(t0/kappa^2) = Im(alpha0 / (d + i x r)) in m^3 at kappa = r kappa0, the
    integrand of J; the caller forms d = r^2 - 1 free of cancellation."""
    return (spec.alpha0 / (d + 1j * spec.damping_ratio * r)).imag


def _scaled_resonance(spec: DipoleSpec, omega: float):
    """(rho, d, a, b) with r = kappa/kappa0 and r^2 - 1 + i x r equal to
    (d + i x rho) / b^2, so t0 = 4 pi gamma a^2 / (d + i x rho).  Below the
    resonance rho = a = r and b = 1; above it the denominator is divided
    through by r^2, rho = b = 1/r and a = 1, so that no square overflows."""
    r = _kappa(omega) / spec.kappa0
    if r == 1.0 and spec.damping_ratio == 0.0:
        raise ZeroDivisionError(
            "t0 is infinite on resonance at damping ratio 0: (2/3) gamma "
            f"kappa0 underflows to 0 at gamma = {spec.gamma!r} m")
    if r <= 1.0:
        return r, (r - 1.0) * (r + 1.0), r, 1.0
    s = 1.0 / r
    return s, (1.0 - s) * (1.0 + s), 1.0, s


def _radiated_momentum(spec: DipoleSpec, j: float, v_si) -> tuple:
    """(2 hbar / pi)(j / alpha)(v / c0) in kg m/s; j is J or its density."""
    scale = 2.0 * CONSTANTS.hbar_si / math.pi / spec.alpha * j
    return tuple(scale * (x / CONSTANTS.c0_si) for x in v_si)


def t0(spec: DipoleSpec, omega: float) -> complex:
    """Summed scattering amplitude at frequency omega (rad/s); value in m.

    Vanishes as omega^2 at low frequency; exactly -6 pi i / kappa0 on
    resonance; Im t0 < 0 for all omega > 0 (radiation always removes energy).
    With r = kappa/kappa0 and 4 pi gamma = alpha0 kappa0^2, t0 is
    4 pi gamma r^2 / (r^2 - 1 + i x r), scaled by _scaled_resonance so that
    no square overflows; a tiny t0 underflows to 0.  At damping ratio 0,
    which only an underflow gives, t0 is infinite on resonance and raises
    ZeroDivisionError.
    """
    rho, d, a, _ = _scaled_resonance(spec, omega)
    return 4.0 * math.pi * spec.gamma * a * a / complex(
        d, spec.damping_ratio * rho)


def t_matrix(spec: DipoleSpec, omega: float, k, kp, v) -> tuple:
    """Summed 3x3 t-matrix of the moving dipole, first order in v/c0.

    k and kp are incoming/outgoing wavevectors in 1/m; v is the lab velocity
    in m/s (|v|/c0 < 0.01).  The motion enters through the generator
    M_ij = eps_ijk (v/c0)_k as

        T = t0 [ 1 + (1/kappa) (-i phi_k M^T + i M phi_kp) ]

    with the momentum rotation generator (phi_p)_nm = i eps_nml p_l.  T, three
    rows of three complex numbers, is linear in v and t0 * identity at rest.
    For kp = k the correction is the symmetric traceless-for-orthogonal-v
    matrix -(t0/kappa)[k v + v k - 2 (k.v) 1].
    """
    m = _eps_dot([x / CONSTANTS.c0_si for x in _slow_velocity(v)])
    ek, ekp = _eps_dot(_as_vec3(k, "k")), _eps_dot(_as_vec3(kp, "kp"))
    amp = t0(spec, omega)
    scale = amp / _kappa(omega)  # t0/kappa stays finite where 1/kappa does not
    # i phi_p = -eps(p), eps(p)_nm = eps_nml p_l, so the correction is real:
    # (eps(k) M^T - M eps(kp))_ij = eps(k)_in M_jn + M_in eps(kp)_jn
    rows = tuple(tuple(amp * (i == j)
                       + scale * (_dot(ek[i], m[j]) + _dot(m[i], ekp[j]))
                       for j in range(3)) for i in range(3))
    _finite(tuple(x for row in rows for z in row for x in (z.real, z.imag)),
            "t-matrix t0 [1 + (eps(k) M^T - M eps(kp))/kappa] overflows")
    return rows


def p_rad_spectral(spec: DipoleSpec, omega: float, v) -> tuple:
    """Spectral density of radiated zero-point momentum, kg m/s per rad/s.

    Proportional to Im(t0/kappa^2) and directed along v for every frequency;
    the c0 = 1 form is (2 hbar / pi) Im(t0 / (alpha omega^2)) v.
    """
    # J's density per unit omega, as d kappa = d omega / c0
    rho, d, _, b = _scaled_resonance(spec, omega)
    density = _spectral_kernel(spec, rho, d) * b * b
    return _radiated_momentum(spec, density / CONSTANTS.c0_si,
                              _slow_velocity(v))


def spectral_integral_exact(spec: DipoleSpec) -> float:
    """Closed form of J = int_0^inf Im(t0/kappa^2) dkappa in m^2, for every
    damping ratio x >= 0: J = -4 pi gamma g(x/2) / kappa0, with g(y) equal to
    acos(y) / sqrt(1 - y^2) below 1, 1 at 1 and acosh(y) / sqrt(y^2 - 1)
    above (overdamped).  The roots of 1 - y and 1 + y are taken apart, so no
    square overflows; g(0) = pi/2 gives the sum-rule target."""
    y, g = 0.5 * spec.damping_ratio, 1.0  # g(1) = 1
    if y < 1.0:
        g = math.acos(y) / (math.sqrt(1.0 - y) * math.sqrt(1.0 + y))
    elif y > 1.0:
        g = math.acosh(y) / (math.sqrt(y - 1.0) * math.sqrt(y + 1.0))
    return -4.0 * math.pi * spec.gamma / spec.kappa0 * g


def spectral_integral_target(spec: DipoleSpec) -> float:
    """The sum-rule value -(pi/2) alpha0 kappa0 that J approaches as the
    resonance narrows (relative deviation ~ x/pi), in m^2."""
    return _finite((-0.5 * math.pi * (spec.alpha0 * spec.kappa0),),
                   "the sum-rule target -(pi/2) alpha0 kappa0 overflows")[0]


def spectral_integral_quadrature(spec: DipoleSpec) -> float:
    """J = int_0^inf Im(t0/kappa^2) dkappa by direct quadrature, in m^2.

    Compactifies with kappa = kappa0 tan(phi + pi/4) — the integrand decays
    as 1/kappa^2, so the tail becomes polynomial — and integrates over phi in
    (-pi/4, pi/4) with 30 Gauss-Legendre points on panels that double in
    width away from a central panel at the resonance phi = 0, 1e-3
    damping_ratio wide on each side.  With t = tan phi, r = kappa/kappa0 =
    (1 + t)/(1 - t) and r^2 - 1 is the product 4t/(1 - t)^2, which keeps its
    digits at the resonance, where the difference cancels.  Raises
    ConvergenceError when the error estimate exceeds SPECTRAL_REL_TOL |J|.
    """
    import numpy as np
    from .special_functions import _graded_edges, _panel_quad
    k0 = spec.kappa0
    inner = 1e-3 * spec.damping_ratio
    if inner == 0.0:
        raise FloatingPointError(
            f"the central panel half-width 1e-3 (2/3) gamma kappa0 underflows "
            f"to 0 at gamma = {spec.gamma!r} m, kappa0 = {k0!r} 1/m")

    def integrand(phi):  # dkappa = k0 (1 + r^2) dphi
        t = np.tan(phi)
        r = (1.0 + t) / (1.0 - t)
        return _spectral_kernel(spec, r, 4.0 * t / (1.0 - t)**2) * k0 * (1.0 + r * r)
    edges = _graded_edges(-0.25 * math.pi, 0.25 * math.pi, inner)
    total, err = _panel_quad(integrand, edges, 30)
    if err > SPECTRAL_REL_TOL * abs(total):
        raise ConvergenceError(
            f"spectral integral did not converge: residual {err:.2e} "
            f"vs |value| {abs(total):.2e}")
    return total


def p_rad_total(spec: DipoleSpec, v) -> tuple:
    """Total radiated zero-point momentum for lab velocity v (m/s), kg m/s.

    The spectral density integrated over all frequencies, read from the
    closed form of J for every damping ratio; it tends to mass_shift v as the
    resonance narrows.  Antiparallel to v: the effective mass is reduced.
    """
    v_si = _slow_velocity(v)
    return _radiated_momentum(spec, spectral_integral_exact(spec), v_si)


def mass_shift(spec: DipoleSpec) -> float:
    """Effective mass change -(alpha0/alpha) hbar omega0 / c0^2, in kg.

    It is negative (a mass reduction) and vanishes when the regularized
    polarizability does.  With g of spectral_integral_exact and x the damping
    ratio, p_rad_total = (2/pi) g(x/2) mass_shift v exactly.
    """
    return (-(spec.alpha0 / spec.alpha) * CONSTANTS.hbar_si * spec.omega0
            / CONSTANTS.c0_si**2)
