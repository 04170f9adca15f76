"""Second-order Born assembly of the zero-point momentum of a small sphere.

The recoil momentum of a weakly polarizable, bi-anisotropic sphere appears at
second order in the scattering expansion as a sum of three mode-sum tensors:
a purely transverse piece, a piece with one longitudinal propagator, and a
piece with two.  After angular averaging each reduces to Levi-Civita
contractions of the cross-coupling tensor chi weighted by the dimensionless
radial constants (module oscillatory_integrals) and one divergent geometric
factor K that dimensional regularization renders finite, K = -pi^2/(12 a).

The contracted total collapses to a closed form: the radiated zero-point
momentum is P_rad = -eta (hbar/a) (epsilon-1) w, where w_i = eps_inm chi_mn
and eta is a single pure number, eta = (I0 - I1 + C/3 - A/3 + D/3 - E/2) /
(192 pi^2).  This module builds both sides: the explicit tensor contractions
(second_born_momentum) and the closed form (closed_form_p_rad, eta), plus a
consistency diagnostic for the one constant (D) that has no published value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .units_materials import CONSTANTS, SphereSpec
from .oscillatory_integrals import reconciled_constants, solve_D1_D3

__all__ = [
    "ChiTensor",
    "BornMomentumBreakdown",
    "EtaConsistencyReport",
    "REFERENCE_ETA",
    "axial_vector",
    "regularized_K",
    "eta",
    "eta_consistency",
    "second_born_momentum",
    "closed_form_p_rad",
]

# Literature reference values that the consistency diagnostics compare against
# (magnitudes as printed; the sign conventions are part of what gets checked).
REFERENCE_ETA = 0.007909
REFERENCE_MAGNITUDES = {"I0": 0.589, "I1": 4.123, "A": 1.374, "C": -1.767,
                        "E": 19.242}

CHI_KINDS = ("magneto_electric", "moving_medium", "chiral", "general")


# The rank-3 alternating tensor eps_ijk.
_EPS3 = np.array([[[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]],
                  [[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                  [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]])


def _eps_dot(v) -> np.ndarray:
    """The matrix eps_ijk v_k.  Adding 0.0 turns every -0.0 into +0.0, so
    the entries match a sum accumulated from +0.0."""
    x, y, z = v
    return np.array([[0.0, z, -y], [-z, 0.0, x], [y, -x, 0.0]]) + 0.0


def axial_vector(matrix: np.ndarray) -> np.ndarray:
    """w_i = sum_{n,m} eps_{inm} M_{mn}: the axial vector of (the antisymmetric
    part of) a 3x3 matrix.  Each component is a difference of transposed
    entries, so it vanishes exactly for symmetric M; adding 0.0 turns a
    -0.0 into +0.0, as in _eps_dot."""
    m = np.asarray(matrix, dtype=float)
    return np.array([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0],
                     m[1, 0] - m[0, 1]]) + 0.0


@dataclass(frozen=True)
class ChiTensor:
    """Dimensionless cross-coupling (bi-anisotropy) tensor with a kind tag.

    The kind records which physical mechanism produced the matrix and carries
    a structural invariant: magneto_electric and moving_medium matrices are
    antisymmetric, chiral matrices are multiples of the identity.
    """

    matrix: np.ndarray
    kind: str = "general"

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3) or not np.all(np.isfinite(m)):
            raise ValueError("chi matrix must be a finite real 3x3 array")
        object.__setattr__(self, "matrix", m)
        if self.kind not in CHI_KINDS:
            raise ValueError(f"kind must be one of {CHI_KINDS}, got {self.kind!r}")
        scale = max(1e-300, float(np.max(np.abs(m))))
        if self.kind in ("magneto_electric", "moving_medium"):
            if np.max(np.abs(m + m.T)) > 1e-12 * scale:
                raise ValueError(f"{self.kind} chi must be antisymmetric")
        elif self.kind == "chiral":
            if np.max(np.abs(m - m[0, 0] * np.eye(3))) > 1e-12 * scale:
                raise ValueError("chiral chi must be a multiple of the identity")

    @classmethod
    def magneto_electric(cls, e_vec, b_vec, g_em: float) -> "ChiTensor":
        """chi_ij = g_em (E_i B_j - E_j B_i) for given field orientations."""
        e = np.asarray(e_vec, dtype=float)
        b = np.asarray(b_vec, dtype=float)
        m = g_em * (np.outer(e, b) - np.outer(b, e))
        return cls(matrix=m, kind="magneto_electric")

    @classmethod
    def moving_medium(cls, epsilon: float, velocity_si) -> "ChiTensor":
        """chi_ij = (1 - epsilon) eps_ijk v_k / c0 for a medium moving at v (m/s)."""
        v = np.asarray(velocity_si, dtype=float) / CONSTANTS.c0_si
        return cls(matrix=_eps_dot((1.0 - epsilon) * v), kind="moving_medium")

    @classmethod
    def chiral(cls, g: float) -> "ChiTensor":
        """chi_ij = g delta_ij (isotropic chirality)."""
        return cls(matrix=g * np.eye(3), kind="chiral")


@dataclass(frozen=True)
class BornMomentumBreakdown:
    """The three tensor contributions to P_rad,i = hbar (I_ijj - I_jij), SI kg m/s.

    contrib_0: transverse;  contrib_1: one longitudinal propagator;
    contrib_2: two longitudinal propagators;  total = sum of the three.
    """

    contrib_0: np.ndarray
    contrib_1: np.ndarray
    contrib_2: np.ndarray
    total: np.ndarray
    K_used: float


def regularized_K(a: float) -> float:
    """Dimensionally regularized self-overlap integral of a ball: -pi^2/(12 a).

    a is the sphere radius; the raw object (the double volume integral of
    1/|x-y|^7 over the ball) diverges, and this is its finite regularized
    value, negative and scaling as 1/a.
    """
    if not (math.isfinite(a) and a > 0):
        raise ValueError(f"radius must be positive, got {a!r}")
    return -math.pi**2 / (12.0 * a)


def eta(constants: dict | None = None) -> float:
    """The pure number governing the sphere momentum:

        eta = (I0 - I1 + C/3 - A/3 + D/3 - E/2) / (192 pi^2)

    evaluated with the exact constant table (reconciled_constants), which
    gives -29/(1152 pi).  Pass `constants` to evaluate the same combination
    for any explicit set.
    """
    c = reconciled_constants() if constants is None else constants
    numerator = (c["I0"] - c["I1"] + c["C"] / 3.0 - c["A"] / 3.0
                 + c["D"] / 3.0 - c["E"] / 2.0)
    return numerator / (192.0 * math.pi**2)


@dataclass(frozen=True)
class EtaConsistencyReport:
    """Cross-check of the unpublished constant D against the published eta.

    d_implied is the D value that would make the reference eta exact given the
    reference magnitudes of the other constants taken at face value;
    d_quadrature is the computed value, 3 pi/16 from the exact constant table
    (which the regulated quadrature confirms), and eta_quadrature the computed
    eta.  The field names are kept because the CLI report rows carry them.
    The ratio is the headline number: order unity would mean the published
    eta pins D; the actual result is a factor ~150, so it does not.
    """

    eta_reference: float
    d_implied: float
    d_quadrature: float
    discrepancy: float
    ratio: float
    eta_quadrature: float


def eta_consistency() -> EtaConsistencyReport:
    """Solve the eta formula for D using reference face values and compare.

    D_implied = 3 (eta * 192 pi^2 - (I0 - I1 + C/3 - A/3 - E/2)), with the
    other constants at their reference magnitudes (signs as printed), compared
    against the computed D of the exact constant table.  Diagnostic only —
    never raises on disagreement.
    """
    r = REFERENCE_MAGNITUDES
    partial = (r["I0"] - r["I1"] + r["C"] / 3.0 - r["A"] / 3.0 - r["E"] / 2.0)
    d_implied = 3.0 * (REFERENCE_ETA * 192.0 * math.pi**2 - partial)
    d_quadrature = reconciled_constants()["D"]
    return EtaConsistencyReport(
        eta_reference=REFERENCE_ETA,
        d_implied=d_implied,
        d_quadrature=d_quadrature,
        discrepancy=d_implied - d_quadrature,
        ratio=d_implied / d_quadrature,
        eta_quadrature=eta(),
    )


def second_born_momentum(sphere: SphereSpec, chi: ChiTensor,
                         constants: dict | None = None) -> BornMomentumBreakdown:
    """Radiated zero-point momentum of the sphere via the full tensor path.

    Builds the three angular-averaged mode-sum tensors with explicit
    Levi-Civita contractions, forms P_rad,i = hbar (I_ijj - I_jij) for each,
    and returns the breakdown (SI momentum units; sphere radius in meters).
    The recoil momentum of the sphere itself is -total.

    Valid only in the weak-contrast regime |epsilon - 1| <= 0.5; outside it a
    ValueError is raised.  Linear in chi and in (epsilon - 1), and
    proportional to 1/a through K.  Each einsum multiplies chi entries only by
    Levi-Civita and Kronecker entries (0 or +-1), so for symmetric chi the
    transposed pairs cancel exactly and the total is exactly zero.
    """
    eps_r = sphere.material.epsilon
    if abs(eps_r - 1.0) > 0.5:
        raise ValueError(
            f"|epsilon - 1| = {abs(eps_r - 1.0):.3g} exceeds 0.5; the "
            "second-order expansion is not trustworthy there")
    c = reconciled_constants() if constants is None else constants
    K = regularized_K(sphere.radius)
    contrast = eps_r - 1.0
    hbar = CONSTANTS.hbar_si
    m = chi.matrix

    D1, D3 = solve_D1_D3(c["D"], c["E"])
    a1 = D1 + (c["C"] - c["A"]) / 15.0
    a3 = D3 + (c["C"] - c["A"]) / 15.0

    # t[0] (transverse) and t[1] (one longitudinal) are each a term plus its
    # j <-> l transpose: coeff0 (eps_jmi chi_lm + chi_jm eps_lmi) and
    # coeff1 [a1 chi_mn (d_ij eps_nlm + d_il eps_njm) + a3 (eps_mli chi_jm + eps_mji chi_lm)]
    coeff0 = -K / (48.0 * math.pi**4) * contrast * (c["I0"] - c["I1"])
    coeff1 = K / (16.0 * math.pi**4) * contrast
    u = np.einsum("nlm,mn->l", _EPS3, m)
    half = np.stack([coeff0 * np.einsum("jmi,lm->ijl", _EPS3, m),
                     coeff1 * (a1 * np.einsum("ij,l->ijl", np.eye(3), u)
                               + a3 * np.einsum("mli,jm->ijl", _EPS3, m))])
    t = half + half.swapaxes(2, 3)
    # the P_i-type contraction T_ijj - T_jij of each
    contrib_0, contrib_1 = hbar * (np.einsum("kijj->ki", t)
                                   - np.einsum("kjij->ki", t))

    # two-longitudinal piece arrives pre-contracted: -K E/(32 pi^4) (eps-1) w
    contrib_2 = hbar * (-K * c["E"] / (32.0 * math.pi**4) * contrast
                        ) * axial_vector(m)

    total = contrib_0 + contrib_1 + contrib_2
    return BornMomentumBreakdown(contrib_0=contrib_0, contrib_1=contrib_1,
                                 contrib_2=contrib_2, total=total, K_used=K)


def closed_form_p_rad(sphere: SphereSpec, chi: ChiTensor,
                      eta_value: float | None = None) -> np.ndarray:
    """P_rad = -eta (hbar/a) (epsilon - 1) w, the collapsed form of the tensor
    path (SI kg m/s).  Identical to second_born_momentum().total when the same
    constant set feeds both; exposed separately so order-of-magnitude
    predictions can extrapolate it outside the strict perturbative window.
    """
    ev = eta() if eta_value is None else eta_value
    w = axial_vector(chi.matrix)
    contrast = sphere.material.epsilon - 1.0
    return -ev * (CONSTANTS.hbar_si / sphere.radius) * contrast * w
