"""Second-order Born assembly of the zero-point momentum of a small sphere.

The recoil momentum of a weakly polarizable, bi-anisotropic sphere appears at
second order in the scattering expansion as a sum of three mode-sum tensors:
a purely transverse piece, a piece with one longitudinal propagator, and a
piece with two.  After angular averaging each reduces to Levi-Civita
contractions of the cross-coupling tensor chi weighted by the dimensionless
radial constants (the exact table _EXACT_CONSTANTS below, which module
oscillatory_integrals confirms by two routes) and one divergent geometric
factor K that dimensional regularization renders finite, K = -pi^2/(12 a).

The contracted total collapses to a closed form: the radiated zero-point
momentum is P_rad = -eta (hbar/a) (epsilon-1) w, where w_i = eps_inm chi_mn
and eta is a single pure number, eta = (I0 - I1 + C/3 - A/3 + D/3 - E/2) /
(192 pi^2).  This module builds both sides: the explicit tensor contractions
(second_born_momentum) and the closed form (closed_form_p_rad, eta), plus a
consistency diagnostic for the one constant (D) that has no published value.
Vectors are 3-tuples of floats, contracted from +0.0 without numpy.
"""

from __future__ import annotations

import math

# SphereSpec appears in annotations only, which stay strings: not imported
from .base import CONSTANTS, _EPS3, _as_vec3, _dot, _eps_dot, _finite, _Record

__all__ = [
    "ChiTensor",
    "BornMomentumBreakdown",
    "EtaConsistencyReport",
    "REFERENCE_ETA",
    "solve_D1_D3",
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
_ETA_SIGN_NOTE = ("computed eta is negative while the literature reference "
                  "value is quoted positive; signs here follow the computed "
                  "contraction")
REFERENCE_MAGNITUDES = {"I0": 0.589, "I1": 4.123, "A": 1.374, "C": -1.767,
                        "E": 19.242}

CHI_KINDS = ("magneto_electric", "moving_medium", "chiral", "general")
PERTURBATIVE_WINDOW = 0.5  # largest |epsilon - 1| the second order is trusted at

# The constant set used downstream.  Every value is an exact rational multiple
# of pi, so the prediction path needs no quadrature; the tests check the table
# against both routes of oscillatory_integrals, whose reconciled_constants()
# returns a copy of it.
_EXACT_CONSTANTS: dict[str, float] = {
    # I0, I1, A, C: equal bit for bit to eval_trig's exact integrals; the
    # regulated quadrature of each defining kernel confirms sign and magnitude.
    "I0": -3.0 * math.pi / 16.0,
    "I1": 21.0 * math.pi / 16.0,
    "A": 7.0 * math.pi / 16.0,
    "C": -9.0 * math.pi / 16.0,
    # D has no trig reduction: the regulated pass at eps = 0 gives 3 pi/16
    # for its defining kernel bit for bit (tests/test_oscillatory_integrals.py
    # test_unregulated_pass_gives_the_table_and_43_pi_over_8).
    "D": 3.0 * math.pi / 16.0,
    # E: the trig piece sum E1 + E2 + E3 = (21 - 35 + 63) pi/8.  The defining
    # kernel gives 43 pi/8 bit for bit (the same test); the gap is E1 (see
    # oscillatory_integrals.eval_bruteforce).
    "E": 49.0 * math.pi / 8.0,
}


def solve_D1_D3(D: float, E: float) -> tuple[float, float]:
    """Split (D, E) into the pair (D1, D3) satisfying 6 D1 + 9 D3 = D and
    12 D1 + 3 D3 = E; the unique solution is D1 = (3E - D)/30, D3 = (2D - E)/15.
    """
    return (3.0 * E - D) / 30.0, (2.0 * D - E) / 15.0


def axial_vector(matrix) -> tuple:
    """w_i = sum_{n,m} eps_{inm} M_{mn}: the axial vector of (the antisymmetric
    part of) a finite 3x3 matrix, or of a ChiTensor's matrix, which is not
    checked again.  Each component is a difference of transposed entries
    among exact zeros, so it vanishes exactly, as +0.0, for symmetric M."""
    chi = matrix if isinstance(matrix, ChiTensor) else ChiTensor(matrix)
    flat_mt = sum(zip(*chi.matrix), ())  # M_mn at [3 n + m]
    return _finite(tuple(_dot(sum(plane, ()), flat_mt) for plane in _EPS3),
                   "axial vector w_i = eps_inm chi_mn overflows a float")


class ChiTensor(_Record):
    """Dimensionless cross-coupling (bi-anisotropy) tensor with a kind tag.

    The kind records which physical mechanism produced the matrix and carries
    a structural invariant: magneto_electric and moving_medium matrices are
    antisymmetric, chiral matrices are multiples of the identity.
    """

    matrix: tuple
    kind: str = "general"

    def __post_init__(self) -> None:
        m = tuple(_as_vec3(row, "chi matrix row") for row in self.matrix)
        if len(m) != 3:
            raise ValueError(f"chi matrix must have 3 rows, got {len(m)}")
        object.__setattr__(self, "matrix", m)
        if self.kind not in CHI_KINDS:
            raise ValueError(f"kind must be one of {CHI_KINDS}, got {self.kind!r}")
        tol = 1e-12 * max(1e-300, max(abs(x) for row in m for x in row))
        pairs = [(i, j) for i in range(3) for j in range(3)]
        if self.kind in ("magneto_electric", "moving_medium"):
            if any(abs(m[i][j] + m[j][i]) > tol for i, j in pairs):
                raise ValueError(f"{self.kind} chi must be antisymmetric")
        elif self.kind == "chiral":
            if any(abs(m[i][j] - m[0][0] * (i == j)) > tol for i, j in pairs):
                raise ValueError("chiral chi must be a multiple of the identity")

    @classmethod
    def magneto_electric(cls, e_vec, b_vec, g_em: float) -> "ChiTensor":
        """chi_ij = g_em (E_i B_j - E_j B_i) for given field orientations."""
        e, b = _as_vec3(e_vec, "e_vec"), _as_vec3(b_vec, "b_vec")
        return cls(matrix=[[g_em * (ei * bj - bi * ej) for ej, bj in zip(e, b)]
                           for ei, bi in zip(e, b)], kind="magneto_electric")

    @classmethod
    def moving_medium(cls, epsilon: float, velocity_si) -> "ChiTensor":
        """chi_ij = (1 - epsilon) eps_ijk v_k / c0 for a medium moving at v (m/s)."""
        v = _as_vec3(velocity_si, "velocity_si")
        return cls(matrix=_eps_dot([(1.0 - epsilon) * (x / CONSTANTS.c0_si)
                                    for x in v]), kind="moving_medium")

    @classmethod
    def chiral(cls, g: float) -> "ChiTensor":
        """chi_ij = g delta_ij (isotropic chirality)."""
        return cls(matrix=[[g * (i == j) for j in range(3)] for i in range(3)],
                   kind="chiral")


class BornMomentumBreakdown(_Record):
    """The three tensor contributions to P_rad,i = hbar (I_ijj - I_jij), SI kg m/s.

    contrib_0: transverse;  contrib_1: one longitudinal propagator;
    contrib_2: two longitudinal propagators;  total = sum of the three.
    """

    contrib_0: tuple
    contrib_1: tuple
    contrib_2: tuple
    total: tuple


def regularized_K(a: float) -> float:
    """Dimensionally regularized self-overlap integral of a ball: -pi^2/(12 a).

    a is the sphere radius; the raw object (the double volume integral of
    1/|x-y|^7 over the ball) diverges, and this is its finite regularized
    value, negative and scaling as 1/a.
    """
    if not (math.isfinite(a) and a > 0):
        raise ValueError(f"radius must be positive, got {a!r}")
    return _finite((-math.pi**2 / (12.0 * a),),
                   f"K = -pi^2/(12 a) overflows a float at a = {a!r}")[0]


def eta(constants: dict | None = None) -> float:
    """The pure number governing the sphere momentum:

        eta = (I0 - I1 + C/3 - A/3 + D/3 - E/2) / (192 pi^2)

    evaluated with the exact constant table (_EXACT_CONSTANTS), which
    gives -29/(1152 pi).  Pass `constants` to evaluate the same combination
    for any explicit set.
    """
    c = _EXACT_CONSTANTS if constants is None else constants
    numerator = (c["I0"] - c["I1"] + c["C"] / 3.0 - c["A"] / 3.0
                 + c["D"] / 3.0 - c["E"] / 2.0)
    return numerator / (192.0 * math.pi**2)


class EtaConsistencyReport(_Record):
    """Cross-check of the unpublished constant D against the published eta.

    d_implied is the D value that would make the reference eta exact given the
    reference magnitudes of the other constants taken at face value;
    d_quadrature is the computed value, 3 pi/16 from the exact constant table
    (which the regulated quadrature confirms), and eta_quadrature the computed
    eta.  The field names are kept because the CLI report rows carry them.
    The ratio is the headline number: order unity would mean the published
    eta pins D; at face value the result is a factor ~150.  With the signs
    the package computes instead (I0 < 0, and eta at the sign of eta()),
    d_implied_computed_signs is 3 pi/8 to within the printed digits, and
    ratio_computed_signs is 2.000: twice the computed D.
    """

    eta_reference: float
    d_implied: float
    d_quadrature: float
    discrepancy: float
    ratio: float
    eta_quadrature: float
    d_implied_computed_signs: float
    ratio_computed_signs: float


def _implied_d(constants: dict, eta_value: float) -> float:
    """The D at which eta(constants) equals eta_value.  eta is linear in D,
    so it is (eta_value - eta(D = 0)) over eta at D = 1 and the rest 0."""
    unit_d = {name: float(name == "D") for name in _EXACT_CONSTANTS}
    return (eta_value - eta({**constants, "D": 0.0})) / eta(unit_d)


def eta_consistency() -> EtaConsistencyReport:
    """Solve the eta formula for D using reference face values and compare.

    D_implied takes the other constants at their reference magnitudes (signs
    as printed) and eta_ref itself; D_implied_computed_signs gives each of
    them, eta_ref included, the sign the package computes.  Both are compared
    against the computed D of the exact constant table.  Diagnostic only —
    never raises on disagreement.
    """
    exact = _EXACT_CONSTANTS
    eta_value = eta()
    d_implied = _implied_d(REFERENCE_MAGNITUDES, REFERENCE_ETA)
    d_signed = _implied_d(
        {name: math.copysign(mag, exact[name])
         for name, mag in REFERENCE_MAGNITUDES.items()},
        math.copysign(REFERENCE_ETA, eta_value))
    d_quadrature = exact["D"]
    return EtaConsistencyReport(
        eta_reference=REFERENCE_ETA,
        d_implied=d_implied,
        d_quadrature=d_quadrature,
        discrepancy=d_implied - d_quadrature,
        ratio=d_implied / d_quadrature,
        eta_quadrature=eta_value,
        d_implied_computed_signs=d_signed,
        ratio_computed_signs=d_signed / d_quadrature,
    )


def second_born_momentum(sphere: SphereSpec, chi: ChiTensor,
                         constants: dict | None = None) -> BornMomentumBreakdown:
    """Radiated zero-point momentum of the sphere via the full tensor path.

    Builds the three angular-averaged mode-sum tensors with explicit
    Levi-Civita contractions, forms P_rad,i = hbar (I_ijj - I_jij) for each,
    and returns the breakdown (SI momentum units; sphere radius in meters).
    The recoil momentum of the sphere itself is -total.

    Valid only at weak contrast, |epsilon - 1| <= PERTURBATIVE_WINDOW; outside
    it a ValueError is raised, and a FloatingPointError where a contribution
    or the total overflows a float.  Linear in chi and in (epsilon - 1), and
    proportional to 1/a through K.  Every tensor entry is a chi entry times
    Levi-Civita and Kronecker entries (0 or +-1), summed from +0.0 in index
    order, so for symmetric chi the transposed pairs cancel exactly and the
    total is exactly zero.
    """
    eps_r = sphere.material.epsilon
    if abs(eps_r - 1.0) > PERTURBATIVE_WINDOW:
        raise ValueError(
            f"|epsilon - 1| = {abs(eps_r - 1.0):.3g} exceeds {PERTURBATIVE_WINDOW}"
            "; the second-order expansion is not trustworthy there")
    c = _EXACT_CONSTANTS if constants is None else constants
    K = regularized_K(sphere.radius)
    contrast = eps_r - 1.0
    # rows[l][i][j] = eps_ijm chi_lm = eps_jmi chi_lm, and u_l = eps_nlm chi_mn
    rows = [_eps_dot(row) for row in chi.matrix]
    u = [_dot(sum(plane, ()), sum(chi.matrix, ())) for plane in _EPS3]

    a1, a3 = (d + (c["C"] - c["A"]) / 15.0 for d in solve_D1_D3(c["D"], c["E"]))

    # t[0] (transverse) and t[1] (one longitudinal) are each a half plus its
    # j <-> l transpose, T_ijl = half_ijl + half_ilj: coeff0 eps_jmi chi_lm
    # and coeff1 (a1 d_ij u_l + a3 eps_mli chi_jm)
    coeff0 = -K / (48.0 * math.pi**4) * contrast * (c["I0"] - c["I1"])
    coeff1 = K / (16.0 * math.pi**4) * contrast

    def contract(half) -> tuple:
        """hbar sum_j (T_ijj - T_jij), summed from +0.0 over j."""
        p = [0.0, 0.0, 0.0]
        for i in range(3):
            for j in range(3):
                p[i] += 2.0 * half(i, j, j) - half(j, i, j) - half(j, j, i)
        return tuple(CONSTANTS.hbar_si * x for x in p)

    contrib_0 = contract(lambda i, j, l: coeff0 * rows[l][i][j])
    contrib_1 = contract(lambda i, j, l: coeff1 * (
        a1 * (i == j) * u[l] + a3 * rows[j][l][i]))
    # two-longitudinal piece arrives pre-contracted: -K E/(32 pi^4) (eps-1) w
    scale2 = CONSTANTS.hbar_si * (-K * c["E"] / (32.0 * math.pi**4) * contrast)
    contrib_2 = tuple(scale2 * x for x in axial_vector(chi))
    total = tuple(x + y + z for x, y, z in zip(contrib_0, contrib_1, contrib_2))
    _finite(contrib_0 + contrib_1 + contrib_2 + total,
            "the second-order Born momentum hbar (T_ijj - T_jij) overflows "
            "a float")
    return BornMomentumBreakdown(contrib_0, contrib_1, contrib_2, total)


def closed_form_p_rad(sphere: SphereSpec, chi: ChiTensor,
                      eta_value: float | None = None) -> tuple:
    """P_rad = -eta (hbar/a) (epsilon - 1) w, the collapsed form of the tensor
    path (SI kg m/s).  Identical to second_born_momentum().total when the same
    constant set feeds both; exposed separately so order-of-magnitude
    predictions can extrapolate it outside the strict perturbative window.
    """
    ev = eta() if eta_value is None else eta_value
    if not math.isfinite(ev):
        raise ValueError(f"eta must be finite, got {ev!r}")
    scale = -ev * (CONSTANTS.hbar_si / sphere.radius) * (
        sphere.material.epsilon - 1.0)
    return _finite(tuple(scale * x for x in axial_vector(chi)),
                   "P_rad = -eta (hbar/a)(epsilon-1) w overflows a float")
