"""Dimensionless radial-mode constants by two independent routes.

Six dimensionless constants (named I0, I1, A, C, D, E here and throughout the
package) control the second-order momentum of a small scatterer in vacuum.
Each is a divergent-looking double integral over two radial wavenumbers with
products of spherical Bessel functions; they acquire finite values through an
exponential regulator e^{-eps (p+q)} followed by extrapolation eps -> 0.

Two routes are implemented and kept strictly separate:

* eval_trig: closed-form polar-coordinate reductions to elementary 1-D
  trigonometric integrals on [0, pi/2], integrated exactly: each is a
  rational multiple of pi, with no quadrature.  These exist for I0, I1, A, C
  and for the three pieces E1, E2, E3 of E.
* eval_bruteforce: the regulated double integrals of the defining (p, q)
  kernels of all six constants, each as the exact integral in t of the
  product of the closed-form Laplace transforms of its two radial factors,
  with Richardson extrapolation in the regulator.

The two routes share no algebra, so their agreement (disagreement) is a real
cross-check.  The constant set used downstream, reconciled_constants(), is a
table of exact rational multiples of pi that both routes confirm; the
prediction path reads the table and runs neither route.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

from .base import ConvergenceError, IntegralResult, _richardson

__all__ = [
    "DEFAULT_SCHEDULE",
    "TRIG_NAMES",
    "eval_trig",
    "eval_bruteforce",
    "reconciled_constants",
]

# Production regulator schedule.  A three-point schedule extrapolates the
# constants to ~1e-4 relative but leaves the drop-one stability check at a few
# percent for the slowest-converging kernel; the fourth point brings every
# drop-one change below 0.02%.
DEFAULT_SCHEDULE: tuple[float, ...] = (0.1, 0.05, 0.025, 0.0125)
# Richardson powers: F(eps) - F(0) is odd in eps for every piece, to rounding
# (test_regulated_pieces_are_odd_about_eps_0), so the series is eps, eps^3,
# eps^5, ...; fitting even powers as well wastes schedule points and degrades
# the extrapolation by orders of magnitude.
_ODD_POWERS = (0, 1, 3, 5, 7)
# Smallest accepted regulator, kept as the --eps-schedule contract; a pass's
# time and memory do not grow with 1/eps.
_EPS_FLOOR = DEFAULT_SCHEDULE[-1] / 4.0


# --- route (i): trigonometric reductions -----------------------------------
#
# Each reduction is a trigonometric polynomial in the polar angle f, stated
# once as terms (integer coefficient, product of factors cN = cos(N f) and
# sN = sin(N f)).  E1 is twice I1's reduction (see eval_bruteforce).

_I1_TERMS = ((-18, "s1 s1 c1 s2 s5"), (-12, "s1 s1 c1 c3"))
_TRIG_REDUCTIONS = {
    "I0": ((-12, "c5 c1 s1 s1 s1 s1"),),
    "I1": _I1_TERMS,
    "A": ((8, "s1 s1 c1 c2 c3"), (12, "s1 s1 c1 c2 s2 s5")),
    "C": ((24, "s1 s1 s1 s1 c1 c5 c2"),),
    "E1": tuple((2 * k, factors) for k, factors in _I1_TERMS),
    "E2": ((-12, "c1 c1"), (-6, "c1 c1 s2 s4"), (-12, "c1 c1 s1 s3"),
           (-4, "c1 c1 c1 c3")),
    "E3": ((36, "c1 c1"), (-12, "c1 c2 c3"), (-6, "c1 s2 s2 c5")),
}
TRIG_NAMES = tuple(_TRIG_REDUCTIONS)


def eval_trig(name: str) -> IntegralResult:
    """A constant from its trigonometric reduction, integrated exactly on
    [0, pi/2].

    Available for I0, I1, A, C and the three additive pieces E1, E2, E3 of E.
    With z = e^{if}, cN = (z^N + z^-N)/2 and sN = (z^N - z^-N)/(2i), so a
    reduction is a Laurent polynomial sum_k a_k z^k.  Int_0^{pi/2} z^k df is
    pi/2 for k = 0 and the rational (i^k - 1)/(ik) otherwise; in every
    reduction the rational parts of z^k and z^-k cancel (the tests prove
    it), so the integral is pi/2 times a_0.  Each a_k is a Gaussian dyadic
    rational of a few bits, so complex floats multiply the factors out
    exactly, and the error estimate is 0.
    """
    try:
        terms = _TRIG_REDUCTIONS[name]
    except (KeyError, TypeError):
        raise ValueError(
            f"no trig reduction for {name!r}; available: {TRIG_NAMES}") from None
    a0 = 0.0
    for coeff, factors in terms:
        poly = {0: complex(coeff)}  # exponent k -> a_k
        for factor in factors.split():
            n, weight = int(factor[1:]), 0.5 if factor[0] == "c" else -0.5j
            product = {}
            for k, a in poly.items():
                for m, b in ((n, weight), (-n, weight.conjugate())):
                    product[k + m] = product.get(k + m, 0.0) + a * b
            poly = product
        a0 += poly.get(0, 0.0).real
    return IntegralResult(value=a0 / 2.0 * math.pi, error_estimate=0.0,
                          method="trig_reduction")


# --- route (ii): regulated double integrals --------------------------------
#
# Each defining kernel is stated once, in _KERNELS: a form factor, terms
# c p^a j_m(p) q^b j_n(q), times the weight, at k = p and k' = q, of a
# frequency integral (contour_frequency module docstring), which _WEIGHTS
# splits into terms p^s q^r / (p+q)^d.  With 1/x^d = Int_0^inf t^(d-1)
# e^(-x t) dt, d = 1 or 2, each product regulated by e^{-eps (p+q)} is
#     Int_0^inf t^(d-1) L_a(t + eps) L_b(t + eps) dt,
# where L_a(u) = Int_0^inf p^e j_m(p) e^(-u p) dp is the Laplace transform of
# a radial factor, known in closed form (_transform).  Their product is
# rational in t: one pass integrates all nine pieces exactly (_laplace_sums).

# weight -> its partial fractions, as terms (s, r, d); freq_closed_form of
# contour_frequency reads the first two, so freq-check checks these terms
_WEIGHTS = {
    "transverse": ((0, 0, 1), (0, 1, 2)),  # (p + 2q) / (p+q)^2
    "one_longitudinal": ((-1, 0, 2),),     # 1 / (p (p+q)^2)
    "two_pole": ((-1, -1, 1),),            # 1 / (p q (p+q))
}
# constant -> (weight, form factor terms (c, a, m, b, n)).  D's weight is the
# one no route checks (test_d_form_factor_under_the_two_pole_weight).
_KERNELS = {
    "I0": ("transverse", ((1.0, 4, 0, 2, 0),)),
    "I1": ("transverse", ((1.0, 3, 1, 3, 1),)),
    "A": ("one_longitudinal", ((1.0, 5, 1, 3, 1),)),
    "C": ("one_longitudinal", ((1.0, 6, 0, 2, 0),)),
    "D": ("one_longitudinal", ((1.0, 4, 0, 4, 0),)),
    "E": ("two_pole", ((1.0 / 3.0, 4, 0, 4, 0), (2.0 / 3.0, 4, 2, 4, 2))),
}


def _derive(kernels):
    """{piece: (pe, pb, qe, qb, d, c)} and {constant: its pieces}.  Raises
    ValueError on a piece whose pe + pb + qe + qb + d is even: only an odd
    sum makes the regulated piece odd in eps, as _ODD_POWERS assumes."""
    pieces, assembly = {}, {}
    for name, (weight, form) in kernels.items():
        split = [(a + s, m, b + r, n, d, c) for c, a, m, b, n in form
                 for s, r, d in _WEIGHTS[weight]]
        names = [f"{name}_{i}" for i in range(1, len(split) + 1)]
        assembly[name] = tuple(names if len(split) > 1 else [name])
        pieces.update(zip(assembly[name], split))
    even = [piece for piece, (*powers, _) in pieces.items()
            if sum(powers) % 2 == 0]
    if even:
        raise ValueError(f"pieces {even} have even e + m + e' + m' + d, so "
                         "they are not odd in eps as _ODD_POWERS assumes")
    return pieces, assembly


_PIECES, _ASSEMBLY = _derive(_KERNELS)
# j_m(p) as the sum of p^n (s sin p + c cos p) over its terms (n, s, c)
_BESSEL_TRIG = {0: ((-1, 1, 0),), 1: ((-2, 1, 0), (-1, 0, -1)),
                2: ((-3, 3, 0), (-2, 0, -3), (-1, -1, 0))}


@lru_cache(maxsize=None)
def _transform(e: int, m: int) -> tuple[complex, ...]:
    """The A_k of the Laplace transform L(u) = Re sum_k A_k / (u - i)^(k+1)
    of p^e j_m(p), e >= m + 1: the factor is sum_k p^k (s_k sin p + c_k cos p)
    with k >= 0, and Int_0^inf p^k e^(-(u - i) p) dp = k!/(u - i)^(k+1)
    gives A_k = k! (c_k - i s_k)."""
    coeffs = [0j] * e
    for n, s, c in _BESSEL_TRIG[m]:
        coeffs[e + n] += math.factorial(e + n) * complex(c, -s)
    return tuple(coeffs)


def _laplace_sums(eps: float, pieces=tuple(_PIECES.values())) -> list[float]:
    """Int_0^inf t^(d-1) L_a(t + eps) L_b(t + eps) dt, d = 1 or 2, for each
    _PIECES row (e, m, e', m', d, c) of pieces, c not applied, L_a and L_b
    the transforms of p^e j_m(p) and p^e' j_m'(p): the double integral of
    the two factors times e^{-eps (p+q)} / (p+q)^d over [0, inf)^2.  With
    u = t + eps and Re X Re Y = Re(X Y + X conj Y) / 2, each term is A_j B_k
    or A_j conj(B_k) times the exact integral
    J[m][n] = Int_eps^inf (u - i)^-m (u + i)^-n du.  J[1][0] and J[0][1] drop
    the same log of the upper bound, which every convergent sum cancels, and
    1/((u - i)(u + i)) = (1/(u - i) - 1/(u + i)) / 2i fills the interior."""
    rows = [(_transform(pe, pm), _transform(qe, qm), d)
            for pe, pm, qe, qm, d, _ in pieces]
    size = 2 * max(len(t) for p, q, _ in rows for t in (p, q)) + 1
    below, above = complex(eps, -1.0), complex(eps, 1.0)
    J = [[0j] * size for _ in range(size)]
    J[1][0], J[0][1] = -cmath.log(below), -cmath.log(above)
    for m in range(2, size):
        J[m][0] = below ** (1 - m) / (m - 1)
        J[0][m] = above ** (1 - m) / (m - 1)
    for m in range(1, size):
        for n in range(1, size):
            J[m][n] = (J[m][n - 1] - J[m - 1][n]) / 2j
    # t^(d-1) J: for d = 2, t = (u - i) + (i - eps); row 0 is never read
    shift = complex(-eps, 1.0)
    weighted = {1: J, 2: [[J[m - 1][n] + shift * J[m][n] for n in range(size)]
                          for m in range(size)]}
    sums = []
    for p, q, d in rows:
        if d not in (1, 2):
            raise ValueError(f"denominator power must be 1 or 2, got {d!r}")
        K = weighted[d]
        total = sum(A * (B * K[j + k + 2][0] + B.conjugate() * K[j + 1][k + 1])
                    for j, A in enumerate(p) for k, B in enumerate(q))
        sums.append(total.real / 2.0)
    return sums


@lru_cache(maxsize=16)
def _regulated_pass(eps: float) -> dict[str, float]:
    """All nine kernel pieces integrated at one regulator strength, from
    the closed-form transforms of the seven radial factors and their exact
    t-integrals, so the pass's time and memory do not depend on eps."""
    sums = _laplace_sums(eps)
    return {name: coeff * value
            for (name, (*_, coeff)), value in zip(_PIECES.items(), sums)}


def _validate_schedule(schedule) -> tuple[float, ...]:
    try:
        sched = tuple(float(e) for e in schedule)
    except TypeError:
        raise ValueError(
            f"schedule must be a sequence of numbers: {schedule!r}") from None
    if len(sched) < 3:
        raise ValueError(
            "at least three regulator values are needed to extrapolate and "
            f"check the extrapolation; got {sched}")
    if len(sched) > len(_ODD_POWERS):
        raise ValueError(
            f"at most {len(_ODD_POWERS)} regulator values can be "
            f"extrapolated, one per power {_ODD_POWERS}; got {len(sched)}")
    if any(not (_EPS_FLOOR <= e <= 0.2) for e in sched):
        raise ValueError(
            f"regulator values must lie in [{_EPS_FLOOR}, 0.2]: {sched}")
    # the default's own ratio: clustered values make the Richardson solve
    # ill-conditioned, and the drop-one estimate then misses its error
    if any(b > 0.5 * a for a, b in zip(sched, sched[1:])):
        raise ValueError("regulator values must be strictly descending, each "
                         f"at most half the one before: {sched}")
    return sched


def eval_bruteforce(name: str, schedule=DEFAULT_SCHEDULE) -> IntegralResult:
    """Regulated double quadrature of a defining radial kernel, a row of
    _KERNELS (I0, I1, A, C, D or E).

    Integrates the kernel times e^{-eps(p+q)} over [0, inf)^2 for each eps
    in the schedule (each at most half the one before) and
    Richardson-extrapolates to eps = 0.  Raises ConvergenceError when the
    extrapolation residual exceeds 5% of the value.

    E is the phase-type kernel.  Its defining object is a 6-D integral over
    two dimensionless wavevectors with a relative phase factor,

        E = (4 pi)^-2 Int d^3p d^3q  p q (p^.q^)^2 e^{i (p - q).n} / (p + q),

    times the regulator e^{-eps (p+q)}, for any unit vector n (the value does
    not depend on it).  The source paper (arXiv:0706.3302) is not reproduced
    in this repository, so this form is the one implied by the reduction
    below; the printed pieces E2 and E3 match its parts term by term.
    Averaging the phase over n gives j0(|p - q|); azimuthal symmetry then
    removes three angles, and the relative-angle integral, with
    (p^.q^)^2 = (1 + 2 P2(p^.q^)) / 3 and Gegenbauer's addition theorem,
    leaves the form factor p^4 q^4 [j0(p) j0(q) + 2 j2(p) j2(q)] / 3 times
    the two-pole weight 1/(p q (p+q)): E's row of _KERNELS, which this
    routine evaluates.  It converges to 43 pi/8.

    Split per wavevector instead, <k^_i k^_j e^{i k.n}> = (j1(k)/k) d_ij
    - j2(k) n_i n_j, and E is the sum of three radial kernels over (p+q):

        isotropic   3 p^2 q^2 j1(p) j1(q)   =  15 pi/8
        mixed      -2 p^2 q^3 j1(p) j2(q)   = -35 pi/8  (the trig piece E2)
        n-n           p^3 q^3 j2(p) j2(q)   =  63 pi/8  (the trig piece E3)

    The trig piece E1 is twice I1's reduction, the kernel
    3 p^3 q^3 j1(p) j1(q) / (p+q) = 21 pi/8: the isotropic part without its
    1/(pq).  That term alone carries the 3 pi/4 between E1 + E2 + E3 = 49 pi/8
    and this route.  The package keeps the trig sum downstream (CHANGES.md).
    """
    try:
        parts = _ASSEMBLY[name]
    except (KeyError, TypeError):
        raise ValueError(
            f"no radial kernel named {name!r}; "
            f"available: {tuple(_ASSEMBLY)}") from None
    sched = _validate_schedule(schedule)
    raw = [sum(_regulated_pass(e)[p] for p in parts) for e in sched]
    full, no_last, no_first = (
        _richardson(sched[part], raw[part], _ODD_POWERS)
        for part in (slice(None), slice(-1), slice(1, None)))
    residual = abs(full - no_last)
    err = max(residual, abs(full - no_first))
    if residual > 0.05 * abs(full):
        raise ConvergenceError(
            f"extrapolation for {name} is unstable: dropping the smallest "
            f"regulator moves the result by {residual:.3e} "
            f"({residual / abs(full):.1%} of {full:.6e})")
    return IntegralResult(value=full, error_estimate=err,
                          method="regulated_quadrature")


def reconciled_constants() -> dict[str, float]:
    """The constant set used downstream: a copy of the exact table.  Its I0,
    I1, A and C equal eval_trig's bit for bit, and the tests check every
    entry against the regulated quadrature, signs included.  The table lives
    with its one reader, tensor_assembly, so the predictions load no route."""
    from .tensor_assembly import _EXACT_CONSTANTS
    return dict(_EXACT_CONSTANTS)
