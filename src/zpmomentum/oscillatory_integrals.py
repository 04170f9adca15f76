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
  kernels of all six constants, each as one integral in t of the product of
  the closed-form Laplace transforms of its two radial factors, with
  Richardson extrapolation in the regulator.

The two routes share no algebra, so their agreement (disagreement) is a real
cross-check.  The constant set used downstream, reconciled_constants(), is a
table of exact rational multiples of pi that both routes confirm; the
prediction path reads the table and runs neither route.
"""

from __future__ import annotations

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
# drop-one change below 0.02%; the four passes take about 8 ms on 2 vCPUs,
# and each traces 0.12 MiB.
DEFAULT_SCHEDULE: tuple[float, ...] = (0.1, 0.05, 0.025, 0.0125)
# Richardson powers: the regulated values empirically approach their limit
# through an odd series eps, eps^3, eps^5, ...; fitting even powers as well
# wastes schedule points and degrades the extrapolation by orders of magnitude.
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


# --- route (ii): regulated double quadrature -------------------------------
#
# Every defining kernel is a sum of separable pieces
#     p^pe j_pb(p) * q^qe j_qb(q) / (p+q)^dp
# after splitting (p+2q)/(p+q)^2 = 1/(p+q) + q/(p+q)^2.  The E kernel's
# relative-angle integral is elementary and leaves (1/3) p^3 q^3 / (p+q)
# [j0 j0 + 2 j2 j2].  With 1/x^d = Gamma(d)^-1 Int_0^inf t^(d-1) e^(-x t) dt,
# the piece regulated by e^{-eps (p+q)} is
#     Gamma(d)^-1 Int_0^inf t^(d-1) L_a(t + eps) L_b(t + eps) dt,
# where L_a(u) = Int_0^inf p^e j_m(p) e^(-u p) dp is the Laplace transform of
# a radial factor, known in closed form (_transform).  One regulated pass
# evaluates all nine pieces on one grid in s = log t (_laplace_sums).

# piece -> (p_exponent, p_bessel_order, q_exponent, q_bessel_order,
#           denominator_power, coefficient)
_PIECES: dict[str, tuple[int, int, int, int, int, float]] = {
    "I0_1": (4, 0, 2, 0, 1, 1.0),
    "I0_2": (4, 0, 3, 0, 2, 1.0),
    "I1_1": (3, 1, 3, 1, 1, 1.0),
    "I1_2": (3, 1, 4, 1, 2, 1.0),
    "A": (4, 1, 3, 1, 2, 1.0),
    "C": (5, 0, 2, 0, 2, 1.0),
    "D": (3, 0, 4, 0, 2, 1.0),
    "E_0": (3, 0, 3, 0, 1, 1.0 / 3.0),
    "E_2": (3, 2, 3, 2, 1, 2.0 / 3.0),
}
_ASSEMBLY: dict[str, tuple[str, ...]] = {
    "I0": ("I0_1", "I0_2"),
    "I1": ("I1_1", "I1_2"),
    "A": ("A",),
    "C": ("C",),
    "D": ("D",),
    "E": ("E_0", "E_2"),
}
# The distinct radial factors p^e j_m(p) of the pieces, as (e, m), and each
# piece as (index of its p factor, index of its q factor, d).
_FACTORS = sorted({factor for pe, pb, qe, qb, _, _ in _PIECES.values()
                   for factor in ((pe, pb), (qe, qb))})
_PAIRS = tuple((_FACTORS.index((pe, pb)), _FACTORS.index((qe, qb)), dp)
               for pe, pb, qe, qb, dp, _ in _PIECES.values())
# j_m(p) as the sum of p^n (s sin p + c cos p) over its terms (n, s, c)
_BESSEL_TRIG = {0: ((-1, 1, 0),), 1: ((-2, 1, 0), (-1, 0, -1)),
                2: ((-3, 3, 0), (-2, 0, -3), (-1, -1, 0))}
# Step of the trapezoid rule in s = log t.  L(t + eps) has its poles at
# t = -eps +- i, at an angle pi/2 + atan(eps) from the positive axis, so the
# integrand is analytic in the strip |Im s| < pi/2 and the rule's error falls
# like exp(-pi^2/h): about 5e-35 at h = 0.125, 7e-18 at h = 0.25 (Trefethen &
# Weideman, SIAM Rev. 56 (2014) 385).
_LOG_STEP = 0.125
# The rule sums over s = k h with t = e^s in this range.  Below it the
# integrand t^d L_a L_b is at most 576 t^d, since |L| <= sum_k |A_k| <= 24
# for every factor in use, so the left tail is below 6e-18.  Above it
# L(u) falls like (e+m)!/(2m+1)!! u^-(e+m+1), and every piece, and every
# kernel the tests pass, has (e_a+m_a+1) + (e_b+m_b+1) - d >= 7, so the
# right tail is below 240/7 t^-7, 4e-27.
_T_RANGE = (1e-20, 1e4)


def _transform(e: int, m: int) -> tuple[complex, ...]:
    """The A_k of the Laplace transform L(u) = Re sum_k A_k / (u - i)^(k+1)
    of p^e j_m(p), e >= m + 1: the factor is sum_k p^k (s_k sin p + c_k cos p)
    with k >= 0, and Int_0^inf p^k e^(-(u - i) p) dp = k!/(u - i)^(k+1)
    gives A_k = k! (c_k - i s_k)."""
    coeffs = [0j] * e
    for n, s, c in _BESSEL_TRIG[m]:
        coeffs[e + n] += math.factorial(e + n) * complex(c, -s)
    return tuple(coeffs)


def _laplace_sums(eps: float, factors=_FACTORS, pairs=_PAIRS) -> list[float]:
    """Gamma(d)^-1 Int_0^inf t^(d-1) L_a(t + eps) L_b(t + eps) dt for each
    (a, b, d) in pairs, L_a the transform of factors[a] = (e, m): the double
    integral of the two factors times e^{-eps (p+q)} / (p+q)^d over
    [0, inf)^2.  Each L is summed by Horner's rule in w = 1/(u - i) on plain
    complex numbers, once per node however many pairs read it."""
    transforms = [_transform(e, m)[::-1] for e, m in factors]
    first = math.ceil(math.log(_T_RANGE[0]) / _LOG_STEP)
    last = math.floor(math.log(_T_RANGE[1]) / _LOG_STEP)
    terms = [[] for _ in pairs]
    for k in range(first, last + 1):
        t = math.exp(k * _LOG_STEP)
        w = 1.0 / complex(t + eps, -1.0)
        values = []
        for coeffs in transforms:
            total = 0j
            for coeff in coeffs:
                total = (total + coeff) * w
            values.append(total.real)
        for out, (a, b, d) in zip(terms, pairs):
            out.append(t ** d * values[a] * values[b])
    return [_LOG_STEP / math.gamma(d) * math.fsum(out)
            for out, (_, _, d) in zip(terms, pairs)]


@lru_cache(maxsize=16)
def _regulated_pass(eps: float) -> dict[str, float]:
    """All nine kernel pieces integrated at one regulator strength, from
    the closed-form transforms of the seven radial factors: 442 nodes in s
    for any eps, so the pass's time and memory do not depend on eps."""
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
    if any(b >= a for a, b in zip(sched, sched[1:])):
        raise ValueError(f"regulator values must be strictly descending: {sched}")
    return sched


def eval_bruteforce(name: str, schedule=DEFAULT_SCHEDULE) -> IntegralResult:
    """Regulated double quadrature of a defining radial kernel
    (I0, I1, A, C, D or E).

    Integrates the kernel times e^{-eps(p+q)} over [0, inf)^2 for each eps
    in the (strictly descending) schedule and Richardson-extrapolates to
    eps = 0.  Raises ConvergenceError when the extrapolation residual
    exceeds 5% of the value.

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
    leaves the regulated double radial integral of
    (1/3) p^3 q^3 / (p+q) [j0(p) j0(q) + 2 j2(p) j2(q)], which is what this
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
