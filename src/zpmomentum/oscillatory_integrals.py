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
* eval_bruteforce: direct regulated double quadrature of the defining (p, q)
  kernels of all six constants, with Richardson extrapolation in the
  regulator.

The two routes share no algebra, so their agreement (disagreement) is a real
cross-check.  The constant set used downstream, reconciled_constants(), is a
table of exact rational multiples of pi that both routes confirm; the
prediction path reads the table and runs neither route.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .base import ConvergenceError, IntegralResult
from .special_functions import _gauss_panels, _richardson, _sph_bessel_j012

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
# drop-one change below 0.02%; the four passes take about 0.035 s cold on
# 2 vCPUs with 1 BLAS thread, and each traces below 0.5 MiB.
DEFAULT_SCHEDULE: tuple[float, ...] = (0.1, 0.05, 0.025, 0.0125)
PMAX_FACTOR = 50.0  # radial cutoff P_max = PMAX_FACTOR / eps
# Richardson powers: the regulated values empirically approach their limit
# through an odd series eps, eps^3, eps^5, ...; fitting even powers as well
# wastes schedule points and degrades the extrapolation by orders of magnitude.
_ODD_POWERS = (0, 1, 3, 5, 7)
# Smallest accepted regulator.  A pass's node count N grows like 1/eps, its
# time like N, and its memory hardly at all: one pass traces 0.47 MiB at
# 0.0125 and 0.60 MiB at this floor, and `constants` peaks at about 31 MiB
# RSS with or without this floor in the schedule.
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
# [j0 j0 + 2 j2 j2].  One regulated pass evaluates all nine pieces on a shared
# Gauss-Legendre grid.  The pieces use seven distinct radial factors
# p^e j_m(p); each, with the damped weights folded in, is one row of an
# exponential sum for the (p+q) coupling (_coupled_sums), and each piece,
# d = 1 or d = 2, multiplies two of its results.

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
_PANEL_WIDTH = math.pi / 4.0  # keeps the oscillatory factors resolved per panel
_PANEL_POINTS = 8
# Step of the trapezoid rule in _coupled_sums.  Its error falls like
# exp(-pi^2/h): at h = 0.25 the rule reproduces 1/x to 4e-16 and 1/x^2 to
# 5e-15 relative, while h = 0.4 leaves 6e-9.
_LOG_STEP = 0.25
# _coupled_sums factors e^{-t p} over blocks of _BLOCK_PANELS panels and
# decays _CHUNK_BLOCKS blocks, 1024 nodes, at a time: its working set is
# then a few T x 128 tables, whatever eps is.
_BLOCK_PANELS = 16
_CHUNK_BLOCKS = 8


def _panel_edges(pmax: float) -> np.ndarray:
    """Equal panels on [0, pmax], none wider than _PANEL_WIDTH."""
    return np.linspace(0.0, pmax, int(math.ceil(pmax / _PANEL_WIDTH)) + 1)


def _coupled_sums(edges: np.ndarray, rows, pairs) -> np.ndarray:
    """sum_ij F_ai F_bj / (p_i + p_j)^d over the panel grid, per (a, b, d).

    rows(nodes, weights) returns one row per radial factor F, with weights
    folded in, and one column per node it is given; it is called on the
    Gauss-Legendre nodes and weights of _PANEL_POINTS per panel, one chunk
    of at most _CHUNK_BLOCKS x _BLOCK_PANELS panels at a time.  pairs lists
    the sums as row pairs (a, b) with a power d of 1 or 2.  The trapezoid
    rule in s for 1/x^d = Gamma(d)^-1 Int e^{d s - x e^s} ds turns the
    double sum into products of sums of single rows against e^{-t p},
    t = e^s, so each row is decayed once however many pairs read it.  The s
    range covers every x = p_i + p_j in [2 p_min, 2 p_max]: below it
    x e^s < 1e-16, above it x e^s > 40.  Each node is p = L + R + o: L its
    block's left edge, R its panel's offset in the block and o one of the
    node offsets shared by the equal panels.  So e^{-t p} = e^{-t L}
    e^{-t R} e^{-t o}: per chunk a table of its 8 block edges, and one
    fixed in-block table of 128 columns, each with one row per s-node.
    Each chunk's rows are built, decayed and dropped before the next, so
    the working set does not grow with the node count: about 0.5 MiB for
    the about 215 s-nodes of any accepted eps.  Every table entry lies in
    (0, 1], and one underflows only where e^{-t p} does.  Edges must be
    ascending and equally spaced.
    """
    panels = len(edges) - 1
    chunk = _CHUNK_BLOCKS * _BLOCK_PANELS  # panels per chunk
    width = _BLOCK_PANELS * _PANEL_POINTS  # nodes per block
    node_offsets = _gauss_panels(edges[:2], _PANEL_POINTS)[0] - edges[0]
    t = np.exp(np.arange(math.log(1e-16 / (2.0 * edges[-1])),
                         math.log(20.0 / (edges[0] + node_offsets[0])),
                         _LOG_STEP))
    panel_offsets = (edges[1] - edges[0]) * np.arange(_BLOCK_PANELS)
    in_block = (np.exp(np.outer(-panel_offsets, t))[:, None, :]
                * np.exp(np.outer(-node_offsets, t))[None, :, :]
                ).reshape(width, -1)

    def decay(first: int) -> np.ndarray:
        """The rows of the chunk from panel first on, against e^{-t p}."""
        last = min(first + chunk, panels)
        block_edge = np.exp(np.outer(-edges[first:last:_BLOCK_PANELS], t))
        factors = rows(*_gauss_panels(edges[first:last + 1], _PANEL_POINTS))
        short = len(block_edge) * width - factors.shape[1]
        if short:  # a last block short of panels reads zero columns
            factors = np.pad(factors, ((0, 0), (0, short)))
        by_block = factors.reshape(-1, width) @ in_block
        return np.einsum("bt,kbt->kt", block_edge,
                         by_block.reshape(len(factors), -1, len(t)))

    decayed = sum(decay(first) for first in range(0, panels, chunk))
    a, b, d = np.array(pairs).T
    # no 1/Gamma(d) factor: every d passed here is 1 or 2, where Gamma(d) = 1
    weights = _LOG_STEP * t ** d[:, None]
    return np.einsum("kt,kt,kt->k", weights, decayed[a], decayed[b])


# The distinct radial factors p^e j_m(p) of the pieces, as (e, m).
_FACTORS = sorted({factor for pe, pb, qe, qb, _, _ in _PIECES.values()
                   for factor in ((pe, pb), (qe, qb))})


@lru_cache(maxsize=16)
def _regulated_pass(eps: float) -> dict[str, float]:
    """All nine kernel pieces integrated at one regulator strength.

    _coupled_sums asks for the factor rows one chunk of 1024 nodes at a
    time, so the pass holds no N-long array and its working set does not
    grow with N.  The seven rows share the powers of p.
    """
    def factor_rows(nodes, wts):
        damped = [wts * np.exp(-eps * nodes)]  # damped[e] = p^e w e^{-eps p}
        for _ in range(_FACTORS[-1][0]):
            damped.append(damped[-1] * nodes)
        bessel = _sph_bessel_j012(nodes)
        return np.array([damped[e] * bessel[m] for e, m in _FACTORS])

    row = {factor: k for k, factor in enumerate(_FACTORS)}
    pairs = [(row[pe, pb], row[qe, qb], dp)
             for pe, pb, qe, qb, dp, _ in _PIECES.values()]
    sums = _coupled_sums(_panel_edges(PMAX_FACTOR / eps), factor_rows, pairs)
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

    Integrates the kernel times e^{-eps(p+q)} over [0, 50/eps]^2 for each eps
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
