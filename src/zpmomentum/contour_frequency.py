"""Frequency-axis contour integrals over products of resonant denominators.

The mode sums behind the momentum calculation reduce, frequency by frequency,
to integrals with A = k^2 - i eta and B = k'^2 - i eta.  Since
int_0^inf domega / (omega^2 - z) = -i pi / (2 sqrt z) for Im z < 0, and
partial fractions in omega^2 are divided differences, exactly

    int_0^inf omega^2m / ((omega^2 - A)^2 (omega^2 - B)) domega
        = (-i pi / 2) g[A, A, B],    g(z) = z^(m - 1/2),

for m = 2 (two transverse propagators, one squared) or m = 1 (one
longitudinal factor).  Their eta -> 0 limits, freq_closed_form, are -i pi/4
and +i pi/4 times the weights in oscillatory_integrals._WEIGHTS that the
regulated constants integrate; two simple poles, (-i pi / 2) g[A, B] with
m = 0, give its two-pole weight (i pi / 2) / (k k' (k + k')).  A numerical
oracle, the one part that loads numpy, evaluates the same integral at finite
eta and extrapolates eta -> 0.

The oracle exists to cross-check the closed forms, so it deliberately shares
no algebra with them: it is plain Gauss-Legendre quadrature on the real axis,
on panels that double in width away from each near-pole, of one integrand in
a shifted variable x = u - p that writes every factor u^2 - q^2 as the product
(x + (p - q)) (u + q), free of cancellation, then quadratic Richardson.
"""

from __future__ import annotations

import math

from .base import ConvergenceError, IntegralResult, _richardson
from .oscillatory_integrals import _WEIGHTS

__all__ = ["KINDS", "freq_closed_form", "freq_oracle", "compare",
           "resolving_epsilon"]

KINDS = ("transverse", "one_longitudinal")

# The oracle's own error estimate (quadrature + extrapolation) must stay below
# this fraction of the result, else the evaluation is reported as failed.
ORACLE_REL_TOL = 1e-5
# The regulators `freq-check` accepts; freq_oracle takes any up to the top.
# Up to about 2.2e-5 rounding at the degenerate triple pole of the (1, 1) pair,
# which every run includes, pushes its error estimate past ORACLE_REL_TOL; the
# floor is the 3e-5 from which freq_oracle is documented to converge.
ORACLE_EPSILON_RANGE = (3e-5, 0.1)


def _validate(kind: str, k: float, kp: float, epsilon: float = 1e-3) -> None:
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    _validate_pair(k, kp, epsilon)


def _validate_pair(k: float, kp: float, epsilon: float) -> None:
    if not (math.isfinite(k) and k > 0 and math.isfinite(kp) and kp > 0):
        raise ValueError(f"wavenumbers must be positive, got k={k!r}, kp={kp!r}")
    top = ORACLE_EPSILON_RANGE[1]
    if not (0.0 < epsilon <= top):
        raise ValueError(f"epsilon must lie in (0, {top:g}], got {epsilon!r}")


def freq_closed_form(kind: str, k: float, kp: float) -> complex:
    """The frequency integral of the given kind at eta -> 0 (the squared
    factor carries k): -i pi / 4 (transverse, omega^4) or +i pi / 4
    (one_longitudinal, omega^2) times the weight _WEIGHTS[kind].

    Each term k^s kp^r / (k + kp)^d is split into a mantissa near 1 and a
    power of two, so no partial result leaves the float range at any k/kp:
    an underflow gives 0, and an overflow raises FloatingPointError."""
    _validate(kind, k, kp)
    big = max(k, kp)
    (mk, ek), (mq, eq), (mb, eb) = map(math.frexp, (k, kp, big))
    mb *= 1.0 + min(k, kp) / big  # now the mantissa of k + kp, up to 2
    terms = [(mk**s * mq**r / mb**d, s * ek + r * eq - d * eb)
             for s, r, d in _WEIGHTS[kind]]
    scale = max(n for _, n in terms)
    weight = sum(math.ldexp(m, n - scale) for m, n in terms)
    try:
        value = math.ldexp(0.25 * math.pi * weight, scale)
    except OverflowError:
        raise FloatingPointError(f"the {kind} frequency closed form overflows "
                                 f"a float at k={k!r}, kp={kp!r}") from None
    return complex(0.0, -value if kind == "transverse" else value)


def _rescaled_poles(k: float, kp: float) -> tuple[float, float, float, bool]:
    """s = min(k, kp), poles a = k / s and b = kp / s, and whether they meet."""
    s = min(k, kp)
    a, b = k / s, kp / s
    return s, a, b, abs(a - b) < 1e-14 * max(a, b)


def resolving_epsilon(k: float, kp: float, epsilon: float = 1e-3) -> float:
    """A regulator up to epsilon at which freq_oracle resolves (k, kp):
    0.05 |a - b| min(a, b) in the rescaled poles, unless they meet.  The
    refusal in _regulated_single starts near 0.09 |a - b| min(a, b), so the
    factor 0.05 leaves a margin.  Raises ValueError on the wavenumbers and
    regulators freq_oracle refuses."""
    _validate_pair(k, kp, epsilon)
    _, a, b, meet = _rescaled_poles(k, kp)
    return epsilon if meet else min(epsilon, 0.05 * abs(a - b) * min(a, b))


def _regulated_single(kind: str, k: float, kp: float, e: float
                      ) -> tuple[complex, float]:
    """One regulated evaluation at fixed (rescaled) regulator strength.

    Works in the rescaled variable u = omega / min(k, kp), which keeps the
    pole locations O(1).  The cuts 0, the midpoints between poles and upper
    give each pole p its own stretch, integrated in x = u - p, and the tail
    beyond upper is the same integrand at p = 0.  Each factor u^2 - q^2,
    the pole's own and a neighbouring pole's alike, takes the module
    docstring's product form.  Returns (value, error estimate).
    """
    from .special_functions import _graded_edges, _panel_quad
    pw = 4 if kind == "transverse" else 2
    s, a, b, degenerate = _rescaled_poles(k, kp)  # a carries the squared one
    prefac = s ** (pw - 5)

    def f(p, x):
        u = p + x
        return u**pw / (((x + (p - a)) * (u + a) + 1j * e) ** 2
                        * ((x + (p - b)) * (u + b) + 1j * e))

    poles = [a] if degenerate else sorted((a, b))
    upper = 10.0 * (a + b) + 10.0
    cuts = [0.0] + [(p + q) / 2.0 for p, q in zip(poles, poles[1:])] + [upper]
    # decaying tail: integrand ~ u^(pw-6) out here, smooth in t = upper / u
    total, errtot = _panel_quad(lambda t: f(0.0, upper / t) * upper / (t * t),
                                (0.0, 1.0), 40)
    for p, lo, hi in zip(poles, cuts, cuts[1:]):
        w = e / (2.0 * p)  # half-width at half-maximum of the regulated pole
        if 0.9 * min(p - lo, hi - p) < 10.0 * w:
            # the stretch around this pole cannot clear its neighbour: the
            # poles are distinct but closer than the regulated width resolves
            raise ConvergenceError(
                f"rescaled poles {poles} are closer than epsilon={e:g} "
                "resolves; reduce epsilon to 0.05 x gap x smaller pole = "
                f"{resolving_epsilon(k, kp, e):.1e} or pass equal wavenumbers")
        # a central panel w wide instead of w/8 misses the degenerate triple
        # pole: the error estimate of (1, 1) rises past ORACLE_REL_TOL
        v, err = _panel_quad(lambda x, pp=p: f(pp, x),
                             _graded_edges(lo - p, hi - p, w / 8.0), 40)
        total += v
        errtot += err
    return prefac * total, abs(prefac) * errtot


def freq_oracle(kind: str, k: float, kp: float, epsilon: float = 1e-3) -> complex:
    """Regulated numerical evaluation, extrapolated to zero regulator.

    Evaluates at regulator strengths {epsilon, epsilon/2, epsilon/4} (in the
    rescaled integration variable) and removes the O(eps) and O(eps^2) tails by
    solving the 3x3 Vandermonde system.  Raises ConvergenceError when the
    combined quadrature error estimate exceeds ORACLE_REL_TOL of the result.

    Validated domain: wavenumber ratios up to ~100 (ValueError beyond), and
    either exactly equal wavenumbers or poles the regulator resolves (else
    ConvergenceError; resolving_epsilon gives one that does).  At that
    regulator every pair of the freq-check seeds 0-999 with a relative gap of
    at least 1e-4 converges for epsilon from 3e-5 to 1e-2; closer pairs
    converge at no regulator, and below 3e-5 rounding at the degenerate
    triple pole pushes the error estimate past ORACLE_REL_TOL.
    """
    _validate(kind, k, kp, epsilon)
    ratio = max(k, kp) / min(k, kp)
    if ratio > 101.0:
        raise ValueError(
            f"wavenumber ratio {ratio:.3g} is outside the oracle's validated "
            "range (up to ~100); the closed forms remain usable out there")
    schedule = (epsilon, epsilon / 2.0, epsilon / 4.0)
    values, errors = zip(*(_regulated_single(kind, k, kp, e) for e in schedule))
    result = _richardson(schedule, values, (0, 1, 2))
    err_acc = sum(errors)
    scale = abs(result)
    if scale == 0.0 or err_acc / scale > ORACLE_REL_TOL:
        raise ConvergenceError(
            f"regulated quadrature for {kind} at (k={k}, kp={kp}) did not "
            f"converge: error estimate {err_acc:.2e} vs |value| {scale:.2e}"
        )
    return result


def compare(kind: str, k: float, kp: float, epsilon: float = 1e-3
            ) -> IntegralResult:
    """The oracle's value, with its distance from the closed form as the
    error estimate."""
    num = freq_oracle(kind, k, kp, epsilon)
    return IntegralResult(num, abs(num - freq_closed_form(kind, k, kp)),
                          "regulated_quadrature")
