"""Frequency-axis contour integrals over products of resonant denominators.

The mode sums behind the momentum calculation reduce, frequency by frequency,
to integrals of the form

    int_0^inf  omega^p / ((omega^2 - k^2 + i eta)^2 (omega^2 - k'^2 + i eta)) domega

with p = 4 (two transverse propagators, one squared) or p = 2 (one
longitudinal factor).  Closing the contour gives compact closed forms; this
module provides those closed forms plus an independent numerical oracle that
evaluates the regulated integral at finite i-eta and extrapolates eta -> 0.

The oracle exists to cross-check the closed forms, so it deliberately shares
no algebra with them: it is plain Gauss-Legendre quadrature on the real axis,
on panels that double in width away from each near-pole, of one integrand in
a shifted variable x = u - p that writes every factor u^2 - q^2 as the product
(x + (p - q)) (u + q), free of cancellation, then quadratic Richardson.
"""

from __future__ import annotations

import math

from .base import ConvergenceError, IntegralResult, _richardson
from .special_functions import _graded_edges, _panel_quad

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
    """Closed form of the frequency integral of the given kind.

    transverse:        -(i pi / 4) (k + 2 kp) / (k + kp)^2, the omega^4
                       integral, homogeneous of degree -1 in (k, kp);
    one_longitudinal:  +(i pi / 4) / (k (k + kp)^2), the omega^2 integral,
                       homogeneous of degree -3.  The squared denominator
                       carries k; the single denominator carries kp.

    Both are purely imaginary.
    """
    _validate(kind, k, kp)
    if kind == "transverse":
        return -0.25j * math.pi * (k + 2.0 * kp) / (k + kp) ** 2
    return 0.25j * math.pi / (k * (k + kp) ** 2)


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
    beyond upper is the same integrand at p = 0.  Every factor is written
    u^2 - q^2 = (x + (p - q)) (u + q): the product form avoids the
    cancellation that u*u - q*q suffers near q, for the pole's own factor
    and for a neighbouring pole's alike.  Returns (value, error estimate).
    """
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
