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
on panels that double in width away from each near-pole, evaluated in a
shifted variable so that u^2 - p^2 is computed without cancellation,
followed by quadratic Richardson extrapolation in the regulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .special_functions import (ConvergenceError, _graded_edges, _panel_quad,
                                _richardson)

__all__ = [
    "KINDS",
    "FreqIntegralResult",
    "freq_closed_form",
    "freq_oracle",
    "compare",
]

KINDS = ("transverse", "one_longitudinal")

# The oracle's own error estimate (quadrature + extrapolation) must stay below
# this fraction of the result, else the evaluation is reported as failed.
ORACLE_REL_TOL = 1e-5
# The regulators `freq-check` accepts; freq_oracle itself takes (0, 0.1].
# Up to about 2.2e-5 rounding at the degenerate triple pole of the (1, 1) pair,
# which every run includes, pushes its error estimate past ORACLE_REL_TOL; the
# floor is the 3e-5 from which freq_oracle is documented to converge.
ORACLE_EPSILON_RANGE = (3e-5, 0.1)


@dataclass(frozen=True)
class FreqIntegralResult:
    """Closed form vs regulated-numeric comparison for one (kind, k, kp) triple."""

    kind: str
    k: float
    kp: float
    closed_form: complex
    numeric: complex
    regulator_epsilon: float
    rel_error: float


def _validate(kind: str, k: float, kp: float) -> None:
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    if not (math.isfinite(k) and k > 0 and math.isfinite(kp) and kp > 0):
        raise ValueError(f"wavenumbers must be positive, got k={k!r}, kp={kp!r}")


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


def _regulated_single(kind: str, k: float, kp: float, eps_scaled: float
                      ) -> tuple[complex, float]:
    """One regulated evaluation at fixed (rescaled) regulator strength.

    Works in the rescaled variable u = omega / min(k, kp), which keeps the
    pole locations O(1).  The cuts 0, the midpoints between poles and upper
    give each pole p its own stretch, integrated in x = u - p with
    u^2 - p^2 = x (x + 2p): the product form avoids the cancellation that
    u*u - p*p suffers when p is large.  Returns (value, error estimate).
    """
    pw = 4 if kind == "transverse" else 2
    s = min(k, kp)
    a, b = k / s, kp / s  # a carries the squared denominator
    e = eps_scaled
    prefac = s ** (pw - 5)
    degenerate = abs(a - b) < 1e-14 * max(a, b)

    def f(u):
        return u**pw / ((u * u - a * a + 1j * e) ** 2 * (u * u - b * b + 1j * e))

    def f_near(p, x):
        u = p + x
        dp = x * (x + 2.0 * p)
        if degenerate:
            return u**pw / (dp + 1j * e) ** 3
        if p == a:
            return u**pw / ((dp + 1j * e) ** 2 * (u * u - b * b + 1j * e))
        return u**pw / ((u * u - a * a + 1j * e) ** 2 * (dp + 1j * e))

    poles = [a] if degenerate else sorted((a, b))
    upper = 10.0 * (a + b) + 10.0
    cuts = [0.0] + [(p + q) / 2.0 for p, q in zip(poles, poles[1:])] + [upper]
    # decaying tail: integrand ~ u^(pw-6) out here, smooth in t = upper / u
    total, errtot = _panel_quad(lambda t: f(upper / t) * upper / (t * t),
                                (0.0, 1.0), 40)
    for p, lo, hi in zip(poles, cuts, cuts[1:]):
        w = e / (2.0 * p)  # half-width at half-maximum of the regulated pole
        if 0.9 * min(p - lo, hi - p) < 10.0 * w:
            # the stretch around this pole cannot clear its neighbour: the
            # poles are distinct but closer than the regulated width resolves
            gap = 2.0 * min(p - lo, hi - p)
            raise ConvergenceError(
                f"rescaled poles {poles} are separated by {gap:.3e}, closer "
                f"than the regulator epsilon={e:g} resolves; reduce epsilon "
                f"below ~{0.05 * gap * p:.1e} or pass exactly equal "
                "wavenumbers for the degenerate path")
        # a central panel w wide instead of w/8 misses the degenerate triple
        # pole: the error estimate of (1, 1) rises past ORACLE_REL_TOL
        v, err = _panel_quad(lambda x, pp=p: f_near(pp, x),
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
    either exactly equal wavenumbers or pole separations the regulator can
    resolve (ConvergenceError for distinct-but-closer pairs).  On the
    freq-check pairs (the default seed and seeds 1-8) every resolved pair
    converges for epsilon from 3e-5 to 1e-2; below 3e-5 rounding at the
    degenerate triple pole pushes the error estimate past ORACLE_REL_TOL.
    """
    _validate(kind, k, kp)
    if not (0.0 < epsilon <= 0.1):
        raise ValueError(f"epsilon must lie in (0, 0.1], got {epsilon!r}")
    ratio = max(k, kp) / min(k, kp)
    if ratio > 101.0:
        raise ValueError(
            f"wavenumber ratio {ratio:.3g} is outside the oracle's validated "
            "range (up to ~100); the closed forms remain usable out there")
    schedule = (epsilon, epsilon / 2.0, epsilon / 4.0)
    values = []
    err_acc = 0.0
    for e in schedule:
        v, err = _regulated_single(kind, k, kp, e)
        values.append(v)
        err_acc += err
    result = _richardson(schedule, values, (0, 1, 2))
    scale = abs(result)
    if scale == 0.0 or err_acc / scale > ORACLE_REL_TOL:
        raise ConvergenceError(
            f"regulated quadrature for {kind} at (k={k}, kp={kp}) did not "
            f"converge: error estimate {err_acc:.2e} vs |value| {scale:.2e}"
        )
    return result


def compare(kind: str, k: float, kp: float, epsilon: float = 1e-3
            ) -> FreqIntegralResult:
    """Closed form and oracle side by side, with their relative deviation."""
    cf = freq_closed_form(kind, k, kp)
    num = freq_oracle(kind, k, kp, epsilon)
    rel = abs(num - cf) / abs(cf)
    return FreqIntegralResult(kind=kind, k=k, kp=kp, closed_form=cf,
                              numeric=num, regulator_epsilon=epsilon,
                              rel_error=rel)
