"""Spherical Bessel functions of low order, and the numerics the quadrature
routes share: the one quadrature rule (fixed Gauss-Legendre points on each
panel of a set of edges) and the one Richardson extrapolation.  The pieces
the layers share without numpy (records, ConvergenceError, the Levi-Civita
tensor) live in module base, so the closed-form path never loads this one.

The vacuum-mode integrands only ever need j0, j1 and j2.  These are written
out explicitly (with small-argument series) rather than routed through the
generic special-function machinery: the integration engine evaluates them on
up to 40,744 nodes per pass (the finest default regulator) and the closed
forms vectorize cleanly.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = ["sph_bessel_j", "SERIES_CROSSOVER"]

# Below this |x| the closed forms lose digits to cancellation: j2 subtracts
# terms of size ~3/x^2 to produce a result of size x^2/15, so its relative
# error grows like 1/x^4 and already reaches ~1e-12 at x = 0.1.  Switching at
# 0.5 keeps the closed forms comfortably accurate, and the truncated series
# are converged to ~1e-16 relative over the whole series branch.
SERIES_CROSSOVER = 0.5


def _jn_series(n: int, x: np.ndarray, x2: np.ndarray) -> np.ndarray:
    # j_n(x) = x^n / (2n+1)!! * sum_k (-1)^k x^(2k) / (2^k k! prod_{j<=k}(2n+2j+1))
    dfact = 1.0
    for m in range(1, 2 * n + 2, 2):
        dfact *= m
    out = np.ones_like(x)
    term = np.ones_like(x)
    for k in range(1, 9):
        term = term * (-x2) / (2 * k * (2 * n + 2 * k + 1))
        out = out + term
    return (x**n / dfact) * out


def _closed_form(n: int, x: np.ndarray, s: np.ndarray,
                 c: np.ndarray) -> np.ndarray:
    """j_n(x) from s = sin(x) and c = cos(x), for |x| >= SERIES_CROSSOVER."""
    if n == 0:
        return s / x
    if n == 1:
        return s / (x * x) - c / x
    return (3.0 / (x * x) - 1.0) * s / x - 3.0 * c / (x * x)


def sph_bessel_j(n: int, x) -> np.ndarray | float:
    """Spherical Bessel function j_n for n in {0, 1, 2}; scalar or array input.

    Uses the trigonometric closed forms away from the origin and series
    expansions below SERIES_CROSSOVER so that values stay fully accurate down
    to x = 0 (j0(0) = 1, j1(0) = j2(0) = 0).
    """
    if n not in (0, 1, 2):
        raise ValueError(f"only orders 0, 1, 2 are supported, got n={n}")
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    out = _sph_bessel_j012(np.atleast_1d(x_arr), (n,))[0]
    return float(out[0]) if scalar else out


def _sph_bessel_j012(x: np.ndarray, orders=(0, 1, 2)) -> list[np.ndarray]:
    """j_n(x) for each n in orders, from one sin and one cos of x."""
    small = np.abs(x) < SERIES_CROSSOVER
    outs = [np.empty_like(x) for _ in orders]
    xs = x[small]
    if xs.size:
        for n, out in zip(orders, outs):
            out[small] = _jn_series(n, xs, xs * xs)
    xl = x[~small]
    if xl.size:
        s, c = np.sin(xl), np.cos(xl)
        for n, out in zip(orders, outs):
            out[~small] = _closed_form(n, xl, s, c)
    return outs


@lru_cache(maxsize=None)
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes (ascending) and weights on [-1, 1], n >= 2.

    Newton's method on P_n, evaluated by its three-term recurrence, from the
    guesses cos(pi (i - 1/4) / (n + 1/2)) until no node moves by more than
    2^-53; each weight is 2 / ((1 - x)(1 + x) P_n'(x)^2) from a fresh P_n' at
    the final nodes (Hale & Townsend, SIAM J. Sci. Comput. 35 (2013) A652).
    """
    def legendre(x):  # P_n(x) and P_n'(x)
        below, p = np.ones_like(x), x
        for k in range(2, n + 1):
            below, p = p, ((2 * k - 1) * x * p - (k - 1) * below) / k
        return p, n * (below - x * p) / ((1.0 - x) * (1.0 + x))

    x = np.cos(math.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(10):  # 4 or 5 steps for every n the package uses
        p, slope = legendre(x)
        step = p / slope
        x = x - step
        if np.abs(step).max() <= 2.0 ** -53:
            break
    slope = legendre(x)[1]
    return x, 2.0 / ((1.0 - x) * (1.0 + x) * slope * slope)


def _gauss_panels(edges, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on each panel between edges."""
    x, w = _legendre_rule(n)
    edges = np.asarray(edges, dtype=float)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * np.diff(edges)[:, None]
    return (mid + half * x[None, :]).ravel(), (half * w[None, :]).ravel()


def _panel_quad(f, edges, n: int):
    """Integral of the vectorised (real or complex) f by n points per panel,
    and as its error estimate the distance from the n/2-point value."""
    values = []
    for m in (n, n // 2):
        nodes, weights = _gauss_panels(edges, m)
        values.append((weights @ f(nodes)).item())
    return values[0], abs(values[0] - values[1])


def _graded_edges(lo: float, hi: float, inner: float) -> np.ndarray:
    """Panel edges on [lo, hi], lo < 0 < hi: a central panel [-inner, inner]
    and panels that double in width away from it, cut at lo and hi."""
    def outward(end):
        count = max(1, math.ceil(math.log2(end / inner)))
        steps = inner * 2.0 ** np.arange(count)
        return np.append(steps[steps < end], end)
    return np.concatenate([-outward(-lo)[::-1], outward(hi)])


def _richardson(schedule, values, powers) -> float | complex:
    """Value at regulator 0 of c0 + sum_k c_k eps^powers[k] fitted exactly
    through (schedule, values), one power per schedule point."""
    basis = np.column_stack([np.asarray(schedule) ** p
                             for p in powers[:len(schedule)]])
    return np.linalg.solve(basis, np.asarray(values))[0].item()
