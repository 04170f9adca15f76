"""Spherical Bessel functions of low order, and the package's one quadrature
rule: fixed Gauss-Legendre points on each panel of a set of edges.

The vacuum-mode integrands only ever need j0, j1 and j2.  These are written
out explicitly (with small-argument series) rather than routed through the
generic special-function machinery: the integration engine evaluates them on
millions of quadrature nodes and the closed forms vectorize cleanly.
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
    x_arr = np.atleast_1d(x_arr)
    ax = np.abs(x_arr)
    small = ax < SERIES_CROSSOVER
    out = np.empty_like(x_arr)

    xs = x_arr[small]
    if xs.size:
        out[small] = _jn_series(n, xs, xs * xs)

    xl = x_arr[~small]
    if xl.size:
        s, c = np.sin(xl), np.cos(xl)
        if n == 0:
            out[~small] = s / xl
        elif n == 1:
            out[~small] = s / (xl * xl) - c / xl
        else:
            out[~small] = (3.0 / (xl * xl) - 1.0) * s / xl - 3.0 * c / (xl * xl)

    return float(out[0]) if scalar else out


_legendre_rule = lru_cache(maxsize=None)(np.polynomial.legendre.leggauss)


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
