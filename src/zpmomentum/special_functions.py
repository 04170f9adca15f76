"""Spherical Bessel functions of low order, and what the other modules share:
the one quadrature rule (fixed Gauss-Legendre points on each panel of a set of
edges), the one Richardson extrapolation, the one Levi-Civita tensor, the one
ConvergenceError, the base of the frozen records and IntegralResult, the one
record a checked route returns.

The vacuum-mode integrands only ever need j0, j1 and j2.  These are written
out explicitly (with small-argument series) rather than routed through the
generic special-function machinery: the integration engine evaluates them on
millions of quadrature nodes and the closed forms vectorize cleanly.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = ["sph_bessel_j", "SERIES_CROSSOVER", "ConvergenceError",
           "IntegralResult"]

# Below this |x| the closed forms lose digits to cancellation: j2 subtracts
# terms of size ~3/x^2 to produce a result of size x^2/15, so its relative
# error grows like 1/x^4 and already reaches ~1e-12 at x = 0.1.  Switching at
# 0.5 keeps the closed forms comfortably accurate, and the truncated series
# are converged to ~1e-16 relative over the whole series branch.
SERIES_CROSSOVER = 0.5


class ConvergenceError(ArithmeticError):
    """A numerical evaluation did not reach its required accuracy."""


class _Record:
    """Base of the package's frozen records.

    A subclass's annotated class attributes are its fields, in order, and a
    value assigned to one is its default.  Fields are given by position or
    keyword; __post_init__ then checks them, and may store a normalised
    value with object.__setattr__.  Records of one class are equal when
    their fields are, and a field cannot be assigned after construction.
    """

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        names = cls.__annotations__
        given = dict(zip(names, args))
        if len(args) > len(names) or given.keys() & kwargs.keys():
            raise TypeError(f"{cls.__name__}: too many or repeated fields")
        values = {name: getattr(cls, name) for name in names
                  if hasattr(cls, name)}
        values.update(given, **kwargs)
        wrong = values.keys() ^ names.keys()
        if wrong:
            raise TypeError(f"{cls.__name__}: missing or unknown fields "
                            f"{sorted(wrong)}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _fields(self) -> tuple:
        return tuple(getattr(self, n) for n in type(self).__annotations__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self._fields()!r}"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: {name!r} "
                             "cannot be set or deleted")

    __delattr__ = __setattr__


class IntegralResult(_Record):
    """Outcome of one checked route: a radial constant or a frequency integral.

    value           the route's number (complex for a frequency integral)
    error_estimate  accuracy estimate, >= 0: for a frequency integral the
                    distance from its closed form; for a regulated constant
                    the drop-one difference, which measures a 3-point
                    extrapolation, not the reported 4-point one, and on the
                    default schedule overstates the true error 1100-1600x
    method          'trig_reduction' or 'regulated_quadrature'
    """

    value: float
    error_estimate: float
    method: str

    def __post_init__(self) -> None:
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be >= 0")
        if self.method not in ("trig_reduction", "regulated_quadrature"):
            raise ValueError(f"unknown method {self.method!r}")


# The rank-3 alternating tensor eps_ijk.
_EPS3 = np.array([[[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]],
                  [[0.0, 0.0, -1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                  [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]])


def _eps_dot(v) -> np.ndarray:
    """The matrix eps_ijk v_k.  Adding 0.0 turns every -0.0 into +0.0, so
    the entries match a sum accumulated from +0.0."""
    return np.einsum("ijk,k->ij", _EPS3, v) + 0.0


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


def _legendre_series(x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] P_k(x) by Clenshaw's backward three-term recurrence;
    at least two coefficients."""
    c0, c1 = coeffs[-2], coeffs[-1]
    for k in range(len(coeffs) - 1, 1, -1):
        c0, c1 = (coeffs[k - 2] - c1 * ((k - 1) / k),
                  c0 + c1 * x * ((2 * k - 1) / k))
    return c0 + c1 * x


@lru_cache(maxsize=None)
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1], n >= 2.

    The nodes are the eigenvalues of the symmetric Jacobi matrix of P_n,
    polished by one Newton step; each weight is 1 / (P_{n-1} P_n') at its
    node, symmetrised and normalised to sum 2.  This is the arithmetic of
    numpy.polynomial.legendre.leggauss, whose values it reproduces, without
    the 6 ms import of numpy.polynomial.
    """
    k = np.arange(1, n)
    scale = 1.0 / np.sqrt(2 * np.arange(n) + 1)
    x = np.linalg.eigvalsh(np.diag(k * scale[:-1] * scale[1:], -1))
    p_n = np.eye(n + 1)[n]
    # P_n' = sum of (2k + 1) P_k over k = n-1, n-3, ...
    derivative = np.zeros(n)
    derivative[n - 1::-2] = 2 * np.arange(n - 1, -1, -2) + 1.0
    slope = _legendre_series(x, derivative)
    x = x - _legendre_series(x, p_n) / slope
    below = _legendre_series(x, p_n[1:])
    w = 1.0 / ((below / np.abs(below).max()) * (slope / np.abs(slope).max()))
    w = (w + w[::-1]) / 2.0
    x = (x - x[::-1]) / 2.0
    return x, w * (2.0 / w.sum())


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
