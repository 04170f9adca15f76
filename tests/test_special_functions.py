"""Spherical Bessel functions and the Gauss-Legendre panel rule."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.polynomial import Polynomial
from scipy.special import spherical_jn

from zpmomentum.special_functions import (SERIES_CROSSOVER, _graded_edges,
                                          _panel_quad, sph_bessel_j)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_matches_reference_implementation_on_grid(n):
    x = np.concatenate([np.logspace(-12, 2, 200), np.linspace(0.0, 80.0, 400)])
    mine = sph_bessel_j(n, x)
    ref = spherical_jn(n, x)
    assert np.all(np.abs(mine - ref) <= 1e-12 + 1e-10 * np.abs(ref))


@given(n=st.sampled_from([0, 1, 2]),
       exponent=st.floats(min_value=-12, max_value=3))
def test_matches_reference_implementation_pointwise(n, exponent):
    x = 10.0 ** exponent
    assert abs(sph_bessel_j(n, x) - spherical_jn(n, x)) <= 1e-12


def test_values_at_origin():
    assert sph_bessel_j(0, 0.0) == 1.0
    assert sph_bessel_j(1, 0.0) == 0.0
    assert sph_bessel_j(2, 0.0) == 0.0


def test_both_branches_accurate_at_crossover():
    # check each branch against the reference right at the seam, where the
    # series is most truncated and the closed form most cancellation-prone
    for n in (0, 1, 2):
        for x in (SERIES_CROSSOVER * (1.0 - 1e-9),
                  SERIES_CROSSOVER * (1.0 + 1e-9)):
            assert sph_bessel_j(n, x) == pytest.approx(
                spherical_jn(n, x), rel=1e-12, abs=1e-15)


def test_scalar_and_array_interfaces():
    scalar = sph_bessel_j(1, 0.5)
    assert isinstance(scalar, float)
    arr = sph_bessel_j(1, np.array([0.5, 1.5]))
    assert arr.shape == (2,)
    assert arr[0] == scalar


def test_unsupported_order_raises():
    with pytest.raises(ValueError):
        sph_bessel_j(3, 1.0)



# --- the panel rule -----------------------------------------------------------

@pytest.mark.parametrize("n", [8, 30, 32, 40])
def test_panel_quad_is_exact_on_degree_2n_minus_1(n):
    # n points per panel integrate degree 2n-1 exactly, for complex f too;
    # the n/2-point value does not, so the error estimate is not zero
    rng = np.random.default_rng(n)
    real = Polynomial(rng.standard_normal(2 * n))
    imag = Polynomial(rng.standard_normal(2 * n))
    edges = (-1.0, -0.2, 0.5, 1.0)
    value, err = _panel_quad(lambda x: real(x) + 1j * imag(x), edges, n)
    exact = complex(real.integ()(1.0) - real.integ()(-1.0),
                    imag.integ()(1.0) - imag.integ()(-1.0))
    assert isinstance(value, complex)
    assert abs(value - exact) <= 1e-13 * max(1.0, abs(exact))
    assert err > 1e-13


@given(lo=st.floats(min_value=1e-6, max_value=1e3),
       hi=st.floats(min_value=1e-6, max_value=1e3),
       fraction=st.floats(min_value=1e-12, max_value=0.99))
def test_graded_edges_span_and_contain_the_central_panel(lo, hi, fraction):
    inner = fraction * min(lo, hi)
    edges = _graded_edges(-lo, hi, inner)
    assert edges[0] == -lo and edges[-1] == hi
    assert np.all(np.diff(edges) > 0)
    assert -inner in edges and inner in edges
    # outside the central panel each panel is at most twice as wide as the
    # one nearer the origin
    widths = np.diff(edges)
    centre = int(np.flatnonzero(edges == inner)[0]) - 1
    assert np.all(widths[centre + 1:] <= 2.0 * widths[centre:-1] * (1 + 1e-12))
    assert np.all(widths[:centre] <= 2.0 * widths[1:centre + 1] * (1 + 1e-12))
    assert len(edges) <= 2 * (math.log2(max(lo, hi) / inner) + 2)
