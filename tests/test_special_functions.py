"""Spherical Bessel functions."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import spherical_jn

from zpmomentum.special_functions import SERIES_CROSSOVER, sph_bessel_j


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

