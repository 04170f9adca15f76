"""Closed-form frequency contour integrals against the regulated oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zpmomentum import contour_frequency
from zpmomentum.contour_frequency import (KINDS, compare, freq_closed_form,
                                          freq_oracle, resolving_epsilon)
from zpmomentum.base import ConvergenceError


def test_closed_form_spot_values():
    # transverse: -(i pi/4)(k + 2k')/(k + k')^2
    assert freq_closed_form("transverse", 1.0, 1.0) == pytest.approx(
        -0.75j * math.pi / 4.0, rel=1e-15)
    # one longitudinal: +(i pi/4) / (k (k + k')^2)
    assert freq_closed_form("one_longitudinal", 1.0, 1.0) == pytest.approx(
        1j * math.pi / 16.0, rel=1e-15)
    assert freq_closed_form("transverse", 2.0, 1.0) == pytest.approx(
        -1j * math.pi * 4.0 / (4.0 * 9.0), rel=1e-15)


def test_closed_forms_are_purely_imaginary():
    for kind in KINDS:
        val = freq_closed_form(kind, 0.7, 2.3)
        assert val.real == 0.0
        assert val.imag != 0.0


@pytest.mark.parametrize("kind, k, kp, value", [
    ("transverse", 1e-200, 1e-200, -3.0 * math.pi / 16.0 * 1e200),
    ("transverse", 1e200, 1e200, -3.0 * math.pi / 16.0 * 1e-200),
    ("transverse", 1e160, 1.0, -math.pi / 4.0 * 1e-160),
    # k / kp overflows a float, yet the values are floats
    ("transverse", 1e300, 1e-100, -math.pi / 4.0 * 1e-300),
    ("one_longitudinal", 5e-324, 1e300,
     math.pi / 4.0 / (5e-324 * 1e300) / 1e300),
    ("one_longitudinal", 1e200, 1e200, 0.0),  # underflows
])
def test_closed_form_answers_wherever_its_value_is_a_float(kind, k, kp, value):
    # in each, (k + kp)^2 alone leaves the float range
    assert freq_closed_form(kind, k, kp) == pytest.approx(value * 1j,
                                                          rel=1e-15)


@given(k=st.floats(min_value=0.05, max_value=20.0),
       kp=st.floats(min_value=0.05, max_value=20.0),
       s=st.floats(min_value=0.1, max_value=10.0))
def test_closed_form_scaling(k, kp, s):
    # transverse scales as 1/s, one-longitudinal as 1/s^3
    t = freq_closed_form("transverse", k, kp)
    assert freq_closed_form("transverse", s * k, s * kp) == pytest.approx(
        t / s, rel=1e-12)
    l = freq_closed_form("one_longitudinal", k, kp)
    assert freq_closed_form("one_longitudinal", s * k, s * kp) == pytest.approx(
        l / s**3, rel=1e-12)


def test_input_validation():
    with pytest.raises(ValueError):
        freq_closed_form("transverse", 0.0, 1.0)
    with pytest.raises(ValueError):
        freq_closed_form("transverse", 1.0, -2.0)
    with pytest.raises(ValueError):
        freq_closed_form("sideways", 1.0, 1.0)
    with pytest.raises(ValueError):
        freq_oracle("transverse", 1.0, 1.0, epsilon=0.5)
    with pytest.raises(ValueError):
        freq_oracle("transverse", 1.0, 1.0, epsilon=0.0)


@pytest.mark.parametrize("k,kp", [
    (1.0, 1.0),          # degenerate: both poles coincide
    (3.7, 3.7),          # degenerate away from unit scale
    (2.0, 1.0),
    (0.1, 10.0),         # two-decade ratio, the edge of the sampled domain
    (100.0, 1.5),        # large absolute scale
    (1.0, 1.02),         # closely spaced but still resolvable poles
])
@pytest.mark.parametrize("kind", KINDS)
def test_oracle_matches_closed_form_on_hard_pairs(kind, k, kp):
    res = compare(kind, k, kp, epsilon=1e-3)
    assert res.error_estimate <= 1e-5 * abs(freq_closed_form(kind, k, kp))
    assert res.value == freq_oracle(kind, k, kp, epsilon=1e-3)


def _finite_eta_integral(kind, k, kp, eta):
    """The module docstring's exact regulated integral (-i pi/2) g[A, A, B],
    g(z) = z^(m - 1/2), A = k^2 - i eta, B = kp^2 - i eta, by the confluent
    difference g[A, A, B] = (g[A, B] - g'(A)) / (B - A)."""
    m = 2 if kind == "transverse" else 1
    A, B = complex(k * k, -eta), complex(kp * kp, -eta)
    g_ab = (B ** (m - 0.5) - A ** (m - 0.5)) / (B - A)
    return -0.5j * math.pi * (g_ab - (m - 0.5) * A ** (m - 1.5)) / (B - A)


@pytest.mark.parametrize("eta,rtol", [(1e-3, 1e-11), (1e-5, 1e-9)])
@pytest.mark.parametrize("k,kp", [(2.0, 1.0), (1.0, 3.0)])
@pytest.mark.parametrize("kind", KINDS)
def test_regulated_single_matches_the_exact_finite_eta_integral(kind, k, kp,
                                                                eta, rtol):
    """The oracle's quadrature at one regulator against the exact integral
    at that regulator (min(k, kp) = 1, so the rescaled regulator is eta);
    worst measured 8.5e-13 at 1e-3 and 9.4e-11 at 1e-5.  At eta = 0 the
    formula is the closed form."""
    reference = _finite_eta_integral(kind, k, kp, eta)
    value, _ = contour_frequency._regulated_single(kind, k, kp, eta)
    assert abs(value - reference) <= rtol * abs(reference)
    assert _finite_eta_integral(kind, k, kp, 0.0) == pytest.approx(
        freq_closed_form(kind, k, kp), rel=1e-14)


def test_oracle_refuses_unresolvable_pole_separation():
    # distinct poles closer than the regulated width: refuse loudly rather
    # than integrate overlapping windows
    with pytest.raises(ConvergenceError, match="reduce epsilon"):
        freq_oracle("transverse", 3.7, 3.7000001, epsilon=1e-3)


@pytest.mark.parametrize("gap", [1e-2, 1e-3, 1e-4])
@pytest.mark.parametrize("kind", KINDS)
def test_oracle_resolves_close_poles_at_the_resolving_regulator(kind, gap):
    # the neighbouring pole's factor in product form keeps a relative gap
    # down to 1e-4 accurate at 0.05 x gap
    k, kp = 3.7, 3.7 * (1.0 + gap)
    eps = resolving_epsilon(k, kp)
    assert eps == pytest.approx(0.05 * gap, rel=1e-6)
    res = compare(kind, k, kp, eps)
    assert res.error_estimate <= 1e-5 * abs(freq_closed_form(kind, k, kp))
    assert resolving_epsilon(3.7, 3.7) == 1e-3


def test_oracle_error_when_tolerance_unreachable(monkeypatch):
    monkeypatch.setattr(contour_frequency, "ORACLE_REL_TOL", 1e-16)
    with pytest.raises(ConvergenceError, match="did not converge"):
        freq_oracle("transverse", 2.0, 1.0, epsilon=1e-3)


def test_oracle_refuses_extreme_wavenumber_ratio():
    with pytest.raises(ValueError, match="ratio"):
        freq_oracle("one_longitudinal", 100.0, 0.01, epsilon=1e-3)


@pytest.mark.parametrize("kind", KINDS)
def test_oracle_ratio_bound_is_101(kind):
    # the validated range ends at a wavenumber ratio of 101
    res = compare(kind, 101.0, 1.0, epsilon=1e-3)
    assert res.error_estimate <= 1e-5 * abs(freq_closed_form(kind, 101.0, 1.0))
    with pytest.raises(ValueError, match="ratio 102 "):
        freq_oracle(kind, 102.0, 1.0, epsilon=1e-3)


@pytest.mark.parametrize("args", [
    (1.0, 2.0, -1.0), (1.0, 2.0, math.nan), (1.0, 2.0, 0.0), (1.0, 2.0, 0.2),
    (1.0, math.nan), (1.0, math.inf), (-1.0, 2.0), (0.0, 1.0)])
def test_resolving_epsilon_refuses_what_the_oracle_refuses(args):
    # a regulator for an input the oracle refuses would be meaningless: both
    # refuse it as an input error, not as a numerical failure
    with pytest.raises(ValueError):
        resolving_epsilon(*args)
    with pytest.raises(ValueError):
        freq_oracle("transverse", *args)


def test_oracle_matches_closed_form_on_random_pairs(rng):
    for _ in range(10):
        k, kp = 10.0 ** rng.uniform(-1.0, 1.0, size=2)
        for kind in KINDS:
            res = compare(kind, float(k), float(kp), epsilon=1e-3)
            rel = res.error_estimate / abs(freq_closed_form(kind, k, kp))
            assert rel <= 1e-5, (kind, k, kp, rel)


def test_oracle_result_is_nearly_imaginary():
    res = freq_oracle("transverse", 1.3, 0.6, epsilon=1e-3)
    assert abs(res.real) <= 1e-6 * abs(res.imag)


def test_compare_populates_relative_error_consistently():
    # compare returns the oracle's value and, as its error estimate, the
    # distance from the closed form, as freq-check reports them
    res = compare("one_longitudinal", 0.9, 1.7, epsilon=1e-3)
    closed = freq_closed_form("one_longitudinal", 0.9, 1.7)
    assert res.value == freq_oracle("one_longitudinal", 0.9, 1.7, 1e-3)
    assert res.error_estimate == abs(res.value - closed)
    assert res.method == "regulated_quadrature"
