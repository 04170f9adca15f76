"""Radial-mode constants: trig route, brute-force route, reconciliation."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zpmomentum import oscillatory_integrals as osc
from zpmomentum.oscillatory_integrals import (DEFAULT_SCHEDULE, TRIG_NAMES,
                                              eval_bruteforce, eval_trig,
                                              reconciled_constants)
from zpmomentum.base import ConvergenceError
from zpmomentum.special_functions import (_gauss_panels, _richardson,
                                          sph_bessel_j)
from zpmomentum.tensor_assembly import solve_D1_D3

KERNEL_NAMES = ("I0", "I1", "A", "C", "D", "E")

# Independently derived closed forms of the seven trig reductions (each is an
# elementary integral of products of sines and cosines on [0, pi/2]).
TRIG_CLOSED_FORMS = {
    "I0": -3.0 * math.pi / 16.0,
    "I1": 21.0 * math.pi / 16.0,
    "A": 7.0 * math.pi / 16.0,
    "C": -9.0 * math.pi / 16.0,
    "E1": 21.0 * math.pi / 8.0,
    "E2": -35.0 * math.pi / 8.0,
    "E3": 63.0 * math.pi / 8.0,
}

# Values printed in the literature reference (E2's sign is printed; I0, I1, A,
# C are compared in magnitude because the printed signs are not
# self-consistent — see CHANGES.md; the E pieces are analysed in the
# eval_bruteforce docstring).
PRINTED_MAGNITUDES = {
    "I0": 0.589, "I1": 4.123, "A": 1.374, "C": 1.767,
    "E1": 8.246, "E2": 13.744, "E3": 24.74,
}


@pytest.mark.parametrize("name", TRIG_NAMES)
def test_trig_route_matches_closed_forms(name):
    res = eval_trig(name)
    assert res.value == pytest.approx(TRIG_CLOSED_FORMS[name], rel=1e-10)
    assert res.error_estimate <= 1e-10
    assert res.method == "trig_reduction"


@pytest.mark.parametrize("name", TRIG_NAMES)
def test_trig_route_matches_printed_magnitudes(name):
    res = eval_trig(name)
    assert abs(res.value) == pytest.approx(PRINTED_MAGNITUDES[name], abs=1e-3)


def test_trig_unknown_name_raises():
    with pytest.raises(ValueError):
        eval_trig("D")  # D has no trig reduction
    with pytest.raises(ValueError):
        eval_trig("Z9")


@pytest.mark.parametrize("name", ["I0", "I1", "A", "C"])
def test_bruteforce_confirms_trig_magnitudes_within_1_percent(name):
    brute = eval_bruteforce(name)
    trig = eval_trig(name)
    assert abs(brute.value) == pytest.approx(abs(trig.value), rel=0.01)
    assert brute.method == "regulated_quadrature"
    assert brute.error_estimate >= 0.0


def test_bruteforce_signs_match_trig_signs():
    # The two routes agree in sign for every kernel with a trig counterpart;
    # the printed value list flips I0 (and overall sign conventions), which is
    # why reconciliation takes signs from this route.
    for name in ("I0", "I1", "A", "C"):
        assert math.copysign(1.0, eval_bruteforce(name).value) == \
            math.copysign(1.0, eval_trig(name).value)


def test_d_kernel_has_stable_finite_value():
    res = eval_bruteforce("D")
    assert res.error_estimate < 0.05 * abs(res.value)
    # independent analytic evaluation of the defining kernel gives 3 pi/16
    assert res.value == pytest.approx(3.0 * math.pi / 16.0, rel=1e-3)


def test_e_defining_kernel_matches_trig_piece_sum():
    """Cross-route check for E — a genuine, documented discrepancy.

    The combined constant from the three printed trig pieces is E1+E2+E3 =
    19.242.  Direct regulated quadrature of the defining phase-type kernel
    converges cleanly (stable extrapolation, residual well under 5%) but to
    16.886, which is 12.2% away — outside the contracted 5% agreement band.
    The two routes share no algebra, so this failure is evidence that the
    printed piece list and the displayed defining kernel disagree with each
    other; the analysis lives in the eval_bruteforce docstring and in
    CHANGES.md, and test_e_gap_is_carried_by_e1 pins it.  The test states
    the contracted expectation honestly rather than widening the tolerance.
    """
    brute = eval_bruteforce("E")
    trig_sum = sum(eval_trig(n).value for n in ("E1", "E2", "E3"))
    assert brute.value == pytest.approx(trig_sum, rel=0.05)


# --- the coupled-sum kernel -------------------------------------------------

def _regulated_grid(eps):
    """The production panel edges, their nodes and the nodes' damped weights
    at one eps."""
    edges = osc._panel_edges(osc.PMAX_FACTOR / eps)
    nodes, wts = _gauss_panels(edges, osc._PANEL_POINTS)
    return edges, nodes, wts * np.exp(-eps * nodes)


def _columns_of(edges, full_rows):
    """A row builder for _coupled_sums that hands each chunk of panels its
    columns of rows given on every node of the grid on edges."""
    nodes = _gauss_panels(edges, osc._PANEL_POINTS)[0]

    def rows(group_nodes, _):
        first = np.searchsorted(nodes, group_nodes[0])
        columns = slice(first, first + len(group_nodes))
        assert np.array_equal(nodes[columns], group_nodes)
        return full_rows[:, columns]
    return rows


def _pairwise_pass(eps):
    """The nine pieces of _regulated_pass(eps) by the direct sum over every
    node pair, 1024 rows of the coupling matrix at a time."""
    _, nodes, damp = _regulated_grid(eps)
    bessel = {m: sph_bessel_j(m, nodes) for m in (0, 1, 2)}
    sums = dict.fromkeys(osc._PIECES, 0.0)
    for lo in range(0, len(nodes), 1024):
        rows = slice(lo, lo + 1024)
        coupling = 1.0 / (nodes[rows, None] + nodes[None, :])
        for name, (a, m, b, n, d, c) in osc._PIECES.items():
            u = nodes[rows]**a * bessel[m][rows] * damp[rows] * c
            v = nodes**b * bessel[n] * damp
            sums[name] += u @ coupling**d @ v
    return sums


@pytest.mark.parametrize("d", [1, 2])
def test_coupled_sums_reproduce_the_coupling(d):
    """Unit rows pick single node pairs, at both ends and in the middle of
    the finest default grid; the exponential sum must return 1/(p_i+p_j)^d."""
    edges, nodes, _ = _regulated_grid(DEFAULT_SCHEDULE[-1])
    last, mid = len(nodes) - 1, len(nodes) // 2
    i, j = np.array([(0, 0), (0, mid), (0, last), (mid, mid), (mid, last),
                     (last, last)]).T
    units = np.zeros((2 * len(i), len(nodes)))
    units[np.arange(2 * len(i)), np.concatenate([i, j])] = 1.0
    pairs = [(k, len(i) + k, d) for k in range(len(i))]
    np.testing.assert_allclose(
        osc._coupled_sums(edges, _columns_of(edges, units), pairs),
        (nodes[i] + nodes[j]) ** -float(d),
        rtol=1e-13, atol=0.0)


def test_regulated_pass_matches_pairwise_sum():
    pairwise = _pairwise_pass(0.1)
    for name, value in osc._regulated_pass(0.1).items():
        assert value == pytest.approx(pairwise[name], rel=1e-10), name


def _full_matrix_sums(nodes, U, V, d):
    """The exponential sum with the whole T x N table exp(-t p) in memory, the
    unfactored form of _coupled_sums."""
    t = np.exp(np.arange(math.log(1e-16 / (2.0 * nodes[-1])),
                         math.log(20.0 / nodes[0]), osc._LOG_STEP))
    decay = np.outer(-t, nodes)
    np.exp(decay, out=decay)
    weights = osc._LOG_STEP / math.gamma(d) * t**d
    return weights @ ((decay @ U) * (decay @ V))


@pytest.mark.parametrize("panels", [1, 2, 3, 4, 7, 12, 15, 16, 17, 30, 50,
                                    128, 129, 130, 319, 910])
def test_coupled_sums_match_full_matrix_sums_at_any_block_split(panels, rng):
    """Every grid gives the unfactored sums, whatever its split into blocks
    of 16 panels and chunks of 8 blocks (128 panels): grids inside one
    short block (1 to 15 panels), one whole block (16), a short second
    block (17, 30), a short chunk (50), one whole chunk (128), a second
    chunk of one block of one or two panels (129, 130), and the 319 and 910
    panels of eps = 0.2 and 0.07, which end on a short block of a short
    chunk."""
    edges = np.linspace(0.0, panels * osc._PANEL_WIDTH, panels + 1)
    nodes, _ = _gauss_panels(edges, osc._PANEL_POINTS)
    factors = rng.uniform(0.5, 1.5, (3, len(nodes)))
    pairs = [(0, 1, 1), (1, 2, 2), (2, 2, 1)]
    reference = [_full_matrix_sums(nodes, factors[a], factors[b], d)
                 for a, b, d in pairs]
    np.testing.assert_allclose(
        osc._coupled_sums(edges, _columns_of(edges, factors), pairs),
        reference, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("eps", DEFAULT_SCHEDULE + (0.2, 0.07))
def test_regulated_pass_matches_full_matrix_sums(eps):
    """The block-factored tables give every piece of the unfactored one."""
    _, nodes, damp = _regulated_grid(eps)
    bessel = {m: sph_bessel_j(m, nodes) for m in (0, 1, 2)}
    factored = osc._regulated_pass(eps)
    for name, (a, m, b, n, d, c) in osc._PIECES.items():
        u = nodes**a * bessel[m] * damp * c
        v = nodes**b * bessel[n] * damp
        reference = _full_matrix_sums(nodes, u, v, d)
        assert factored[name] == pytest.approx(reference, rel=1e-12), name


def _pass_peak_memory(eps):
    """Traced peak, in bytes, of one uncached pass."""
    tracemalloc.start()
    try:
        osc._regulated_pass.__wrapped__(eps)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_finest_default_pass_peak_memory():
    """One uncached pass at the finest default regulator holds no T x N
    table and no N-long row: its traced peak stays below 1 MiB (the full
    table alone is 66 MiB)."""
    assert _pass_peak_memory(DEFAULT_SCHEDULE[-1]) < 1 * 2**20


def test_floor_pass_peak_memory():
    """At the smallest accepted regulator, with four times the nodes, one
    uncached pass still traces below 1 MiB: the pass decays a fixed chunk
    of nodes at a time, so its working set does not grow with N."""
    assert _pass_peak_memory(osc._EPS_FLOOR) < 1 * 2**20


# --- where the E gap lives ---------------------------------------------------
#
# Radial kernels c p^a j_m(p) q^b j_n(q) / (p+q), as (c, a, m, b, n); the
# derivation is in the eval_bruteforce docstring.
E_PIECE_KERNELS = {
    "E1": (3.0, 3, 1, 3, 1),   # twice I1's kernel, what _trig_E1 reduces
    "E2": (-2.0, 2, 1, 3, 2),  # mixed part of the defining integrand
    "E3": (1.0, 3, 2, 3, 2),   # n-n part of the defining integrand
}
E_ISOTROPIC_KERNEL = (3.0, 2, 1, 2, 1)  # isotropic part of the same integrand


def _kernel_bruteforce(kernel):
    c, a, m, b, n = kernel
    raw = []
    for eps in DEFAULT_SCHEDULE:
        def rows(nodes, wts, eps=eps):
            damp = wts * np.exp(-eps * nodes)
            return np.array([nodes**a * sph_bessel_j(m, nodes) * damp,
                             nodes**b * sph_bessel_j(n, nodes) * damp])
        edges = osc._panel_edges(osc.PMAX_FACTOR / eps)
        raw.append(c * osc._coupled_sums(edges, rows, [(0, 1, 1)])[0])
    return _richardson(DEFAULT_SCHEDULE, raw, (0, 1, 3, 5, 7))


def test_e_gap_is_carried_by_e1():
    """Locate the 3 pi/4 between the two E routes.

    Each trig piece matches its own radial kernel by regulated quadrature;
    the defining integrand's isotropic part is 15 pi/8 where E1 is 21 pi/8,
    and that difference is the whole gap.  The relative-angle reduction is
    checked at eps = 0.1 by direct quadrature over both polar angles of the
    6-D integrand, with n along z.
    """
    for name, kernel in E_PIECE_KERNELS.items():
        assert _kernel_bruteforce(kernel) == pytest.approx(
            eval_trig(name).value, rel=1e-6), name
    isotropic = _kernel_bruteforce(E_ISOTROPIC_KERNEL)
    assert isotropic == pytest.approx(15.0 * math.pi / 8.0, rel=1e-6)

    trig = {n: eval_trig(n).value for n in ("E1", "E2", "E3")}
    assert sum(trig.values()) - eval_bruteforce("E").value == pytest.approx(
        trig["E1"] - isotropic, rel=1e-6)

    # <k^_i k^_j e^{ik.z}> is diagonal: (1 - mu^2)/2 twice, mu^2 once
    mu, w = np.polynomial.legendre.leggauss(400)

    def rows(nodes, wts):
        phase = np.cos(np.outer(nodes, mu)) * (0.5 * w)
        damp = wts * np.exp(-0.1 * nodes)
        return np.array([nodes**3 * (phase @ (0.5 * (1.0 - mu**2))) * damp,
                         nodes**3 * (phase @ mu**2) * damp])
    transverse_sum, along_sum = osc._coupled_sums(
        osc._panel_edges(osc.PMAX_FACTOR / 0.1), rows, [(0, 0, 1), (1, 1, 1)])
    direct = 2.0 * transverse_sum + along_sum
    reduced = osc._regulated_pass(0.1)
    assert direct == pytest.approx(reduced["E_0"] + reduced["E_2"], rel=1e-10)


def test_e_bruteforce_extrapolation_is_internally_stable():
    res = eval_bruteforce("E")
    assert res.error_estimate < 0.05 * abs(res.value)
    assert res.value == pytest.approx(43.0 * math.pi / 8.0, rel=1e-3)


def test_bruteforce_unknown_name_raises():
    with pytest.raises(ValueError):
        eval_bruteforce("I2")


def test_schedule_validation():
    with pytest.raises(ValueError, match="at least three"):
        eval_bruteforce("I0", schedule=(0.1,))        # single point
    with pytest.raises(ValueError, match="at least three"):
        eval_bruteforce("E", schedule=(0.05,))
    with pytest.raises(ValueError, match="at least three"):
        eval_bruteforce("D", schedule=(0.1, 0.05))    # nothing to check against
    # two points are too short before their order or range is looked at
    with pytest.raises(ValueError, match="at least three"):
        eval_bruteforce("I0", schedule=(0.05, 0.1))   # ascending
    with pytest.raises(ValueError, match="at least three"):
        eval_bruteforce("I0", schedule=(0.3, 0.1))    # above 0.2
    with pytest.raises(ValueError, match="at least three"):
        eval_bruteforce("I0", schedule=(0.1, 0.0))
    # three points reach the order and range checks; below the floor a pass
    # would need about 5e8 nodes for eps = 1e-6, so the validation is called
    # alone, without a pass behind it
    with pytest.raises(ValueError, match="strictly descending"):
        osc._validate_schedule((0.05, 0.1, 0.025))
    with pytest.raises(ValueError, match="must lie in"):
        osc._validate_schedule((0.3, 0.1, 0.05))
    with pytest.raises(ValueError, match="must lie in"):
        osc._validate_schedule((0.1, 0.05, 1e-6))
    floor = DEFAULT_SCHEDULE[-1] / 4.0
    assert osc._validate_schedule((0.1, 0.05, floor))[-1] == floor


def test_schedule_floor_is_sharp():
    # the floor DEFAULT_SCHEDULE[-1] / 4 is accepted, the float below refused
    assert osc._validate_schedule((0.1, 0.05, 0.003125))[-1] == 0.003125
    with pytest.raises(ValueError, match="must lie in"):
        osc._validate_schedule((0.1, 0.05, math.nextafter(0.003125, 0.0)))


@pytest.mark.parametrize("ratio", [1.001, 0.999])
def test_drop_one_residual_bound_is_5_percent(monkeypatch, ratio):
    # 1 + c eps^3 extrapolates to exactly 1 through the powers 0, 1, 3; the
    # line through eps = 0.1 and 0.05 that dropping 0.025 leaves meets eps = 0
    # at 1 - 7.5e-4 c, so c puts the drop-one residual at ratio x 5%
    c = ratio * 0.05 / 7.5e-4
    monkeypatch.setattr(osc, "_regulated_pass",
                        lambda eps: {"D": 1.0 + c * eps**3})
    schedule = (0.1, 0.05, 0.025)
    if ratio > 1.0:
        with pytest.raises(ConvergenceError, match=r"unstable.*\(5\.0% of"):
            eval_bruteforce("D", schedule)
    else:
        res = eval_bruteforce("D", schedule)
        assert res.value == pytest.approx(1.0, rel=1e-12)
        assert res.error_estimate == pytest.approx(0.999 * 0.05, rel=1e-9)


def test_drop_one_stability_below_1_percent():
    for name in KERNEL_NAMES:
        full = eval_bruteforce(name).value
        dropped = eval_bruteforce(name, schedule=DEFAULT_SCHEDULE[:-1]).value
        assert abs(full - dropped) < 0.01 * abs(full), name


def test_solve_d1_d3_examples():
    assert solve_D1_D3(15.0, 15.0) == (1.0, 1.0)
    assert solve_D1_D3(0.0, 0.0) == (0.0, 0.0)


@given(d=st.floats(min_value=-100, max_value=100),
       e=st.floats(min_value=-100, max_value=100))
def test_solve_d1_d3_satisfies_both_equations(d, e):
    d1, d3 = solve_D1_D3(d, e)
    assert 6.0 * d1 + 9.0 * d3 == pytest.approx(d, rel=1e-12, abs=1e-12)
    assert 12.0 * d1 + 3.0 * d3 == pytest.approx(e, rel=1e-12, abs=1e-12)


def test_reconciled_constants_values_and_signs():
    cons = reconciled_constants()
    assert set(cons) == {"I0", "I1", "A", "C", "D", "E"}
    assert cons["I0"] == pytest.approx(-3.0 * math.pi / 16.0, rel=1e-10)
    assert cons["I1"] == pytest.approx(21.0 * math.pi / 16.0, rel=1e-10)
    assert cons["A"] == pytest.approx(7.0 * math.pi / 16.0, rel=1e-10)
    assert cons["C"] == pytest.approx(-9.0 * math.pi / 16.0, rel=1e-10)
    assert cons["E"] == pytest.approx(49.0 * math.pi / 8.0, rel=1e-10)
    assert cons["D"] == 3.0 * math.pi / 16.0
    # callers get a copy: changing it leaves the table alone
    cons["D"] = 0.0
    assert reconciled_constants()["D"] == 3.0 * math.pi / 16.0


def test_constant_table_matches_both_routes():
    """The exact table against the trig route (E as E1 + E2 + E3), and against
    the regulated quadrature of each defining kernel: D in value, all six
    constants in sign."""
    table = reconciled_constants()
    trig = {name: eval_trig(name).value for name in TRIG_NAMES}
    trig["E"] = trig["E1"] + trig["E2"] + trig["E3"]
    for name in ("I0", "I1", "A", "C", "E"):
        assert table[name] == pytest.approx(trig[name], rel=1e-10), name

    brute = {name: eval_bruteforce(name) for name in KERNEL_NAMES}
    assert abs(table["D"] - brute["D"].value) <= brute["D"].error_estimate
    for name, res in brute.items():
        assert math.copysign(1.0, table[name]) == \
            math.copysign(1.0, res.value), name


def test_result_error_estimate_validation():
    from zpmomentum.base import IntegralResult
    with pytest.raises(ValueError):
        IntegralResult(value=1.0, error_estimate=-1.0,
                       method="trig_reduction")
    with pytest.raises(ValueError):
        IntegralResult(value=1.0, error_estimate=0.0,
                       method="guesswork")
