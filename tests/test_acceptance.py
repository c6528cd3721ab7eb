"""Acceptance criteria, one numbered test group per criterion.

Criterion 4 note: the chevron minimum-depth targets are unreachable for four
sizes.  Exhaustive search over every switch configuration (not just this
router's output) shows it: at N=6 no configuration leaves a photon at the
formula's depth 0, and at N=8 twelve demands force a photon below depth 2
(``test_c4_chevron_minimum_unreachable_by_any_configuration``).  Those
parametrized cells fail by design; N=10 and N=12 are not exhausted here.
"""
import itertools
import random
import time

import pytest

from pairswitch import (
    Design,
    OpCounter,
    State,
    build_network,
    count_table,
    depth_formulas,
    double_factorial,
    propagate,
    random_pair_list,
    route,
    simulate,
    verify_design,
    verify_minimality,
    worst_case_pair_list,
)
from pairswitch.routing import StateVector

DESIGNS = list(Design)
EXHAUSTIVE_SIZES = (4, 6, 8, 10, 12)


# --------------------------------------------------------------------------
# criterion 1: optimal switch count
# --------------------------------------------------------------------------

def test_c1_optimal_count():
    start = time.perf_counter()
    for design in DESIGNS:
        for n in range(4, 65, 2):
            assert len(build_network(design, n).switches) == n * (n - 2) // 4
    for n, expect in ((4, 2), (12, 30), (16, 56)):
        for design in DESIGNS:
            assert len(build_network(design, n).switches) == expect
    assert time.perf_counter() - start < 1.0


# --------------------------------------------------------------------------
# criterion 2: exhaustive non-blocking (and data for criterion 4)
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def exhaustive_runs():
    start = time.perf_counter()
    reports = {
        (design, n): verify_design(design, n, mode="exhaustive")
        for design in DESIGNS
        for n in EXHAUSTIVE_SIZES
    }
    return reports, time.perf_counter() - start


@pytest.mark.parametrize("design", DESIGNS)
def test_c2_exhaustive_nonblocking(design, exhaustive_runs):
    reports, elapsed = exhaustive_runs
    for n in EXHAUSTIVE_SIZES:
        report = reports[(design, n)]
        assert report.demands_checked == double_factorial(n - 1)
        assert report.failures == ()
    assert elapsed < 60.0


def test_c2_demand_counts(exhaustive_runs):
    reports, _ = exhaustive_runs
    counts = [reports[(Design.TRIANGULAR, n)].demands_checked for n in EXHAUSTIVE_SIZES]
    assert counts == [3, 15, 105, 945, 10395]


# --------------------------------------------------------------------------
# criterion 3: sampled non-blocking at larger sizes
# --------------------------------------------------------------------------

def test_c3_sampled_nonblocking():
    start = time.perf_counter()
    for design in DESIGNS:
        for n in (16, 32, 64):
            report = verify_design(design, n, mode="random", samples=1000, seed=2024)
            assert report.demands_checked == 1000
            assert report.failures == ()
    assert time.perf_counter() - start < 30.0


# --------------------------------------------------------------------------
# criterion 4: depth formulas against exhaustive empirical extrema
# --------------------------------------------------------------------------

@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("n", EXHAUSTIVE_SIZES)
def test_c4_depth_formulas(design, n, exhaustive_runs):
    reports, _ = exhaustive_runs
    report = reports[(design, n)]
    fmax, fmin, fdelta = depth_formulas(design, n)
    assert fdelta == fmax - fmin
    assert report.max_depth == fmax
    assert report.min_depth == fmin  # unreachable for chevron N in {6,8,10,12}


def _best_minimum_depths(design, n):
    """Simulate every one of the 2^S configurations: demand -> the largest
    minimum photon depth among the configurations that realize it, and the
    smallest photon depth any configuration leaves."""
    net = build_network(design, n)
    best, lowest = {}, n
    for bits in itertools.product(b"\x00\x01", repeat=len(net.lines)):
        perm, depths = simulate(net, StateVector(bytearray(bits)))
        demand = frozenset(map(frozenset, zip(perm[::2], perm[1::2])))
        least = min(depths)
        best[demand] = max(best.get(demand, 0), least)
        lowest = min(lowest, least)
    return best, lowest


def test_c4_chevron_minimum_unreachable_by_any_configuration():
    # N = 6: the formula minimum is 0, yet every configuration touches every photon
    best, lowest = _best_minimum_depths(Design.CHEVRON, 6)
    assert depth_formulas(Design.CHEVRON, 6)[1] == 0
    assert len(best) == 15
    assert lowest >= 1
    # N = 8: twelve demands put some photon below depth 2 in every configuration
    best, _ = _best_minimum_depths(Design.CHEVRON, 8)
    fmin = depth_formulas(Design.CHEVRON, 8)[1]
    assert fmin == 2
    assert len(best) == 105
    assert sum(depth < fmin for depth in best.values()) == 12


# --------------------------------------------------------------------------
# criterion 5: worst-case demand saturates every switch
# --------------------------------------------------------------------------

@pytest.mark.parametrize("design", DESIGNS)
def test_c5_worst_case_saturation(design):
    for n in EXHAUSTIVE_SIZES:
        plan = route(design, n, worst_case_pair_list(n))
        assert len(plan.states) == n * (n - 2) // 4
        assert set(plan.states.values()) == {State.CROSS}


# --------------------------------------------------------------------------
# criterion 6: single-switch minimality
# --------------------------------------------------------------------------

def test_c6_minimality():
    start = time.perf_counter()
    for design in DESIGNS:
        for n in (4, 6, 8, 10):
            report = verify_minimality(design, n)
            assert len(report.outcomes) == n * (n - 2) // 4
            assert report.passed
    assert time.perf_counter() - start < 60.0


# --------------------------------------------------------------------------
# criterion 7: resource comparison table
# --------------------------------------------------------------------------

def test_c7_comparison_table():
    table = count_table([8, 12])
    by = {(r.scheme, r.ports): r for r in table.rows}
    assert by[("ours", 12)].switches == 30
    assert by[("spanke_benes", 12)].switches == 66
    assert table.ratio(12) == 30 / 66 < 0.5
    assert by[("benes", 8)].switches == 20
    assert by[("benes", 8)].crosspoints == 16
    assert by[("waksman", 8)].switches == 17


# --------------------------------------------------------------------------
# criterion 8: quadratic operation growth
# --------------------------------------------------------------------------

def _instrumented_ops(design, n):
    counter = OpCounter()
    route(design, n, worst_case_pair_list(n), counter)
    rng = random.Random(11)
    for _ in range(3):
        route(design, n, random_pair_list(n, rng), counter)
    return counter.count


@pytest.mark.parametrize("design", DESIGNS)
def test_c8_quadratic_growth(design):
    counts = {n: _instrumented_ops(design, n) for n in (16, 32, 64)}
    for small, big in ((16, 32), (32, 64)):
        ratio = counts[big] / counts[small]
        assert 3.0 <= ratio <= 5.0, (design, small, counts)


# totals recorded before the routers wrote states straight into id order, so
# the growth above keeps counting the same work
OPERATION_TOTALS = {
    Design.TRIANGULAR: {16: 631, 32: 2482, 64: 9831},
    Design.CHEVRON: {16: 704, 32: 2828, 64: 11154},
    Design.BRICKWORK: {16: 947, 32: 3779, 64: 15016},
}


@pytest.mark.parametrize("design", DESIGNS)
def test_c8_operation_totals(design):
    counts = {n: _instrumented_ops(design, n) for n in (16, 32, 64)}
    assert counts == OPERATION_TOTALS[design]


# --------------------------------------------------------------------------
# criterion 9: reversed network inverts the permutation
# --------------------------------------------------------------------------

@pytest.mark.parametrize("design", DESIGNS)
def test_c9_reverse_mode(design):
    from pairswitch import reverse_network

    for n in (4, 6, 8):
        net = build_network(design, n)
        rnet = reverse_network(net)
        size = len(net.switches)
        for assignment in range(1 << size):
            states = {
                k: State.CROSS if (assignment >> k) & 1 else State.BAR
                for k in range(size)
            }
            rstates = {size - 1 - k: states[k] for k in range(size)}
            forward = propagate(net, states)
            backward = propagate(rnet, rstates)
            for line, photon in enumerate(forward):
                assert backward[photon] == line
