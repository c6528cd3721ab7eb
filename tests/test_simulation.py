import random
from array import array

import pytest

from pairswitch import (
    Design,
    IncompleteStates,
    InvalidInput,
    Network,
    PairList,
    State,
    build_network,
    check_pairing,
    depth_formulas,
    enumerate_pair_lists,
    estimate_loss,
    propagate,
    random_pair_list,
    route,
    route_triangular,
    simulate,
    traversal_depths,
    worst_case_pair_list,
)
from pairswitch.routing import StateVector


def all_states(net, state):
    return {sp.id: state for sp in net.switches}


def inversions(perm):
    return sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )


def test_all_bar_is_identity():
    for design in Design:
        net = build_network(design, 10)
        assert propagate(net, all_states(net, State.BAR)) == tuple(range(10))


def test_triangular_4_both_cross():
    net = build_network(Design.TRIANGULAR, 4)
    assert propagate(net, all_states(net, State.CROSS)) == (1, 2, 0, 3)


def test_simulate_returns_permutation_and_depths():
    net = build_network(Design.TRIANGULAR, 4)
    states = all_states(net, State.CROSS)
    assert simulate(net, states) == ((1, 2, 0, 3), (2, 1, 1, 0))
    assert simulate(net, states) == (propagate(net, states), traversal_depths(net, states))


def test_single_switch_transposition():
    for line in (0, 2, 4):
        lines, layers, cols = array("i", [line]), array("i", [1]), array("i", [0])
        net = Network(Design.TRIANGULAR, 6, lines, layers, cols)
        perm = propagate(net, {0: State.CROSS})
        expect = list(range(6))
        expect[line], expect[line + 1] = expect[line + 1], expect[line]
        assert perm == tuple(expect)


def test_incomplete_states_rejected():
    net = build_network(Design.TRIANGULAR, 6)
    states = all_states(net, State.BAR)
    states.pop(0)
    with pytest.raises(IncompleteStates, match=r"missing \[0\], extra \[\]"):
        propagate(net, states)
    states[0] = State.BAR
    states[99] = State.BAR
    with pytest.raises(IncompleteStates, match=r"missing \[\], extra \[99\]"):
        traversal_depths(net, states)


def test_incomplete_states_message_for_a_plan_of_another_size():
    plan = route(Design.TRIANGULAR, 8, worst_case_pair_list(8))  # 12 switches
    net = build_network(Design.TRIANGULAR, 10)  # 20 switches
    missing = ", ".join(map(str, range(12, 20)))
    with pytest.raises(IncompleteStates, match=rf"missing \[{missing}\], extra \[\]\)$"):
        simulate(net, plan.states)
    with pytest.raises(IncompleteStates, match=r"missing \[\], extra \[12, 13\]\)$"):
        simulate(build_network(Design.TRIANGULAR, 8), {**plan.states, 12: State.BAR, 13: State.BAR})
    with pytest.raises(IncompleteStates, match=r"missing \[\], extra \[12, 13\]\)$"):
        simulate(build_network(Design.TRIANGULAR, 8), StateVector(bytearray(14)))


def test_incomplete_states_message_for_a_dict_missing_an_id():
    net = build_network(Design.CHEVRON, 6)
    states = dict(route(Design.CHEVRON, 6, worst_case_pair_list(6)).states)
    del states[4]
    with pytest.raises(IncompleteStates, match=r"^states do not cover the network exactly "
                       r"\(missing \[4\], extra \[\]\)$"):
        simulate(net, states)


@pytest.mark.parametrize("states, bad", [
    ({0: "cross", 1: "cross"}, 0),
    ({0: "banana", 1: None}, 0),
    ({0: State.CROSS, 1: "bar"}, 1),
])
def test_simulate_rejects_values_that_are_not_states(states, bad):
    net = build_network(Design.TRIANGULAR, 4)
    with pytest.raises(InvalidInput, match=rf"^switch {bad} state "):
        simulate(net, states)


@pytest.mark.parametrize("design", list(Design))
def test_simulate_agrees_for_a_state_vector_and_its_dict(design):
    rng = random.Random(31)
    for n in (2, 4, 12, 40):
        net = build_network(design, n)
        plan = route(design, n, random_pair_list(n, rng))
        assert simulate(net, plan.states) == simulate(net, dict(plan.states))


def test_propagate_is_bijection_for_random_states():
    rng = random.Random(5)
    for design in Design:
        net = build_network(design, 14)
        for _ in range(25):
            states = {
                sp.id: State.CROSS if rng.random() < 0.5 else State.BAR
                for sp in net.switches
            }
            perm = propagate(net, states)
            assert sorted(perm) == list(range(14))


def test_depth_photon_on_last_line_of_triangular_is_zero():
    net = build_network(Design.TRIANGULAR, 12)
    plan = route_triangular(12, worst_case_pair_list(12))
    depths = traversal_depths(net, plan.states)
    assert depths[11] == 0


def test_depth_of_top_photon_on_worst_case_is_n_minus_2():
    for n in (6, 8, 12):
        net = build_network(Design.TRIANGULAR, n)
        plan = route_triangular(n, worst_case_pair_list(n))
        assert traversal_depths(net, plan.states)[0] == n - 2


def test_empty_network_depths():
    net = build_network(Design.BRICKWORK, 2)
    assert traversal_depths(net, {}) == (0, 0)


@pytest.mark.parametrize("n", [6, 8, 10])
def test_depth_never_exceeds_structural_max(n):
    for design in Design:
        fmax, _, _ = depth_formulas(design, n)
        net = build_network(design, n)
        for demand in enumerate_pair_lists(n):
            plan = route(design, n, demand)
            assert max(traversal_depths(net, plan.states)) <= fmax


def test_check_pairing_identity():
    report = check_pairing((0, 1, 2, 3), PairList.from_text("0-1,2-3"))
    assert report.ok
    assert report.matched == ((0, (0, 1)), (1, (2, 3)))


def test_check_pairing_crossed():
    assert check_pairing((1, 2, 0, 3), PairList.from_text("0-3,1-2")).ok


def test_check_pairing_mismatch():
    report = check_pairing((0, 1, 2, 3), PairList.from_text("0-2,1-3"))
    assert not report.ok
    assert report.mismatches == (0, 1)


def test_check_pairing_out_of_range_entries_are_mismatches():
    # -1 must not wrap to the last input, and 4 must not raise IndexError
    report = check_pairing((-1, 3, 4, 0), PairList.from_text("0-2,1-3"))
    assert not report.ok
    assert report.mismatches == (0, 1)
    report = check_pairing((0, 2, 1, -1), PairList.from_text("0-2,1-3"))
    assert report.matched == ((0, (0, 2)),)
    assert report.mismatches == (1,)


def test_check_pairing_size_mismatch():
    with pytest.raises(InvalidInput):
        check_pairing((0, 1), PairList.from_text("0-1,2-3"))


def test_loss_model():
    assert estimate_loss((0,), 0.5, 1.0) == (1.0,)
    assert estimate_loss((10,), 0.2, 1.0) == (3.0,)
    with pytest.raises(InvalidInput):
        estimate_loss((1,), -0.1, 0.0)
    with pytest.raises(InvalidInput):
        estimate_loss((1,), 0.1, -1.0)


def test_worst_case_loss_gap_is_delta_times_per_switch():
    n = 12
    net = build_network(Design.TRIANGULAR, n)
    plan = route_triangular(n, worst_case_pair_list(n))
    losses = estimate_loss(traversal_depths(net, plan.states), 0.25, 1.0)
    _, _, delta = depth_formulas(Design.TRIANGULAR, n)
    assert max(losses) - min(losses) == pytest.approx(delta * 0.25)


def test_worst_case_transposition_count_reaches_bound():
    # all-Cross worst-case routing introduces exactly N(N-2)/4 inversions
    for design in Design:
        for n in (6, 8, 10):
            net = build_network(design, n)
            plan = route(design, n, worst_case_pair_list(n))
            assert set(plan.states.values()) == {State.CROSS}
            assert inversions(propagate(net, plan.states)) == n * (n - 2) // 4
