import copy
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairswitch import (
    Design,
    IncompleteStates,
    InvalidInput,
    MAX_PORTS,
    Network,
    PairList,
    State,
    build_network,
    check_pairing,
    depth_formulas,
    enumerate_pair_lists,
    estimate_loss,
    network_from_json,
    network_to_json,
    propagate,
    random_pair_list,
    reverse_network,
    route,
    route_triangular,
    simulate,
    traversal_depths,
    worst_case_pair_list,
)
from pairswitch import simulation, verification
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


def test_incomplete_states_message_for_a_dict_of_the_right_size_with_a_wrong_id():
    net = build_network(Design.TRIANGULAR, 4)  # switches 0 and 1
    with pytest.raises(IncompleteStates, match=r"\(missing \[1\], extra \[5\]\)$"):
        simulate(net, {0: State.BAR, 5: State.CROSS})


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


# ---------------------------------------------------------------------------
# The single pass and verify's frame walk against the reference
# ---------------------------------------------------------------------------

def reference_simulate(net, states):
    """The single-pass simulator: every switch in id order adds 1 to both
    of its photons' depths, and a Cross switch exchanges them."""
    lines = list(range(net.ports))
    depths = [0] * net.ports
    for k, i in enumerate(net.lines):
        depths[lines[i]] += 1
        depths[lines[i + 1]] += 1
        if states[k] is State.CROSS:
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
    return tuple(lines), tuple(depths)


def assert_matches_reference(net, bits, simulator=None):
    """simulate on the state bytes and on their dict agrees with the
    reference, and so does ``simulator``, a verify call's simulator for
    ``net``, when one is given."""
    vector = StateVector(bytearray(bits))
    want = reference_simulate(net, vector)
    assert simulate(net, vector) == want
    assert simulate(net, dict(vector)) == want
    if simulator is not None:
        assert simulator(vector) == want
        assert simulator(dict(vector)) == want


@pytest.mark.parametrize("design", list(Design))
def test_simulate_matches_the_reference_on_every_demand_up_to_10(design):
    for n in (2, 4, 6, 8, 10):
        net = build_network(design, n)
        simulator = simulation._PlanSimulator(net)
        for demand in enumerate_pair_lists(n):
            plan = route(design, n, demand)
            want = reference_simulate(net, plan.states)
            assert simulate(net, plan.states) == want
            assert simulator(plan.states) == want
        assert simulator.frame is not None  # the worst case is all Cross


@pytest.mark.parametrize("design", list(Design))
def test_simulate_matches_the_reference_on_seeded_plans_up_to_256(design):
    rng = random.Random(2024)
    for n in (12, 16, 30, 64, 128, 256):
        net = build_network(design, n)
        simulator = simulation._PlanSimulator(net)
        demands = [random_pair_list(n, rng) for _ in range(3)] + [worst_case_pair_list(n)]
        for demand in demands:
            plan = route(design, n, demand)
            want = reference_simulate(net, plan.states)
            assert simulate(net, plan.states) == want
            assert simulator(plan.states) == want
        assert simulator.frame is not None


@pytest.mark.parametrize("design", list(Design))
def test_simulate_matches_the_reference_on_uniform_and_any_byte_states(design):
    rng = random.Random(7)
    for n in (2, 4, 10, 32):
        net = build_network(design, n)
        simulator = simulation._PlanSimulator(net)
        count = len(net.lines)
        assert_matches_reference(net, bytes(count), simulator)  # all Bar
        assert_matches_reference(net, b"\x01" * count, simulator)  # all Cross
        assert_matches_reference(net, b"\xff" * count, simulator)
        for cross_share in (0.05, 0.3, 0.5, 0.8, 0.97):  # both paths, any nonzero byte
            bits = [rng.randrange(1, 256) if rng.random() < cross_share else 0
                    for _ in range(count)]
            assert_matches_reference(net, bits, simulator)


def test_simulate_matches_the_reference_on_reversed_damaged_and_read_networks():
    rng = random.Random(11)
    for design in Design:
        net = build_network(design, 10)
        cut = [a[:3] + a[4:] for a in (net.lines, net.layers, net.cols)]  # as verify_minimality
        variants = [reverse_network(net), Network(design, 10, *cut),
                    network_from_json(network_to_json(net))]
        for variant in variants:
            for cross_share in (0.1, 0.5, 0.9):
                bits = [rng.random() < cross_share for _ in range(len(variant.lines))]
                assert_matches_reference(variant, bits)


@st.composite
def networks_and_states(draw):
    """Any planar network (lines drawn from 0..N-2, in any order and number)
    and a few state byte strings for it."""
    ports = 2 * draw(st.integers(1, 9))
    lines = draw(st.lists(st.integers(0, ports - 2), max_size=60)) if ports > 2 else []
    count = len(lines)
    net = Network(Design.TRIANGULAR, ports, array("i", lines), array("i", [1]) * count,
                  array("i", range(count)))
    states = draw(st.lists(st.binary(min_size=count, max_size=count), min_size=1, max_size=4))
    return net, states


@settings(derandomize=True, deadline=None, max_examples=150)
@given(networks_and_states())
def test_simulate_matches_the_reference_on_any_network(case):
    net, states = case
    for bits in states:
        assert_matches_reference(net, bits)


@st.composite
def built_networks_and_states(draw):
    """A built network and a few state byte strings for it, each with its
    own share of Bar bytes, so that plans fall on both sides of the rule."""
    net = build_network(draw(st.sampled_from(list(Design))), 2 * draw(st.integers(1, 20)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    states = []
    for share in draw(st.lists(st.sampled_from((0, 0.1, 0.25, 0.3, 0.6, 1)), min_size=1,
                               max_size=4)):
        states.append(bytes(0 if rng.random() < share else rng.randrange(1, 256)
                            for _ in net.lines))
    return net, states


@settings(derandomize=True, deadline=None, max_examples=150)
@given(built_networks_and_states())
def test_simulate_and_the_verify_simulator_match_the_reference_on_built_networks(case):
    net, states = case
    simulator = simulation._PlanSimulator(net)  # later plans reuse its frame
    for bits in states:
        assert_matches_reference(net, bits, simulator)


def test_simulate_keeps_nothing_on_the_network():
    # a table kept on the object would be read from the old lines below
    net = build_network(Design.CHEVRON, 16)
    plan = route(Design.CHEVRON, 16, worst_case_pair_list(16))  # every switch Cross
    before = copy.deepcopy(vars(net))
    first = simulate(net, plan.states)
    assert vars(net) == before
    net.lines[0], net.lines[1] = net.lines[1], net.lines[0]  # lines 6-7 and 7-8: order matters
    fresh = Network(net.design, net.ports, net.lines, net.layers, net.cols)
    assert simulate(net, plan.states) == simulate(fresh, plan.states) != first
    assert vars(net) == {**before, "lines": net.lines}


def test_each_frame_is_built_at_most_once_per_network(monkeypatch):
    # simulate builds none; a verify simulator builds its network's frame on
    # the first plan at most a quarter Bar and reuses it for every later plan
    built = []
    build = simulation._build_frame

    def counted(net):
        built.append(id(net))
        return build(net)

    monkeypatch.setattr(simulation, "_build_frame", counted)
    rng = random.Random(3)
    nets = [build_network(design, 24) for design in Design]
    simulators = [simulation._PlanSimulator(net) for net in nets]
    for net, simulator in zip(nets * 2, simulators * 2):
        count = len(net.lines)
        for cross_share in (0.0, 0.1, 0.4, 0.6, 0.9, 1.0):
            bits = bytes(rng.random() < cross_share for _ in range(count))
            before = len(built)
            assert_matches_reference(net, bits)
            assert len(built) == before
            assert_matches_reference(net, bits, simulator)
    assert sorted(built) == sorted(id(net) for net in nets)


def test_the_verify_simulator_walks_the_frame_only_at_most_a_quarter_bar():
    net = build_network(Design.CHEVRON, 16)
    count = len(net.lines)
    quarter = count // 4
    assert quarter * 4 == count  # so the rule's edge is at exactly a quarter
    for bars, walks in ((0, True), (quarter, True), (quarter + 1, False),
                        (count - quarter, False), (count, False)):
        simulator = simulation._PlanSimulator(net)
        bits = bytearray(b"\x01" * count)
        bits[:bars] = bytes(bars)
        assert_matches_reference(net, bits, simulator)
        assert (simulator.frame is not None) is walks


@pytest.mark.parametrize("design", list(Design))
def test_the_all_cross_frame_fits_two_bytes_at_the_port_budget(design):
    # a label's count is a photon's depth, at most N - 2; a value past a
    # 2-byte int would raise OverflowError while the table is filled
    upper, lower, step, tail, order = simulation._build_frame(build_network(design, MAX_PORTS))
    assert {a.typecode for a in (upper, lower, step)} == {"h"}
    assert max(tail) <= MAX_PORTS - 2
    assert sorted(order) == list(range(MAX_PORTS))


def test_the_lane_check_declines_a_two_byte_id_out_of_range():
    # past N = 256 ids take two bytes; photon N is out of range in either
    net = build_network(Design.TRIANGULAR, 258)
    demand = random_pair_list(258, random.Random(53))
    plan = route(Design.TRIANGULAR, 258, demand)
    found = simulation._check_plans(net, [demand.mate], [(plan.states.bits, plan.permuted)])
    assert found is not None and found[0] == 0
    for bad in ((258,) + plan.permuted[1:], plan.permuted[:-1] + (258,)):
        assert simulation._check_plans(net, [demand.mate], [(plan.states.bits, bad)]) is None


def test_random_verify_runs_the_lane_kernel_past_n_256(monkeypatch):
    # a 4-MiB chunk holds 218 plans of triangular N = 278 (19,182 switches),
    # enough for 24 lanes per id bit (216); at N = 280 it holds 215
    found = []

    def recording(*args):
        found.append(simulation._check_plans(*args))
        return found[-1]

    monkeypatch.setattr(verification, "_check_plans", recording)
    report = verification.verify_design("triangular", 278, "random", samples=216)
    assert report.passed and report.demands_checked == 216
    assert len(found) == 1 and found[0][0] == 0
