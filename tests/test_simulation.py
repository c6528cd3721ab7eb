import copy
import random
from array import array
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairswitch import (
    MAX_PORTS,
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
from pairswitch.topology import _triangular_layers


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
    assert estimate_loss((2,), 10**400, 0) == (2 * 10**400,)  # too large for a float
    with pytest.raises(InvalidInput):
        estimate_loss((1,), -0.1, 0.0)
    with pytest.raises(InvalidInput):
        estimate_loss((1,), 0.1, -1.0)


@pytest.mark.parametrize("depths, per_switch_db, insertion_db", [
    ((1,), float("nan"), 0.0),
    ((1,), 0.1, float("nan")),
    ((1,), float("inf"), 0.0),
    ((1,), 0.1, float("-inf")),
    ((1,), True, 0.0),
    ((1,), 0.1, False),
    ((1,), "0.1", 0.0),
    ((1,), 0.1, None),
    ((1,), 1j, 0.0),
    (("a",), 0.1, 0.0),
    ((True,), 0.1, 0.0),
    ((1.0,), 0.1, 0.0),
    ((0, -1), 0.1, 0.0),
    (5, 0.1, 0.0),
])
def test_loss_model_rejects_parameters_and_depths_of_the_wrong_type(
        depths, per_switch_db, insertion_db):
    with pytest.raises(InvalidInput):
        estimate_loss(depths, per_switch_db, insertion_db)


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
# The single pass and verify's byte lanes against the reference
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


def assert_matches_reference(net, bits):
    """simulate on the state bytes and on their dict agrees with the reference."""
    vector = StateVector(bytearray(bits))
    want = reference_simulate(net, vector)
    assert simulate(net, vector) == want
    assert simulate(net, dict(vector)) == want


def _built_columns(net):
    """The columns verify hands the byte lanes for ``net``, which
    build_network built: brickwork's or triangular's, or None."""
    return simulation._columns(net.design, net.ports)


def assert_lanes_match_reference(net, chunk, wants=None, columns=None):
    """verify's byte lanes on ``chunk``, state byte strings for ``net``, one
    plan each, given ``columns``, agree with the reference (or with
    ``wants``, its results worked out beforehand).  Each plan predicts the reference permutation,
    and its partner table pairs that permutation's output slots, so no lane
    fails and the depth extrema are the reference's.  With each lane given
    the next one's partner table, exactly the lanes whose outputs that table
    does not pair fail.  With two slots of the first prediction swapped,
    that lane alone fails."""
    if wants is None:
        wants = [reference_simulate(net, StateVector(bytearray(bits))) for bits in chunk]
    mates = []
    for perm, _ in wants:
        mate = [0] * net.ports
        for a, b in zip(perm[::2], perm[1::2]):
            mate[a], mate[b] = b, a
        mates.append(tuple(mate))
    plans = [(bytearray(bits), perm) for bits, (perm, _) in zip(chunk, wants)]
    depths = [[d for _, ds in wants[first:] for d in ds] for first in (0, 1)]
    assert simulation._check_bytes(columns or net, mates, plans) == (
        0, max(depths[0]), min(depths[0]))
    moved = mates[1:] + mates[:1]
    unpaired = [any(mate[a] != b for a, b in zip(perm[::2], perm[1::2]))
                for mate, (perm, _) in zip(moved, wants)]
    kept = [d for fails, (_, ds) in zip(unpaired, wants) if not fails for d in ds]
    assert simulation._check_bytes(columns or net, moved, plans) == (
        sum(fails << k for k, fails in enumerate(unpaired)),
        *((max(kept), min(kept)) if kept else (0, -1)))
    perm = wants[0][0]
    plans[0] = (plans[0][0], (perm[1], perm[0]) + perm[2:])
    rest = (max(depths[1]), min(depths[1])) if depths[1] else (0, -1)
    assert simulation._check_bytes(columns or net, mates, plans) == (1, *rest)


@pytest.mark.parametrize("design", list(Design))
def test_simulate_matches_the_reference_on_every_demand_up_to_10(design):
    for n in (2, 4, 6, 8, 10):
        net = build_network(design, n)
        chunk = []
        for demand in enumerate_pair_lists(n):
            plan = route(design, n, demand)
            assert simulate(net, plan.states) == reference_simulate(net, plan.states)
            chunk.append(plan.states.bits)
        assert_lanes_match_reference(net, chunk, columns=_built_columns(net))


@pytest.mark.parametrize("design", list(Design))
def test_simulate_matches_the_reference_on_seeded_plans_up_to_256(design):
    rng = random.Random(2024)
    for n in (12, 16, 30, 64, 128, 256):
        net = build_network(design, n)
        demands = [random_pair_list(n, rng) for _ in range(3)] + [worst_case_pair_list(n)]
        chunk = []
        for demand in demands:
            plan = route(design, n, demand)
            assert simulate(net, plan.states) == reference_simulate(net, plan.states)
            chunk.append(plan.states.bits)
        assert_lanes_match_reference(net, chunk, columns=_built_columns(net))


@pytest.mark.parametrize("design", list(Design))
def test_simulate_matches_the_reference_on_uniform_and_any_byte_states(design):
    rng = random.Random(7)
    for n in (2, 4, 10, 32):
        net = build_network(design, n)
        count = len(net.lines)
        chunk = [bytes(count), b"\x01" * count, b"\xff" * count]  # all Bar, all Cross
        for cross_share in (0.05, 0.3, 0.5, 0.8, 0.97):  # any nonzero byte
            chunk.append(bytes(rng.randrange(1, 256) if rng.random() < cross_share else 0
                               for _ in range(count)))
        for bits in chunk:
            assert_matches_reference(net, bits)
        assert_lanes_match_reference(net, chunk, columns=_built_columns(net))


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
    own share of Bar bytes."""
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
    for bits in states:
        assert_matches_reference(net, bits)
    assert_lanes_match_reference(net, states, columns=_built_columns(net))  # as one chunk


def _any_byte_states(rng, net, lanes):
    """``lanes`` state byte strings for ``net``, each with its own share of
    Bar bytes; any other byte, 1 to 255, reads as Cross."""
    return [bytes(rng.randrange(1, 256) if rng.random() < share else 0 for _ in net.lines)
            for share in (rng.random() for _ in range(lanes))]


def _refuse(*args, **kwargs):
    raise AssertionError("the byte lanes took the other path")


def _columns_at_every_even_n_to_64(design, rng):
    # 3, 5, 8, 9 and 17 lanes: blocks below, at and past an 8-byte word
    for n in range(2, 66, 2):
        net, columns = build_network(design, n), simulation._columns(design, n)
        assert_lanes_match_reference(net, _any_byte_states(rng, net, (3, 5, 8, 9, 17)[n % 5]),
                                     columns=columns)
        assert_lanes_match_reference(network_from_json(network_to_json(net)),
                                     _any_byte_states(rng, net, 3), columns=columns)
    report = verification.verify_design(design, 16, "random", samples=5)
    assert report.passed and report.demands_checked == 5


def _columns_past_n_256(design, rng):
    # two-byte fields from N = 258 on; routed plans and any-byte states
    for n, lanes in ((256, 9), (258, 5), (1024, 3)):
        net = build_network(design, n)
        chunk = [route(design, n, random_pair_list(n, rng)).states.bits,
                 *_any_byte_states(rng, net, lanes - 1)]
        assert_lanes_match_reference(net, chunk, [simulate(net, StateVector(bytearray(bits)))
                                                  for bits in chunk], simulation._columns(design, n))


def test_brickwork_byte_lanes_step_a_column_at_a_time_at_every_even_n_to_64(monkeypatch):
    monkeypatch.setattr(simulation, "_switch_lanes", _refuse)
    _columns_at_every_even_n_to_64(Design.BRICKWORK, random.Random(26))


def test_brickwork_byte_lanes_step_a_column_at_a_time_past_n_256(monkeypatch):
    monkeypatch.setattr(simulation, "_switch_lanes", _refuse)
    _columns_past_n_256(Design.BRICKWORK, random.Random(258))


def test_triangular_byte_lanes_step_a_column_at_a_time_at_every_even_n_to_64(monkeypatch):
    monkeypatch.setattr(simulation, "_switch_lanes", _refuse)
    _columns_at_every_even_n_to_64(Design.TRIANGULAR, random.Random(30))


def test_triangular_byte_lanes_step_a_column_at_a_time_past_n_256(monkeypatch):
    monkeypatch.setattr(simulation, "_switch_lanes", _refuse)
    _columns_past_n_256(Design.TRIANGULAR, random.Random(1030))


@pytest.mark.parametrize("n", [*range(2, 66, 2), 256, 258, 1024])
def test_triangular_columns_order_each_switch_once(n):
    # a plan's state bytes in column order: every switch once, column s at
    # its first record, in line order; switch k of the t-th layer traversed
    # runs in column 2t + k, on line k
    columns = simulation._columns(Design.TRIANGULAR, n)
    placed = []
    for t, (_, first, size) in enumerate(_triangular_layers(n)):
        placed += [(2 * t + k, k) for k in range(size)]
    # the ids as state "bytes" a plan would have, padded as the lanes pad them
    ids = list(range(columns.count)) + [None] * n
    rows, gathers = columns.order
    rowed = [i for row in rows for i in ids[row]]
    ordered = [i for column in gathers for i in rowed[column]]
    assert sorted(ordered) == list(range(columns.count))
    assert list(columns.parities) == [s % 2 for s in range(n - 2)]
    assert list(columns.sizes) == [s // 2 + 1 for s in range(n - 2)]
    for s, (first, size) in enumerate(zip(accumulate(columns.sizes, initial=0), columns.sizes)):
        assert [placed[i] for i in ordered[first : first + size]] == \
            [(s, line) for line in range(s % 2, s + 1, 2)]


def test_reversed_and_edited_brickwork_step_a_switch_at_a_time(monkeypatch):
    # the column path is for networks laid out as build_network lays out
    # brickwork: a reversed network, one line edited and a switch cut (as
    # verify_minimality cuts one) step a switch at a time, without columns
    monkeypatch.setattr(simulation, "_column_lanes", _refuse)
    rng = random.Random(5)
    for n in (4, 8, 16, 30):
        net = build_network(Design.BRICKWORK, n)
        lines = array("i", net.lines)
        k = len(lines) // 2
        lines[k] += 1 if lines[k] < n - 2 else -1
        cut = [a[:k] + a[k + 1 :] for a in (net.lines, net.layers, net.cols)]
        for variant in (reverse_network(net), Network(net.design, n, lines, net.layers, net.cols),
                        Network(net.design, n, *cut)):
            assert_lanes_match_reference(variant, _any_byte_states(rng, variant, (3, 5, 9)[k % 3]))


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


@pytest.mark.parametrize("design", list(Design))
def test_no_switch_chain_is_longer_than_n_minus_2(design):
    # both lane checks size a depth field for N - 2: a photon's path is a
    # chain of switches, each sharing a line with the one before
    for n in [*range(2, 66, 2), 256, 258, 1024]:
        longest = [0] * n
        for i in build_network(design, n).lines:
            longest[i] = longest[i + 1] = max(longest[i], longest[i + 1]) + 1
        assert max(longest) <= n - 2


def test_the_byte_lanes_match_the_reference_at_every_cross_share():
    # the shares that once picked between two simulators, twice on each
    # network; the lane check keeps nothing on the network either
    rng = random.Random(3)
    for design in Design:
        net = build_network(design, 24)
        before = copy.deepcopy(vars(net))
        for _ in range(2):
            chunk = [bytes(rng.random() < share for _ in net.lines)
                     for share in (0.0, 0.1, 0.4, 0.6, 0.9, 1.0)]
            for bits in chunk:
                assert_matches_reference(net, bits)
            assert_lanes_match_reference(net, chunk, columns=_built_columns(net))
        assert vars(net) == before


def test_the_verify_simulator_walks_the_frame_only_at_most_a_quarter_bar():
    # the Bar counts on both sides of the quarter-Bar edge that once chose
    # between walking an all-Cross frame and simulating: there is no frame
    # now, and the byte lanes read them all in one chunk like the reference
    assert not hasattr(simulation, "_build_frame")
    net = build_network(Design.CHEVRON, 16)
    count = len(net.lines)
    quarter = count // 4
    assert quarter * 4 == count  # so the old rule's edge is at exactly a quarter
    chunk = []
    for bars in (0, quarter, quarter + 1, count - quarter, count):
        bits = bytearray(b"\x01" * count)
        bits[:bars] = bytes(bars)
        assert_matches_reference(net, bits)
        chunk.append(bytes(bits))
    assert_lanes_match_reference(net, chunk, columns=_built_columns(net))


@pytest.mark.parametrize("design", list(Design))
def test_the_all_cross_frame_fits_two_bytes_at_the_port_budget(design):
    # the all-Cross worst case and a random plan as one byte-lane chunk at
    # MAX_PORTS: two-byte fields hold every id and every depth, up to N - 2
    net = build_network(design, MAX_PORTS)
    demands = [worst_case_pair_list(MAX_PORTS), random_pair_list(MAX_PORTS, random.Random(41))]
    plans = [route(design, MAX_PORTS, d) for d in demands]
    assert plans[0].states.bits == b"\x01" * len(net.lines)
    depths = []
    for plan in plans:
        perm, plan_depths = simulate(net, plan.states)
        assert perm == plan.permuted
        depths += plan_depths
    found = simulation._check_bytes(_built_columns(net) or net, [d.mate for d in demands],
                                    [(p.states.bits, p.permuted) for p in plans])
    assert found == (0, max(depths), min(depths))
    assert max(depths) <= MAX_PORTS - 2
    assert (max(depths) == MAX_PORTS - 2) is (design is Design.TRIANGULAR)
    if design is not Design.CHEVRON:  # a column at a time: flagged lanes too
        assert_lanes_match_reference(net, [p.states.bits for p in plans],
                                     [simulate(net, p.states) for p in plans], _built_columns(net))


@pytest.mark.parametrize("design", list(Design))
def test_the_byte_lanes_flag_every_lane_or_keep_one_with_two_byte_fields(design):
    # N = 258: ids and depths take two bytes.  Lanes 0 and 2 fail on a
    # predicted permutation with its first two photons swapped, lanes 1 and
    # 3 on another lane's partner table
    n = 258
    net = build_network(design, n)
    demands = [random_pair_list(n, random.Random(seed)) for seed in range(4)]
    plans = [route(design, n, d) for d in demands]
    good = [(p.states.bits, p.permuted) for p in plans]
    mates = [d.mate for d in demands]
    bad_plans = [(bits, (perm[1], perm[0]) + perm[2:]) for bits, perm in good]
    bad_mates = mates[1:] + mates[:1]
    bad = [(bad_mates[k], good[k]) if k % 2 else (mates[k], bad_plans[k]) for k in range(4)]
    columns = _built_columns(net)
    assert simulation._check_bytes(columns or net, *zip(*bad)) == (0b1111, 0, -1)
    for k in range(4):
        chunk = bad[:k] + [(mates[k], good[k])] + bad[k + 1:]
        depths = simulate(net, plans[k].states)[1]
        assert simulation._check_bytes(columns or net, *zip(*chunk)) == (
            0b1111 ^ 1 << k, max(depths), min(depths))


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
