import hashlib
import importlib.util
import json
import random
from collections.abc import Mapping
from pathlib import Path

import pytest

from pairswitch import (
    MAX_PORTS,
    BoundExceeded,
    Design,
    InvalidDemand,
    InvalidInput,
    InvalidPorts,
    PairList,
    RoutingPlan,
    State,
    brute_force_route,
    build_network,
    check_pairing,
    enumerate_pair_lists,
    plan_from_json,
    plan_to_json,
    propagate,
    random_pair_list,
    route,
    route_brickwork,
    route_chevron,
    route_triangular,
    verify_design,
    verify_minimality,
    worst_case_pair_list,
)
from dataclasses import replace

from pairswitch import routing
from pairswitch.routing import (
    _CORES, OpCounter, StateVector, _chevron_windows, _joined_ids, states_from_json,
)
from pairswitch.verification import _mate_tables


def pl(text, ports=None):
    return PairList.from_text(text, ports)


# ---------------------------------------------------------------------------
# PairList
# ---------------------------------------------------------------------------

def test_pairlist_canonical_text_round_trip():
    demand = pl("5-6, 1-10,0-11, 2-9,3-8,4-7")
    assert demand.to_text() == "0-11,1-10,2-9,3-8,4-7,5-6"
    assert PairList.from_text(demand.to_text()) == demand


@pytest.mark.parametrize(
    "text,ports",
    [
        ("0-1,1-2", 4),        # duplicate index
        ("0-1", 4),            # missing indices
        ("0-1,2-5", 4),        # out of range
        ("0-0,1-2", 4),        # self pair
        ("0-0,1-1", 2),        # self pairs covering every index
        ("0-1,2:3", 4),        # bad token
        ("", None),            # empty
        ("\u0660-\u0663,\u0661-\u0662", None),  # Arabic-Indic digits
        ("0-\uff13,1-2", 4),   # a fullwidth digit
    ],
)
def test_pairlist_rejects_malformed(text, ports):
    with pytest.raises(InvalidDemand):
        PairList.from_text(text, ports)


def test_pairlist_rejects_negative_index():
    # in a table indexed by input, -2 would stand for input 2
    with pytest.raises(InvalidDemand):
        PairList.from_pairs([(-2, 0), (1, 3)], 4)


@pytest.mark.parametrize(
    "pairs",
    [
        [(0.0, 1), (2, 3)],    # float index
        [("0", 1), (2, 3)],    # string index
        [(0, 1, 2)],           # triple
        [5],                   # bare int
        [(0, 0), ("2", 3)],    # reaches the message path, which sorts the pairs
        [(0, 0), (1, 2, 3)],
        [(True, 0), (2, 3)],   # a bool would be kept, and written as "True"
        [(0, 3), (True, 2)],
        [(0, 1), (2, False)],  # False stands for 0, already paired
        5,                     # no iterable at all
    ],
)
def test_pairlist_rejects_entries_that_are_not_index_pairs(pairs):
    with pytest.raises(InvalidDemand):
        PairList.from_pairs(pairs, 4)


def test_pairlist_rejects_a_bool_in_any_place():
    # a bool can only stand for input 0 or 1: try each occurrence of either
    for demand in enumerate_pair_lists(6):
        for k, side in [(k, side) for k in range(3) for side in range(2)]:
            pairs = [list(pair) for pair in demand.pairs]
            if pairs[k][side] < 2:
                pairs[k][side] = bool(pairs[k][side])
                with pytest.raises(InvalidDemand):
                    PairList.from_pairs(map(tuple, pairs), 6)


@pytest.mark.parametrize("ports", ["4", 4.0, None, [4], True])
def test_pairlist_rejects_ports_that_are_no_integer(ports):
    with pytest.raises(InvalidDemand):
        PairList(ports=ports, pairs=((0, 1), (2, 3)))


def test_pairlist_checks_the_port_budget_before_allocating():
    # a partner table for 10**9 inputs would take 8 GB
    with pytest.raises(BoundExceeded):
        PairList.from_pairs([(0, 1)], 10**9)
    with pytest.raises(BoundExceeded):
        PairList.from_pairs([(0, 1)], MAX_PORTS + 2)
    with pytest.raises(InvalidDemand):  # odd ports stay a malformed demand
        PairList.from_pairs([(0, 1)], 10**9 + 1)


@pytest.mark.parametrize("ports", ["4", 4.0, None, True, 0, 3, -2, 10**9 + 1])
def test_demand_port_errors_keep_their_type_and_text(ports):
    # the demand reuses topology's port check, re-raised as a demand error
    with pytest.raises(InvalidDemand) as exc:
        PairList(ports=ports, pairs=((0, 1), (2, 3)))
    assert type(exc.value) is InvalidDemand
    assert str(exc.value) == f"ports must be an even integer >= 2, got {ports!r}"


def test_router_rejects_ports_mismatch():
    with pytest.raises(InvalidDemand):
        route_triangular(6, pl("0-1,2-3"))


# ---------------------------------------------------------------------------
# Triangular
# ---------------------------------------------------------------------------

def test_triangular_4_adjacent_pairs_all_bar():
    plan = route_triangular(4, pl("0-1,2-3"))
    assert set(plan.states.values()) == {State.BAR}
    assert plan.permuted == (0, 1, 2, 3)


def test_triangular_4_crossed_pairs_all_cross():
    plan = route_triangular(4, pl("0-3,1-2"))
    assert set(plan.states.values()) == {State.CROSS}
    assert plan.permuted == (1, 2, 0, 3)
    assert plan.bsa == {0: (1, 2), 1: (0, 3)}


def test_triangular_6_worst_case():
    plan = route_triangular(6, pl("0-5,1-4,2-3"))
    assert list(plan.states.values()).count(State.CROSS) == 6
    assert plan.permuted == (2, 3, 1, 4, 0, 5)
    net = build_network(Design.TRIANGULAR, 6)
    assert propagate(net, plan.states) == plan.permuted


# ---------------------------------------------------------------------------
# Chevron
# ---------------------------------------------------------------------------

def test_chevron_4_outer_pair_all_cross():
    plan = route_chevron(4, pl("0-3,1-2"))
    assert set(plan.states.values()) == {State.CROSS}


def test_chevron_2_base_case():
    plan = route_chevron(2, pl("0-1"))
    assert plan.states == {}
    assert plan.permuted == (0, 1)


def test_chevron_8_worst_case_all_cross():
    plan = route_chevron(8, pl("0-7,1-6,2-5,3-4"))
    assert len(plan.states) == 12
    assert set(plan.states.values()) == {State.CROSS}
    net = build_network(Design.CHEVRON, 8)
    perm = propagate(net, plan.states)
    assert perm == plan.permuted
    assert check_pairing(perm, pl("0-7,1-6,2-5,3-4")).ok


# ---------------------------------------------------------------------------
# Brickwork
# ---------------------------------------------------------------------------

def test_brickwork_4_adjacent_all_bar():
    plan = route_brickwork(4, pl("0-1,2-3"))
    assert set(plan.states.values()) == {State.BAR}
    assert plan.permuted == (0, 1, 2, 3)


def test_brickwork_6_worst_case_all_cross():
    plan = route_brickwork(6, pl("0-5,1-4,2-3"))
    assert len(plan.states) == 6
    assert set(plan.states.values()) == {State.CROSS}


def test_brickwork_12_distant_pair_example():
    # pair (2, 11): partner drops along six early switches, the bottom photon
    # takes the two latest lifts, and the stranded top-corner switch goes Bar
    demand = pl("2-11,0-1,3-4,5-6,7-8,9-10")
    net = build_network(Design.BRICKWORK, 12)
    ids = {(sp.layer, sp.line): sp.id for sp in net.switches}
    plan = route_brickwork(12, demand)
    for key in [(6, 2), (5, 3), (4, 4), (3, 5), (2, 6), (1, 7)]:
        assert plan.states[ids[key]] is State.CROSS
    for key in [(2, 10), (1, 9)]:
        assert plan.states[ids[key]] is State.CROSS
    assert plan.states[ids[(6, 0)]] is State.BAR
    assert plan.permuted == (0, 1, 3, 4, 5, 6, 7, 8, 2, 11, 9, 10)
    assert plan.permuted[8:10] == (2, 11)
    assert plan.bsa[4] == (2, 11)
    assert propagate(net, plan.states) == plan.permuted


# ---------------------------------------------------------------------------
# Shared router properties
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("design", list(Design))
def test_every_switch_assigned_exactly_once(design):
    for n in (2, 4, 6, 10):
        net = build_network(design, n)
        plan = route(design, n, worst_case_pair_list(n))
        assert set(plan.states) == {sp.id for sp in net.switches}


@pytest.mark.parametrize("design", list(Design))
def test_worst_case_all_cross_at_port_budget(design):
    n = MAX_PORTS
    demand = worst_case_pair_list(n)
    plan = route(design, n, demand)
    assert list(plan.states) == list(range(n * (n - 2) // 4))
    assert set(plan.states.values()) == {State.CROSS}
    assert check_pairing(plan.permuted, demand).ok


@pytest.mark.parametrize("design", [Design.TRIANGULAR, Design.BRICKWORK])
def test_cross_runs_leave_the_shared_ones_buffer_intact(design):
    # the worst case writes the longest Cross runs, each a slice of one buffer
    n = MAX_PORTS
    demand = worst_case_pair_list(n)
    first = route(design, n, demand)
    assert routing._ONES == b"\x01" * MAX_PORTS
    expected = bytes(first.states.bits)
    first.states.bits[:] = bytes(len(expected))  # a caller rewrites its plan
    second = route(design, n, demand)
    assert second.states.bits == expected
    assert second.states.bits is not first.states.bits
    assert routing._ONES == b"\x01" * MAX_PORTS


@pytest.mark.parametrize("design", list(Design))
def test_router_agrees_with_simulator_exhaustively(design):
    for n in (2, 4, 6, 8, 10):
        net = build_network(design, n)
        for demand in enumerate_pair_lists(n):
            plan = route(design, n, demand)
            perm = propagate(net, plan.states)
            assert perm == plan.permuted
            assert check_pairing(perm, demand).ok
            for j, pair in plan.bsa.items():
                assert tuple(sorted(pair)) in demand.pairs
                assert (perm[2 * j], perm[2 * j + 1]) == pair


@pytest.mark.parametrize("design", list(Design))
def test_router_handles_sampled_larger_sizes(design):
    import random

    from pairswitch import random_pair_list

    rng = random.Random(17)
    for n in (14, 22, 40, 64):
        net = build_network(design, n)
        for _ in range(20):
            demand = random_pair_list(n, rng)
            plan = route(design, n, demand)
            perm = propagate(net, plan.states)
            assert perm == plan.permuted
            assert check_pairing(perm, demand).ok


# ---------------------------------------------------------------------------
# Routing cores and dispatch
# ---------------------------------------------------------------------------

_PUBLIC = {
    Design.TRIANGULAR: route_triangular,
    Design.CHEVRON: route_chevron,
    Design.BRICKWORK: route_brickwork,
}


@pytest.mark.parametrize("design", list(Design))
def test_cores_return_what_the_public_routers_plan(design):
    # every demand with N <= 10, then seeded random ones up to N = 256
    rng = random.Random(f"cores:{design.value}")
    demands = [d for n in range(2, 11, 2) for d in enumerate_pair_lists(n)]
    demands += [random_pair_list(n, rng) for n in (12, 14, 16, 32, 64, 128, 256) for _ in range(4)]
    for demand in demands:
        ports, ticks, core_ticks = demand.ports, OpCounter(), OpCounter()
        plan = _PUBLIC[design](ports, demand, ticks)
        (states, permuted), = _CORES[design](ports, [demand.mate], core_ticks)
        assert type(states) is bytearray and states == plan.states.bits
        assert type(permuted) is tuple and permuted == plan.permuted
        assert core_ticks.count == ticks.count
        assert _CORES[design](ports, [demand.mate]) == [(states, permuted)]


@pytest.mark.parametrize("design", list(Design))
def test_a_core_routes_a_batch_as_its_tables_one_by_one(design):
    # every table of each N <= 10 as one batch, then seeded batches up to
    # N = 256 and, at 1024 and 2048, two seeded tables with the worst case,
    # whose runs are the longest: the plans and the tick total are the
    # per-table ones, so no state a core copies for each table leaks from
    # one table to the next
    core, rng = _CORES[design], random.Random(f"batch:{design.value}")
    batches = [list(_mate_tables(n)) for n in range(2, 11, 2)]
    batches += [[random_pair_list(n, rng).mate for _ in range(6)]
                for n in (12, 14, 16, 32, 64, 128, 256)]
    batches.append(batches[-1] + [worst_case_pair_list(256).mate] + batches[-1][:2])
    batches += [[random_pair_list(n, rng).mate for _ in range(2)] + [worst_case_pair_list(n).mate]
                for n in (1024, MAX_PORTS)]
    for mates in batches:
        ports, ticks, alone = len(mates[0]), OpCounter(), OpCounter()
        plans = core(ports, mates, ticks)
        assert plans == [plan for mate in mates for plan in core(ports, [mate], alone)]
        assert ticks.count == alone.count and (ticks.count or ports == 2)
        assert core(ports, iter(mates)) == plans
        assert core(ports, []) == [] and core(ports, [], ticks) == []
        assert ticks.count == alone.count


def test_dispatch_tables_cover_every_design():
    assert set(_CORES) == set(Design)
    demand = pl("0-3,1-5,2-4")
    for design in Design:
        assert getattr(routing, f"route_{design.value}") is _PUBLIC[design]
        plan = _PUBLIC[design](6, demand)
        assert route(design, 6, demand) == route(design.value, 6, demand) == plan


def test_route_calls_the_router_the_module_holds(monkeypatch):
    seen = []

    def recording(ports, demand, counter=None):
        seen.append(ports)
        return route_chevron(ports, demand, counter)

    monkeypatch.setattr(routing, "route_chevron", recording)
    route("chevron", 4, pl("0-3,1-2"))
    route(Design.CHEVRON, 6, pl("0-3,1-5,2-4"))
    assert seen == [4, 6]


@pytest.mark.parametrize("design", ["bogus", "Triangular", "", None, 3, ["triangular"], {}])
def test_route_rejects_an_unknown_design_as_before(design):
    with pytest.raises(ValueError) as excinfo:
        route(design, 4, pl("0-3,1-2"))
    assert type(excinfo.value) is ValueError
    assert str(excinfo.value) == f"{design!r} is not a valid Design"


# ---------------------------------------------------------------------------
# State vector
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("design", list(Design))
def test_plan_states_are_a_read_only_id_mapping(design):
    n, count = 12, 12 * 10 // 4
    plan = route(design, n, random_pair_list(n, random.Random(5)))
    states = plan.states
    assert isinstance(states, Mapping) and isinstance(states, StateVector)
    assert len(states) == count
    assert list(states) == list(range(count))
    items = list(states.items())
    assert [sid for sid, _ in items] == list(range(count))
    assert all(type(state) is State for _, state in items)
    for bad in (-1, count, "0"):
        with pytest.raises(KeyError):
            states[bad]
        assert bad not in states
    with pytest.raises(TypeError):
        states[0] = State.BAR
    # the form every router returned before: one State per id, in id order
    old = dict(enumerate([State.CROSS if b else State.BAR for b in states.bits]))
    assert dict(states) == old and states == old and old == states
    assert list(dict(states).items()) == list(old.items())
    flipped = {**states, 0: State.CROSS}
    assert len(flipped) == count and flipped[0] is State.CROSS


def test_state_vector_bytes_match_the_states():
    plan = route_triangular(6, pl("0-5,1-4,2-3"))
    assert bytes(plan.states.bits) == b"\x01" * 6
    plan = route_triangular(6, pl("0-1,2-3,4-5"))
    assert bytes(plan.states.bits) == bytes(6)


def test_brute_force_returns_the_routers_state_form():
    net = build_network(Design.TRIANGULAR, 6)
    found = brute_force_route(net, pl("0-3,1-5,2-4"))
    assert isinstance(found.states, StateVector)
    assert len(found.states) == len(net.lines)


def test_state_vector_equality_matches_the_mapping_comparison():
    vectors = [StateVector(bytearray(b)) for b in
               (b"", b"\x00", b"\x01", b"\x02", b"\x01\x00", b"\x02\x00", b"\xff\x00",
                b"\x01\x01", b"\x00\x01")]
    others = [*vectors, {}, {0: State.CROSS}, {0: State.BAR, 1: State.CROSS},
              {1: State.BAR, 0: State.CROSS}, {0: "cross"}, [], 3]
    for a in vectors:
        for b in others:
            # the Mapping mixin's answer: compare the two as id -> State dicts
            expected = Mapping.__eq__(a, b)
            expected = False if expected is NotImplemented else expected
            assert (a == b) is expected and (a != b) is not expected, (a.bits, b)
            assert (b == a) is expected


def test_state_vector_views_match_the_mapping_views():
    vector = StateVector(bytearray(b"\x00\x01\x02\xff\x00"))
    assert list(vector.values()) == [vector[i] for i in range(5)]
    assert list(vector.items()) == [(i, vector[i]) for i in range(5)]
    assert len(vector.values()) == len(vector.items()) == 5
    assert State.CROSS in vector.values() and (3, State.CROSS) in vector.items()
    assert (3, State.BAR) not in vector.items()
    assert list(StateVector(bytearray()).items()) == []


def test_plans_read_from_documents_write_back_the_same_bytes():
    text = plan_to_json(route_chevron(8, pl("0-7,1-2,3-5,4-6")))
    plan = plan_from_json(text)
    # ids "0".."S-1" in written order are read into a byte vector
    assert isinstance(plan.states, StateVector)
    assert plan_to_json(plan) == text
    # any other key order keeps the id -> State dict
    doc = json.loads(text)
    doc["states"] = dict(reversed(doc["states"].items()))
    plan = plan_from_json(json.dumps(doc))
    assert type(plan.states) is dict
    assert plan_to_json(plan) == text


@pytest.mark.parametrize("design", list(Design))
def test_state_documents_read_back_the_routed_states(design):
    rng = random.Random(31)
    for n in (2, 4, 12, 64):
        plan = route(design, n, random_pair_list(n, rng))
        text = plan_to_json(plan)
        for states in (plan_from_json(text).states, states_from_json(text),
                       states_from_json(json.dumps(json.loads(text)["states"]))):
            assert isinstance(states, StateVector)
            assert bytes(states.bits) == bytes(plan.states.bits)


@pytest.mark.parametrize("value", ["Cross", "", 1, 0, None, True, [1], {}])
def test_plan_from_json_names_a_bad_state_as_before(value):
    # a bad value in an otherwise written-form document gets the message of
    # the general reader: the State lookup's own
    doc = json.loads(plan_to_json(route_triangular(4, pl("0-3,1-2"))))
    doc["states"]["1"] = value
    with pytest.raises(ValueError) as lookup:
        State(value)
    with pytest.raises(InvalidInput) as exc:
        plan_from_json(json.dumps(doc))
    assert str(exc.value) == f"malformed plan document: {lookup.value}"
    with pytest.raises(InvalidInput) as exc:
        states_from_json(json.dumps(doc["states"]))
    assert str(exc.value) == f"malformed states document: {lookup.value}"


def test_plan_to_json_writes_sparse_dict_states_in_id_order():
    plan = RoutingPlan({3: State.CROSS, 0: State.BAR}, (0, 1, 2, 3))
    doc = json.loads(plan_to_json(plan))
    assert list(doc["states"]) == ["0", "3"]
    assert doc["states"] == {"0": "bar", "3": "cross"}


def test_plan_to_json_reads_any_nonzero_byte_as_cross():
    plan = route_triangular(6, pl("0-5,1-2,3-4"))
    bits = bytearray(b * (1 + k % 255) for k, b in enumerate(plan.states.bits))
    assert max(bits) > 1
    wide = RoutingPlan(StateVector(bits), plan.permuted)
    assert wide == plan
    assert plan_to_json(wide) == plan_to_json(plan)


@pytest.mark.parametrize("design", list(Design))
def test_plan_to_json_matches_json_dumps(design):
    # the states rows are formatted by hand; json.dumps is the reference
    rng = random.Random(23)
    for n in (2, 4, 10, 30):
        plan = route(design, n, random_pair_list(n, rng))
        doc = {
            "states": {str(i): s.value for i, s in plan.states.items()},
            "permuted": list(plan.permuted),
            "bsa": {str(j): list(pair) for j, pair in plan.bsa.items()},
        }
        assert plan_to_json(plan) == json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# Brute force reference
# ---------------------------------------------------------------------------

def test_brute_force_finds_crossed_solution():
    net = build_network(Design.TRIANGULAR, 4)
    plan = brute_force_route(net, pl("0-3,1-2"))
    assert plan is not None
    assert set(plan.states.values()) == {State.CROSS}


def test_brute_force_prefers_all_bar():
    for design in Design:
        net = build_network(design, 6)
        plan = brute_force_route(net, pl("0-1,2-3,4-5"))
        assert plan is not None
        assert set(plan.states.values()) == {State.BAR}


def test_brute_force_reports_unroutable_after_deletion():
    net = build_network(Design.TRIANGULAR, 6)
    damaged = replace(
        net,
        lines=net.lines[:2] + net.lines[3:],
        layers=net.layers[:2] + net.layers[3:],
        cols=net.cols[:2] + net.cols[3:],
    )
    assert brute_force_route(damaged, pl("0-5,1-4,2-3")) is None


def test_brute_force_budget():
    net = build_network(Design.TRIANGULAR, 12)  # 30 switches
    with pytest.raises(BoundExceeded, match=r"^30 switches exceed the 24-switch enumeration budget$"):
        brute_force_route(net, worst_case_pair_list(12))
    with pytest.raises(BoundExceeded, match=r"^29 switches exceed the brute-force budget$"):
        verify_minimality(Design.CHEVRON, 12)


def test_brute_force_matches_router_on_small_nets():
    for design in Design:
        net = build_network(design, 6)
        for demand in enumerate_pair_lists(6):
            plan = brute_force_route(net, demand)
            assert plan is not None
            assert check_pairing(propagate(net, plan.states), demand).ok


# sha256 over the state bytes and predicted permutation that brute_force_route
# returned for every N = 8 demand, in enumeration order, recorded when it
# still tried one assignment at a time
BRUTE_FORCE_DIGESTS = {
    Design.TRIANGULAR: "99b6dcc6d2d6c024c7c779acefbf860f1dc0122f88c132cda707e634dd84d151",
    Design.CHEVRON: "0cac04bfcddf8b3a878462350a78730713757618ff1a3feb3d7c9b08376efa86",
    Design.BRICKWORK: "5d01f430c28aeb7446a2c1730ede6667dd44d808c69e4df77af5c14800d73e54",
}


def test_brute_force_returns_lexicographically_first_solution():
    # counter order: switch at tuple position k is bit k, Cross when set
    net = build_network(Design.CHEVRON, 6)
    demand = pl("0-5,1-2,3-4")
    found = brute_force_route(net, demand)
    assert found is not None
    solutions = []
    for assignment in range(1 << len(net.switches)):
        states = {
            sp.id: State.CROSS if (assignment >> k) & 1 else State.BAR
            for k, sp in enumerate(net.switches)
        }
        if check_pairing(propagate(net, states), demand).ok:
            solutions.append(assignment)
    assert solutions, "demand must be routable"
    first = min(solutions)
    expect = {
        sp.id: State.CROSS if (first >> k) & 1 else State.BAR
        for k, sp in enumerate(net.switches)
    }
    assert found.states == expect
    # and every N = 8 demand on every design gives the recorded first solution
    for design, expected in BRUTE_FORCE_DIGESTS.items():
        net = build_network(design, 8)
        digest = hashlib.sha256()
        for demand in enumerate_pair_lists(8):
            plan = brute_force_route(net, demand)
            digest.update(bytes(plan.states.bits) + bytes(plan.permuted))
        assert digest.hexdigest() == expected, design


@pytest.mark.parametrize("design", list(Design))
def test_trivial_two_port_route(design):
    plan = route(design, 2, pl("0-1"))
    assert plan.states == {}
    assert plan.permuted == (0, 1)
    assert plan.bsa == {0: (0, 1)}


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------

def test_plan_json_round_trip_and_key_order():
    plan = route_triangular(6, pl("0-5,1-4,2-3"))
    text = plan_to_json(plan)
    assert text.index('"states"') < text.index('"permuted"') < text.index('"bsa"')
    again = plan_from_json(text)
    assert again.states == plan.states
    assert again.permuted == plan.permuted
    assert again.bsa == plan.bsa


@pytest.mark.parametrize("bsa", [
    {"0": [2, 1], "1": [0, 3]},  # one entry's photons swapped
    {"0": [0, 3], "1": [0, 3]},  # one analyzer's pair given twice
])
def test_plan_from_json_rejects_bsa_contradicting_permuted(bsa):
    doc = json.loads(plan_to_json(route_triangular(4, pl("0-3,1-2"))))
    assert doc["permuted"] == [1, 2, 0, 3]
    doc["bsa"] = bsa
    with pytest.raises(InvalidInput):
        plan_from_json(json.dumps(doc))


@pytest.mark.parametrize("path", [("permuted", 0), ("bsa", "0", 0)])
def test_plan_from_json_rejects_overflowing_number(path):
    # JSON reads 1e400 as float infinity, which int() cannot convert
    doc = json.loads(plan_to_json(route_triangular(4, pl("0-3,1-2"))))
    entry = doc
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] = "1e400"
    with pytest.raises(InvalidInput):
        plan_from_json(json.dumps(doc).replace('"1e400"', "1e400"))


@pytest.mark.parametrize("path,value", [
    (("permuted", 0), 1.0),
    (("permuted", 0), True),
    (("bsa", "0", 0), 1.0),
])
def test_plan_from_json_rejects_non_integer_number(path, value):
    doc = json.loads(plan_to_json(route_triangular(4, pl("0-3,1-2"))))
    entry = doc
    for key in path[:-1]:
        entry = entry[key]
    assert entry[path[-1]] == value  # the same number, only not a JSON integer
    entry[path[-1]] = value
    with pytest.raises(InvalidInput):
        plan_from_json(json.dumps(doc))


@pytest.mark.parametrize("section", ["bsa", "states"])
@pytest.mark.parametrize("key", [" 0", "+0", "00"])
def test_plan_from_json_rejects_id_key_not_in_written_form(section, key):
    doc = json.loads(plan_to_json(route_triangular(4, pl("0-3,1-2"))))
    doc[section][key] = doc[section].pop("0")
    with pytest.raises(InvalidInput):
        plan_from_json(json.dumps(doc))


# sha256 over plan_to_json of every demand with N <= 10, 1000 seeded random
# demands at N = 64 and the worst case at N = 256, in that order.
GOLDEN_PLAN_SHA256 = {
    Design.TRIANGULAR: "f8916aaef4c8a73253aa330b07180e58942585c34541056f04c44b38398465bc",
    Design.CHEVRON: "0c8342fda47cd5d9f32d983329f6cfb8b651937515a1aa125a989277c8c698ed",
    Design.BRICKWORK: "29d0f4e9542c4d8b0b1c983b919195b174dd2540c56c82f90c432dbea588ef08",
}


@pytest.mark.parametrize("design", list(Design))
def test_plans_match_golden_digest(design):
    rng = random.Random(64)
    demands = [
        *(d for n in range(2, 11, 2) for d in enumerate_pair_lists(n)),
        *(random_pair_list(64, rng) for _ in range(1000)),
        worst_case_pair_list(256),
    ]
    digest = hashlib.sha256()
    for demand in demands:
        digest.update(plan_to_json(route(design, demand.ports, demand)).encode())
    assert digest.hexdigest() == GOLDEN_PLAN_SHA256[design]


# sha256 over brickwork's plan_to_json of every demand with N = 12, the worst
# case at N = 1024 and two seeded random demands at N = 1024, in that order;
# recorded with the router that walked every earlier frame level per commit.
GOLDEN_BRICKWORK_LARGE_SHA256 = (
    "fd10db0f117a9c68cf6ca1d91c91efc351ed65f9ee1eace8d07b2eb8aa42d0d4"
)


def test_brickwork_plans_match_large_golden_digest():
    rng = random.Random(1024)
    demands = [
        *enumerate_pair_lists(12),
        worst_case_pair_list(1024),
        random_pair_list(1024, rng),
        random_pair_list(1024, rng),
    ]
    digest = hashlib.sha256()
    for demand in demands:
        plan = route(Design.BRICKWORK, demand.ports, demand)
        digest.update(plan_to_json(plan).encode())
    assert digest.hexdigest() == GOLDEN_BRICKWORK_LARGE_SHA256


# sha256 over brickwork's plan_to_json of five seeded random demands and the
# worst case at every even N from 14 to 130, in that order; recorded with the
# router that rebuilt frame lines by slice copies.  These sizes fill the gap
# between the other digests, and half of them have odd N/2.
GOLDEN_BRICKWORK_MID_SHA256 = (
    "f43af6aa762e3455de33e3e45d4c7c765c7db4d8ca572b89bb6335ac444ebb77"
)


def _mid_digest(design):
    digest = hashlib.sha256()
    for n in range(14, 131, 2):
        rng = random.Random(n)
        demands = [*(random_pair_list(n, rng) for _ in range(5)), worst_case_pair_list(n)]
        for demand in demands:
            digest.update(plan_to_json(route(design, n, demand)).encode())
    return digest.hexdigest()


def test_brickwork_plans_match_mid_golden_digest():
    assert _mid_digest(Design.BRICKWORK) == GOLDEN_BRICKWORK_MID_SHA256


# sha256 over brickwork's plan_to_json, at every even N from 14 to 130, of the
# demands (k, k + N/2), (2k + 1, (2k + 2) mod N) and three window-shuffled
# ones, in that order; recorded with the router that merged a mask of live
# cells into each Cross run.  A window-shuffled demand pairs the k-th line
# with the (N-1-k)-th of an order shuffled within blocks of eight lines:
# close to the worst case, so its runs are long and over a third of them
# pass diagonals already removed.
GOLDEN_BRICKWORK_STRUCTURED_SHA256 = (
    "ab6b3bd059fe027f7f48bcbf4dc795cb32430a675144eeae8f352901cef19630"
)


def _window_shuffled(n, rng):
    order = list(range(n))
    for w in range(0, n, 8):
        block = order[w : w + 8]
        rng.shuffle(block)
        order[w : w + 8] = block
    return PairList.from_pairs([(order[k], order[n - 1 - k]) for k in range(n // 2)], n)


def test_brickwork_plans_match_structured_golden_digest():
    digest = hashlib.sha256()
    for n in range(14, 131, 2):
        rng = random.Random(n)
        demands = [
            PairList.from_pairs([(k, k + n // 2) for k in range(n // 2)], n),
            PairList.from_pairs([(2 * k + 1, (2 * k + 2) % n) for k in range(n // 2)], n),
            *(_window_shuffled(n, rng) for _ in range(3)),
        ]
        for demand in demands:
            digest.update(plan_to_json(route(Design.BRICKWORK, n, demand)).encode())
    assert digest.hexdigest() == GOLDEN_BRICKWORK_STRUCTURED_SHA256


# sha256 over the brickwork routing core's outcome, at every even N from 2 to
# 40, on 40 seeded tables of entries drawn from 0..N-1, so on any rank
# sequence: the state bytes and permuted lines where it returns, the
# IndexError where a rank past the frame pops no photon, and the ticks
# counted either way.  Recorded with the router that checked both end cells
# of every Cross run against the grid; odd N, where that check could fire,
# never reaches the core (test_every_way_into_a_routing_core_rejects_odd_n).
GOLDEN_BRICKWORK_ANY_RANKS_SHA256 = (
    "94387a34e54210a7b1082d324749d901022b7db2266e332d250bfc430a99e92e"
)


def test_brickwork_core_matches_its_golden_on_any_rank_sequence():
    digest = hashlib.sha256()
    raised = 0
    for ports in range(2, 42, 2):
        for seed in range(40):
            rng = random.Random(seed)
            mate = [rng.randrange(ports) for _ in range(ports)]
            counter = OpCounter()
            try:
                (states, permuted), = _CORES[Design.BRICKWORK](ports, [mate], counter)
                outcome = (bytes(states), permuted)
            except IndexError as exc:
                outcome = repr(exc)
                raised += 1
            digest.update(repr((ports, seed, outcome, counter.count)).encode())
    assert raised == 670
    assert digest.hexdigest() == GOLDEN_BRICKWORK_ANY_RANKS_SHA256


def test_every_way_into_a_routing_core_rejects_odd_n(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a routing core was reached")

    for design, core in list(_CORES.items()):
        monkeypatch.setitem(_CORES, design, refuse)
        monkeypatch.setattr(routing, core.__name__, refuse)
    demand = PairList.from_pairs([(0, 1), (2, 3)], 4)
    for ports in (3, 5, 7, 41):
        for design in Design:
            with pytest.raises(InvalidPorts):
                route(design, ports, demand)
            with pytest.raises(InvalidPorts):
                getattr(routing, f"route_{design.value}")(ports, demand)
            for mode in ("exhaustive", "random"):
                with pytest.raises(InvalidPorts):
                    verify_design(design, ports, mode)
        with pytest.raises(InvalidDemand):
            PairList.from_pairs([(0, 1), (2, 3)], ports)
        with pytest.raises(InvalidDemand):
            random_pair_list(ports, random.Random(0))
        with pytest.raises(InvalidPorts):
            enumerate_pair_lists(ports)


def _load_brickwork_frames():
    """tools/brickwork_frames.py, the frame model and its certificate."""
    path = Path(__file__).resolve().parents[1] / "tools" / "brickwork_frames.py"
    spec = importlib.util.spec_from_file_location("brickwork_frames", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


brickwork_frames = _load_brickwork_frames()


def test_brickwork_frames_certify_every_run_end_to_n_256():
    # base case, (a) and (b) of the induction for every even n <= 256: every
    # Cross run the brickwork core writes at N <= 256 ends on a switch
    brickwork_frames.certify(256)


def _cells(first, last):
    """The cells of a run from ``first`` to ``last``: one column a step."""
    (c, j), (c_end, j_end) = first, last
    down = 1 if j_end >= j else -1
    return [(c + t, j + down * t) for t in range(c_end - c + 1)]


def test_the_brickwork_core_writes_the_frame_models_runs():
    # one iteration isolated: every other pairs the frame's two bottom
    # photons (rank n - 2), writes nothing and leaves the core's lists as
    # they were; one such pair first puts the iteration at odd depth, where
    # frame cell (c, j) is network cell (c + 1, j)
    for n in range(4, 66, 2):
        for k in (0, 1):
            ports = n + 2 * k
            net = build_network(Design.BRICKWORK, ports)
            ids = {cell: sid for sid, cell in enumerate(zip(net.cols, net.lines))}
            for i in range(n - 1):
                photons, mate = list(range(ports)), [0] * ports
                pairs = [(photons.pop(), photons.pop())] if k else []
                pairs.append((photons.pop(), photons.pop(i)))
                while photons:
                    pairs.append((photons.pop(), photons.pop()))
                for a, b in pairs:
                    mate[a], mate[b] = b, a
                (states, _), = _CORES[Design.BRICKWORK](ports, [mate])
                runs = brickwork_frames.step(n, i)[0]
                want = {ids[c + k, j] for first, last in runs for c, j in _cells(first, last)}
                assert {sid for sid, b in enumerate(states) if b} == want, (n, k, i)


# sha256 over chevron's plan_to_json of five seeded random demands and the
# worst case at every even N from 14 to 130, in that order; recorded with the
# router that rebuilt its inner arrangement by list concatenation.  The other
# chevron digests pin no N above 10 with odd N/2, and the router branches on
# layer parity.
GOLDEN_CHEVRON_MID_SHA256 = (
    "e922816c582b778122f03fdaa86b66dfa9ddd4b907121a7e6228eaad464c1864"
)


def test_chevron_plans_match_mid_golden_digest():
    assert _mid_digest(Design.CHEVRON) == GOLDEN_CHEVRON_MID_SHA256


# sha256 over triangular's plan_to_json of five seeded random demands and the
# worst case at every even N from 14 to 130, in that order; recorded with the
# router that found each partner by a linear list.index scan.  The other
# triangular digests pin no N between 10 and 64, nor above 64 apart from
# 256, 1024 and 2048.
GOLDEN_TRIANGULAR_MID_SHA256 = (
    "2020bbfcb9f14a06949597633e1b346f1dedce37746b9a5e2d581fddb6b6e646"
)


# sha256 over chevron's plan_to_json of every demand with N = 12, then at
# N = 1024 and at N = 2048 the worst case and two seeded random demands, in
# that order; recorded with the router that worked out each window's
# constants once per partner table.
GOLDEN_CHEVRON_LARGE_SHA256 = (
    "b134102c29b354c1a342568956464eeeb27bb2771a1979c4e57cae5baeea3a2a"
)


def test_chevron_plans_match_large_golden_digest():
    rng = random.Random(1024)
    demands = [*enumerate_pair_lists(12)]
    for n in (1024, 2048):
        demands += [worst_case_pair_list(n), random_pair_list(n, rng), random_pair_list(n, rng)]
    digest = hashlib.sha256()
    for demand in demands:
        digest.update(plan_to_json(route(Design.CHEVRON, demand.ports, demand)).encode())
    assert digest.hexdigest() == GOLDEN_CHEVRON_LARGE_SHA256


def test_chevron_windows_match_the_per_window_formulas():
    for ports in range(2, MAX_PORTS + 1, 2):
        outer, inner = map(list, _chevron_windows(ports))
        assert outer == [(top, ports - 1 - top) for top in range(ports // 2 - 1)]
        expected = []
        for left in reversed(range(ports // 2 - 1)):
            half = (ports - 2 * left) // 2
            layer = half - 1
            mid = -half if layer % 2 else half - 1
            expected.append((left, ports - 1 - left, layer, mid, layer * (layer - 1)))
        assert inner == expected


def test_triangular_plans_match_mid_golden_digest():
    assert _mid_digest(Design.TRIANGULAR) == GOLDEN_TRIANGULAR_MID_SHA256


# sha256 over plan_to_json of the worst case at N = 2048 and two seeded random
# demands at N = 1024, in that order; triangular and chevron recorded with the
# routers that keyed (layer, line) decisions by switch id through the cell
# generators, brickwork with the router that wrote one id per Cross switch.
GOLDEN_LARGE_SHA256 = {
    Design.TRIANGULAR: "12f180a9468cfce8f93b62a486d0837dd1e7152fc80a9296a43d0d3636df11dd",
    Design.CHEVRON: "b042939b286ca75deb46021cf345e709eeea00dd3f3f21161646bb2b18220803",
    Design.BRICKWORK: "25c5e212966a1d69e1d16db3950b707f0ac75a4b44b012e239b770c38e4687b8",
}


@pytest.mark.parametrize("design", list(GOLDEN_LARGE_SHA256))
def test_plans_match_large_golden_digest(design):
    rng = random.Random(1024)
    demands = [
        worst_case_pair_list(2048),
        random_pair_list(1024, rng),
        random_pair_list(1024, rng),
    ]
    digest = hashlib.sha256()
    for demand in demands:
        digest.update(plan_to_json(route(design, demand.ports, demand)).encode())
    assert digest.hexdigest() == GOLDEN_LARGE_SHA256[design]


def test_joined_ids_equals_the_joined_decimal_ids():
    for count in (0, 1, 2, 999, 1000, 1001, 1999, 2000, 2001, 54321):
        assert _joined_ids(count) == ",".join(map(str, range(count)))


@pytest.mark.parametrize("keys, message", [
    (["0", "01"], "id key '01' is not plain decimal"),
    (["0", "1,2"], "invalid literal for int() with base 10: '1,2'"),
    (["0,1", "2"], "invalid literal for int() with base 10: '0,1'"),
])
def test_states_keys_off_the_written_form_get_the_general_message(keys, message):
    doc = dict(zip(keys, ["bar", "cross"]))
    with pytest.raises(InvalidInput) as exc:
        states_from_json(json.dumps(doc))
    assert str(exc.value) == f"malformed states document: {message}"


@pytest.mark.parametrize("keys", [["1", "0"], ["0", "2"], ["1"]])
def test_reordered_or_missing_states_keys_read_as_a_dict(keys):
    states = states_from_json(json.dumps(dict.fromkeys(keys, "cross")))
    assert type(states) is dict and states == {int(k): State.CROSS for k in keys}


def test_plan_document_at_the_port_budget_reads_back_byte_identical():
    text = plan_to_json(route_triangular(MAX_PORTS, worst_case_pair_list(MAX_PORTS)))
    plan = plan_from_json(text)
    assert isinstance(plan.states, StateVector)
    assert plan_to_json(plan) == text
