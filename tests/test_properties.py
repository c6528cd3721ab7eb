"""Property-based checks: demands are accepted exactly when they are perfect
matchings, every router agrees with the simulator on drawn demands up to
N = 256, plans survive the JSON wire format, and the bit-sliced lane check
agrees with the per-plan simulator."""
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairswitch import (
    Design,
    InvalidDemand,
    PairList,
    RoutingPlan,
    build_network,
    check_pairing,
    plan_from_json,
    plan_to_json,
    random_pair_list,
    route,
    simulate,
    worst_case_pair_list,
)
from pairswitch.routing import StateVector
from pairswitch.simulation import _check_plans

SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)


@st.composite
def demands(draw):
    ports = 2 * draw(st.integers(1, 128))
    order = draw(st.permutations(range(ports)))
    return PairList.from_pairs(zip(order[::2], order[1::2]), ports)


@st.composite
def raw_demands(draw):
    """A port count (often even, sometimes odd or 0) and a perfect matching
    of its inputs after at most one edit: set an index to any of -2..N+1,
    split a pair (a, b) into self pairs (a, a) and (b, b), drop a pair or
    add one."""
    ports = 2 * draw(st.integers(1, 5)) - draw(st.sampled_from((0, 0, 1, 2)))
    order = draw(st.permutations(range(ports)))
    pairs = list(zip(order[::2], order[1::2]))
    index = st.integers(-2, ports + 1)
    edit = draw(st.sampled_from((None, "set", "split", "drop", "add")))
    if edit == "add":
        pairs.append((draw(index), draw(index)))
    elif edit and pairs:
        k = draw(st.integers(0, len(pairs) - 1))
        a, b = pairs[k]
        if edit == "set":
            pairs[k] = (draw(index), b)
        elif edit == "split":
            pairs[k : k + 1] = [(a, a), (b, b)]
        else:
            del pairs[k]
    return ports, pairs


@SETTINGS
@given(case=raw_demands())
def test_demand_accepted_exactly_when_perfect_matching(case):
    ports, pairs = case
    flat = sorted(x for pair in pairs for x in pair)
    if (ports >= 2 and ports % 2 == 0 and flat == list(range(ports))
            and all(a != b for a, b in pairs)):
        demand = PairList.from_pairs(pairs, ports)
        assert list(demand.pairs) == sorted(demand.pairs)
        assert set(demand.pairs) == {(min(a, b), max(a, b)) for a, b in pairs}
        for a, b in demand.pairs:
            assert a < b and demand.mate[a] == b and demand.mate[b] == a
    else:
        with pytest.raises(InvalidDemand):
            PairList.from_pairs(pairs, ports)


@SETTINGS
@given(design=st.sampled_from(Design), demand=demands())
def test_router_agrees_with_simulator(design, demand):
    plan = route(design, demand.ports, demand)
    perm, _ = simulate(build_network(design, demand.ports), plan.states)
    assert perm == plan.permuted
    assert check_pairing(perm, demand).ok


@SETTINGS
@given(design=st.sampled_from(Design), demand=demands())
def test_plan_json_round_trip(design, demand):
    plan = route(design, demand.ports, demand)
    assert plan_from_json(plan_to_json(plan)) == plan


def _raw(demands, plans):
    """The partner tables and (state bytes, permuted) pairs that the lane
    check reads, as the routing cores hand them over."""
    return [d.mate for d in demands], [(p.states.bits, p.permuted) for p in plans]


def _per_plan(net, demands, plans):
    """The lanes that fail one plan at a time, and the depth extrema of the rest."""
    flagged, high, low = 0, 0, -1
    for k, (demand, plan) in enumerate(zip(demands, plans)):
        perm, depths = simulate(net, plan.states)
        if perm != plan.permuted or not check_pairing(perm, demand).ok:
            flagged |= 1 << k
        else:
            high = max(high, max(depths))
            low = min(depths) if low < 0 else min(low, min(depths))
    return flagged, high, low


@SETTINGS
@given(
    design=st.sampled_from(Design),
    ports=st.integers(1, 32).map(lambda k: 2 * k),
    lanes=st.integers(1, 40),
    seed=st.integers(0, 2**32),
    edits=st.lists(st.tuples(st.integers(0, 10**6),
                             st.sampled_from(("flip", "pair", "2", "255", "swap"))), max_size=6),
)
@example(design=Design.TRIANGULAR, ports=258, lanes=3, seed=5,
         edits=[(1, "flip"), (2, "255"), (7, "swap")])
@example(design=Design.CHEVRON, ports=258, lanes=2, seed=6, edits=[(1, "2"), (4, "pair")])
def test_lane_check_flags_what_the_per_plan_check_fails(design, ports, lanes, seed, edits):
    # edits on lane k % lanes: "flip" one state bit, flip one and predict
    # what the simulator then gives ("pair": only the pairing can fail),
    # rewrite a state byte as 2 or 255 (both read as Cross), or "swap" two
    # predicted entries
    rng = random.Random(seed)
    net = build_network(design, ports)
    demands = [random_pair_list(ports, rng) for _ in range(lanes)]
    plans = [route(design, ports, d) for d in demands]
    bits = [bytearray(p.states.bits) for p in plans]
    permuted = [list(p.permuted) for p in plans]
    for k, how in edits:
        lane, count = k % lanes, len(bits[0])
        if how == "swap":
            i, j = rng.sample(range(ports), 2)
            permuted[lane][i], permuted[lane][j] = permuted[lane][j], permuted[lane][i]
        elif count and how in ("flip", "pair"):
            bits[lane][k % count] ^= 1
            if how == "pair":
                permuted[lane] = list(simulate(net, StateVector(bits[lane]))[0])
        elif count:
            i = k % count
            bits[lane][i] = int(how) if bits[lane][i] else 0
    plans = [RoutingPlan(StateVector(b), tuple(p)) for b, p in zip(bits, permuted)]
    assert _check_plans(net, *_raw(demands, plans)) == _per_plan(net, demands, plans)


@pytest.mark.parametrize("design", list(Design))
def test_lane_check_flags_each_flipped_switch(design):
    # every switch of a worst-case plan flipped in a lane of its own, once
    # with the old prediction and once predicting what the simulator gives
    for ports in (4, 8, 12):
        net = build_network(design, ports)
        demand = worst_case_pair_list(ports)
        plan = route(design, ports, demand)
        plans = [plan]
        for k in range(len(net.lines)):
            bits = bytearray(plan.states.bits)
            bits[k] ^= 1
            flipped = StateVector(bits)
            plans += [RoutingPlan(flipped, plan.permuted),
                      RoutingPlan(flipped, simulate(net, flipped)[0])]
        demands = [demand] * len(plans)
        found = _check_plans(net, *_raw(demands, plans))
        assert found == _per_plan(net, demands, plans)
        assert found[0] == (1 << len(plans)) - 2  # a single Bar breaks the worst case


def test_lane_check_declines_plans_it_cannot_read():
    net = build_network(Design.BRICKWORK, 8)
    demand = random_pair_list(8, random.Random(3))
    plan = route(Design.BRICKWORK, 8, demand)
    assert _check_plans(net, *_raw([demand], [plan])) == _per_plan(net, [demand], [plan])
    bits, permuted = plan.states.bits, plan.permuted
    for odd in ((dict(plan.states), permuted),
                (bits[:-1], permuted),
                (bits, list(permuted)),
                (bits, permuted[:-1]),
                (bits, (8,) + permuted[1:]),
                (bits, (-1,) + permuted[1:]),
                (bits, (0.0,) + permuted[1:])):
        assert _check_plans(net, [demand.mate] * 2, [(bits, permuted), odd]) is None
