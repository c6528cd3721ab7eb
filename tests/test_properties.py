"""Property-based checks: demands are accepted exactly when they are perfect
matchings, every router agrees with the simulator on drawn demands up to
N = 256, and plans survive the JSON wire format."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairswitch import (
    Design,
    InvalidDemand,
    PairList,
    build_network,
    check_pairing,
    plan_from_json,
    plan_to_json,
    route,
    simulate,
)

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
