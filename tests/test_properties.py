"""Property-based checks: every router agrees with the simulator on drawn
demands up to N = 256, and plans survive the JSON wire format."""
from hypothesis import given, settings
from hypothesis import strategies as st

from pairswitch import (
    Design,
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
