import hashlib
import json
from array import array
from collections import Counter
from enum import IntEnum
from operator import sub
from dataclasses import replace

import pytest

from pairswitch import (
    MAX_PORTS,
    BoundExceeded,
    Design,
    InvalidInput,
    InvalidPorts,
    Network,
    State,
    build_network,
    depth_formulas,
    depth_stats,
    network_from_json,
    network_to_json,
    PairList,
    brute_force_route,
    optimal_switch_count,
    plan_to_json,
    propagate,
    render_ascii,
    render_svg,
    reverse_network,
    route_triangular,
    simulate,
    traversal_depths,
    validate_network,
    verify_design,
    verify_minimality,
)
from pairswitch.topology import _brickwork_columns, _chevron_layers, _ramp, _triangular_layers

ALL_N = list(range(4, 65, 2))
_EMPTY = (array("i"), array("i"), array("i"))  # lines, layers, cols


@pytest.mark.parametrize("design", list(Design))
def test_switch_count_matches_bound(design):
    for n in ALL_N:
        net = build_network(design, n)
        assert len(net.switches) == optimal_switch_count(n) == n * (n - 2) // 4
    assert build_network(design, 2).switches == ()


def test_optimal_switch_count_takes_only_an_int():
    # every int keeps its value, negative and odd ones and an int subclass
    # too; anything else, a bool included, is refused with a typed error
    # naming it
    class Ports(IntEnum):
        EIGHT = 8

    for n in [*range(-5, 70), 2048, 10**30, -(10**30), Ports.EIGHT]:
        assert optimal_switch_count(n) == n * (n - 2) // 4
    assert build_network(Design.TRIANGULAR, Ports.EIGHT) == build_network(Design.TRIANGULAR, 8)
    for bad in ["x", None, 4.0, True, False, [4], "4" * 100]:
        with pytest.raises(InvalidInput) as excinfo:
            optimal_switch_count(bad)
        assert type(excinfo.value) is InvalidInput
        assert str(excinfo.value) == f"ports must be an integer, got {bad!r:.60}"


def test_plan_to_json_refuses_a_plan_that_is_no_routing_plan():
    plan = route_triangular(4, PairList.from_text("0-3,1-2"))
    for bad in [None, "plan", {"states": {}, "permuted": []}, (plan.states, plan.permuted)]:
        with pytest.raises(InvalidInput) as excinfo:
            plan_to_json(bad)
        assert type(excinfo.value) is InvalidInput
        assert str(excinfo.value) == f"plan {bad!r:.60} is not a RoutingPlan"
    assert json.loads(plan_to_json(plan))["permuted"] == list(plan.permuted)


_NET_READERS = {  # each public function that takes a network, on its other arguments
    "simulate": lambda net: simulate(net, {}),
    "propagate": lambda net: propagate(net, {}),
    "traversal_depths": lambda net: traversal_depths(net, {}),
    "network_to_json": network_to_json,
    "reverse_network": reverse_network,
    "render_ascii": render_ascii,
    "render_svg": render_svg,
    "brute_force_route": lambda net: brute_force_route(net, PairList.from_text("0-1")),
}


@pytest.mark.parametrize("name", list(_NET_READERS))
def test_a_net_that_is_no_network_is_refused_by_name(name):
    for bad in [None, "triangular", Design.TRIANGULAR, build_network(Design.TRIANGULAR, 4).lines,
                [(0, 1)] * 30]:
        with pytest.raises(InvalidInput) as excinfo:
            _NET_READERS[name](bad)
        assert type(excinfo.value) is InvalidInput
        assert str(excinfo.value) == f"net {bad!r:.60} is not a Network"


def test_optimal_switch_count_values():
    assert optimal_switch_count(4) == 2
    assert optimal_switch_count(12) == 30
    assert optimal_switch_count(2) == 0
    # closed form agrees with the layer sum
    for n in range(2, 33, 2):
        assert optimal_switch_count(n) == sum(n - 2 * k for k in range(1, n // 2))


def test_triangular_4_layout():
    net = build_network(Design.TRIANGULAR, 4)
    assert [(sp.layer, sp.line) for sp in net.switches] == [(1, 0), (1, 1)]


def test_triangular_12_layers():
    net = build_network(Design.TRIANGULAR, 12)
    assert len(net.switches) == 30
    layers = [sp.layer for sp in net.switches]
    # largest layer first (input side), layer 1 last
    assert layers == sorted(layers, reverse=True)
    for k in range(1, 6):
        members = [sp for sp in net.switches if sp.layer == k]
        assert len(members) == 2 * k
        assert [sp.line for sp in members] == list(range(2 * k))


@pytest.mark.parametrize("n", ALL_N)
def test_chevron_layer_sizes(n):
    net = build_network(Design.CHEVRON, n)
    for k in range(1, n // 2):
        assert sum(1 for sp in net.switches if sp.layer == k) == 2 * k


@pytest.mark.parametrize("n", ALL_N)
def test_brickwork_layer_sizes(n):
    net = build_network(Design.BRICKWORK, n)
    half = n // 2
    for k in range(1, half + 1):
        count = sum(1 for sp in net.switches if sp.layer == k)
        if k == half:
            assert count == n // 4
        elif k % 2:
            assert count == half - 1
        else:
            assert count == half


def test_brickwork_12_traversal_column_sizes():
    net = build_network(Design.BRICKWORK, 12)
    sizes = []
    for col in range(max(sp.col for sp in net.switches) + 1):
        sizes.append(sum(1 for sp in net.switches if sp.col == col))
    assert sizes == [3, 5, 6, 5, 6, 5]
    assert len(net.switches) == 30


def _rising_runs(lines):
    """(first id, first line, size) of each maximal run of consecutive ids
    whose lines rise by 2."""
    rising = bytes(map((2).__eq__, map(sub, lines[1:], lines[:-1])))
    runs, first = [], 0
    while first < len(lines):
        stop = rising.find(0, first) + 1 or len(lines)  # -1 + 1: no break up to the end
        runs.append((first, lines[first], stop - first))
        first = stop
    return runs


def test_brickwork_is_n_over_2_rising_runs_the_byte_lanes_read():
    # the byte lanes step a brickwork network a column at a time: each
    # column is a run of consecutive ids on lines parity, parity + 2, ...,
    # as topology._brickwork_columns lists them
    for n in [*range(2, 258, 2), MAX_PORTS]:
        net = build_network(Design.BRICKWORK, n)
        columns = list(_brickwork_columns(n))
        assert len(columns) == n // 2
        assert [(first, parity, size) for _, parity, first, size in columns if size] == \
            _rising_runs(net.lines)
        assert [layer for layer, *_ in columns] == list(range(n // 2, 0, -1))


def test_triangular_columns_are_the_asap_levels_of_the_built_network():
    # the byte lanes step a triangular network a column at a time: switch k
    # of the t-th layer traversed, as topology._triangular_layers lists them,
    # runs in column 2t + k
    for n in [*range(2, 258, 2), 258, 1024]:
        lines = build_network(Design.TRIANGULAR, n).lines
        columns = array("i", bytes(4 * len(lines)))
        for t, (_, first, size) in enumerate(_triangular_layers(n)):
            columns[first : first + size] = array("i", range(2 * t, 2 * t + size))
        held = {}  # column -> its switches' lines
        ready, last = [0] * n, [-1] * n  # per line: its ASAP level, its last column
        for i, column in zip(lines, columns):
            held.setdefault(column, set()).add(i)
            # along each line the columns rise in id order: stepping them is traversal order
            assert column > last[i] and column > last[i + 1]
            last[i] = last[i + 1] = column
            level = max(ready[i], ready[i + 1])
            ready[i] = ready[i + 1] = level + 1
            assert column == level
        # a column's switches sit on distinct lines of its parity: disjoint pairs
        assert all({i % 2 for i in held[c]} == {c % 2} for c in held)
        assert sum(map(len, held.values())) == len(lines)
        assert sorted(held) == list(range(max(0, n - 2)))


def _chevron_schedule(n):
    """The column of each chevron switch in id order, as the layer table
    places it: arm switch j of layer l in column l - 1 + j, an odd layer's
    tip in column 2l - 1."""
    columns = array("i")
    for layer, _, upper, lower, tip in zip(*_chevron_layers(n)):
        columns += array("i", range(layer - 1, layer - 1 + upper))
        columns += array("i", range(layer - 1, layer - 1 + lower))
        columns += array("i", [2 * layer - 1] * tip)
    return columns


def test_chevron_columns_are_a_parallel_schedule_of_the_built_network():
    # the byte lanes step a chevron network a column at a time; this is not
    # the ASAP schedule, whose levels mix parities (at N = 16 level 3 holds
    # lines 3, 5, 9 and 12), so its three properties are checked instead
    for n in [*range(2, 302, 2), 1024, 2048]:
        lines = build_network(Design.CHEVRON, n).lines
        columns = _chevron_schedule(n)
        assert len(columns) == len(lines)
        last = [-1] * n  # per line: its last column
        for i, column in zip(lines, columns):
            # along each line the columns rise in id order: stepping them is traversal order
            assert column > last[i] and column > last[i + 1]
            last[i] = last[i + 1] = column
        # each column holds lines of parity (N/2 + column) % 2: disjoint pairs
        assert all((i - n // 2 - column) % 2 == 0 for i, column in zip(lines, columns))
        sizes = Counter(columns)
        assert len(sizes) == (n - 2 if n % 4 == 0 else max(0, n - 3)) == max(columns, default=-1) + 1
        assert max(sizes.values(), default=0) <= n // 2


def test_chevron_2_is_empty():
    assert build_network(Design.CHEVRON, 2).switches == ()


@pytest.mark.parametrize("design", list(Design))
def test_planarity_and_id_density(design):
    for n in (2, 6, 12, 26, 64):
        net = build_network(design, n)
        assert [sp.id for sp in net.switches] == list(range(len(net.switches)))
        for sp in net.switches:
            assert 0 <= sp.line <= n - 2
        assert len({(sp.layer, sp.line) for sp in net.switches}) == len(net.switches)


@pytest.mark.parametrize("bad", [3, 0, -4, 7])
def test_invalid_ports_rejected(bad):
    with pytest.raises(InvalidPorts):
        build_network(Design.TRIANGULAR, bad)


def test_port_budget():
    from pairswitch import PairList, count_table, enumerate_pair_lists, route

    assert MAX_PORTS == 2048
    with pytest.raises(BoundExceeded):
        build_network("triangular", 2050)
    with pytest.raises(BoundExceeded):
        route("brickwork", 2050, PairList.from_pairs((k, k + 1) for k in range(0, 2050, 2)))
    with pytest.raises(BoundExceeded):
        next(enumerate_pair_lists(2050))
    with pytest.raises(BoundExceeded):
        count_table([2050])
    assert not validate_network(Network(Design.TRIANGULAR, 2050, *_EMPTY)).ok


LAYOUT_N = list(range(2, 65, 2))


@pytest.mark.parametrize("size", [0, 1, 4095, 4096, 4097])
def test_ramp_is_the_index_range(size):
    # either side of one packed block of 4096 ids
    assert _ramp(size) == array("i", range(size))


def test_triangular_first_id_matches_build_network():
    # layers L..1 come last and hold L(L+1) switches, each layer's lines at
    # consecutive ids, so switch (L, line) has id S - L(L+1) + line
    for n in LAYOUT_N:
        count = optimal_switch_count(n)
        for sp in build_network(Design.TRIANGULAR, n).switches:
            assert count - sp.layer * (sp.layer + 1) + sp.line == sp.id


def _brickwork_id(ports, col, line):
    """The brickwork switch id that the router computes inline, or None
    where the cell holds no switch.  Past column 0 it is affine along
    diagonal d = line - col: N//4 - N/2 + (d + 1)//2 + (N/2)*col.  Column 0
    holds only N//4 switches, line // 2 on each of its lines."""
    half = ports // 2
    if 0 <= col < half and 0 <= line <= ports - 2 and (line + col - half) % 2 == 0:
        if col:
            return ports // 4 - half + (line - col + 1) // 2 + half * col
        if line // 2 < ports // 4:
            return line // 2
    return None


def test_brickwork_id_matches_build_network():
    for n in LAYOUT_N:
        half = n // 2
        net = build_network(Design.BRICKWORK, n)
        ids = {(col, line): i for i, (col, line) in enumerate(zip(net.cols, net.lines))}
        # every cell of the grid and a margin around it: a column holds only
        # lines of its layer's parity, column 0 only N//4 of those, and no
        # column a line outside 0..N-2
        for col in range(-2, half + 2):
            for line in range(-2, n + 1):
                assert _brickwork_id(n, col, line) == ids.get((col, line))


def test_constructors_deterministic_bytes():
    for design in Design:
        a = network_to_json(build_network(design, 14))
        b = network_to_json(build_network(design, 14))
        assert a == b


def test_triangular_4_golden_json():
    doc = json.loads(network_to_json(build_network(Design.TRIANGULAR, 4)))
    assert doc == {
        "design": "triangular",
        "ports": 4,
        "reversed": False,
        "switches": [
            {"id": 0, "layer": 1, "line": 0, "col": 0},
            {"id": 1, "layer": 1, "line": 1, "col": 1},
        ],
    }


def test_brickwork_6_golden_bytes():
    golden = (
        '{\n'
        '  "design": "brickwork",\n'
        '  "ports": 6,\n'
        '  "reversed": false,\n'
        '  "switches": [\n'
        '    {\n      "id": 0,\n      "layer": 3,\n      "line": 1,\n      "col": 0\n    },\n'
        '    {\n      "id": 1,\n      "layer": 2,\n      "line": 0,\n      "col": 1\n    },\n'
        '    {\n      "id": 2,\n      "layer": 2,\n      "line": 2,\n      "col": 1\n    },\n'
        '    {\n      "id": 3,\n      "layer": 2,\n      "line": 4,\n      "col": 1\n    },\n'
        '    {\n      "id": 4,\n      "layer": 1,\n      "line": 1,\n      "col": 2\n    },\n'
        '    {\n      "id": 5,\n      "layer": 1,\n      "line": 3,\n      "col": 2\n    }\n'
        '  ]\n'
        '}'
    )
    assert network_to_json(build_network(Design.BRICKWORK, 6)) == golden


# sha256 over network_to_json for N = 2..64 and 256, each N forward and then
# reversed; recorded from the per-switch cell generators the arrays replaced.
GOLDEN_NETWORK_SHA256 = {
    Design.TRIANGULAR: "c12478f081b120237eac744928b569014960a8b94880402d4d67d9a6e13a2185",
    Design.CHEVRON: "5da885f2145ce2dd5a3d266558e94ba71fc3b4edc40e353d9f5d4727094f1b22",
    Design.BRICKWORK: "68a5dc691360df37c1414d056d84d10ce229ee81a466511ab7c05b388e8e44f5",
}


@pytest.mark.parametrize("design", list(Design))
def test_network_json_matches_golden_digest(design):
    digest = hashlib.sha256()
    for n in [*range(2, 65, 2), 256]:
        net = build_network(design, n)
        for built in (net, reverse_network(net)):
            digest.update(network_to_json(built).encode())
    assert digest.hexdigest() == GOLDEN_NETWORK_SHA256[design]


def test_json_round_trip():
    # every built network, and its reverse, keeps its columns below S
    for design in Design:
        for n in range(2, 65, 2):
            for net in (build_network(design, n), reverse_network(build_network(design, n))):
                assert network_from_json(network_to_json(net)) == net
    with pytest.raises(InvalidInput):
        network_from_json("{\"ports\": 4}")


def test_validate_built_networks():
    for design in Design:
        for n in (2, 4, 8, 12):
            report = validate_network(build_network(design, n))
            assert report.ok, report.violations


def test_validate_flags_planarity():
    net = build_network(Design.TRIANGULAR, 8)
    lines = net.lines[:]
    lines[-1] = net.ports - 1
    bad = replace(net, lines=lines)
    report = validate_network(bad)
    assert not report.ok
    assert any(rule == "planarity" for rule, _, _ in report.violations)


def test_validate_flags_a_repeated_layer_and_line():
    net = build_network(Design.TRIANGULAR, 8)
    layers, lines = net.layers[:], net.lines[:]
    layers[1], lines[1] = layers[0], lines[0]
    report = validate_network(replace(net, layers=layers, lines=lines))
    assert not report.ok
    key = (layers[0], lines[0])
    assert ("duplicate", 1, f"second switch at layer/line {key}") in report.violations


def test_validate_flags_deleted_switch():
    net = build_network(Design.TRIANGULAR, 12)
    damaged = replace(net, lines=net.lines[:-1], layers=net.layers[:-1], cols=net.cols[:-1])
    report = validate_network(damaged)
    assert not report.ok
    assert any(rule == "count" for rule, _, _ in report.violations)


def test_reverse_is_involution():
    for design in Design:
        net = build_network(design, 10)
        assert reverse_network(reverse_network(net)) == net
        assert reverse_network(net).reversed


def test_reverse_triangular_4_order():
    rnet = reverse_network(build_network(Design.TRIANGULAR, 4))
    assert [sp.line for sp in rnet.switches] == [1, 0]
    assert validate_network(rnet).ok


def test_reverse_propagation_spot_check():
    # reversed traversal inverts the permutation (exhaustive version in acceptance)
    net = build_network(Design.CHEVRON, 6)
    rnet = reverse_network(net)
    size = len(net.switches)
    states = {i: State.CROSS if i % 3 else State.BAR for i in range(size)}
    rstates = {size - 1 - i: states[i] for i in range(size)}
    fwd = propagate(net, states)
    rev = propagate(rnet, rstates)
    for line, photon in enumerate(fwd):
        assert rev[photon] == line


def test_hand_built_network_is_rejected_by_structure_rule():
    lines, layers, cols = array("i", [1, 0]), array("i", [1, 1]), array("i", [0, 1])
    net = Network(Design.TRIANGULAR, 4, lines, layers, cols)
    report = validate_network(net)
    assert not report.ok
    assert any(rule == "layer-structure" for rule, _, _ in report.violations)


def test_validate_accepts_layout_given_as_lists():
    net = Network(Design.TRIANGULAR, 4, [0, 1], [1, 1], [0, 1])
    assert validate_network(net).ok


def test_validate_rejects_odd_ports():
    report = validate_network(Network(Design.TRIANGULAR, 5, *_EMPTY))
    assert not report.ok
    assert report.violations[0][0] == "ports"


@pytest.mark.parametrize("net", [None, {"ports": 4}, "network", array("i", [0, 1])])
def test_validate_reports_what_is_no_network_and_never_raises(net):
    report = validate_network(net)
    assert not report.ok
    assert report.violations == (("network", None, f"{net!r:.60} is not a Network"),)


@pytest.mark.parametrize("values", [None, "0101", [1.5], [True, False], 7])
@pytest.mark.parametrize("name", ["lines", "layers", "cols"])
def test_validate_reports_an_array_of_no_ints_and_never_raises(name, values):
    # an array that is no sequence, or holds a str, float or bool, is one
    # violation naming it, where iterating or comparing it would raise
    net = replace(build_network("triangular", 4), **{name: values})
    report = validate_network(net)
    assert not report.ok
    assert report.violations == ((name, None, f"{name} {values!r:.60} are not a sequence of ints"),)


@pytest.mark.parametrize("design", ["bogus", None, 3, ["triangular"]])
@pytest.mark.parametrize("call", [
    lambda design: build_network(design, 4),
    lambda design: verify_design(design, 4),
    lambda design: verify_minimality(design, 4),
    lambda design: depth_formulas(design, 4),
    lambda design: depth_stats(design, 4),
], ids=["build_network", "verify_design", "verify_minimality", "depth_formulas", "depth_stats"])
def test_an_unknown_design_raises_a_typed_error(call, design):
    # the enum's message, as an InvalidInput, which is a ValueError too
    with pytest.raises(InvalidInput) as excinfo:
        call(design)
    assert str(excinfo.value) == f"{design!r} is not a valid Design"
    assert isinstance(excinfo.value, ValueError)


def test_reversed_network_distributes_adjacent_pairs():
    # source-pool mode: the inverse configuration takes the pairs that the
    # forward plan gathered onto adjacent lines and fans them back out
    from pairswitch import PairList, route

    for design in Design:
        n = 8
        demand = PairList.from_text("0-6,1-4,2-7,3-5")
        plan = route(design, n, demand)
        net = build_network(design, n)
        rnet = reverse_network(net)
        size = len(net.switches)
        rstates = {size - 1 - i: s for i, s in plan.states.items()}
        rperm = propagate(rnet, rstates)
        for j in range(n // 2):
            out_a = rperm.index(2 * j)
            out_b = rperm.index(2 * j + 1)
            pair = tuple(sorted((out_a, out_b)))
            assert pair in demand.pairs
