"""Property-based checks: demands are accepted exactly when they are perfect
matchings, every router agrees with the simulator on drawn demands up to
N = 256, plans survive the JSON wire format, the byte-field and byte lane
checks agree with the per-plan simulator, a reversed network inverts the
permutation of any network it mirrors, and malformed documents and pair
lists exit the command line with code 2 and no traceback."""
import io
import json
import random
from array import array
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairswitch import (
    MAX_PORTS,
    Design,
    InvalidDemand,
    InvalidInput,
    Network,
    PairList,
    RoutingPlan,
    build_network,
    check_pairing,
    network_to_json,
    plan_from_json,
    plan_to_json,
    random_pair_list,
    reverse_network,
    route,
    simulate,
    worst_case_pair_list,
)
from pairswitch import verification
from pairswitch.cli import main
from pairswitch.routing import StateVector
from pairswitch.simulation import _check_bytes, _check_joined, _check_plans, _columns

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


def _edited(design, ports, lanes, seed, edits):
    """``lanes`` routed random demands and their plans after ``edits``, each
    on lane k % lanes: "flip" one state bit, flip one and predict what the
    simulator then gives ("pair": only the pairing can fail), rewrite a state
    byte as 2 or 255 (both read as Cross), or "swap" two predicted entries."""
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
    return net, demands, [RoutingPlan(StateVector(b), tuple(p)) for b, p in zip(bits, permuted)]


_EDITS = st.lists(st.tuples(st.integers(0, 10**6),
                            st.sampled_from(("flip", "pair", "2", "255", "swap"))), max_size=6)


@SETTINGS
@given(
    design=st.sampled_from(Design),
    ports=st.integers(1, 32).map(lambda k: 2 * k),
    lanes=st.integers(1, 40),
    seed=st.integers(0, 2**32),
    edits=_EDITS,
)
@example(design=Design.TRIANGULAR, ports=258, lanes=3, seed=5,
         edits=[(1, "flip"), (2, "255"), (7, "swap")])
@example(design=Design.CHEVRON, ports=258, lanes=2, seed=6, edits=[(1, "2"), (4, "pair")])
def test_lane_check_flags_what_the_per_plan_check_fails(design, ports, lanes, seed, edits):
    net, demands, plans = _edited(design, ports, lanes, seed, edits)
    assert _check_plans(net, *_raw(demands, plans)) == _per_plan(net, demands, plans)


@SETTINGS
@given(
    design=st.sampled_from(Design),
    ports=st.integers(1, 32).map(lambda k: 2 * k),
    lanes=st.integers(1, 40),
    seed=st.integers(0, 2**32),
    edits=_EDITS,
)
@example(design=Design.BRICKWORK, ports=2, lanes=3, seed=1, edits=[(0, "swap")])  # no switches
@example(design=Design.CHEVRON, ports=12, lanes=40, seed=2,
         edits=[(0, "flip"), (41, "pair"), (5, "swap"), (6, "255")])
def test_the_joined_kernel_checks_as_the_front_door(design, ports, lanes, seed, edits):
    # an exhaustive walk hands the byte-field pass its rows joined, and the
    # pass then returns what it returns on the same plans given a row a
    # plan, some lanes flipped, paired wrongly or predicting wrongly
    net, demands, plans = _edited(design, ports, lanes, seed, edits)
    mates, rows = _raw(demands, plans)
    joined = (b"".join(map(bytes, mates)), b"".join(bits for bits, _ in rows),
              b"".join(map(bytes, (permuted for _, permuted in rows))))
    assert _check_joined(net, *joined) == _check_plans(net, mates, rows)


class _Unstepped:
    """Switch lines that count but may not be stepped through."""

    def __init__(self, count):
        self.count = count

    def __len__(self):
        return self.count

    def __iter__(self):
        raise AssertionError("a refused chunk was checked")


@pytest.mark.parametrize("ports", [8, 258])
def test_the_joined_kernel_refuses_an_id_out_of_range_or_a_wrong_length(ports):
    # rows joined from 3 plans; the kernel checks them in one pass, and a
    # chunk with an id past N - 1 or a buffer whose total length is no
    # whole number of plans, or not the same number in all three, is
    # refused (None) before a switch is stepped.  Past N = 256 an id takes
    # two little-endian bytes
    width = 1 if ports <= 256 else 2
    net = build_network(Design.TRIANGULAR, ports)
    demands = [random_pair_list(ports, random.Random(seed)) for seed in range(3)]
    plans = [route(Design.TRIANGULAR, ports, demand) for demand in demands]
    mates, rows = _raw(demands, plans)
    ids = (lambda row: bytes(row)) if width == 1 else (
        lambda row: b"".join(x.to_bytes(2, "little") for x in row))
    tables = b"".join(map(ids, mates))
    states = b"".join(bits for bits, _ in rows)
    lines = b"".join(ids(permuted) for _, permuted in rows)
    assert _check_joined(net, tables, states, lines) == _check_plans(net, mates, rows) == \
        _per_plan(net, demands, plans)
    assert _check_joined(net, b"", b"", b"") == (0, 0, -1)  # no plan: none fails, no depth
    unstepped = Network(net.design, ports, _Unstepped(len(net.lines)), net.layers, net.cols)
    past = ports.to_bytes(width, "little")  # photon N, one past the last
    top = (256 ** width - 1).to_bytes(width, "little")
    count, row = len(net.lines), width * ports
    for bad in [
        (past + tables[width:], states, lines),
        (tables[:-width] + top, states, lines),
        (tables, states, lines[:row] + past + lines[row + width :]),
        (tables, states, top + lines[width:]),
        (tables[:-1], states, lines),
        (tables + b"\x00", states, lines),
        (tables, states, lines[:-1]),
        (tables, states, lines + b"\x00"),
        (tables, states[:-1], lines),
        (tables, states + b"\x00", lines),
        (tables, states[:-count], lines),  # the states of two plans
        (tables[:-row], states, lines[:-row]),  # the tables and lines of two
        (tables + tables[:row], states, lines + lines[:row]),
    ]:
        assert _check_joined(unstepped, *bad) is None
        assert _check_joined(net, *bad) is None


def _below_lanes(ports):
    """Chunk sizes from 2 to the last one verify checks as byte lanes at
    ``ports``.  Past N = 64 the per-plan reference costs milliseconds a
    plan, so the chunks drawn there stay small."""
    top = verification._FIELD_PASS_PLANS_PER_ID_BIT * (ports - 1).bit_length() - 1
    return st.integers(2, top if ports <= 64 else 6)


@SETTINGS
@given(
    design=st.sampled_from(Design),
    chunk=st.integers(1, 150).map(lambda k: 2 * k).flatmap(
        lambda ports: st.tuples(st.just(ports), _below_lanes(ports))),
    seed=st.integers(0, 2**32),
    edits=_EDITS,
)
@example(design=Design.BRICKWORK, chunk=(2, 2), seed=1, edits=[(0, "swap")])  # no switches
@example(design=Design.TRIANGULAR, chunk=(64, 143), seed=2, edits=[(5, "flip"), (70, "pair")])
@example(design=Design.CHEVRON, chunk=(256, 4), seed=3, edits=[(1, "255"), (2, "flip")])
@example(design=Design.TRIANGULAR, chunk=(258, 3), seed=4, edits=[(1, "2"), (2, "swap")])
@example(design=Design.BRICKWORK, chunk=(300, 5), seed=5, edits=[(3, "pair"), (4, "flip")])
def test_byte_lanes_flag_what_the_per_plan_check_fails(design, chunk, seed, edits):
    ports, lanes = chunk
    net, demands, plans = _edited(design, ports, lanes, seed, edits)
    # every design steps columns, as verify steps them
    assert _check_bytes(_columns(design, ports), *_raw(demands, plans)) == \
        _per_plan(net, demands, plans)


_FORMS = st.lists(st.sampled_from((tuple, bytes)), min_size=12, max_size=12)


@SETTINGS
@given(
    design=st.sampled_from(Design),
    ports=st.sampled_from([*range(2, 50, 2), 256, 258]),
    lanes=st.integers(1, 6),
    seed=st.integers(0, 2**32),
    edits=_EDITS,
    forms=_FORMS,
)
@example(design=Design.BRICKWORK, ports=12, lanes=6, seed=1, edits=[(2, "flip"), (3, "swap")],
         forms=[bytes] * 12)
@example(design=Design.TRIANGULAR, ports=256, lanes=4, seed=2, edits=[(1, "pair")],
         forms=[tuple, bytes] * 6)
@example(design=Design.CHEVRON, ports=258, lanes=4, seed=3, edits=[(1, "255"), (2, "swap")],
         forms=[bytes, tuple] * 6)
def test_tuple_byte_and_mixed_rows_check_alike(design, ports, lanes, seed, edits, forms):
    # both lane checks read a partner table or a prediction given as bytes
    # as they read it given as a tuple: with tuple rows they agree, and with
    # rows in the drawn forms (all bytes, all tuples or mixed) they give the
    # same result.  Past N = 256 an id takes two bytes, so a row fits no
    # bytes: a prediction given as bytes (its ids mod 256) fails its lane
    # there, as the per-plan check fails it
    net, demands, plans = _edited(design, ports, lanes, seed, edits)
    mates, rows = _raw(demands, plans)
    columns = _columns(design, ports)
    want = _check_plans(net, mates, rows)
    assert _check_bytes(columns, mates, rows) == want
    tables, predictions = forms[:lanes], forms[6 : 6 + lanes]
    if ports > 256:
        rows = [(bits, bytes(x & 255 for x in permuted) if form is bytes else permuted)
                for (bits, permuted), form in zip(rows, predictions)]
        want = _per_plan(net, demands, [RoutingPlan(StateVector(b), p) for b, p in rows])
    else:
        mates = [form(mate) for mate, form in zip(mates, tables)]
        rows = [(bits, form(permuted)) for (bits, permuted), form in zip(rows, predictions)]
    assert _check_plans(net, mates, rows) == _check_bytes(columns, mates, rows) == want


def test_byte_lanes_hold_ids_and_depths_up_to_n_minus_2_at_the_port_budget():
    # two-byte fields: the worst case takes photon 0 through N - 2 switches
    rng = random.Random(41)
    net = build_network(Design.TRIANGULAR, MAX_PORTS)
    demands = [worst_case_pair_list(MAX_PORTS)]
    demands += [random_pair_list(MAX_PORTS, rng) for _ in range(3)]
    plans = [route(Design.TRIANGULAR, MAX_PORTS, d) for d in demands]
    found = _check_bytes(_columns(Design.TRIANGULAR, MAX_PORTS), *_raw(demands, plans))
    assert found == _per_plan(net, demands, plans)
    assert found[:2] == (0, MAX_PORTS - 2)


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


def test_byte_lanes_compare_both_bytes_of_an_id():
    # past N = 256 two ids can share their low byte, as 3 and 259 do; paired,
    # they land on one output pair, so swapping them in a prediction keeps
    # its pairing and differs from the simulated one in the high bytes only
    rest = [p for p in range(300) if p not in (3, 259)]
    random.Random(1).shuffle(rest)
    demands = [PairList.from_pairs([(3, 259), *zip(rest[::2], rest[1::2])], 300)]
    demands += [random_pair_list(300, random.Random(seed)) for seed in (2, 3)]
    net = build_network(Design.CHEVRON, 300)
    plans = [route(Design.CHEVRON, 300, d) for d in demands]
    permuted = list(plans[0].permuted)
    i, j = permuted.index(3), permuted.index(259)
    assert i // 2 == j // 2
    permuted[i], permuted[j] = 259, 3
    plans[0] = RoutingPlan(plans[0].states, tuple(permuted))
    # chevron's columns at N = 300 hold a plane of low and one of high bytes
    found = _check_bytes(_columns(Design.CHEVRON, 300), *_raw(demands, plans))
    assert found == _per_plan(net, demands, plans)
    assert found[0] == 0b001


@pytest.mark.parametrize("ports", [8, 258])
def test_byte_lanes_decline_what_the_lane_check_declines(ports):
    net = build_network(Design.BRICKWORK, ports)
    demand = random_pair_list(ports, random.Random(3))
    plan = route(Design.BRICKWORK, ports, demand)
    bits, permuted = plan.states.bits, plan.permuted
    columns = _columns(Design.BRICKWORK, ports)
    assert _check_bytes(columns, *_raw([demand], [plan])) == _per_plan(net, [demand], [plan])
    for odd in ((dict(plan.states), permuted),
                (bytes(bits), permuted),
                (bits[:-1], permuted),
                (bits + b"\x00", permuted),
                (bits, list(permuted)),
                (bits, permuted[:-1]),
                (bits, (ports,) + permuted[1:]),
                (bits, permuted[:-1] + (255 if ports == 8 else 65535,)),  # fits a field
                (bits, (65536,) + permuted[1:]),
                (bits, (-1,) + permuted[1:]),
                (bits, (0.0,) + permuted[1:]),
                (bits, ("0",) + permuted[1:])):
        chunk = [demand.mate] * 2, [(bits, permuted), odd]
        assert _check_bytes(columns, *chunk) is None
        assert _check_plans(net, *chunk) is None


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


# ---------------------------------------------------------------------------
# Malformed input at the command line: exit 2, one error line, no traceback
# ---------------------------------------------------------------------------

_NOT_AN_INT = st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=3),
                        st.lists(st.integers(), max_size=2))
_ENDS = {"truncate", "nest", "bytes"}  # edits of the text, not of the document


@st.composite
def built_edited_and_cut_networks(draw):
    """A built network of N <= 64 as it is built, with one switch moved one
    line or with one switch cut (as verify_minimality cuts one), and state
    bytes for it, any nonzero byte reading as Cross."""
    ports = 2 * draw(st.integers(1, 32))
    net = build_network(draw(st.sampled_from(Design)), ports)
    how = draw(st.sampled_from(("built", "edited", "cut")))
    if net.lines and how != "built":
        k = draw(st.integers(0, len(net.lines) - 1))
        if how == "edited":
            lines = array("i", net.lines)
            lines[k] += 1 if lines[k] < ports - 2 else -1
            net = Network(net.design, ports, lines, net.layers, net.cols)
        else:
            net = Network(net.design, ports, *(a[:k] + a[k + 1 :]
                                               for a in (net.lines, net.layers, net.cols)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    share = draw(st.sampled_from((0, 0.1, 0.5, 0.9, 1)))
    bits = bytes(rng.randrange(1, 256) if rng.random() < share else 0 for _ in net.lines)
    return net, bits


@SETTINGS
@given(case=built_edited_and_cut_networks())
def test_a_reversed_network_inverts_the_permutation_and_keeps_each_photons_depth(case):
    # the source-pool mode: reversed switch S-1-i takes the forward state of
    # switch i.  Each switch is an involution and reversal reverses their
    # order, so the photon entering the reversed network on line L retraces
    # the switches of the forward photon that ended on L
    net, bits = case
    perm, depths = simulate(net, StateVector(bytearray(bits)))
    back, back_depths = simulate(reverse_network(net), StateVector(bytearray(bits[::-1])))
    assert [back[photon] for photon in perm] == list(range(net.ports))  # the inverse of perm
    assert back_depths == tuple(depths[photon] for photon in perm)


def _cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _assert_rejected(*argv):
    code, out, err = _cli(*argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


def _text_edit(draw, edit, text):
    """The document ``text`` cut short, or some text that is no document."""
    if edit == "truncate":  # every document ends in a closing brace
        return text[: draw(st.integers(0, len(text) - 1))].encode()
    if edit == "nest":  # deeper than the JSON reader recurses
        return b"[" * draw(st.integers(5_000, 50_000))
    return b"\xff" + draw(st.binary(max_size=8))  # not UTF-8


@st.composite
def malformed_network_documents(draw):
    """A generated network document with one edit that makes it malformed:
    cut short, a key dropped, a value of the wrong type or out of range."""
    design = draw(st.sampled_from(Design))
    ports = draw(st.sampled_from((4, 6, 8)))
    text = network_to_json(build_network(design, ports))
    edit = draw(st.sampled_from(sorted(_ENDS) + ["drop", "type", "range"]))
    if edit in _ENDS:
        return _text_edit(draw, edit, text)
    doc = json.loads(text)
    count = len(doc["switches"])
    position = draw(st.integers(0, count - 1))
    switch = doc["switches"][position]
    key = draw(st.sampled_from(("design", "ports", "switches", "reversed",
                                "id", "layer", "line", "col")))
    if edit == "drop" and key == "reversed":  # optional; its value is checked instead
        edit = "type"
    target = switch if key in switch else doc
    if edit == "drop":
        del target[key]
    elif key == "design":
        target[key] = draw(st.one_of(_NOT_AN_INT, st.sampled_from(("Triangular", "brick"))))
    elif key == "reversed":
        target[key] = draw(st.one_of(st.none(), st.integers(), st.text(max_size=3)))
    elif key == "switches":
        target[key] = draw(st.one_of(st.none(), st.integers(), st.text(min_size=1, max_size=3),
                                     st.lists(_NOT_AN_INT, min_size=1, max_size=2)))
    elif edit == "type":
        target[key] = draw(_NOT_AN_INT)
    else:
        target[key] = draw(st.sampled_from({
            "ports": (-2, 0, 3, 5, MAX_PORTS + 2, 10**30),
            "id": (-1, count, 10**30),
            "layer": (-1, 0, ports // 2 + 1, 10**30),
            "line": (-1, ports - 1, ports, 10**30),
            "col": (-1, count, 10**30),
        }[key]))
    return json.dumps(doc).encode()


@SETTINGS
@given(document=malformed_network_documents())
def test_malformed_network_documents_exit_2(tmp_path_factory, document):
    path = tmp_path_factory.mktemp("net") / "net.json"
    path.write_bytes(document)
    _assert_rejected("render", "--net", str(path), "--ascii")


@st.composite
def malformed_state_documents(draw):
    """A triangular N = 6 plan document, or its bare states, with one edit
    that makes it malformed.  Returns the document and whether
    :func:`plan_from_json` must reject it too (a missing or extra switch
    id is a sparse map there, refused only against a network)."""
    plan = route(Design.TRIANGULAR, 6, random_pair_list(6, random.Random(draw(st.integers(0, 9)))))
    bare = draw(st.booleans())
    edit = draw(st.sampled_from(sorted(_ENDS) + ["value", "key", "drop", "extra", "shape"]))
    text = plan_to_json(plan)
    if edit in _ENDS:
        return _text_edit(draw, edit, text), edit != "bytes"
    doc = json.loads(text)
    states = doc["states"]
    sid = str(draw(st.integers(0, len(states) - 1)))
    if edit == "value":
        states[sid] = draw(st.one_of(_NOT_AN_INT, st.sampled_from(("Cross", "BAR", "")))
                           .filter(lambda v: v not in ("bar", "cross")))
    elif edit == "key":
        states[draw(st.sampled_from((" 0", "+0", "00", "x", "1.0", "")))] = states.pop("0")
    elif edit == "drop":
        del states[sid]
    elif edit == "extra":
        states[draw(st.sampled_from(("-1", str(len(states)), "99")))] = "bar"
    else:  # the states section, or the whole document, not a mapping
        shape = draw(st.one_of(st.none(), st.integers(), st.text(max_size=3),
                               st.lists(st.sampled_from(("states", "0")), max_size=2)))
        if bare:
            return json.dumps(shape).encode(), False
        doc["states"] = shape
    return json.dumps(states if bare else doc).encode(), not bare and edit not in ("drop", "extra")


@SETTINGS
@given(case=malformed_state_documents())
def test_malformed_plan_and_states_documents_exit_2(tmp_path_factory, case):
    document, plan_rejects = case
    folder = tmp_path_factory.mktemp("states")
    (folder / "net.json").write_text(network_to_json(build_network(Design.TRIANGULAR, 6)))
    (folder / "states.json").write_bytes(document)
    _assert_rejected("render", "--net", str(folder / "net.json"),
                     "--states", str(folder / "states.json"), "--ascii")
    if plan_rejects:
        with pytest.raises(InvalidInput):
            plan_from_json(document.decode())


@st.composite
def malformed_pairs(draw):
    """A perfect matching as ``--pairs`` text after one edit that breaks it:
    an index out of range, a pair split into self pairs, a pair dropped or
    added, or a character that is no ASCII digit, hyphen, comma or space."""
    ports = 2 * draw(st.integers(1, 6))
    order = draw(st.permutations(range(ports)))
    pairs = list(zip(order[::2], order[1::2]))
    k = draw(st.integers(0, len(pairs) - 1))
    edit = draw(st.sampled_from(("range", "split", "drop", "add", "char")))
    if edit == "range":
        pairs[k] = (pairs[k][0], draw(st.sampled_from((ports, ports + 1, 10**30))))
    elif edit == "split":
        a, b = pairs[k]
        pairs[k : k + 1] = [(a, a), (b, b)]
    elif edit == "drop":
        del pairs[k]
    elif edit == "add":
        pairs.append((draw(st.integers(0, ports + 1)), draw(st.integers(0, ports + 1))))
    text = ",".join(f"{a}-{b}" for a, b in pairs)
    if edit == "char":
        at = draw(st.integers(0, len(text)))
        # non-ASCII digits too: int() reads them, the wire format does not
        char = draw(st.sampled_from("x.;+/:_\u0660\u0663\u06f1\u0967\uff10\uff15"))
        text = text[:at] + char + text[at:]
    return ports, text


@SETTINGS
@given(design=st.sampled_from(Design), case=malformed_pairs())
def test_malformed_pairs_exit_2(design, case):
    ports, text = case
    _assert_rejected("route", "--design", design.value, "--ports", str(ports), f"--pairs={text}")
