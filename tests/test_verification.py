import dataclasses
import json
import random
import re
import sys
import tracemalloc
from itertools import islice

import pytest

from pairswitch import (
    MAX_PORTS,
    BoundExceeded,
    Design,
    InvalidDemand,
    InvalidInput,
    PairList,
    PairSwitchError,
    State,
    double_factorial,
    enumerate_pair_lists,
    optimal_switch_count,
    random_pair_list,
    route,
    route_chevron,
    verify_design,
    verify_minimality,
    worst_case_pair_list,
)
from pairswitch import routing, verification
from pairswitch.verification import _mate_tables, report_to_json


def test_enumeration_counts():
    assert sum(1 for _ in enumerate_pair_lists(2)) == 1
    assert sum(1 for _ in enumerate_pair_lists(4)) == 3
    assert sum(1 for _ in enumerate_pair_lists(12)) == 10395
    assert double_factorial(11) == 10395


def test_enumeration_unique_and_valid():
    seen = set()
    for demand in enumerate_pair_lists(8):
        assert demand.ports == 8
        assert demand.pairs not in seen
        seen.add(demand.pairs)
    assert len(seen) == double_factorial(7) == 105


def test_enumerated_demands_match_validated_ones(monkeypatch):
    # enumeration skips PairList's checks; the validating constructor must agree
    for n in range(2, 13, 2):
        for demand in enumerate_pair_lists(n):
            checked = PairList.from_pairs(demand.pairs, n)
            assert demand.pairs == checked.pairs
            assert demand.mate == checked.mate
            assert demand == checked
            assert hash(demand) == hash(checked)
            assert repr(demand) == repr(checked)
            for name in ("ports", "pairs", "mate"):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(demand, name, getattr(checked, name))

    calls = _count_validated_demands(monkeypatch)
    assert sum(1 for _ in enumerate_pair_lists(8)) == 105
    assert calls == [0]


def _count_validated_demands(monkeypatch):
    """Patch ``PairList.__init__`` to count its calls in the returned list."""
    calls = [0]
    init = PairList.__init__

    def counted(self, *args, **kwargs):
        calls[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(PairList, "__init__", counted)
    return calls


def _validated_random_pair_list(ports, rng):
    # random_pair_list as a shuffle through the validating constructor
    order = list(range(ports))
    rng.shuffle(order)
    return PairList.from_pairs(zip(order[::2], order[1::2]), ports)


def test_random_demands_match_validated_ones():
    for n in range(2, 200, 2):
        for seed in range(20):
            fast, slow = random.Random(seed), random.Random(seed)
            for _ in range(2):  # the second draw starts where the first left the rng
                demand, checked = random_pair_list(n, fast), _validated_random_pair_list(n, slow)
                assert demand.pairs == checked.pairs
                assert demand.mate == checked.mate
                assert type(demand.mate) is tuple
                assert demand == checked
                assert hash(demand) == hash(checked)
            assert fast.random() == slow.random()
    for ports in (-2, 0, 3, True, MAX_PORTS + 2):
        with pytest.raises(PairSwitchError) as checked:
            _validated_random_pair_list(ports, random.Random(1))
        with pytest.raises(type(checked.value), match=re.escape(str(checked.value))):
            random_pair_list(ports, random.Random(1))


@pytest.mark.parametrize("ports", [2, 4, 16, 64, 258, 1024, 2048])
def test_random_tables_make_the_draws_of_random_shuffle(ports):
    # the tables of two shuffles in a row, and the rng left where they leave it
    for seed in range(30):
        rng, reference = random.Random(seed), random.Random(seed)
        tables = list(islice(verification._random_mate_tables(ports, rng), 2))
        want = []
        for _ in range(2):
            order = list(range(ports))
            reference.shuffle(order)
            mate = [0] * ports
            for a, b in zip(order[::2], order[1::2]):
                mate[a], mate[b] = b, a
            want.append(tuple(mate))
        assert tables == want
        assert rng.getstate() == reference.getstate()


@pytest.mark.parametrize("ports, error, message", [
    (2.5, InvalidDemand, "ports must be an even integer >= 2, got 2.5"),
    ("8", InvalidDemand, "ports must be an even integer >= 2, got '8'"),
    (None, InvalidDemand, "ports must be an even integer >= 2, got None"),
    (2**62, BoundExceeded, f"{2**62} ports exceed the {MAX_PORTS}-port budget"),
])
def test_random_demands_check_ports_before_the_first_shuffle(ports, error, message):
    # 2**62 ports are past any machine's memory: the check comes first
    rng = random.Random(1)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        random_pair_list(ports, rng)
    assert rng.random() == random.Random(1).random()  # a rejected call draws nothing


@pytest.mark.parametrize("rng", [None, 3, "seed"])
def test_random_demands_check_their_generator_before_any_draw(rng):
    message = f"rng {rng!r} has no getrandbits method"
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        random_pair_list(8, rng)


def test_random_verify_builds_no_validated_demand(monkeypatch):
    calls = _count_validated_demands(monkeypatch)
    for design in Design:
        assert verify_design(design, 16, mode="random", samples=30, seed=3).passed
    assert calls == [0]


def _reference_matchings(free):
    """Every matching of ``free`` as a pair tuple: its smallest index with
    each other one in ascending order, the rest matched the same way."""
    if not free:
        yield ()
        return
    for k in range(1, len(free)):
        for rest in _reference_matchings(free[1:k] + free[k + 1 :]):
            yield ((free[0], free[k]),) + rest


def test_mate_stream_matches_the_enumerated_demands():
    # the order of the recursive reference: the smallest free index with each
    # larger free index in ascending order, the rest matched the same way
    for n in range(2, 15, 2):
        streams = enumerate_pair_lists(n), _mate_tables(n), _reference_matchings(list(range(n)))
        for demand, mate, pairs in zip(*streams, strict=True):
            assert demand.pairs == pairs
            assert demand.mate == mate
            assert type(mate) is tuple
            assert all(mate[a] == b and mate[b] == a for a, b in pairs)


@pytest.mark.parametrize("ports", [0, -2, 3, 13, True, 4.0, "4", MAX_PORTS + 2])
def test_enumeration_rejects_bad_ports_at_the_first_next(ports):
    tables = _mate_tables(ports)  # a generator: nothing checked yet
    with pytest.raises(PairSwitchError):
        next(tables)


@pytest.mark.parametrize("ports", [0, -2, 3, 5, 13, True, 4.0, "4", MAX_PORTS + 2])
def test_enumerate_pair_lists_rejects_bad_ports_at_the_call(ports):
    # the error the table stream raises at its first next, raised by the call
    with pytest.raises(PairSwitchError) as lazy:
        next(_mate_tables(ports))
    with pytest.raises(type(lazy.value)) as eager:
        enumerate_pair_lists(ports)  # never iterated
    assert str(eager.value) == str(lazy.value)


def test_enumeration_first_demand_at_port_budget():
    # a generator per level would exceed the interpreter's recursion limit
    first = next(enumerate_pair_lists(MAX_PORTS))
    assert first.pairs == tuple((k, k + 1) for k in range(0, MAX_PORTS, 2))


def test_worst_case_pair_lists():
    assert worst_case_pair_list(4).pairs == ((0, 3), (1, 2))
    assert worst_case_pair_list(2).pairs == ((0, 1),)
    assert worst_case_pair_list(12).to_text() == "0-11,1-10,2-9,3-8,4-7,5-6"
    for ports in [*range(2, 130, 2), MAX_PORTS]:
        want = PairList.from_pairs([(k, ports - 1 - k) for k in range(ports // 2)], ports)
        demand = worst_case_pair_list(ports)
        assert demand == want and demand.mate == want.mate


_LONG = "x" * 100


@pytest.mark.parametrize("ports, error, message", [
    (10**30, BoundExceeded, f"{10**30} ports exceed the {MAX_PORTS}-port budget"),
    (MAX_PORTS + 2, BoundExceeded, f"{MAX_PORTS + 2} ports exceed the {MAX_PORTS}-port budget"),
    (7, InvalidDemand, "ports must be an even integer >= 2, got 7"),
    (0, InvalidDemand, "ports must be an even integer >= 2, got 0"),
    (True, InvalidDemand, "ports must be an even integer >= 2, got True"),
    (4.0, InvalidDemand, "ports must be an even integer >= 2, got 4.0"),
    (None, InvalidDemand, "ports must be an even integer >= 2, got None"),
    (_LONG, InvalidDemand, f"ports must be an even integer >= 2, got {repr(_LONG)[:60]}"),
    # past the interpreter's limit on int-to-decimal conversion
    pytest.param(10**5000, BoundExceeded, f"<{(10**5000).bit_length()}-bit int> ports exceed "
                 f"the {MAX_PORTS}-port budget", id="10**5000"),
    pytest.param(-10**5000, InvalidDemand, "ports must be an even integer >= 2, got "
                 f"<{(10**5000).bit_length()}-bit int>", id="-10**5000"),
])
def test_worst_case_pair_list_checks_its_ports_before_any_work(monkeypatch, ports, error,
                                                               message):
    # 10**30 ports would take a pair list without bound: the check comes first
    def refuse(mate):
        raise AssertionError("a demand was built")

    monkeypatch.setattr(PairList, "_perfect", refuse)
    with pytest.raises(error) as exc:
        worst_case_pair_list(ports)
    assert type(exc.value) is error and str(exc.value) == message


@pytest.mark.parametrize("n, error, message", [
    ("x", InvalidInput, "n must be an integer, got 'x'"),
    (None, InvalidInput, "n must be an integer, got None"),
    (1.5, InvalidInput, "n must be an integer, got 1.5"),
    (True, InvalidInput, "n must be an integer, got True"),
    (_LONG, InvalidInput, f"n must be an integer, got {repr(_LONG)[:60]}"),
    (10**6, BoundExceeded, f"n 1000000 exceeds the {MAX_PORTS}-port budget"),
    (MAX_PORTS + 1, BoundExceeded, f"n {MAX_PORTS + 1} exceeds the {MAX_PORTS}-port budget"),
    pytest.param(10**5000, BoundExceeded,
                 f"n <{(10**5000).bit_length()}-bit int> exceeds the {MAX_PORTS}-port budget",
                 id="10**5000"),
])
def test_double_factorial_rejects_bad_input_before_any_work(n, error, message):
    # 10**6 would run for minutes: the bound is checked before the product
    with pytest.raises(error) as exc:
        double_factorial(n)
    assert str(exc.value) == message


def test_double_factorial_up_to_the_budget():
    assert [double_factorial(n) for n in range(-2, 8)] == [1, 1, 1, 1, 2, 3, 8, 15, 48, 105]
    assert double_factorial(MAX_PORTS) == double_factorial(MAX_PORTS - 2) * MAX_PORTS


def test_verify_triangular_8_exhaustive():
    report = verify_design(Design.TRIANGULAR, 8, mode="exhaustive")
    assert report.demands_checked == 105
    assert report.failures == ()
    assert report.passed


def test_verify_chevron_2_exhaustive():
    report = verify_design(Design.CHEVRON, 2, mode="exhaustive")
    assert report.demands_checked == 1
    assert report.passed


def test_verify_cap_enforced():
    with pytest.raises(BoundExceeded):
        verify_design(Design.TRIANGULAR, 14, mode="exhaustive")
    # opting in with a larger cap is allowed (test_chevron_exhaustive_14_matches_its_digest)


def test_verify_unknown_mode_rejected():
    with pytest.raises(ValueError) as excinfo:
        verify_design(Design.TRIANGULAR, 4, mode="sometimes")
    assert isinstance(excinfo.value, PairSwitchError)


@pytest.mark.parametrize("args", [
    ("triangular", 2048, "exhaustive"),  # 1,047,552 switches, past the exhaustive cap
    ("triangular", 14, "exhaustive"),
    ("chevron", 7, "random"),
    ("chevron", 8, "sometimes"),
    ("brickwork", 8, "random", 0),
])
def test_a_rejected_verify_call_builds_no_network(monkeypatch, args):
    def no_build(design, ports):
        raise AssertionError(f"built a {design} network for {ports} ports")

    monkeypatch.setattr(verification, "build_network", no_build)
    with pytest.raises(PairSwitchError):
        verify_design(*args)


@pytest.mark.parametrize("samples", [0, -3, 2.5, True, None, "5"])
def test_random_mode_rejects_a_bad_sample_count(samples):
    with pytest.raises(InvalidInput):
        verify_design(Design.TRIANGULAR, 4, mode="random", samples=samples)


@pytest.mark.parametrize("samples", [sys.maxsize + 1, 99999999999999999999999])
def test_random_mode_bounds_a_huge_sample_count(monkeypatch, samples):
    # islice takes no stop past sys.maxsize; the count is refused before a network is built
    def no_build(design, ports):
        raise AssertionError("built a network")

    monkeypatch.setattr(verification, "build_network", no_build)
    with pytest.raises(BoundExceeded, match=f"^samples capped at {sys.maxsize}, got {samples}$"):
        verify_design(Design.TRIANGULAR, 8, mode="random", samples=samples)
    # past the interpreter's limit on int-to-decimal conversion: its bit length
    with pytest.raises(BoundExceeded) as exc:
        verify_design(Design.TRIANGULAR, 8, mode="random", samples=10**5000)
    assert str(exc.value) == f"samples capped at {sys.maxsize}, got <16610-bit int>"


@pytest.mark.parametrize("mode", ["exhaustive", "random"])
@pytest.mark.parametrize("name, value", [
    ("cap", None), ("cap", "12"), ("cap", 12.0), ("cap", True),
    ("seed", b"x"), ("seed", None), ("seed", "7"), ("seed", 7.0), ("seed", False),
])
def test_verify_rejects_a_cap_or_seed_that_is_no_int(monkeypatch, mode, name, value):
    # None and "12" used to meet min() as a TypeError, and a bytes seed gave a
    # report that report_to_json could not write
    def no_build(design, ports):
        raise AssertionError("built a network")

    monkeypatch.setattr(verification, "build_network", no_build)
    message = rf"^{name} must be an integer, got {re.escape(repr(value))}$"
    with pytest.raises(InvalidInput, match=message):
        verify_design(Design.TRIANGULAR, 4, mode=mode, samples=3, **{name: value})


def test_random_mode_is_seed_stable():
    a = verify_design(Design.BRICKWORK, 16, mode="random", samples=40, seed=9)
    b = verify_design(Design.BRICKWORK, 16, mode="random", samples=40, seed=9)
    assert a.to_dict() == b.to_dict()
    assert a.passed and a.demands_checked == 40


def test_minimality_chevron_4():
    report = verify_minimality(Design.CHEVRON, 4)
    assert report.passed
    assert len(report.outcomes) == 2
    assert all(not routable for _, routable in report.outcomes)


def test_cross_count_bounded_with_equality_on_worst_case():
    for design in Design:
        n = 6
        bound = n * (n - 2) // 4
        worst = worst_case_pair_list(n)
        for demand in enumerate_pair_lists(n):
            plan = route(design, n, demand)
            crosses = sum(1 for s in plan.states.values() if s is State.CROSS)
            assert crosses <= bound
            if demand == worst:
                assert crosses == bound


def test_report_json_shape():
    report = verify_design(Design.TRIANGULAR, 4, mode="exhaustive")
    doc = json.loads(report_to_json(report))
    assert list(doc) == [
        "design", "ports", "mode", "samples", "seed",
        "demands_checked", "failures", "max_depth", "min_depth",
    ]
    assert doc["design"] == "triangular"
    assert doc["demands_checked"] == 3
    assert doc["failures"] == []

    mreport = verify_minimality(Design.TRIANGULAR, 4)
    mdoc = json.loads(report_to_json(mreport))
    assert mdoc["passed"] is True
    assert len(mdoc["outcomes"]) == 2


# ---------------------------------------------------------------------------
# Goldens: verify reports, recorded before plans were checked in batches
# ---------------------------------------------------------------------------

def _cli_digest(argv):
    import contextlib
    import hashlib
    import io

    from pairswitch import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("argv, digest", [
    (["verify", "--design", "all", "--ports", "4..12", "--exhaustive"],
     "733585989e75aa73bbcc3d367e9db8db1ce04a4b2d4b9cf80cab43dc13ef4667"),
    (["verify", "--design", "all", "--ports", "16..64", "--samples", "200", "--seed", "7"],
     "4888f18e3f27870b34185699d598c7a0006afa1ad5119bd75a09f682283d4330"),
])
def test_verify_output_matches_golden_digest(argv, digest):
    assert _cli_digest(argv) == (0, digest)


# sha256 over report_to_json of every exhaustive run at N = 2..10, then of
# random runs (seed N) at every even N = 2..64 with 1, 2, 3, 5 and 17
# samples: chunks on every path, a plan alone, byte lanes and the
# byte-field pass, and on both sides of each boundary between them.
GOLDEN_REPORT_SHA256 = {
    Design.TRIANGULAR: "65abb8a1f35aa4f15f9f9a113bc6107b629dc41a5fe3c37051c1d89635a40a22",
    Design.CHEVRON: "9e36577822b2fa5347de6a01ab27d55674e9384a81add75ab9483a7e31abc20b",
    Design.BRICKWORK: "8eb557bd11f612f468c2f7189a8f04daf45363f53fde930ab5ab4aa61f8e6996",
}


@pytest.mark.parametrize("design", list(Design))
def test_reports_match_golden_digest(design):
    import hashlib

    digest = hashlib.sha256()
    for ports in range(2, 12, 2):
        digest.update(report_to_json(verify_design(design, ports)).encode())
    for ports in range(2, 66, 2):
        for samples in (1, 2, 3, 5, 17):
            report = verify_design(design, ports, "random", samples=samples, seed=ports)
            digest.update(report_to_json(report).encode())
    assert digest.hexdigest() == GOLDEN_REPORT_SHA256[design]


def _corrupting_route(monkeypatch, targets):
    """Patch the routing that verify_design reads: the k-th demand of a run
    is corrupted as ``targets[k]`` says, k counting a random run's samples
    in their order, which the design's core routes, and an exhaustive run's
    demands in enumerate_pair_lists' order, which the design's exhaustive
    walk routes in its own, its tables and output lines as bytes.  ("flip",
    i) flips switch i; ("perm", i) swaps predicted entries i and i + 2;
    ("pair", i) flips switch i and predicts what the simulator then gives,
    so only the pairing fails.  A corrupted prediction keeps its row's type."""
    from pairswitch import build_network, simulate
    from pairswitch.routing import _CORES, _EXHAUSTIVE, StateVector

    calls = iter(range(1 << 30))

    def corrupt(design, ports, positions, plans):
        for k, target in enumerate(map(targets.get, positions)):
            if target is None:
                continue
            how, i = target
            states, permuted = bytearray(plans[k][0]), list(plans[k][1])
            row = type(plans[k][1])  # a core's tuple or a walk's bytes
            if how == "perm":
                permuted[i], permuted[i + 2] = permuted[i + 2], permuted[i]
            else:
                states[i] ^= 1
                if how == "pair":
                    permuted = simulate(build_network(design, ports), StateVector(states))[0]
            plans[k] = states, row(permuted)

    def corrupting(design, original):
        def core(ports, mate, *rest):
            plans = [original(ports, mate, *rest)]
            corrupt(design, ports, islice(calls, 1), plans)
            return plans[0]

        return core

    def corrupting_walk(design, original):
        def walk(ports, size):
            order = {bytes(mate): k for k, mate in enumerate(_mate_tables(ports))}
            count = optimal_switch_count(ports)
            for tables, states, lines in original(ports, size):
                ends = range(ports, len(tables) + 1, ports)
                plans = [(states[k * count : k * count + count], lines[end - ports : end])
                         for k, end in enumerate(ends)]
                corrupt(design, ports, (order[tables[end - ports : end]] for end in ends), plans)
                yield (tables, b"".join(states for states, _ in plans),
                       b"".join(lines for _, lines in plans))

        return walk

    for design in Design:
        monkeypatch.setitem(_CORES, design, corrupting(design, _CORES[design]))
        monkeypatch.setitem(_EXHAUSTIVE, design, corrupting_walk(design, _EXHAUSTIVE[design]))


@pytest.mark.parametrize("design, ports, kwargs, targets, failures, digest", [
    ("triangular", 8, dict(mode="exhaustive"), {40: ("flip", 5)}, 1,
     "c8f0e721c057a41555d2ed2b9640dd9134e05dc52fc207ffae667e4c902cbc69"),
    ("chevron", 64, dict(mode="random", samples=200, seed=7), {100: ("perm", 0)}, 1,
     "b2602ae485d0346e49be4a1c2e250eb50f137505660263b06d139a08b96aa990"),
    ("brickwork", 12, dict(mode="exhaustive"), {5000: ("pair", 7), 9000: ("flip", 0)}, 2,
     "14bbc0e1b56ee8b54504333d663bbae0e671ab4f1203fe30342857d508a244f0"),
    # the first and last demands in enumeration order, and two between them
    ("chevron", 12, dict(mode="exhaustive"),
     {0: ("flip", 0), 4000: ("perm", 2), 8000: ("pair", 13), 10394: ("flip", 29)}, 4,
     "1cd6f9ed39690ce78f5c5de9a00a1e049da9e8258a5d1e6f2ba3000a1c95e5a7"),
])
def test_corrupted_plans_give_the_golden_report(monkeypatch, design, ports, kwargs, targets,
                                                failures, digest):
    import hashlib

    _corrupting_route(monkeypatch, targets)
    report = verify_design(design, ports, **kwargs)
    assert len(report.failures) == failures
    assert hashlib.sha256(report_to_json(report).encode()).hexdigest() == digest


class _Stopped(Exception):
    pass


def _recorded_routing(monkeypatch, stop_after=None):
    """Record each core call and each chunk an exhaustive walk yields, as
    (design, ports, "core" or "walk", demands); with ``stop_after``, end the
    run by raising _Stopped at that record."""
    calls = []

    def record(*call):
        calls.append(call)
        if len(calls) == stop_after:
            raise _Stopped

    def recording_core(design, core):
        def recorded(ports, mate, *rest):
            record(design, ports, "core", 1)
            return core(ports, mate, *rest)
        return recorded

    def recording_walk(design, walk):
        def recorded(ports, size):
            for chunk in walk(ports, size):
                record(design, ports, "walk", len(chunk[0]) // ports)
                yield chunk
        return recorded

    for design in Design:
        monkeypatch.setitem(routing._CORES, design, recording_core(design, routing._CORES[design]))
        monkeypatch.setitem(routing._EXHAUSTIVE, design,
                            recording_walk(design, routing._EXHAUSTIVE[design]))
    return calls


# sha256 of report_to_json of the exhaustive chevron and triangular runs at
# N = 14, recorded when each chunk of tables went through the routing core,
# before inner windows were shared or triangular stamped its frame-8 blocks.
# tools/exhaustive_digests.py checks them, and N = 14 and 16 for every
# design, against README.
CHEVRON_14_SHA256 = "1aaf88f5bd89c665359724e496a34c4f947780f9bc71e92f5e1ce292daac46bf"
TRIANGULAR_14_SHA256 = "81bdb93ccacb240bed666330c93c50569308a83e31e66d7582ba832c8cd112e6"


def test_chevron_exhaustive_14_matches_its_digest(monkeypatch):
    import hashlib

    calls = _recorded_routing(monkeypatch)
    report = verify_design(Design.CHEVRON, 14, cap=14)
    assert report.passed and report.demands_checked == double_factorial(13)
    assert hashlib.sha256(report_to_json(report).encode()).hexdigest() == CHEVRON_14_SHA256
    # its 132 chunks come from the chevron walk, and no core routes a table
    assert calls == [(Design.CHEVRON, 14, "walk", 1024)] * 131 + [(Design.CHEVRON, 14, "walk", 991)]


def test_triangular_exhaustive_14_matches_its_digest(monkeypatch):
    import hashlib

    calls = _recorded_routing(monkeypatch)
    report = verify_design(Design.TRIANGULAR, 14, cap=14)
    assert report.passed and report.demands_checked == double_factorial(13)
    assert hashlib.sha256(report_to_json(report).encode()).hexdigest() == TRIANGULAR_14_SHA256
    assert calls == ([(Design.TRIANGULAR, 14, "walk", 1024)] * 131
                     + [(Design.TRIANGULAR, 14, "walk", 991)])


def _load_exhaustive_digests():
    """tools/exhaustive_digests.py, the opt-in exhaustive runs at N = 14 and 16."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "tools" / "exhaustive_digests.py"
    spec = importlib.util.spec_from_file_location("exhaustive_digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_readme_records_the_exhaustive_digests_the_script_checks(capsys):
    tool = _load_exhaustive_digests()
    digests = tool.recorded(tool.README.read_text())
    assert set(digests) == {(design.value, n) for design in Design for n in (14, 16)}
    assert digests[("chevron", 14)] == CHEVRON_14_SHA256
    assert digests[("triangular", 14)] == TRIANGULAR_14_SHA256
    assert tool.recorded("no table") == {}
    # an N with no recorded digest fails before any run
    assert tool.main(["4"]) == 1
    assert capsys.readouterr().out.count("README records no digest") == len(Design)


def test_exhaustive_digests_rejects_an_n_that_is_no_integer(monkeypatch, capsys):
    # a usage error exits 2, apart from a mismatch's 1, before any run
    tool = _load_exhaustive_digests()

    def refuse(*args, **kwargs):
        raise AssertionError("a verify run started")

    monkeypatch.setattr(tool, "verify_design", refuse)
    for argv in (["14.0"], ["14", "x"], [""]):
        assert tool.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and err.startswith("usage: exhaustive_digests.py")


def test_an_exhaustive_run_reads_its_designs_walk_once(monkeypatch):
    # every chunk of an exhaustive run comes from its own design's walk, in
    # chunks of 1024 and the rest, and no core routes a table; a second run
    # walks again, and gives the same report.  The chevron walk at N reads
    # the walk at N - 2 once, so each inner window is routed once a run
    calls = _recorded_routing(monkeypatch)
    for design in Design:
        for ports in range(2, 13, 2):
            count = double_factorial(ports - 1)
            want = [(design, ports, "walk", 1024)] * (count // 1024)
            want += [(design, ports, "walk", count % 1024)] * (count % 1024 > 0)
            calls.clear()
            first = verify_design(design, ports)
            assert first.passed and calls == want
            calls.clear()
            assert verify_design(design, ports) == first and calls == want
    walked, walk = [], routing._exhaustive_chevron

    def recorded(ports, size):
        walked.append(ports)
        return walk(ports, size)

    monkeypatch.setattr(routing, "_exhaustive_chevron", recorded)
    for ports in range(2, 13, 2):
        walked.clear()
        assert sum(len(tables) // ports for tables, _, _ in recorded(ports, 1024)) == \
            double_factorial(ports - 1)
        assert walked == list(range(ports, 1, -2))


def test_exhaustive_walks_are_never_reached_by_random_mode_and_stream_at_n_16(monkeypatch):
    def refuse(ports, size):
        raise AssertionError("an exhaustive walk was reached")

    walks = dict(routing._EXHAUSTIVE)
    for design in Design:
        monkeypatch.setitem(routing._EXHAUSTIVE, design, refuse)
    for ports in (4, 8, 12, 14, 16):
        # 1100 samples: a chunk on the byte-field pass and one on byte lanes
        assert verify_design(Design.CHEVRON, ports, "random", samples=1100, seed=ports).passed
        assert route_chevron(ports, worst_case_pair_list(ports)).states
    monkeypatch.undo()
    # N = 16's 2,027,025 demands: the first three chunks of 1024 come from
    # the walk, which holds about a chunk at a time (under 1 MB), not the run (1 GB)
    calls = _recorded_routing(monkeypatch, stop_after=3)
    with pytest.raises(_Stopped):
        verify_design(Design.CHEVRON, 16, cap=16)
    assert calls == [(Design.CHEVRON, 16, "walk", 1024)] * 3
    for design, walk in walks.items():
        tracemalloc.start()
        try:
            chunks = walk(16, 1024)
            for _ in range(3):
                next(chunks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, (design, peak)


@pytest.mark.parametrize("ports, kwargs, demands", [
    (8, dict(mode="exhaustive"), 105),  # the byte-field pass
    (6, dict(mode="exhaustive"), 15),  # byte lanes
    (16, dict(mode="random", samples=5, seed=1), 5),
])
@pytest.mark.parametrize("design", list(Design))
def test_a_run_in_which_no_demand_passes_reports_no_depths(monkeypatch, design, ports, kwargs,
                                                           demands):
    _corrupting_route(monkeypatch, dict.fromkeys(range(demands), ("perm", 0)))
    report = verify_design(design, ports, **kwargs)
    assert len(report.failures) == report.demands_checked == demands
    assert report.max_depth is None and report.min_depth is None
    doc = json.loads(report_to_json(report))
    assert doc["max_depth"] is None and doc["min_depth"] is None
    # one passing demand gives depths again
    monkeypatch.undo()
    _corrupting_route(monkeypatch, dict.fromkeys(range(1, demands), ("perm", 0)))
    report = verify_design(design, ports, **kwargs)
    assert len(report.failures) == demands - 1
    assert 0 <= report.min_depth <= report.max_depth <= ports - 2


def _recorded_paths(monkeypatch):
    """Record the path each chunk of a verify call takes: ("simulate", 1)
    per plan checked alone, or the lane check and its chunk size; the
    byte-field pass is "_check_plans" whether a chunk comes to it a row a
    plan or as a walk's joined rows (``_check_joined``)."""
    paths = []

    def recording(name, check):
        def recorded(net, *args):  # a lane check's args: mates, plans
            paths.append((name, len(args[1]) if name != "simulate" else 1))
            return check(net, *args)
        return recorded

    def recording_joined(check):
        def recorded(net, tables, *args):  # a walk's joined rows on the byte-field pass
            paths.append(("_check_plans", len(tables) // net.ports))
            return check(net, tables, *args)
        return recorded

    for name in ("simulate", "_check_bytes", "_check_plans"):
        monkeypatch.setattr(verification, name, recording(name, getattr(verification, name)))
    monkeypatch.setattr(verification, "_check_joined", recording_joined(verification._check_joined))
    return paths


def test_each_chunk_size_takes_its_path(monkeypatch):
    # every design's byte lanes step by columns and take every chunk below
    # the byte-field threshold, one plan too, in one pass for the whole
    # chunk; from it on: the byte-field pass.  At N = 2 brickwork's only
    # column is empty and chevron and triangular have none
    paths = _recorded_paths(monkeypatch)
    threshold = verification._FIELD_PASS_PLANS_PER_ID_BIT * 5  # 5 id bits at N = 18
    for design in Design:
        for ports, samples, want in [
            (2, 1, [("_check_bytes", 1)]),
            (2, 3, [("_check_bytes", 3)]),
            (18, 1, [("_check_bytes", 1)]),
            (18, 2, [("_check_bytes", 2)]),
            (18, 5, [("_check_bytes", 5)]),
            (18, threshold - 1, [("_check_bytes", threshold - 1)]),
            (18, threshold, [("_check_plans", threshold)]),
            (18, 1025, [("_check_plans", 1024), ("_check_bytes", 1)]),  # chunks of 1024 demands
            (2048, 1, [("_check_bytes", 1)]),
        ]:
            paths.clear()
            report = verify_design(design, ports, "random", samples=samples, seed=5)
            assert report.passed and report.demands_checked == samples
            assert paths == want, (design, ports, samples)
        # exhaustively: N = 2, 4 and 6 as byte lanes, N >= 8 on the byte-field pass
        for ports, want in [(2, ("_check_bytes", 1)), (4, ("_check_bytes", 3)),
                            (6, ("_check_bytes", 15)), (8, ("_check_plans", 105))]:
            paths.clear()
            assert verify_design(design, ports).passed
            assert paths == [want]


def test_no_verify_chunk_builds_a_brickwork_step_table_from_n_256(monkeypatch):
    # a brickwork core call keeps no rows for later tables, which would take
    # a list per depth and more than (N/2)^2 slots in all: at N = 256 a
    # verify run's chunks are capped by their state bytes, each sampled
    # table is one core call, and each call peaks below those slots' bytes
    # beyond the plan it returns
    calls = []
    core = routing._CORES[Design.BRICKWORK]

    def traced(ports, mate, counter=None):
        tracemalloc.start()
        try:
            plan = core(ports, mate, counter)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        calls.append(peak - held)
        return plan

    monkeypatch.setitem(routing._CORES, Design.BRICKWORK, traced)
    paths = _recorded_paths(monkeypatch)
    assert verify_design(Design.BRICKWORK, 256, "random", samples=300, seed=1).passed
    assert paths == [("_check_plans", 258), ("_check_bytes", 42)]
    assert len(calls) == 300
    assert all(spent < (256 // 2) ** 2 * 8 for spent in calls), max(calls)


def test_verify_builds_a_frame_once_per_call(monkeypatch):
    # no frame: the samples of one call share one byte-lane pass, each call
    # makes its own, and a second call gives the same report
    paths = _recorded_paths(monkeypatch)
    first = verify_design("chevron", 18, "random", samples=5, seed=5)
    assert paths == [("_check_bytes", 5)]
    assert verify_design("chevron", 18, "random", samples=5, seed=5) == first
    assert paths == [("_check_bytes", 5)] * 2
    paths.clear()
    # 40 random plans, then every demand at N = 6, the all-Cross worst case among them
    for design in Design:
        verify_design(design, 24, "random", samples=40, seed=3)
        verify_design(design, 6, "exhaustive")
    assert paths == [("_check_bytes", 40), ("_check_bytes", 15)] * len(Design)


@pytest.mark.parametrize("design, targets, failure", [
    ("triangular", {2: ("perm", 0)}, (
        "0-15,1-9,2-12,3-13,4-11,5-7,6-14,8-10",
        "router predicted (1, 7, 5, 9, 8, 10, 4, 11, 2, 12, 3, 13, 6, 14, 0, 15), "
        "simulator got (5, 7, 1, 9, 8, 10, 4, 11, 2, 12, 3, 13, 6, 14, 0, 15)")),
    ("brickwork", {3: ("pair", 7)}, (
        "0-6,1-15,2-5,3-11,4-7,8-12,9-13,10-14", "output pairs wrong at BSAs [2, 5]")),
    ("chevron", {4: ("flip", 10)}, (
        "0-11,1-2,3-4,5-14,6-9,7-12,8-13,10-15",
        "router predicted (1, 2, 3, 4, 7, 12, 5, 14, 0, 11, 8, 13, 10, 15, 6, 9), "
        "simulator got (1, 2, 3, 4, 7, 12, 5, 14, 0, 6, 8, 13, 10, 15, 11, 9)")),
])
def test_column_lanes_build_the_network_only_to_word_a_failure(monkeypatch, design, targets,
                                                               failure):
    # chunks on column lanes need only N and the switch count: a verify run
    # that passes builds no network, and one with a failing plan builds it
    # once, to simulate that plan alone; the failure texts were recorded
    # when every run built its network first
    from pairswitch import build_network

    builds = []

    def no_build(design, ports):
        raise AssertionError(f"built a {design} network for {ports} ports")

    def counted(design, ports):
        builds.append((design, ports))
        return build_network(design, ports)

    monkeypatch.setattr(verification, "build_network", no_build)
    for ports, kwargs in [(16, dict(mode="random", samples=5, seed=1)),
                          (64, dict(mode="random", samples=17, seed=2)),
                          (2048, dict(mode="random", samples=1, seed=3)),
                          (2, dict(mode="exhaustive")), (6, dict(mode="exhaustive"))]:
        assert verify_design(design, ports, **kwargs).passed
    monkeypatch.setattr(verification, "build_network", counted)
    _corrupting_route(monkeypatch, targets)
    report = verify_design(design, 16, "random", samples=5, seed=1)
    assert report.failures == (failure,)
    assert builds == [(Design(design), 16)]


def test_a_flagged_lane_is_checked_again_alone(monkeypatch):
    # a failing plan in a byte-lane chunk is simulated on its own for its
    # failure text; the others are not
    paths = _recorded_paths(monkeypatch)
    _corrupting_route(monkeypatch, {2: ("perm", 0)})
    report = verify_design("brickwork", 16, "random", samples=5, seed=1)
    assert paths == [("_check_bytes", 5), ("simulate", 1)]
    assert len(report.failures) == 1 and "router predicted" in report.failures[0][1]
