import dataclasses
import json
import random
import re
import sys
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
    random_pair_list,
    route,
    verify_design,
    verify_minimality,
    worst_case_pair_list,
)
from pairswitch import simulation, verification
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
    # opting in with a larger cap is allowed (not executed here: slow)


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
# bit-sliced pass, and on both sides of each boundary between them.
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
    """Patch the routing core that verify_design calls: the k-th plan of a
    run is corrupted as ``targets[k]`` says.  ("flip", i) flips switch i;
    ("perm", i) swaps predicted entries i and i + 2; ("pair", i) flips switch
    i and predicts what the simulator then gives, so only the pairing fails."""
    from pairswitch import build_network, simulate
    from pairswitch.routing import _CORES, StateVector

    calls = iter(range(1 << 30))

    def corrupting(design, original):
        def core(ports, mates, *rest):
            plans = original(ports, mates, *rest)
            for k, target in enumerate(map(targets.get, islice(calls, len(plans)))):
                if target is None:
                    continue
                how, i = target
                states, permuted = bytearray(plans[k][0]), list(plans[k][1])
                if how == "perm":
                    permuted[i], permuted[i + 2] = permuted[i + 2], permuted[i]
                else:
                    states[i] ^= 1
                    if how == "pair":
                        permuted = simulate(build_network(design, ports), StateVector(states))[0]
                plans[k] = states, tuple(permuted)
            return plans

        return core

    for design, original in list(_CORES.items()):
        monkeypatch.setitem(_CORES, design, corrupting(design, original))


@pytest.mark.parametrize("design, ports, kwargs, targets, failures, digest", [
    ("triangular", 8, dict(mode="exhaustive"), {40: ("flip", 5)}, 1,
     "c8f0e721c057a41555d2ed2b9640dd9134e05dc52fc207ffae667e4c902cbc69"),
    ("chevron", 64, dict(mode="random", samples=200, seed=7), {100: ("perm", 0)}, 1,
     "b2602ae485d0346e49be4a1c2e250eb50f137505660263b06d139a08b96aa990"),
    ("brickwork", 12, dict(mode="exhaustive"), {5000: ("pair", 7), 9000: ("flip", 0)}, 2,
     "14bbc0e1b56ee8b54504333d663bbae0e671ab4f1203fe30342857d508a244f0"),
])
def test_corrupted_plans_give_the_golden_report(monkeypatch, design, ports, kwargs, targets,
                                                failures, digest):
    import hashlib

    _corrupting_route(monkeypatch, targets)
    report = verify_design(design, ports, **kwargs)
    assert len(report.failures) == failures
    assert hashlib.sha256(report_to_json(report).encode()).hexdigest() == digest


def _recorded_paths(monkeypatch):
    """Record the path each chunk of a verify call takes: ("simulate", 1)
    per plan checked alone, or the lane check and its chunk size."""
    paths = []

    def recording(name, check):
        def recorded(net, *args):  # a lane check's args: mates, plans[, columns]
            paths.append((name, len(args[1]) if name != "simulate" else 1))
            return check(net, *args)
        return recorded

    for name in ("simulate", "_check_bytes", "_check_plans"):
        monkeypatch.setattr(verification, name, recording(name, getattr(verification, name)))
    return paths


def test_each_chunk_size_takes_its_path(monkeypatch):
    # one chevron plan: simulate; up to the bit-sliced threshold: byte lanes,
    # in one pass for the whole chunk; from it on: the bit-sliced pass
    paths = _recorded_paths(monkeypatch)
    threshold = verification._LANES_PER_ID_BIT * 5  # 5 id bits at N = 18
    smallest = verification._BYTE_LANES_FROM
    for samples, want in [
        (1, [("simulate", 1)]),
        (smallest - 1, [("simulate", 1)] * (smallest - 1)),
        (smallest, [("_check_bytes", smallest)]),
        (5, [("_check_bytes", 5)]),
        (threshold - 1, [("_check_bytes", threshold - 1)]),
        (threshold, [("_check_plans", threshold)]),
        (1025, [("_check_plans", 1024), ("simulate", 1)]),  # chunks of 1024 demands
    ]:
        paths.clear()
        report = verify_design("chevron", 18, "random", samples=samples, seed=5)
        assert report.passed and report.demands_checked == samples
        assert paths == want, samples
    # exhaustively: N = 4 and 6 as byte lanes, N >= 8 on the bit-sliced pass
    for ports, want in [(2, ("simulate", 1)), (4, ("_check_bytes", 3)),
                        (6, ("_check_bytes", 15)), (8, ("_check_plans", 105))]:
        paths.clear()
        assert verify_design("chevron", ports).passed
        assert paths == [want]
    # brickwork's and triangular's byte lanes step by columns and take every
    # chunk below the bit-sliced threshold, one plan too; at N = 2 brickwork's
    # only column is empty and triangular has none
    def refuse(*args):
        raise AssertionError("the byte lanes stepped a switch at a time")

    monkeypatch.setattr(simulation, "_switch_lanes", refuse)
    for design in ("brickwork", "triangular"):
        for ports, samples, want in [
            (2, 1, [("_check_bytes", 1)]),
            (2, 3, [("_check_bytes", 3)]),
            (18, 1, [("_check_bytes", 1)]),
            (18, 2, [("_check_bytes", 2)]),
            (18, threshold - 1, [("_check_bytes", threshold - 1)]),
            (18, threshold, [("_check_plans", threshold)]),
            (18, 1025, [("_check_plans", 1024), ("_check_bytes", 1)]),
            (2048, 1, [("_check_bytes", 1)]),
        ]:
            paths.clear()
            report = verify_design(design, ports, "random", samples=samples, seed=5)
            assert report.passed and report.demands_checked == samples
            assert paths == want, (design, ports, samples)
        for ports, want in [(2, ("_check_bytes", 1)), (4, ("_check_bytes", 3)),
                            (6, ("_check_bytes", 15)), (8, ("_check_plans", 105))]:
            paths.clear()
            assert verify_design(design, ports).passed
            assert paths == [want]


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
