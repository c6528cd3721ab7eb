"""Exhaustive and randomized harnesses for the non-blocking, bound, and
minimality claims."""
from __future__ import annotations

import json
import random
import sys
from bisect import bisect
from dataclasses import dataclass
from itertools import islice
from typing import Iterator

from .errors import BoundExceeded, InvalidInput
from .routing import _CORES, PairList, StateVector, _check_demand_ports
from .simulation import (MAX_BRUTE_FORCE_SWITCHES, _check_bytes, _check_plans, _columns,
                         _Columns, brute_force_route, check_pairing, simulate)
from .topology import Design, Network, _check_ports, build_network, optimal_switch_count


_CHUNK_DEMANDS = 1024
_CHUNK_STATE_BYTES = 1 << 22
"""A verify run routes demands in chunks of at most this many demands and
state bytes, so the plans held at once stay small."""

_BYTE_LANES_FROM = 3
"""A chevron chunk of at least this many plans is checked as byte lanes, a
smaller one a plan at a time.  Brickwork's and triangular's lanes step a
column at a time, need no network and check every chunk.  Both choices
rest on the timings in ``BENCH_triangular_columns.json``."""

_LANES_PER_ID_BIT = 24
"""A chunk of at least this many plans per bit of a photon id is checked as
lanes of one bit-sliced pass, a smaller one as byte lanes.  24 keeps every
exhaustive chunk from N = 8 on the pass; ``BENCH_triangular_columns.json``
times the two on each side of it."""

MAX_EXHAUSTIVE_PORTS = 16
"""Demand budget of an exhaustive run, whatever its cap: (N-1)!! demands,
at most 15!! = 2,027,025."""


def _check_exhaustive(ports: int, cap: int) -> None:
    cap = min(cap, MAX_EXHAUSTIVE_PORTS)
    if ports > cap:
        raise BoundExceeded(f"exhaustive verification capped at {cap} ports, got {ports}")


def worst_case_pair_list(ports: int) -> PairList:
    """The demand pairing the two most distant inputs at every step."""
    return PairList.from_pairs(
        [(k, ports - 1 - k) for k in range(ports // 2)], ports
    )


def enumerate_pair_lists(ports: int) -> Iterator[PairList]:
    """Yield every perfect matching of 0..N-1 exactly once, smallest free
    index first; stream length is (N-1)!!.  Ports are checked at the call,
    not at the first ``next``."""
    _check_ports(ports)
    return map(PairList._perfect, _mate_tables(ports))


def _mate_tables(ports: int) -> Iterator[tuple[int, ...]]:
    """The partner table of every matching :func:`enumerate_pair_lists`
    yields, in its order: ``mate[i]`` is the input paired with i."""
    _check_ports(ports)
    if ports == 2:
        yield (1, 0)
        return
    # Pairs are (line[2d], line[2d+1]): level d pairs its smallest free index
    # with the next free one, in ascending order.  Once the levels below d
    # have tried every choice they are ascending again, and so are level d's
    # other free indices, line[2d+2:]: its next partner is one swap away.
    # So only levels d and up need new partner entries after level d's swap.
    # The last four free indices w < x < y < z stay ascending, and their
    # three matchings are written out in the order the search would take.
    line = list(range(ports))
    mate = [0] * ports
    last = ports - 4
    i = 1
    while True:
        for k in range(i - 1, last, 2):  # k = 2d for every level d from i's up
            a, b = line[k], line[k + 1]
            mate[a] = b
            mate[b] = a
        w, x, y, z = line[last:]
        mate[w], mate[x], mate[y], mate[z] = x, w, z, y
        yield tuple(mate)
        mate[w], mate[x], mate[y], mate[z] = y, z, w, x
        yield tuple(mate)
        mate[w], mate[x], mate[y], mate[z] = z, y, x, w
        yield tuple(mate)
        for i in range(last - 1, 0, -2):  # i = 2d+1, deepest level with a choice first
            j = bisect(line, line[i], i + 1)
            if j < ports:
                line[i], line[j] = line[j], line[i]
                break
            line[i:] = line[i + 1 :] + [line[i]]  # level d done: ascending again
        else:
            return


def random_pair_list(ports: int, rng: random.Random) -> PairList:
    """Uniform random perfect matching: shuffle 0..N-1 with
    ``Random.shuffle``'s draws, made with ``rng.getrandbits``, and pair
    consecutive entries."""
    return PairList._perfect(next(_random_mate_tables(ports, rng)))


def _random_mate_tables(ports: int, rng: random.Random) -> Iterator[tuple[int, ...]]:
    """The partner tables of successive :func:`random_pair_list` calls on
    ``rng``: one shuffle of 0..N-1 each, with ``Random.shuffle``'s draws,
    made with ``rng.getrandbits``, so the same rng calls in the same order.
    Ports are checked as a demand's are, before the first shuffle, so a
    rejected call leaves ``rng`` as it was and allocates nothing."""
    _check_demand_ports(ports)
    getrandbits = rng.getrandbits
    mate = [0] * ports
    while True:
        # Fisher-Yates (Knuth, TAOCP Vol. 2, 3.4.2, Algorithm P); j is drawn
        # as shuffle's _randbelow_with_getrandbits(i + 1) draws it, without
        # a Python call per draw
        order = list(range(ports))
        for i in range(ports - 1, 0, -1):
            k = (i + 1).bit_length()
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            order[i], order[j] = order[j], order[i]
        for a, b in zip(order[::2], order[1::2]):
            mate[a] = b
            mate[b] = a
        yield tuple(mate)


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


@dataclass(frozen=True)
class VerificationReport:
    design: Design
    ports: int
    mode: str  # "exhaustive" | "random"
    demands_checked: int
    failures: tuple[tuple[str, str], ...]  # (demand text, diagnostic)
    max_depth: int
    min_depth: int
    samples: int | None = None
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "design": self.design.value,
            "ports": self.ports,
            "mode": self.mode,
            "samples": self.samples,
            "seed": self.seed,
            "demands_checked": self.demands_checked,
            "failures": [list(f) for f in self.failures],
            "max_depth": self.max_depth,
            "min_depth": self.min_depth,
        }


def verify_design(
    design: Design | str,
    ports: int,
    mode: str = "exhaustive",
    samples: int = 1000,
    seed: int = 0,
    cap: int = 12,
) -> VerificationReport:
    """Route every demand (or a seeded sample), simulate, and check the
    paired egress; collect depth extrema across all checked routings."""
    design = Design(design)
    _check_ports(ports)
    for name, value in (("cap", cap), ("seed", seed)):
        if type(value) is not int:  # a bool is neither
            raise InvalidInput(f"{name} must be an integer, got {value!r}")
    if mode == "exhaustive":
        _check_exhaustive(ports, cap)
        mates = _mate_tables(ports)
        samples_field = seed_field = None
    elif mode == "random":
        if type(samples) is not int or samples < 1:  # a bool is no sample count either
            raise InvalidInput(f"samples must be an integer >= 1, got {samples!r}")
        if samples > sys.maxsize:  # islice's stop, and past any run's reach
            raise BoundExceeded(f"samples capped at {sys.maxsize}, got {samples}")
        mates = islice(_random_mate_tables(ports, random.Random(seed)), samples)
        samples_field, seed_field = samples, seed
    else:
        raise InvalidInput(f"unknown mode {mode!r}")

    smallest = _BYTE_LANES_FROM if design is Design.CHEVRON else 1
    core = _CORES[design]
    failures: list[tuple[str, str]] = []
    checked = 0
    max_depth = 0
    min_depth = ports * ports
    net = stepped = None

    def network() -> Network:
        """The network, built for the first check that reads its lines."""
        nonlocal net
        if net is None:
            net = build_network(design, ports)
        return net

    def steps() -> _Columns | Network:
        """What the byte lanes step: brickwork's and triangular's columns,
        which need no network, or chevron's switches."""
        nonlocal stepped
        if stepped is None:
            stepped = _columns(design, ports) or network()
        return stepped

    def check_one(mate: tuple[int, ...], states: bytearray, permuted: tuple[int, ...]) -> None:
        nonlocal max_depth, min_depth
        demand = PairList._perfect(mate)
        perm, depths = simulate(network(), StateVector(states))
        if perm != permuted:
            failures.append(
                (demand.to_text(), f"router predicted {permuted}, simulator got {perm}")
            )
            return
        report = check_pairing(perm, demand)
        if not report.ok:
            failures.append(
                (demand.to_text(), f"output pairs wrong at BSAs {list(report.mismatches)}")
            )
            return
        max_depth = max(max_depth, max(depths))
        min_depth = min(min_depth, min(depths))

    size = min(_CHUNK_DEMANDS, _CHUNK_STATE_BYTES // max(1, optimal_switch_count(ports)))
    while chunk := list(islice(mates, size)):
        plans = core(ports, chunk)
        checked += len(chunk)
        large = len(chunk) >= _LANES_PER_ID_BIT * (ports - 1).bit_length()
        lanes = (_check_plans(network(), chunk, plans) if large else
                 _check_bytes(steps(), chunk, plans) if len(chunk) >= smallest
                 else None)
        # without lanes every plan is checked alone; with them, only the
        # flagged ones, so that each failure is worded
        flagged, high, low = lanes or ((1 << len(chunk)) - 1, 0, -1)
        while flagged:
            k = (flagged & -flagged).bit_length() - 1
            check_one(chunk[k], *plans[k])
            flagged &= flagged - 1
        if low >= 0:
            max_depth = max(max_depth, high)
            min_depth = min(min_depth, low)
    failures.sort(key=lambda f: f[0])
    return VerificationReport(
        design=design,
        ports=ports,
        mode=mode,
        demands_checked=checked,
        failures=tuple(failures),
        max_depth=max_depth,
        min_depth=min_depth,
        samples=samples_field,
        seed=seed_field,
    )


@dataclass(frozen=True)
class MinimalityReport:
    design: Design
    ports: int
    outcomes: tuple[tuple[int, bool], ...]  # (deleted switch id, still routable)

    @property
    def passed(self) -> bool:
        return all(not routable for _, routable in self.outcomes)

    def to_dict(self) -> dict:
        return {
            "design": self.design.value,
            "ports": self.ports,
            "outcomes": [
                {"deleted": i, "routable": routable} for i, routable in self.outcomes
            ],
            "passed": self.passed,
        }


def verify_minimality(design: Design | str, ports: int) -> MinimalityReport:
    """Delete each switch in turn and brute-force the worst-case demand on
    the damaged network; a minimal design leaves every deletion unroutable."""
    design = Design(design)
    net = build_network(design, ports)
    count = len(net.lines)
    if count - 1 > MAX_BRUTE_FORCE_SWITCHES:
        raise BoundExceeded(f"{count - 1} switches exceed the brute-force budget")
    demand = worst_case_pair_list(ports)
    outcomes = []
    for k in range(count):
        # the damaged copy renumbers its ids densely; only routability is read
        cut = (a[:k] + a[k + 1 :] for a in (net.lines, net.layers, net.cols))
        damaged = Network(design, ports, *cut)
        plan = brute_force_route(damaged, demand)
        outcomes.append((k, plan is not None))
    return MinimalityReport(design=design, ports=ports, outcomes=tuple(outcomes))


def report_to_json(report: VerificationReport | MinimalityReport) -> str:
    return json.dumps(report.to_dict(), indent=2)
