"""Deterministic single-pass photon propagation and derived measurements."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import is_
from typing import Mapping, Sequence

from .errors import IncompleteStates, InvalidInput
from .routing import PairList, StateVector
from .topology import Network, State


def _state_bits(states: Mapping[int, State], count: int) -> bytes:
    """Any id -> State mapping as one byte per id 0..count-1, 1 for Cross,
    looked up in one pass over the ids."""
    try:
        values = list(map(states.__getitem__, range(count))) if len(states) == count else None
    except KeyError:
        values = None
    if values is None:
        ids, given = set(range(count)), set(states)
        raise IncompleteStates(
            "states do not cover the network exactly "
            f"(missing {sorted(ids - given)}, extra {sorted(given - ids)})"
        )
    # by type: a str such as "cross" equals its State member but is not one
    if not set(map(type, values)) <= {State}:
        bad = next(i for i, v in enumerate(values) if type(v) is not State)
        raise InvalidInput(f"switch {bad} state {values[bad]!r} is not a State")
    return bytes(map(is_, values, repeat(State.CROSS)))


def simulate(
    net: Network, states: Mapping[int, State]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Apply switches in traversal order; photon i starts on line i.

    Returns ``(perm, depths)``: the final line occupancy, perm[line] =
    photon, and the per-photon count of switch elements traversed (Bar
    counts too), depths[photon].
    """
    count = len(net.lines)
    vector = isinstance(states, StateVector) and len(states) == count
    bits = states.bits if vector else _state_bits(states, count)
    lines = list(range(net.ports))
    depths = [0] * net.ports
    for i, cross in zip(net.lines, bits):
        depths[lines[i]] += 1
        depths[lines[i + 1]] += 1
        if cross:
            lines[i], lines[i + 1] = lines[i + 1], lines[i]
    return tuple(lines), tuple(depths)


def propagate(net: Network, states: Mapping[int, State]) -> tuple[int, ...]:
    """The final line occupancy of :func:`simulate`: result[line] = photon."""
    return simulate(net, states)[0]


def traversal_depths(net: Network, states: Mapping[int, State]) -> tuple[int, ...]:
    """The per-photon switch counts of :func:`simulate`: depths[photon]."""
    return simulate(net, states)[1]


@dataclass(frozen=True)
class PairingReport:
    ok: bool
    matched: tuple[tuple[int, tuple[int, int]], ...]
    mismatches: tuple[int, ...]


def check_pairing(perm: Sequence[int], demand: PairList) -> PairingReport:
    """Check that each adjacent output pair (2j, 2j+1) holds a demanded pair."""
    if len(perm) != demand.ports:
        raise InvalidInput(
            f"permutation has {len(perm)} entries, demand covers {demand.ports} ports"
        )
    mate, n = demand.mate, demand.ports
    matched = []
    mismatches = []
    for j in range(n // 2):
        a, b = perm[2 * j], perm[2 * j + 1]
        if 0 <= a < n and mate[a] == b:
            matched.append((j, (a, b) if a < b else (b, a)))
        else:
            mismatches.append(j)
    return PairingReport(not mismatches, tuple(matched), tuple(mismatches))


def estimate_loss(
    depths: Sequence[int], per_switch_db: float, insertion_db: float
) -> tuple[float, ...]:
    """Linear loss model: loss_i = insertion_db + depth_i * per_switch_db."""
    if per_switch_db < 0 or insertion_db < 0:
        raise InvalidInput("loss parameters must be non-negative")
    return tuple(insertion_db + d * per_switch_db for d in depths)
