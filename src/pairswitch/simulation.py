"""Deterministic photon propagation and derived measurements."""
from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from io import BytesIO
from itertools import chain, islice, repeat
from numbers import Real
from operator import add, is_, itemgetter, lshift, mul, rshift
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import BoundExceeded, IncompleteStates, InvalidInput
from .routing import PairList, RoutingPlan, StateVector, _check_demand, _check_states
from .topology import (Design, Network, State, _brickwork_columns, _check_network,
                       _chevron_layers, _triangular_layers, optimal_switch_count)


def _state_bits(states: Mapping[int, State], count: int) -> bytes:
    """Any id -> State mapping as one byte per id 0..count-1, 1 for Cross,
    looked up in one pass over the ids; a StateVector over those ids gives
    its own bytes."""
    if isinstance(states, StateVector) and len(states) == count:
        return states.bits
    _check_states(states)
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
    counts too), depths[photon].  One pass over every switch; nothing is
    kept on ``net``.
    """
    _check_network(net)
    lines = list(range(net.ports))
    depths = [0] * net.ports
    for i, cross in zip(net.lines, _state_bits(states, len(net.lines))):
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
    if not isinstance(demand, PairList):
        raise InvalidInput(f"demand {demand!r:.60} is not a PairList")
    mate, n = demand.mate, demand.ports
    try:
        if len(perm) != n:
            raise InvalidInput(
                f"permutation has {len(perm)} entries, demand covers {n} ports"
            )
        matched = []
        mismatches = []
        for j in range(n // 2):
            a, b = perm[2 * j], perm[2 * j + 1]
            if 0 <= a < n and mate[a] == b:
                matched.append((j, (a, b) if a < b else (b, a)))
            else:
                mismatches.append(j)
    except TypeError:  # no len, or an entry that is no int
        raise InvalidInput(f"permutation {perm!r:.60} is not a sequence of ints") from None
    return PairingReport(not mismatches, tuple(matched), tuple(mismatches))


# ---------------------------------------------------------------------------
# Bit-sliced lanes: switch configurations for brute force
# ---------------------------------------------------------------------------
# A lane is one bit of every Python int (Biham, FSE 1997).  Each line holds
# the bit planes of its photon's id and of that photon's mate; a switch
# swaps its two lines' planes in the lanes of its Cross mask.  Lane k is
# bit k, so the lowest set bit is the first lane.

def _lane_start(full: int, mates: list[list[int]]) -> list[list[int]]:
    """Per line p: the planes of photon p and of its mate."""
    ids = range(len(mates[0]))
    return [[full if p >> b & 1 else 0 for b in ids] + mate for p, mate in enumerate(mates)]


def _lane_kernel(lines: Sequence[int], masks: Sequence[int], full: int,
                 state: list[list[int]]) -> None:
    """Apply switch k (upper line ``lines[k]``) to every lane of ``state``,
    crossing in the lanes set in ``masks[k]``."""
    for i, m in zip(lines, masks):
        a, b = state[i], state[i + 1]
        if m == full:
            state[i], state[i + 1] = b, a
        elif m:
            t = [(p ^ q) & m for p, q in zip(a, b)]
            state[i] = [p ^ u for p, u in zip(a, t)]
            state[i + 1] = [q ^ u for q, u in zip(b, t)]


def _unpaired_lanes(state: list[list[int]], width: int) -> int:
    """The lanes where, after :func:`_lane_kernel`, the photon on line 2j+1
    is not the mate of the one on 2j, ids ``width`` planes wide."""
    wrong = 0
    for top, bottom in zip(state[::2], state[1::2]):
        for x in range(width):
            wrong |= top[width + x] ^ bottom[x]
    return wrong


# ---------------------------------------------------------------------------
# Byte fields: many plans in one pass, one int a line
# ---------------------------------------------------------------------------
# SIMD within a register (Lamport, CACM 1975): field k of an int holds plan
# k's value, one byte up to N = 256 and two little-endian bytes above, so
# the fields of every plan are strided slices of the plans' rows joined.

_CROSS_BYTES = b"\x00" + b"\xff" * 255  # any nonzero state byte reads as Cross


def _fields(rows: Sequence[Sequence[int]], ports: int) -> bytes:
    """The rows' ids one after another, little-endian, one byte each up to
    N = 256 and two above; with one-byte ids, rows of ``bytes`` are joined
    as they are.  An id that does not fit its field raises ValueError (or
    OverflowError, TypeError); :func:`_below` checks the range."""
    if ports > 256:
        out = array("H", chain.from_iterable(rows))
        if sys.byteorder == "big":
            out.byteswap()
        return bytes(out)
    try:
        return b"".join(rows)  # byte rows as they are
    except TypeError:  # a tuple row: each row made bytes
        return b"".join(map(bytes, rows))


def _below(ids: bytes, ports: int) -> bool:
    """Whether every id of ``ids``, laid out as :func:`_fields` lays them
    out, is below N: one ``translate`` with one-byte ids."""
    if ports <= 256:
        return not ids.translate(None, bytes(range(ports)))
    values = array("H", ids)
    if sys.byteorder == "big":
        values.byteswap()
    return max(values, default=0) < ports


def _predicted(ports: int, count: int,
               plans: Sequence[tuple[bytearray, Sequence[int]]]) -> bytes | None:
    """The plans' predicted permutations as :func:`_fields`, or None when a
    plan is not one state byte per switch of ``count`` and a tuple or
    ``bytes`` of N ids in range.  It checks each plan in turn, for the
    sequences a core's plans come in; an exhaustive walk's joined rows skip
    it for the O(1) length checks of :func:`_check_joined`."""
    if not all(type(states) is bytearray and len(states) == count
               and type(permuted) in (tuple, bytes) and len(permuted) == ports
               for states, permuted in plans):
        return None
    try:
        predicted = _fields([permuted for _, permuted in plans], ports)
    except (TypeError, ValueError, OverflowError):
        return None
    return predicted if _below(predicted, ports) else None


def _check_plans(
    net: Network, mates: Sequence[Sequence[int]],
    plans: Sequence[tuple[bytearray, Sequence[int]]],
) -> tuple[int, int, int] | None:
    """:func:`_check_joined` on routed plans given one at a time, plan k in
    field k: ``mates[k]`` is a partner table and ``plans[k]`` the state
    bytes and predicted permutation a routing core returns for it, each
    table and permutation a tuple or, as :func:`_fields` reads them,
    ``bytes``.  None when a plan is not one state byte per switch with an
    in-range predicted permutation (:func:`_predicted`)."""
    predicted = _predicted(net.ports, len(net.lines), plans)
    if predicted is None:
        return None
    return _check_joined(net, _fields(mates, net.ports),
                         b"".join([states for states, _ in plans]), predicted)


def _check_joined(net: Network, tables: bytes, states: bytes,
                  predicted: bytes) -> tuple[int, int, int] | None:
    """Simulate and pair-check routed plans as byte fields, plan k in field k.

    Each argument joins one row a plan, ids laid out as :func:`_fields`
    lays them out: the partner tables, the state bytes (one a switch,
    nonzero for Cross) and the predicted photon on each output line.
    Returns the lanes that fail (predicted permutation or pairing) and the
    largest and smallest depth over the rest (0 and -1 when none passes),
    or None when the rows do not hold one whole number of plans, the same
    in all three, or an id is out of range.  On a network from
    :func:`~pairswitch.topology.build_network` a depth is at most N - 2.

    Line p is one int of three parts of one field a plan: the photon on
    the line, that photon's mate and its depth.  It starts as photon p, with
    the slice of the joined partner tables that holds every plan's
    ``mate[p]``.  Switch k adds 1 to both its lines' depths and swaps the
    lines in the fields of its Cross mask, the slice of the joined state
    bytes that holds every plan's byte k.
    """
    ports, count = net.ports, len(net.lines)
    width = 1 if ports <= 256 else 2
    lanes = len(tables) // (width * ports)
    size = width * lanes  # the bytes in a part
    if (len(tables) != size * ports or len(predicted) != size * ports
            or len(states) != count * lanes or not _below(tables, ports)
            or not _below(predicted, ports)):
        return None
    shift, top = 8 * size, 16 * size  # where the mates and the depths start
    crosses = states.translate(_CROSS_BYTES)
    if width == 2:  # slices of two-byte items; a mask's two bytes are equal
        tables, predicted = memoryview(tables).cast("H"), memoryview(predicted).cast("H")
        crosses = memoryview(_two_byte(crosses, crosses)).cast("H")
    ones = int.from_bytes(b"\x01".ljust(width, b"\x00") * lanes, "little")
    deeper = ones << top
    lines = [p * ones | int.from_bytes(tables[p::ports], "little") << shift for p in range(ports)]
    for i, k in zip(net.lines, range(count)):
        m = int.from_bytes(crosses[k::count], "little")
        m |= m << shift | m << top
        a = lines[i] + deeper
        b = lines[i + 1] + deeper
        t = (a ^ b) & m
        lines[i] = a ^ t
        lines[i + 1] = b ^ t
    # a photon field differs where a photon is not the predicted one, or
    # the photon on line 2j+1 is not the mate of the one on 2j
    wrong = 0
    for p, upper, lower in zip(range(0, ports, 2), lines[::2], lines[1::2]):
        wrong |= (upper ^ int.from_bytes(predicted[p::ports], "little")
                  | lower ^ int.from_bytes(predicted[p + 1::ports], "little")
                  | upper >> shift ^ lower)
    wrong &= (1 << shift) - 1
    flagged = 0
    if wrong:  # the lanes with a field that differs
        wrong = wrong.to_bytes(size, "little")
        flagged = sum(1 << k for k in range(lanes) if any(wrong[k * width : k * width + width]))
    if flagged == (1 << lanes) - 1:  # no plan passes, or there is none
        return flagged, 0, -1
    # line-major depth fields, plan k's fields k, k + lanes, ...
    depths = b"".join([(line >> top).to_bytes(size, "little") for line in lines])
    if flagged:
        fields = memoryview(depths).cast("BH"[width - 1])
        depths = b"".join([fields[k::lanes].tobytes() for k in range(lanes)
                           if not flagged >> k & 1])
    if width == 1:  # each depth below N - 1 looked up from both ends, in C
        seen = depths.__contains__
        return (flagged, next(filter(seen, range(ports - 2, -1, -1))),
                next(filter(seen, range(ports - 1))))
    depths = array("H", depths)
    if sys.byteorder == "big":
        depths.byteswap()
    return flagged, max(depths), min(depths)


# ---------------------------------------------------------------------------
# Byte lanes: a few plans in one pass
# ---------------------------------------------------------------------------
# SIMD within a register (Lamport, CACM 1975): fields of one byte, plan k in
# field k of each block of lanes bytes; a field holds a photon on a line, or
# that photon's depth.  A network as build_network lays it out steps one
# column at a time, a column being switches on disjoint line pairs
# 2h + parity: block h of four ints holds line 2h or 2h + 1, photons and
# depths apart, one-byte fields in a plane of low bytes and, past N = 256,
# one of high bytes, and a column is a few operations on them.  The column
# schedules are the parallel schedules of sorting networks (Knuth, TAOCP
# Vol. 3, 5.3.4): a brickwork column's switches sit at consecutive ids
# (Clements et al., Optica 2016); a triangular network's switch k of the
# t-th layer traversed runs in column 2t + k; a chevron network's arm
# switch j of layer l in column l - 1 + j and an odd layer's tip in column
# 2l - 1, so a chevron column converges on the middle lines from both
# sides and may miss one line pair there.

class _Columns(NamedTuple):
    """A network as :func:`~pairswitch.topology.build_network` lays it out,
    as the byte lanes step it: one column at a time, each column's Cross
    masks read from consecutive records of a mask image with one record per
    switch, in column order."""

    ports: int
    count: int  # switches
    parities: Sequence[int]  # per column in order
    sizes: Sequence[int]  # per column in order: its records, from its first block
    # Brickwork's columns are in id order: None.  Triangular and chevron: the
    # N-byte id slices and then the slices of those rows that put a plan's
    # state bytes in column order.
    order: tuple[list[slice], list[slice]] | None
    # Chevron: per column its first block and the block it misses (a zero
    # record), or None.  Brickwork's and triangular's columns start at
    # block 0 and miss none: None.
    starts: Sequence[int] | None = None
    gaps: Sequence[int | None] | None = None


def _columns(design: Design, ports: int) -> _Columns:
    """The column schedule of the network that
    :func:`~pairswitch.topology.build_network` lays out for N ports,
    without building it."""
    count = optimal_switch_count(ports)
    if design is Design.BRICKWORK:  # a column's switches sit at consecutive ids
        _, parities, _, sizes = zip(*_brickwork_columns(ports))
        return _Columns(ports, count, parities, sizes, None)
    if design is Design.CHEVRON:
        return _chevron_columns(ports, count)
    # Column s holds lines s % 2, s % 2 + 2, ..., s: s // 2 + 1 switches,
    # the one of each layer t <= s // 2 on line s - 2t.  With the t-th layer
    # traversed at byte t * N of a row each, column s is one strided slice
    # from byte s // 2 * (N - 2) + s (aN and aN + 1 for s = 2a and 2a + 1),
    # t falling as the line rises.
    rows = _rows(map(itemgetter(1), _triangular_layers(ports)), ports)
    pairs = range(1, ports // 2)
    starts = range(0, ports * len(rows), ports)
    gathers = map(slice, chain.from_iterable(zip(starts, map(add, starts, repeat(1)))),
                  repeat(None), repeat(2 - ports))
    return _Columns(ports, count, [0, 1] * len(rows), list(chain.from_iterable(zip(pairs, pairs))),
                    (rows, list(gathers)))


def _rows(firsts: Iterable[int], ports: int) -> list[slice]:
    """The N-byte id slices from each of ``firsts``."""
    firsts = list(firsts)
    return list(map(slice, firsts, map(add, firsts, repeat(ports))))


def _chevron_columns(ports: int, count: int) -> _Columns:
    """Chevron's column schedule.  Row 0 is N bytes of padding, so zero,
    and row l holds layer l from its first id.  Column c holds arm switch
    c - l + 1 of each layer l that has one, from the top: the upper arms'
    as l falls, one strided slice; then the tip of layer (c + 1) / 2 when c
    % 4 is 1, or a zero record for the middle line pair that the column
    misses when c % 4 is 0 or 3; then the lower arms' as l rises, another
    strided slice.  So column c holds s = 2 min(c + 1, N/2 - 1) - c
    records, from line N/2 - s on."""
    half, last = ports // 2, ports // 2 - 1
    total = max(0, 2 * last - 1 + last % 2)  # an odd last layer's tip takes a column of its own
    # Layer l's upper arm switch in column c is byte l(N - 1) + c + 1 of the
    # rows, its lower arm switch byte lN + c + 1.  The upper arms run from
    # layer min(c + 1, N/2 - 1) down to (c + 1) // 2 + 1, the lower arms from
    # (c + 1) // 2 + 1, one more when c % 4 is 0, up to min(c + 1, N/2 - 1).
    # Each bound is a range in c, in two parts or one per c % 2 or c % 4.
    wide = total * (ports + 1) + 2 * ports + 4  # past every bound
    up_from = chain(range(ports, last * ports + 1, ports),  # (c + 1)N up to c = N/2 - 2
                    range(last * ports + 1, last * (ports - 1) + total + 1))
    up_to = chain.from_iterable(zip(range(1, wide, ports + 1), range(ports + 1, wide, ports + 1)))
    down_from = chain.from_iterable(zip(*(range(start, wide, 2 * ports + 4) for start in (
        2 * ports + 1, 2 * ports + 2, 2 * ports + 3, 3 * ports + 4))))
    down_to = chain(range(2 * ports + 1, (last + 1) * (ports + 1), ports + 1),
                    range((last + 1) * (ports + 1), (last + 1) * ports + total + 1))
    ups = map(slice, up_from, up_to, repeat(1 - ports))
    downs = map(slice, down_from, down_to, repeat(ports))
    zero = slice(0, 1)
    middles = ([zero, None, slice(0), zero] * half)[:total]
    tips = range(ports + 1, ports + 1 + len(middles[1::4]) * (2 * ports + 4), 2 * ports + 4)
    middles[1::4] = map(slice, tips, map(add, tips, repeat(1)))  # layer l's at l(N + 2) - 1
    _, firsts, *_ = _chevron_layers(ports)
    rows = [slice(count, count + ports), *_rows(firsts, ports)]
    sizes = [*range(2, last + 2), *range(last, 2 * last - total, -1)]
    # a column of s records starts on line N/2 - s, at block (N/2 - s) // 2
    starts = list(map(rshift, map(half.__sub__, sizes), repeat(1)))
    parities = ([half % 2, 1 - half % 2] * half)[:total]
    gaps = ([half // 2, None, None, (half - 1) // 2] * half)[:total]
    return _Columns(ports, count, parities, sizes,
                    (rows, list(chain.from_iterable(zip(ups, middles, downs)))), starts, gaps)


def _in_columns(states: bytearray, getters: tuple[itemgetter, itemgetter], ports: int) -> bytes:
    """A plan's state bytes in column order: the N-byte rows ``getters[0]``
    takes of them, padded at the end so that every row is whole, then the
    column slices ``getters[1]`` takes of those rows."""
    rows, gathers = getters
    return b"".join(gathers(b"".join(rows(memoryview(states + bytes(ports))))))


def _two_byte(low: bytes, high: bytes) -> bytes:
    """Two-byte little-endian fields from their low and their high bytes."""
    out = bytearray(2 * len(low))
    out[0::2], out[1::2] = low, high
    return bytes(out)


def _column_lanes(columns: _Columns, plans: Sequence[tuple[bytearray, tuple[int, ...]]],
                  width: int) -> tuple[bytes, bytes, bytes]:
    """Step a network one column at a time.  Block h of four ints holds
    line 2h or 2h + 1: photons on even lines, on odd lines, and their
    depths, one byte a plan.  A parity-0 column pairs even block h with odd
    block h, a parity-1 column odd block h with even block h + 1, for h
    from its first block on; its Cross mask is one read of its consecutive
    records.  With two-byte ids each int holds two planes of N/2 blocks, the
    low bytes and above them the high bytes, and one mask serves both.  A
    depth field's low byte gains at most 1 a column, so every 128 columns
    its bit 7 moves to the high byte as 1: the depth is low + 128 * high.

    Returns the fields of the photons on even lines and on odd lines, then
    the depth fields: plan k's are fields k, k + lanes, ... of each.
    """
    ports, lanes = columns.ports, len(plans)
    shift, half = 8 * lanes, ports // 2  # shift: the bits in a block
    plane = shift * half if width == 2 else 0  # the bits in the low plane, if there is a high one
    bits = (states for states, _ in plans)
    if columns.order is not None:  # each plan's state bytes in column order, one at a time
        # one C call takes every slice; an empty one first makes it return a tuple
        getters = tuple(itemgetter(slice(0), *part) for part in columns.order)
        bits = (_in_columns(states, getters, ports) for states in bits)
    # a mask image of one record a switch (or missed pair), byte k 0xff where
    # plan k has it Cross, one strided write per plan; each column's records
    # read in turn in C
    image = bytearray(lanes * sum(columns.sizes))
    for k, states in enumerate(bits):
        image[k::lanes] = states.translate(_CROSS_BYTES)
    reads = map(BytesIO(image).read, map(mul, columns.sizes, repeat(lanes)))
    masks = map(int.from_bytes, reads, repeat("little"))
    field = b"\x01" * lanes  # 1 in every field of a block
    every = int.from_bytes(field * half, "little")  # 1 in every field of the low plane
    # a column's depth ones: 1 in every field of its first size blocks
    runs = map(every.__rshift__, map(shift.__mul__, map(half.__sub__, columns.sizes)))
    if columns.starts is not None:  # shifted to the first block, less the missed one
        offsets = list(map(shift.__mul__, columns.starts))
        masks = map(lshift, masks, offsets)
        block = int.from_bytes(field, "little")
        runs = (v << at if gap is None else (v << at) - (block << shift * gap)
                for v, at, gap in zip(runs, offsets, columns.gaps))
    if plane:
        masks = (m | m << plane for m in masks)
    # block h of the even lines holds photon 2h in every field, a plane per byte
    starts, ids = bytearray(width * half * lanes), _fields([range(0, ports, 2)], ports)
    starts[::lanes] = b"".join(ids[at::width] for at in range(width))
    evens = int.from_bytes(starts, "little") * int.from_bytes(field, "little")
    odds = evens + every
    deep_evens = deep_odds = 0
    steps = zip(columns.parities, runs, masks)
    for _ in range(0, len(columns.sizes), 128):  # then a depth's low bytes are carried
        for parity, ones, m in islice(steps, 128):
            if parity:
                deep_evens += ones << shift
                deep_odds += ones
                if m:
                    t = (evens >> shift ^ odds) & m
                    evens ^= t << shift
                    odds ^= t
                    t = (deep_evens >> shift ^ deep_odds) & m
                    deep_evens ^= t << shift
                    deep_odds ^= t
            else:
                deep_evens += ones
                deep_odds += ones
                if m:
                    t = (evens ^ odds) & m
                    evens ^= t
                    odds ^= t
                    t = (deep_evens ^ deep_odds) & m
                    deep_evens ^= t
                    deep_odds ^= t
        if plane:
            carries = deep_evens >> 7 & every
            deep_evens += (carries << plane) - (carries << 7)
            carries = deep_odds >> 7 & every
            deep_odds += (carries << plane) - (carries << 7)
    size = half * lanes  # bytes in a plane
    evens, odds, deep_evens, deep_odds = (
        v.to_bytes(width * size, "little") for v in (evens, odds, deep_evens, deep_odds))
    if not plane:
        return evens, odds, deep_evens + deep_odds
    # two-byte fields from the planes; a depth's high byte counts 128
    evens, odds = _two_byte(evens[:size], evens[size:]), _two_byte(odds[:size], odds[size:])
    zeros = bytes(2 * size)
    lows = int.from_bytes(_two_byte(deep_evens[:size] + deep_odds[:size], zeros), "little")
    highs = int.from_bytes(_two_byte(deep_evens[size:] + deep_odds[size:], zeros), "little")
    return evens, odds, (lows + (highs << 7)).to_bytes(4 * size, "little")


def _check_bytes(
    columns: _Columns, mates: Sequence[Sequence[int]],
    plans: Sequence[tuple[bytearray, tuple[int, ...]]],
) -> tuple[int, int, int] | None:
    """:func:`_check_plans` on byte lanes, plan k in field k, stepping the
    :func:`_columns` of a design and N: the same result, with the same depth
    bound.  The pairing is checked on the predicted permutations, which the
    lanes then compare with the simulated ones."""
    ports, lanes = columns.ports, len(plans)
    predicted = _predicted(ports, columns.count, plans)
    if predicted is None:
        return None
    width = 1 if ports <= 256 else 2
    evens, odds, depths = _column_lanes(columns, plans, width)
    # plan k's photons on lines 0, 2, ... are fields k, k + lanes, ... of
    # evens, on lines 1, 3, ... the same fields of odds; its depths are
    # fields k, k + lanes, ... of depths
    if width == 1:
        want = predicted
    else:
        evens, odds, want, depths = (array("H", b) for b in (evens, odds, predicted, depths))
        if sys.byteorder == "big":
            for values in (evens, odds, want, depths):
                values.byteswap()
    flagged = 0
    for k, mate in zip(range(lanes), mates):
        row = k * ports
        tops, bottoms = want[row : row + ports : 2], want[row + 1 : row + ports : 2]
        # the photon on line 2j+1 is not the mate of the one on 2j, or the
        # simulated photons differ from the predicted ones
        if width == 1:  # a partner table translates one-byte ids
            unpaired = tops.translate(bytes(mate).ljust(256, b"\0")) != bottoms
        else:
            unpaired = array("H", map(mate.__getitem__, tops)) != bottoms
        if unpaired or evens[k::lanes] != tops or odds[k::lanes] != bottoms:
            flagged |= 1 << k
    kept = [k for k in range(lanes) if not flagged >> k & 1]
    if not kept:
        return flagged, 0, -1
    if len(kept) == lanes:  # every depth field counts: one pass
        return flagged, max(depths), min(depths)
    walks = [depths[k::lanes] for k in kept]
    return flagged, max(map(max, walks)), min(map(min, walks))


_LOW_SWITCHES = 16  # brute force: the low switches take fixed lane patterns

MAX_BRUTE_FORCE_SWITCHES = 24
"""Switch budget of :func:`brute_force_route`: 2^S assignments, at most
2^24 = 16,777,216, which is 256 lane passes of 2^16."""


def _lane_patterns(low: int) -> list[int]:
    """Over 2^low lanes, the lanes whose index has bit k set, k < low."""
    lanes = 1 << low
    out = []
    for k in range(low):
        # one period of 2^(k+1) lanes as little-endian bytes, k >= 3; or a byte
        unit = bytes([(0xAA, 0xCC, 0xF0)[k]]) if k < 3 else bytes(1 << k - 3) + b"\xff" * (1 << k - 3)
        repeat = max(1, lanes // (8 * len(unit)))
        out.append(int.from_bytes(unit * repeat, "little") & ((1 << lanes) - 1))
    return out


def brute_force_route(net: Network, demand: PairList) -> RoutingPlan | None:
    """Exhaustively try all 2^S state assignments in counter order (switch
    k is bit k, Cross when set) and return the first one that realizes the
    demand, or None when the demand is unroutable.

    Assignments run as lanes, 2^16 to a chunk: the low 16 switches take the
    lane index's bits, the rest the chunk index's, so the lowest passing
    lane of the first chunk with one is the first assignment.
    """
    _check_network(net)
    _check_demand(net.ports, demand)
    count = len(net.lines)
    if count > MAX_BRUTE_FORCE_SWITCHES:
        raise BoundExceeded(
            f"{count} switches exceed the {MAX_BRUTE_FORCE_SWITCHES}-switch enumeration budget"
        )
    low = min(count, _LOW_SWITCHES)
    full = (1 << (1 << low)) - 1
    bits = (net.ports - 1).bit_length()
    start = _lane_start(full, [[full if m >> b & 1 else 0 for b in range(bits)]
                               for m in demand.mate])
    # the low switches come first in traversal order: one pass for them all
    _lane_kernel(net.lines[:low], _lane_patterns(low), full, start)
    high = net.lines[low:]
    for chunk in range(1 << (count - low)):
        state = list(start)  # a uniform mask only moves whole plane lists
        _lane_kernel(high, [full if chunk >> k & 1 else 0 for k in range(count - low)],
                     full, state)
        ok = full & ~_unpaired_lanes(state, bits)
        if ok:
            assignment = chunk << low | (ok & -ok).bit_length() - 1
            states = StateVector(bytearray(assignment >> k & 1 for k in range(count)))
            return RoutingPlan(states, simulate(net, states)[0])
    return None


def estimate_loss(
    depths: Sequence[int], per_switch_db: float, insertion_db: float
) -> tuple[float, ...]:
    """Linear loss model: loss_i = insertion_db + depth_i * per_switch_db.

    Both parameters must be finite, non-negative real numbers and every
    depth a non-negative int; a bool is neither."""
    for value in (per_switch_db, insertion_db):
        # NaN fails both comparisons; math.isfinite would overflow on a huge int
        if isinstance(value, bool) or not isinstance(value, Real) or not -math.inf < value < math.inf:
            raise InvalidInput(f"loss parameter {value!r} is not a finite real number")
    if per_switch_db < 0 or insertion_db < 0:
        raise InvalidInput("loss parameters must be non-negative")
    try:
        depths = tuple(depths)
    except TypeError:
        raise InvalidInput(f"depths {depths!r} are not a sequence of ints") from None
    for d in depths:
        if isinstance(d, bool) or not isinstance(d, int) or d < 0:
            raise InvalidInput(f"depth {d!r} is not a non-negative int")
    return tuple(insertion_db + d * per_switch_db for d in depths)
