"""Deterministic photon propagation and derived measurements."""
from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from io import BytesIO
from itertools import chain, islice, repeat
from numbers import Real
from operator import add, is_, itemgetter, mul
from struct import iter_unpack
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import BoundExceeded, IncompleteStates, InvalidInput
from .routing import PairList, RoutingPlan, StateVector, _check_demand
from .topology import (Design, Network, State, _brickwork_columns, _triangular_layers,
                       optimal_switch_count)


def _state_bits(states: Mapping[int, State], count: int) -> bytes:
    """Any id -> State mapping as one byte per id 0..count-1, 1 for Cross,
    looked up in one pass over the ids; a StateVector over those ids gives
    its own bytes."""
    if isinstance(states, StateVector) and len(states) == count:
        return states.bits
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


# ---------------------------------------------------------------------------
# Bit-sliced lanes: many plans or switch configurations in one pass
# ---------------------------------------------------------------------------
# A lane is one bit of every Python int (Biham, FSE 1997).  Each line holds
# the bit planes of its photon's id, of that photon's mate and of its depth
# counter; a switch swaps its two lines' planes in the lanes of its Cross
# mask.  Lane k of a chunk is bit k, so the lowest set bit is the first lane.

_MASK_DIGITS = b"0" + b"1" * 255  # any nonzero state byte reads as Cross
_PLANE_DIGITS = tuple(bytes(48 + (v >> b & 1) for v in range(256)) for b in range(8))


def _lane_start(full: int, mates: list[list[int]], depth_bits: int) -> list[list[int]]:
    """Per line p: the planes of photon p, of its mate and a zero depth."""
    ids = range(len(mates[0]))
    return [[full if p >> b & 1 else 0 for b in ids] + mate + [0] * depth_bits
            for p, mate in enumerate(mates)]


def _lane_kernel(lines: Sequence[int], masks: Sequence[int], full: int,
                 state: list[list[int]], depth_bits: int) -> None:
    """Apply switch k (upper line ``lines[k]``) to every lane of ``state``,
    crossing in the lanes set in ``masks[k]``; the last ``depth_bits``
    planes of each line count the switches its photon passed."""
    counter = range(len(state[0]) - depth_bits, len(state[0]))
    for i, m in zip(lines, masks):
        a, b = state[i], state[i + 1]
        for c in (a, b) if depth_bits else ():  # +1 in every lane, carry rippling up
            carry = full
            for x in counter:
                v = c[x]
                c[x] = v ^ carry
                carry &= v
                if not carry:
                    break
        if m == full:
            state[i], state[i + 1] = b, a
        elif m:
            t = [(p ^ q) & m for p, q in zip(a, b)]
            state[i] = [p ^ u for p, u in zip(a, t)]
            state[i + 1] = [q ^ u for q, u in zip(b, t)]


def _lane_checks(state: list[list[int]], full: int, width: int,
                 predicted: list[list[int]] | None, depth_bits: int) -> tuple[int, int, int, int]:
    """Read the lanes after :func:`_lane_kernel`, ids ``width`` planes wide.

    Returns the lanes whose permutation differs from ``predicted`` (None:
    not checked), the lanes where the photon on line 2j+1 is not the mate
    of the one on 2j, and the largest and smallest depth over the lanes
    that pass both checks (0 and -1 when none does).
    """
    ids = range(width)
    wrong_perm = wrong_pair = 0
    for planes, want in zip(state, predicted or ()):
        for x in ids:
            wrong_perm |= planes[x] ^ want[x]
    for top, bottom in zip(state[::2], state[1::2]):
        for x in ids:
            wrong_pair |= top[width + x] ^ bottom[x]
    ok = full & ~(wrong_perm | wrong_pair)
    if not ok:
        return wrong_perm, wrong_pair, 0, -1
    counters = [planes[2 * width:] for planes in state]
    extrema = []
    for flip in (0, full):  # the largest depth, then the largest complement
        live, value = [ok] * len(counters), 0
        for x in reversed(range(depth_bits)):
            hits = [lane & (c[x] ^ flip) for lane, c in zip(live, counters)]
            if any(hits):
                value |= 1 << x
                live = hits
        extrema.append(value)
    return wrong_perm, wrong_pair, extrema[0], (1 << depth_bits) - 1 - extrema[1]


def _id_planes(data: bytes, count: int, bits: int) -> list[list[int]]:
    """Planes of id c of every row of :func:`_fields` bytes (row k in lane
    k), for each c < ``count``."""
    width = 1 if count <= 256 else 2
    stride = width * count
    out = []
    for c in range(0, stride, width):
        column = [data[c + w::stride][::-1] for w in range(width)]
        out.append([int(column[b >> 3].translate(_PLANE_DIGITS[b & 7]), 2) for b in range(bits)])
    return out


def _predicted(ports: int, count: int,
               plans: Sequence[tuple[bytearray, tuple[int, ...]]]) -> bytes | None:
    """The plans' predicted permutations as :func:`_fields`, or None when a
    plan is not one state byte per switch of ``count`` and a tuple of N ids
    in range."""
    if not all(type(states) is bytearray and len(states) == count and type(permuted) is tuple
               and len(permuted) == ports for states, permuted in plans):
        return None
    try:
        return _fields([permuted for _, permuted in plans], ports)
    except (TypeError, ValueError, OverflowError):
        return None


def _check_plans(
    net: Network, mates: Sequence[Sequence[int]],
    plans: Sequence[tuple[bytearray, tuple[int, ...]]],
) -> tuple[int, int, int] | None:
    """Simulate and pair-check routed plans as lanes, plan k in lane k.

    Plan k is the state bytes and predicted permutation a routing core
    returns for the partner table ``mates[k]``.  Returns the lanes that fail
    (predicted permutation or pairing) and the largest and smallest depth
    over the rest, or None when a plan is not one state byte per switch with
    an in-range predicted permutation.  On a network from
    :func:`~pairswitch.topology.build_network` a depth is at most N - 2.
    """
    ports, count, lanes = net.ports, len(net.lines), len(plans)
    bits, data = (ports - 1).bit_length(), _predicted(ports, count, plans)
    if data is None:
        return None
    predicted = _id_planes(data, ports, bits)
    joined = b"".join(reversed([states for states, _ in plans])).translate(_MASK_DIGITS)
    masks = [int(joined[k::count], 2) for k in range(count)]
    mate_planes = _id_planes(_fields(mates, ports), ports, bits)
    full, depth_bits = (1 << lanes) - 1, (ports - 2).bit_length()
    state = _lane_start(full, mate_planes, depth_bits)
    _lane_kernel(net.lines, masks, full, state, depth_bits)
    wrong_perm, wrong_pair, high, low = _lane_checks(state, full, bits, predicted, depth_bits)
    return wrong_perm | wrong_pair, high, low


# ---------------------------------------------------------------------------
# Byte lanes: a few plans in one pass
# ---------------------------------------------------------------------------
# SIMD within a register (Lamport, CACM 1975): fields of w bytes,
# little-endian, plan k in field k of each block of lanes * w bytes; a field
# holds a photon on a line, or that photon's depth.  Any network steps one
# switch at a time: each line is one int of a photon block and a depth
# block, a switch adds 1 to every depth field of both its lines, then swaps
# the two ints under its Cross mask.  A brickwork or triangular network as
# build_network lays it out steps one column at a time, a column being
# switches on disjoint line pairs 2h + parity for h = 0, 1, ...: block h of
# four ints holds line 2h or 2h + 1, photons and depths apart, one-byte
# fields in a plane of low bytes and, past N = 256, one of high bytes, and
# a column is a few operations on them.  A brickwork column's switches sit
# at consecutive ids (Clements et al., Optica 2016); a triangular network's
# switch k of the t-th layer traversed runs in column 2t + k, the parallel
# schedule of a bubble-sort network (Knuth, TAOCP Vol. 3, 5.3.4).

_CROSS_BYTES = b"\x00" + b"\xff" * 255  # any nonzero state byte reads as Cross


def _fields(rows: Sequence[Sequence[int]], ports: int) -> bytes:
    """The rows' ids one after another, little-endian, one byte each up to
    N = 256 and two above; an id outside 0..N-1 raises ValueError (or
    OverflowError, TypeError)."""
    flat = chain.from_iterable(rows)
    out = bytes(flat) if ports <= 256 else array("H", flat)
    if out.translate(None, bytes(range(ports))) if ports <= 256 else max(out) >= ports:
        raise ValueError("id out of range")  # with one-byte ids, a byte left is out of range
    if ports > 256 and sys.byteorder == "big":
        out.byteswap()
    return bytes(out)


def _mask_image(plans: Iterable[bytes], count: int, width: int, stride: int,
                flip: bool = False) -> bytearray:
    """One ``stride``-byte record per switch in the order of the plans'
    state bytes: the bytes of plan k's field, k * width on (counted from the
    record's end when ``flip``), are 0xff where plan k has the switch Cross.
    One strided write per plan and byte."""
    image = bytearray(stride * count)
    for k, states in enumerate(plans):
        cross = states.translate(_CROSS_BYTES)
        for at in range(k * width, (k + 1) * width):
            image[stride - 1 - at if flip else at::stride] = cross
    return image


def _byte_masks(plans: Sequence[tuple[bytearray, tuple[int, ...]]], count: int,
                width: int) -> Iterable[int]:
    """Per switch, the bytes of the plans' fields where it is Cross, as an
    int, read back in C: one machine word a switch while a row fits in 8
    bytes."""
    size, states = len(plans) * width, [states for states, _ in plans]
    if size <= 8:
        return memoryview(_mask_image(states, count, width, 8, sys.byteorder == "big")).cast("Q")
    return map(int.from_bytes, chain.from_iterable(
        iter_unpack(f"{size}s", _mask_image(states, count, width, size))), repeat("little"))


def _switch_lanes(net: Network, plans: Sequence[tuple[bytearray, tuple[int, ...]]],
                  width: int) -> tuple[bytes, bytes, int, bytes, int]:
    """Step any network one switch at a time.  Each line is one int of a
    photon block and a depth block; a switch adds 1 to every depth field of
    both its lines, then swaps the two ints under its Cross mask.  Returns
    the readback that :func:`_column_lanes` describes, from one pass over the
    lines: here one buffer holds both the photon and the depth fields."""
    ports, lanes = net.ports, len(plans)
    size = lanes * width  # bytes in a block
    one = int.from_bytes((b"\x01" + bytes(width - 1)) * lanes, "little")
    step, spread = one << 8 * size, 1 | 1 << 8 * size
    full = (1 << 16 * size) - 1
    state = [p * one for p in range(ports)]
    for i, m in zip(net.lines, map(spread.__mul__, _byte_masks(plans, len(net.lines), width))):
        a = state[i] + step
        b = state[i + 1] + step
        if m == full:
            state[i], state[i + 1] = b, a
        elif m:
            t = (a ^ b) & m
            state[i], state[i + 1] = a ^ t, b ^ t
        else:
            state[i], state[i + 1] = a, b
    # line p's photon block at field 2p * lanes, its depth block after it
    lines = b"".join(map(int.to_bytes, state, repeat(2 * size), repeat("little")))
    return lines, lines[2 * size :], 4 * lanes, lines[size:], 2 * lanes


class _Columns(NamedTuple):
    """A network as :func:`~pairswitch.topology.build_network` lays out
    brickwork or triangular, as the byte lanes step it: one column at a
    time, each column's Cross masks read from consecutive records of a mask
    image with one record per switch, in column order."""

    ports: int
    count: int  # switches
    parities: Sequence[int]  # per column in order
    sizes: Sequence[int]  # per column in order: its switches
    # Brickwork's columns are in id order: None.  Triangular: the N-byte id
    # slices and then the slices of those rows that put a plan's state bytes
    # in column order.
    order: tuple[list[slice], list[slice]] | None


def _columns(design: Design, ports: int) -> _Columns | None:
    """The column schedule of the brickwork or triangular network that
    :func:`~pairswitch.topology.build_network` lays out for N ports, without
    building it; None for chevron."""
    count = optimal_switch_count(ports)
    if design is Design.BRICKWORK:  # a column's switches sit at consecutive ids
        _, parities, _, sizes = zip(*_brickwork_columns(ports))
        return _Columns(ports, count, parities, sizes, None)
    if design is not Design.TRIANGULAR:
        return None
    # Column s holds lines s % 2, s % 2 + 2, ..., s: s // 2 + 1 switches,
    # the one of each layer t <= s // 2 on line s - 2t.  With the t-th layer
    # traversed at byte t * N of a row each, column s is one strided slice
    # from byte s // 2 * (N - 2) + s (aN and aN + 1 for s = 2a and 2a + 1),
    # t falling as the line rises.
    firsts = list(map(itemgetter(1), _triangular_layers(ports)))
    rows = list(map(slice, firsts, map(add, firsts, repeat(ports))))
    pairs = range(1, ports // 2)
    starts = range(0, ports * len(rows), ports)
    gathers = map(slice, chain.from_iterable(zip(starts, map(add, starts, repeat(1)))),
                  repeat(None), repeat(2 - ports))
    return _Columns(ports, count, [0, 1] * len(rows), list(chain.from_iterable(zip(pairs, pairs))),
                    (rows, list(gathers)))


def _in_columns(states: bytearray, order: tuple[list[slice], list[slice]], ports: int) -> bytes:
    """A plan's state bytes in column order: the N-byte rows ``order[0]``
    of them, padded at the end so that every row is whole, then the column
    slices ``order[1]`` of those rows."""
    rows, gathers = order
    rowed = b"".join(map(memoryview(states + bytes(ports)).__getitem__, rows))
    return b"".join(map(rowed.__getitem__, gathers))


def _two_byte(low: bytes, high: bytes) -> bytes:
    """Two-byte little-endian fields from their low and their high bytes."""
    out = bytearray(2 * len(low))
    out[0::2], out[1::2] = low, high
    return bytes(out)


def _column_lanes(columns: _Columns, plans: Sequence[tuple[bytearray, tuple[int, ...]]],
                  width: int) -> tuple[bytes, bytes, int, bytes, int]:
    """Step a network one column at a time.  Block h of four ints holds
    line 2h or 2h + 1: photons on even lines, on odd lines, and their
    depths, one byte a plan.  A parity-0 column pairs even block h with odd
    block h, a parity-1 column odd block h with even block h + 1, for h
    below its size; its Cross mask is one read of its consecutive records.
    With two-byte ids each int holds two planes of N/2 blocks, the low
    bytes and above them the high bytes, and one mask serves both.  A depth
    field's low byte gains at most 1 a column, so every 128 columns its bit
    7 moves to the high byte as 1: the depth is low + 128 * high.

    Returns the fields of the photons on even lines and on odd lines with
    the stride between one plan's fields in them, then the depth fields with
    theirs: plan k's are fields k, k + stride, ... .  Here the depth fields
    hold nothing else, so their stride is the lane count.
    """
    ports, lanes = columns.ports, len(plans)
    shift, half = 8 * lanes, ports // 2  # shift: the bits in a block
    plane = shift * half if width == 2 else 0  # the bits in the low plane, if there is a high one
    bits = (states for states, _ in plans)
    if columns.order is not None:  # each plan's state bytes in column order, one at a time
        bits = (_in_columns(states, columns.order, ports) for states in bits)
    # a record a switch, each column's read in turn in C
    reads = map(BytesIO(_mask_image(bits, columns.count, 1, lanes)).read,
                map(mul, columns.sizes, repeat(lanes)))
    masks = map(int.from_bytes, reads, repeat("little"))
    if plane:
        masks = (m | m << plane for m in masks)
    field = b"\x01" * lanes  # 1 in every field of a block
    every = int.from_bytes(field * half, "little")  # 1 in every field of the low plane
    # block h of the even lines holds photon 2h in every field, a plane per byte
    starts, ids = bytearray(width * half * lanes), _fields([range(0, ports, 2)], ports)
    starts[::lanes] = b"".join(ids[at::width] for at in range(width))
    evens = int.from_bytes(starts, "little") * int.from_bytes(field, "little")
    odds = evens + every
    deep_evens = deep_odds = 0
    steps = zip(columns.parities, columns.sizes, masks)
    for _ in range(0, len(columns.sizes), 128):  # then a depth's low bytes are carried
        for parity, count, m in islice(steps, 128):
            ones = every >> shift * (half - count)
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
        return evens, odds, lanes, deep_evens + deep_odds, lanes
    # two-byte fields from the planes; a depth's high byte counts 128
    evens, odds = _two_byte(evens[:size], evens[size:]), _two_byte(odds[:size], odds[size:])
    zeros = bytes(2 * size)
    lows = int.from_bytes(_two_byte(deep_evens[:size] + deep_odds[:size], zeros), "little")
    highs = int.from_bytes(_two_byte(deep_evens[size:] + deep_odds[size:], zeros), "little")
    return evens, odds, lanes, (lows + (highs << 7)).to_bytes(4 * size, "little"), lanes


def _check_bytes(
    net: Network | _Columns, mates: Sequence[Sequence[int]],
    plans: Sequence[tuple[bytearray, tuple[int, ...]]],
) -> tuple[int, int, int] | None:
    """:func:`_check_plans` on byte lanes, plan k in field k: the same result,
    with the same depth bound on ``net``.  The pairing is checked on the
    predicted permutations, which the lanes then compare with the simulated
    ones.  A :class:`Network` steps a switch at a time; the
    :func:`_columns` of a design and N step a column at a time."""
    ports, lanes = net.ports, len(plans)
    stepped = isinstance(net, Network)
    predicted = _predicted(ports, len(net.lines) if stepped else net.count, plans)
    if predicted is None:
        return None
    width = 1 if ports <= 256 else 2
    if stepped:
        evens, odds, stride, depths, deep = _switch_lanes(net, plans, width)
    else:
        evens, odds, stride, depths, deep = _column_lanes(net, plans, width)
    # plan k's photons on lines 0, 2, ... are fields k, k + stride, ... of
    # evens, on lines 1, 3, ... the same fields of odds; its depths are
    # fields k, k + deep, ... of depths
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
        if unpaired or evens[k::stride] != tops or odds[k::stride] != bottoms:
            flagged |= 1 << k
    kept = [k for k in range(lanes) if not flagged >> k & 1]
    if not kept:
        return flagged, 0, -1
    if len(kept) == lanes == deep:  # every depth field counts: one pass
        return flagged, max(depths), min(depths)
    walks = [depths[k::deep] for k in kept]
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
                               for m in demand.mate], 0)
    # the low switches come first in traversal order: one pass for them all
    _lane_kernel(net.lines[:low], _lane_patterns(low), full, start, 0)
    high = net.lines[low:]
    for chunk in range(1 << (count - low)):
        state = list(start)  # a uniform mask only moves whole plane lists
        _lane_kernel(high, [full if chunk >> k & 1 else 0 for k in range(count - low)],
                     full, state, 0)
        ok = full & ~_lane_checks(state, full, bits, None, 0)[1]
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
