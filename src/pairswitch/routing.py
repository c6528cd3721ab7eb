"""Routing: compute switch states that bring every demanded pair together.

Each router returns a :class:`RoutingPlan` whose states, applied to the
matching network from :mod:`pairswitch.topology`, permute the inputs so the
two photons of every demanded pair exit on one output pair (2j, 2j+1).
Which output pair a demand lands on is emergent, not chosen.
"""
from __future__ import annotations

import functools
import json
import re
from bisect import bisect_left
from collections.abc import ItemsView, ValuesView
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InvalidDemand, InvalidInput, InvalidPorts
from .topology import (MAX_PORTS, Design, State, _check_ports, _chevron_layers, _design,
                       _shown, optimal_switch_count)
from .topology import _json_id, _json_int

_PAIR_TOKEN = re.compile(r"^([0-9]+)-([0-9]+)$")  # not \d, which takes any Unicode digit


def _check_demand_ports(ports: int) -> None:
    """A demand's port count: an even int >= 2, within the port budget."""
    try:
        _check_ports(ports)
    except InvalidPorts as exc:
        raise InvalidDemand(str(exc)) from None


@dataclass(frozen=True)
class PairList:
    """A perfect matching of the N inputs: the demand.

    ``mate[i]`` is the input paired with input i.  Pairs are kept canonical:
    each as (i, j) with i < j, sorted by i.
    """

    ports: int
    pairs: tuple[tuple[int, int], ...]
    mate: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ports = self.ports
        _check_demand_ports(ports)  # past the port budget, before the table below is allocated
        mate = [-1] * ports
        try:  # an entry that is no pair of ints fails an unpacking, comparison or index
            for a, b in self.pairs:
                if (a == b or not (0 <= a < ports and 0 <= b < ports)
                        or mate[a] >= 0 or mate[b] >= 0):
                    break
                mate[a] = b
                mate[b] = a
            else:
                # a bool index passes every check above as 0 or 1; in a perfect
                # matching the entries equal to 0 and 1 sit at their partners
                if -1 not in mate and bool not in (type(mate[mate[0]]), type(mate[mate[1]])):
                    object.__setattr__(self, "mate", tuple(mate))
                    object.__setattr__(
                        self, "pairs", tuple([(a, b) for a, b in enumerate(mate) if a < b])
                    )
                    return
            canonical = tuple(sorted((min(a, b), max(a, b)) for a, b in self.pairs))
        except (TypeError, ValueError):
            raise InvalidDemand(f"pairs {self.pairs!r} are not pairs of input indices") from None
        for a, b in canonical:
            if a == b:
                raise InvalidDemand(f"index {a} paired with itself")
        raise InvalidDemand(
            f"pairs {canonical} are not a perfect matching of 0..{ports - 1}"
        )

    @classmethod
    def _perfect(cls, mate: tuple[int, ...]) -> PairList:
        """A demand made without ``__post_init__``'s checks, for callers that
        build matchings themselves: ``mate`` must already be a perfect
        matching of 0..len(mate)-1, as a tuple of ints."""
        demand = object.__new__(cls)
        object.__setattr__(demand, "ports", len(mate))
        object.__setattr__(demand, "pairs", tuple([(a, b) for a, b in enumerate(mate) if a < b]))
        object.__setattr__(demand, "mate", mate)
        return demand

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[int, int]], ports: int | None = None
    ) -> PairList:
        try:
            pairs = tuple(pairs)
        except TypeError:
            raise InvalidDemand(f"pairs {pairs!r} are not pairs of input indices") from None
        if ports is None:
            ports = 2 * len(pairs)
        return cls(ports=ports, pairs=pairs)

    @classmethod
    def from_text(cls, text: str, ports: int | None = None) -> PairList:
        """Parse the ``i-j,k-l,...`` wire format (whitespace ignored)."""
        pairs = []
        for token in re.sub(r"\s+", "", text).split(","):
            if not token:
                continue
            m = _PAIR_TOKEN.match(token)
            if not m:
                raise InvalidDemand(f"malformed pair token {token!r}")
            pairs.append((int(m.group(1)), int(m.group(2))))
        if not pairs:
            raise InvalidDemand("empty pair list")
        return cls.from_pairs(pairs, ports)

    def to_text(self) -> str:
        return ",".join(f"{a}-{b}" for a, b in self.pairs)


# Indexed by a state byte: a tuple subscript, where ``State.CROSS`` is an
# attribute lookup through the enum's metaclass.
_STATE_OF_BYTE = (State.BAR,) + (State.CROSS,) * 255
_NAME_OF_BYTE = ("bar",) + ("cross",) * 255  # the state's value, for plan_to_json
_BIT_OF_BYTE = b"\x00" + b"\x01" * 255  # a state byte as 0 Bar, 1 Cross

_ONES = bytearray(b"\x01") * MAX_PORTS
"""Cross bytes for the routers' runs, each shorter than N: a slice of a
bytearray is assigned into the state bytes as it is, where ``bytes`` would
first be copied into a new bytearray.  A routing core slices each run from
it as it writes the run; an exhaustive run (:data:`_EXHAUSTIVE`) makes its
rows and templates up front."""


class StateVector(Mapping[int, State]):
    """Read-only switch id -> State mapping over one byte per switch, 1 for Cross."""

    def __init__(self, bits: bytearray) -> None:
        self.bits = bits

    def __getitem__(self, sid: int) -> State:
        if isinstance(sid, int) and 0 <= sid < len(self.bits):
            return _STATE_OF_BYTE[self.bits[sid]]
        raise KeyError(sid)

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self.bits)))

    def __len__(self) -> int:
        return len(self.bits)

    def values(self) -> ValuesView[State]:
        return _StateValues(self)

    def items(self) -> ItemsView[int, State]:
        return _StateItems(self)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, StateVector):  # any nonzero byte reads as Cross
            return self.bits.translate(_BIT_OF_BYTE) == other.bits.translate(_BIT_OF_BYTE)
        return super().__eq__(other)


def _check_states(states: object) -> None:
    """Refuse states that are no Mapping: a list, tuple, str or bytes too."""
    if not isinstance(states, Mapping):
        raise InvalidInput(f"states {_shown(states)} are not a mapping of switch ids")


class _StateValues(ValuesView):
    def __iter__(self) -> Iterator[State]:  # the bytes through the table, in one map
        return map(_STATE_OF_BYTE.__getitem__, self._mapping.bits)


class _StateItems(ItemsView):
    def __iter__(self) -> Iterator[tuple[int, State]]:
        bits = self._mapping.bits
        return zip(range(len(bits)), map(_STATE_OF_BYTE.__getitem__, bits))


@dataclass(frozen=True)
class RoutingPlan:
    states: Mapping[int, State]
    permuted: tuple[int, ...]

    @property
    def bsa(self) -> dict[int, tuple[int, int]]:
        """Analyzer j receives the photons on output lines (2j, 2j+1)."""
        return dict(enumerate(zip(self.permuted[::2], self.permuted[1::2])))


class OpCounter:
    """Counts elementary routing operations: photon-list touches,
    switch-state commits and, in brickwork, diagonal-list entries walked.

    The ticks model the paper's cascade work, which walks lines one at a
    time, not the Python steps a router takes: a partner found by bisection
    still ticks once per photon a scan would pass."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def tick(self, n: int = 1) -> None:
        self.count += n


def _check_demand(ports: int, demand: PairList) -> None:
    _check_ports(ports)
    if not isinstance(demand, PairList):
        raise InvalidDemand(f"demand {_shown(demand)} is not a PairList")
    if demand.ports != ports:
        raise InvalidDemand(
            f"demand covers {demand.ports} ports, network has {ports}"
        )


def _route_one(core, ports: int, demand: PairList, counter: OpCounter | None) -> RoutingPlan:
    """The plan ``core`` routes for ``demand``, its ports and ``counter``
    checked first."""
    _check_demand(ports, demand)
    if counter is not None and not isinstance(counter, OpCounter):
        raise InvalidInput(f"counter {_shown(counter)} is not an OpCounter")
    states, permuted = core(ports, demand.mate, counter)
    return RoutingPlan(StateVector(states), permuted)


# ---------------------------------------------------------------------------
# Triangular
# ---------------------------------------------------------------------------

def route_triangular(ports: int, demand: PairList,
                     counter: OpCounter | None = None) -> RoutingPlan:
    """Route ``demand`` on the triangular network; see :func:`_route_triangular`."""
    return _route_one(_route_triangular, ports, demand, counter)


def _route_triangular(ports: int, mate: Sequence[int], counter: OpCounter | None = None
                      ) -> tuple[bytearray, tuple[int, ...]]:
    """Bubble-style peeling: per layer, cascade the partner of the current
    bottom photon down to meet it, then recurse on the first n-2 photons.

    ``photons`` holds the n photons still unpaired, in line order.  A layer
    only removes photons from it, the bottom one and its partner, so it
    stays sorted by photon id and the partner's index is its rank, found by
    bisection.  The counter's ticks still model the cascade (a scan down to
    the partner, then the layer's switch commits and photon moves), not the
    Python steps taken.

    Returns the plan for the partner table ``mate``: the state bytes, 1 for
    Cross, and the photon on each output line."""
    photons = list(range(ports))
    permuted = [0] * ports
    states = bytearray(optimal_switch_count(ports))
    first = 0  # layer n/2-1 starts at id S - (n/2-1)(n/2)
    n = ports
    while n > 2:
        bottom = photons.pop()
        idx = bisect_left(photons, mate[bottom])
        if counter:
            counter.tick(idx + 1)
        # switches above the partner stay Bar
        states[first + idx : first + n - 2] = _ONES[: n - 2 - idx]
        permuted[n - 2], permuted[n - 1] = photons.pop(idx), bottom
        if counter:
            counter.tick(2 * n - 2)
        first += n - 2
        n -= 2
    permuted[0], permuted[1] = photons
    return states, tuple(permuted)


# an exhaustive run's chunks: the partner tables, the state bytes and the
# output lines of its demands, each joined in the run's order, one id a byte
_Chunks = Iterator[tuple[bytes, bytes, bytes]]


def _chunked(blocks: Iterable[tuple[bytes, bytes, bytes]], ports: int, size: int) -> _Chunks:
    """The joined rows of ``blocks``, each block a run of demands as a
    chunk holds them, rejoined in chunks of ``size`` demands but the last."""
    widths = ports, optimal_switch_count(ports), ports  # bytes a demand
    joined = bytearray(), bytearray(), bytearray()
    for block in blocks:
        for rows, more in zip(joined, block):
            rows += more
        while len(joined[0]) >= size * ports:
            yield tuple(bytes(rows[: size * width]) for rows, width in zip(joined, widths))
            for rows, width in zip(joined, widths):
                del rows[: size * width]
    if joined[0]:
        yield tuple(map(bytes, joined))


_Block = tuple[int, list[bytes], list[bytes], list[bytes]]


def _stamp(block: _Block, photons: Sequence[int], mate: bytearray, states: bytearray,
           lines: bytearray) -> tuple[bytearray, bytearray, bytearray]:
    """The joined rows of every demand of ``block`` below a trie node: the
    node's rows ``mate``, ``states`` and ``lines`` repeated, the block's
    columns written over the entries of its photons, its last switch ids
    and its lines.  A block is its demand count, then one column a rank (its
    partner), a switch and a line (its photon), one byte a demand, ranks
    labelling ``photons`` in order."""
    count, mates, bits, outs = block
    label = bytes(photons).ljust(256, b"\x00")  # rank -> photon, a translate table
    ports, total = len(mate), len(states)
    tables, cut, put = mate * count, states * count, lines * count
    for photon, column in zip(photons, mates):
        tables[photon::ports] = column.translate(label)
    for k, column in enumerate(bits, total - len(bits)):
        cut[k::total] = column
    for line, column in enumerate(outs):
        put[line::ports] = column.translate(label)
    return tables, cut, put


@functools.lru_cache(maxsize=None)
def _triangular_block(ports: int) -> _Block:
    """Every demand of the triangular network at N <= 8 with its plan, as
    :func:`_stamp` reads a block: frame N's partner ranks, each with frame
    N-2's block below it."""
    if ports == 2:
        rows = [(b"\x01\x00", b"", b"\x00\x01")]
    else:
        below, rows = _triangular_block(ports - 2), []
        for i in range(ports - 1):
            mate, lines = bytearray(ports), bytearray(ports)
            mate[i], mate[-1], lines[-2], lines[-1] = ports - 1, i, i, ports - 1
            states = bytearray(i) + _ONES[: ports - 2 - i] + bytes(optimal_switch_count(ports - 2))
            rows.append(_stamp(below, [*range(i), *range(i + 1, ports - 1)], mate, states, lines))
    mates, states, lines = map(b"".join, zip(*rows))
    count = len(mates) // ports
    total = len(states) // count
    return (count, [mates[p::ports] for p in range(ports)],
            [states[k::total] for k in range(total)], [lines[p::ports] for p in range(ports)])


def _exhaustive_triangular(ports: int, size: int) -> _Chunks:
    """Every demand at N with its plan, in chunks of ``size``: a depth-first
    walk of the partner-rank trie (Knuth, TAOCP Vol. 4B, 7.2.2), each level
    one layer of :func:`_route_triangular`, its bytes a row per frame size
    and rank.  Each prefix is written once for every demand below it, each
    level rewriting its own entries of the node's rows.  The levels from
    frame 8 down are one block of 105 demands, which each node of frame 8
    stamps below its rows (:func:`_stamp`); up to N = 8 the run is a block."""
    frame = min(ports, 8)
    block = _triangular_block(frame)
    rows = {(n, i): bytearray(i) + _ONES[: n - 2 - i]
            for n in range(frame + 2, ports + 1, 2) for i in range(n - 1)}
    mate, lines = bytearray(ports), bytearray(ports)
    states = bytearray(optimal_switch_count(ports))

    def walk(photons: list[int], first: int) -> Iterator[tuple[bytearray, bytearray, bytearray]]:
        n, bottom = len(photons), photons[-1]
        if n == frame:
            yield _stamp(block, photons, mate, states, lines)
            return
        end = first + n - 2
        lines[n - 1] = bottom
        for i in range(n - 1):
            partner = photons[i]
            mate[bottom], mate[partner] = partner, bottom
            states[first:end] = rows[n, i]
            lines[n - 2] = partner
            yield from walk(photons[:i] + photons[i + 1 : -1], end)

    return _chunked(walk(list(range(ports)), 0), ports, size)


# ---------------------------------------------------------------------------
# Chevron
# ---------------------------------------------------------------------------

def route_chevron(ports: int, demand: PairList,
                  counter: OpCounter | None = None) -> RoutingPlan:
    """Route ``demand`` on the chevron network; see :func:`_route_chevron`."""
    return _route_one(_route_chevron, ports, demand, counter)


@functools.lru_cache(maxsize=1)
def _chevron_windows(ports: int) -> tuple[tuple[range, range],
                                          tuple[range, range, range, list[int], list[int]]]:
    """The chevron router's per-window constants, which depend only on N,
    by columns, made by C-level passes over ``range``s and the layer table
    :func:`~pairswitch.topology._chevron_layers`.  The last N's are kept;
    each call zips them, since ``zip`` reuses its row when the caller drops
    it, where kept rows would cost every call at a new N their allocation.

    ``zip(*outer)`` gives each window's ``(top, bot)`` lines from the
    outside in, ``zip(*inner)`` each window's ``(top, bot, layer, mid,
    first)`` from the inside out, ``first`` being the layer's first id.  A
    pair entering at the middle joins the part below it on odd layers and
    the part above it on even ones, so no stored index moves: it takes
    ``mid``, -(l+1) from the bottom on odd layers l and l from the top on
    even ones.
    """
    half = ports // 2
    mid = [0] * (half - 1)  # indexed by layer - 1
    mid[::2] = range(-2, -half - 1, -2)
    mid[1::2] = range(2, half, 2)
    layers, firsts, *_ = _chevron_layers(ports)
    return ((range(half - 1), range(ports - 1, half, -1)),
            (range(half - 2, -1, -1), range(half + 1, ports), layers, mid, list(firsts)))


def _route_chevron(ports: int, mate: Sequence[int], counter: OpCounter | None = None
                   ) -> tuple[bytearray, tuple[int, ...]]:
    """Routing over nested windows: window k holds photons k..N-1-k and
    its layer is N/2-1-k.

    From the outside in, strip each window's top- and bottom-most photons.
    If they pair with each other, the whole layer goes Cross and they meet
    at the middle.  Otherwise their partners become one virtual pair for the
    inner window.  Then, from the inside out, once the virtual pair's place
    in the inner arrangement is known, at most two layer switches go Bar:
    one stopping the outer photon next to its partner, and the switch at the
    virtual pair itself when its orientation is already correct.

    The inside-out pass keeps one position per photon and no arrangement
    list, so each window costs O(1) steps.  A window's arrangement grows
    only at its middle, where its layer skips a line: a photon above that
    point keeps its index from the top and one below it its index from the
    bottom, stored as a negative, Python-style index.

    Returns the plan for the partner table ``mate``, as
    :func:`_route_triangular` does.
    """
    outer, inner = _chevron_windows(ports)
    mate = list(mate)  # rewritten as windows fold their outer pair inward
    virtual: list[tuple[int, int] | None] = []  # per window, outermost first
    for top, bot in zip(*outer):
        if counter:
            counter.tick(bot - top + 1)
        if mate[top] == bot:
            virtual.append(None)
        else:
            top_mate, bot_mate = mate[top], mate[bot]
            mate[top_mate], mate[bot_mate] = bot_mate, top_mate
            virtual.append((top_mate, bot_mate))

    states = bytearray(b"\x01") * optimal_switch_count(ports)
    pos = [0] * ports  # photon -> index in its window: >= 0 from the top, < 0 from the bottom
    pos[ports // 2] = 1  # the innermost window holds N/2-1 above N/2
    for (top, bot, layer, mid, first), pair in zip(zip(*inner), reversed(virtual)):
        if pair is None:
            pos[top], pos[bot] = mid, mid + 1
        else:
            top_mate, bot_mate = pair
            a, b = pos[top_mate], pos[bot_mate]  # adjacent, so of one sign
            lo = a if a < b else b
            if counter:
                counter.tick(2 * layer + 2)  # the window's photon count
            # the layer's ids run along the upper arm from the top, the
            # lower arm from the bottom, then an odd layer's tip; the
            # pair's own switch is Bar when the pair is already in order
            if lo >= 0:
                # upper arm or tip: outer top stops just above the pair, its
                # other member rides the rest of the arm down to the middle
                states[first + lo + 1 if lo + 1 < layer else first + 2 * layer - 1] = a > b
                states[first + lo] = 0
                pos[top], pos[top_mate], pos[bot_mate], pos[bot] = lo, lo + 1, mid, mid + 1
            else:
                # lower arm (mirror of the upper case)
                states[first + layer - lo - 1] = a > b
                states[first + layer - lo - 2] = 0
                pos[top], pos[top_mate], pos[bot_mate], pos[bot] = mid, mid + 1, lo, lo + 1
        if counter:
            counter.tick(2 * layer)

    permuted = [0] * ports
    for photon, index in enumerate(pos):
        permuted[index] = photon
    return states, tuple(permuted)


_NEXT_ID = bytes(range(1, 256)) + b"\x00"  # one-byte ids i -> i + 1, as a translate table


def _exhaustive_chevron(ports: int, size: int) -> _Chunks:
    """Every demand at N with its plan, in chunks of ``size``, folded from
    the run at N-2, the network two ports smaller on lines 1..N-2 (Michie,
    Nature 1968).  Each inner demand gives N-1 at N: 0 paired with N-1, or
    0 and N-1 with the two photons of one inner pair, in either order, each
    routing only the outer layer as :func:`_route_chevron`'s last window
    does."""
    return _chunked(_chevron_blocks(ports, size), ports, size)


def _chevron_blocks(ports: int, size: int) -> Iterator[tuple[bytearray, bytearray, bytearray]]:
    """:func:`_exhaustive_chevron`'s demands, a block of N-1 for each inner
    demand: its rows at N repeated, each copy but the first rewriting the
    outer pair's entries."""
    if ports == 2:
        yield b"\x01\x00", b"", b"\x00\x01"
        return
    last, layer, inner = ports - 1, ports // 2 - 1, ports - 2
    first = optimal_switch_count(inner)  # the outer layer's first id
    count = first + ports - 2
    mid = layer + (layer & 1)  # where the outer pair enters; inner lines above it keep their index
    cross, ends = _ONES[: ports - 2], bytes((0, last))
    # each inner demand gives N-1 here, so inner chunks of size // (N-1)
    # keep about one chunk's plans across the fold's levels
    for tables, states, lines in _exhaustive_chevron(inner, max(1, size // last)):
        tables, lines = tables.translate(_NEXT_ID), lines.translate(_NEXT_ID)
        for k, at in enumerate(range(0, len(tables), inner)):
            mate = bytearray((last,)) + tables[at : at + inner] + b"\x00"
            row = bytearray(lines[at : at + mid]) + ends + lines[at + mid : at + inner]
            where = sorted(range(ports), key=row.__getitem__)  # photon -> its line
            out = mate * last
            cut = (bytearray(states[k * first : k * first + first]) + cross) * last
            put = row * last
            for top_mate in range(1, last):
                bot_mate = mate[top_mate]
                t, s = top_mate * ports, top_mate * count + first
                out[t], out[t + top_mate], out[t + bot_mate], out[t + last] = (
                    top_mate, 0, last, bot_mate)
                a, b = where[top_mate], where[bot_mate]  # adjacent, on one side of mid
                lo = a if a < b else b
                # _route_chevron's last window, with lo counted from the top
                if lo < mid:
                    cut[s + lo + 1 if lo + 1 < layer else s + 2 * layer - 1] = a > b
                    cut[s + lo] = 0
                    put[t + lo], put[t + lo + 1], put[t + mid], put[t + mid + 1] = (
                        0, top_mate, bot_mate, last)
                else:
                    cut[s + layer + ports - lo - 1] = a > b
                    cut[s + layer + ports - lo - 2] = 0
                    put[t + mid], put[t + mid + 1], put[t + lo], put[t + lo + 1] = (
                        0, top_mate, bot_mate, last)
            yield out, cut, put


# ---------------------------------------------------------------------------
# Brickwork
# ---------------------------------------------------------------------------
#
# The brickwork router works in "frame" coordinates.  A frame of size n is a
# standard brickwork grid: columns c = 0..n/2-1 (column c holds layer
# n/2 - c, so its lines have parity (n/2 - c) % 2); column 0 holds only
# n//4 lines, every later column all lines of its parity.  One iteration
# pairs the frame's bottom photon with its partner:
#
#   * the partner drops one line per column along a diagonal of Cross
#     switches, starting at the first switch it encounters (if that switch
#     couples it from above, it is set Bar and the diagonal starts one
#     column later);
#   * if the diagonal cannot reach line n-2, the bottom photon rises to
#     meet it, using the latest possible columns (also Cross).
#
# Removing the two committed paths leaves a grid whose surviving switches
# form a standard brickwork of size n-2: cells left of a removed corridor
# keep their column, cells right of it shift by one, and lines close up
# around the removed pair.  Switches that survive but fit no cell of the
# smaller frame can only ever touch a committed photon, so they stay Bar.
#
# The router keeps no table of frame cells.  Frame cell (c, j) lies on the
# physical anti-diagonal line + col = j + c + skip and on the diagonal
# line - col = j - c - skip, where skip counts the iterations done.  The
# partner's path is one diagonal and the bottom photon's one anti-diagonal,
# and removing those two is all that shrinking the frame does to them: the
# frame's k-th diagonal is the k-th physical diagonal still in `diag`, and
# likewise for `anti`.  Every line + col and line - col has the parity of
# N/2, so the lists hold each as x >> 1, which loses nothing: frame cell
# (c, j) is entry (j + c + skip) // 2 of `anti` and (j - c - skip + N/2) // 2
# = (j - c + n/2) // 2 of `diag`, and a cell's column is its `anti` entry
# less its `diag` entry.  A Cross run keeps to one entry of one list; its
# first and last cells are two entries of the other.  An iteration writes
# its runs and deletes the two entries it used.
#
# Past column 0, switch ids are affine along both kinds of diagonal.  The
# cell with `diag` entry d in column col > 0 (line - col = 2d + N/2 % 2)
# has id
#
#     N//4 - N/2 + N/2 % 2 + d + (N/2)*col,
#
# so one step along a diagonal adds N/2 to the id, one step along an
# anti-diagonal N/2 - 1.  Column 0 holds ids 0..N//4 - 1, line // 2 on each
# of its lines, which is the cell's `diag` entry.  A run is one strided
# slice of `states`, written at once as ones: the loop computes its first
# id from this formula and its length from the span of columns it covers.
# Column 0 breaks the stride and can only hold the first cell of the
# partner's run, which is then written alone.  The bottom photon's run ends
# in the last column and has at most n/2 - 1 cells, since a partner on
# line 0 starts its diagonal by column 1.
#
# The list ranks an iteration reads and its ticks, one row (j_meet, rd, ra,
# rb, pa, qa, qb, ticks), depend only on N, the frame size n and the
# partner's rank, and one arithmetic in the loop works each row out.  One
# loop body then writes the runs and pops the lists.  An exhaustive run
# reads every row from one table made per run (:func:`_brickwork_rows`).
#
# No run end is checked against the grid, and no run for being empty.  At
# every even N a partner below line n - 2 has a run of at least one cell,
# each end holds a switch and the bottom photon's run stays past column 0,
# by induction on the frame size (Waksman, JACM 1968): frame N is the
# network itself, and for every frame size n, partner rank and parity of
# skip, the partner's run is not empty (j_meet > i), both runs end on
# frame cells and every cell of frame n - 2, read past the two removed
# entries, reads a cell of frame n.  tools/brickwork_frames.py checks this
# to any bound and the tests to n = 256.  A row reads skip only through its
# parity and an offset skip // 2 shared by every `anti` rank, so that
# covers every depth.  The tests tie the model to this loop at every depth
# for N <= 64, each run it writes and each meeting line, and to every row
# of the exhaustive run's table for N <= 64.  Line and column are
# monotone along a run, so when both ends hold a switch the cells between
# do too.  Odd N breaks the step (a frame's last run can start at a
# column-0 cell that holds no switch); every way into this core rejects it
# first.
#
# The slice also covers the cells where the run crosses a line already
# removed, and writing ones there changes nothing:
#
#   * each diagonal and each anti-diagonal carries at most one run in its
#     life, since the iteration that writes a run on a line removes it;
#   * a removed line's own run has already set Cross on every cell where a
#     later run crosses it.  That run spans the part of its line inside its
#     frame that later frames can reach (the partner's from its first
#     switch to the meeting line, the bottom photon's from the bottom line
#     to the last column), and every later frame lies within that frame.

def route_brickwork(ports: int, demand: PairList,
                    counter: OpCounter | None = None) -> RoutingPlan:
    """Route ``demand`` on the brickwork network; see :func:`_route_brickwork`."""
    return _route_one(_route_brickwork, ports, demand, counter)


def _route_brickwork(ports: int, mate: Sequence[int], counter: OpCounter | None = None
                     ) -> tuple[bytearray, tuple[int, ...]]:
    """Pair the bottom-most photon first: its partner moves down as soon as
    possible, the bottom photon up as late as necessary; recurse on the
    surviving smaller brickwork.

    ``photons`` holds the frame's unpaired photons, in line order.  Each
    iteration only removes photons from it, the bottom one and its partner,
    so it stays sorted by photon id and the partner's frame line is its rank
    i, found by bisection.  The rest of the iteration reads one row of list
    ranks and ticks, worked out inline.  Counter ticks are the cascade's, as
    in :func:`_route_triangular`, and so is what it returns."""
    lines, anti, diag, count, base, fall, rise = _brickwork_frame(ports)
    half0 = ports // 2
    states = bytearray(count)
    # the photons, and frame line -> physical output line
    photons, frame_out, anti, diag = list(lines), list(lines), list(anti), list(diag)
    result = [0] * ports
    for _ in range(half0 - 1):
        bottom = photons.pop()
        i = bisect_left(photons, mate[bottom])
        n = len(photons) + 1
        j_meet = n - 2
        rd = ra = rb = pa = qa = qb = None
        if i < j_meet:
            half = n >> 1
            # column 0 holds the lines of half's parity up to half-2, column 1
            # every line of the other.  A partner off half's parity starts in
            # column 1, past column 0's switch above it if there is one; one
            # on it in column 0 up to line half-2, else in column 2, past
            # column 1's switch above it.  A switch passed stays Bar and ticks.
            cstart = 1 if (i + half) & 1 else 0 if i <= half - 2 else 2
            rd, ra = (i - cstart + half) >> 1, (i + cstart + half0 - half) >> 1
            # worked out only for a counter, which saves about 4 % of a route
            ticks = counter and (
                4 * n - 3 - i + (0 < i < half if cstart == 1 else i >= half - 1))
            if i + half - cstart < j_meet:  # the bottom photon rises to meet it
                j_meet = i + half - cstart
                qa = j_meet >> 1  # ranks count past the partner's diagonal
                pa, qb = (j_meet + half0) >> 1, qa + n - 3 - j_meet
            rb = ra + j_meet - i - 1
        else:  # rank n - 1 pairs no photon: it ticks its scan, then its pop raises
            ticks = 3 * n - 1 if i == j_meet else n
        if counter:
            counter.tick(ticks)
        if rd is not None:
            d = diag.pop(rd)
            col = anti[ra] - d
            if not col:  # column 0 breaks the stride: its switch, id d, is written alone
                states[d] = 1
                col = 1
            first = base + d + fall * col
            run = anti[rb] - d - col + 1
            states[first : first + fall * run : fall] = _ONES[:run]
            if pa is not None:
                a = anti.pop(pa)
                lo, hi = diag[qa], diag[qb]
                first = base + hi + fall * (a - hi)
                run = hi - lo + 1
                states[first : first + rise * run : rise] = _ONES[:run]
        result[frame_out.pop(j_meet)] = photons.pop(i)
        result[frame_out.pop(j_meet)] = bottom
    result[frame_out[0]] = photons[0]
    result[frame_out[1]] = photons[1]
    return states, tuple(result)


@functools.lru_cache(maxsize=1)
def _brickwork_frame(ports: int) -> tuple[range, range, range, int, int, int, int]:
    """Frame N, kept for the last N as :func:`_chevron_windows` is: the
    lines, ``anti`` and ``diag`` (every line + col and line - col, halved),
    the switch count and the id constants ``base``, ``fall`` and ``rise``.
    Cell (col > 0, ``diag`` entry d) has id base + d + fall*col; fall and
    rise are the id strides along a diagonal and an anti-diagonal.  Halved,
    the sums N/2 % 2, N/2 % 2 + 2, ... below N + N/2 and the differences
    -N/2, -N/2 + 2, ... below N are each a run of consecutive ints."""
    half0 = ports // 2
    return (range(ports), range(len(range(half0 % 2, ports + half0, 2))),
            range(-half0 >> 1, (-half0 >> 1) + len(range(-half0, ports, 2))),
            optimal_switch_count(ports), ports // 4 - half0 + half0 % 2, half0, half0 - 1)


def _brickwork_rows(ports: int) -> dict[tuple[int, int], tuple]:
    """Per (frame size n, partner rank i < n - 1), :func:`_route_brickwork`'s
    row less its ticks, qa and qb counting ``diag`` before rd's removal."""
    half0, rows = ports // 2, {}
    for n in range(2, ports + 1, 2):
        half = n >> 1
        rows[n, n - 2] = n - 2, None, None, None, None, None, None
        for i in range(n - 2):
            cstart = 1 if (i + half) & 1 else 0 if i <= half - 2 else 2
            rd, ra = (i - cstart + half) >> 1, (i + cstart + half0 - half) >> 1
            j_meet, pa, qa, qb = min(i + half - cstart, n - 2), None, None, None
            if j_meet < n - 2:  # the bottom photon rises to meet it
                qa = (j_meet >> 1) + 1
                pa, qb = (j_meet + half0) >> 1, qa + n - 3 - j_meet
            rows[n, i] = j_meet, rd, ra, ra + j_meet - i - 1, pa, qa, qb
    return rows


def _exhaustive_brickwork(ports: int, size: int) -> _Chunks:
    """:func:`_exhaustive_triangular`'s walk, each level one iteration of
    :func:`_route_brickwork`, its row from :func:`_brickwork_rows`; each trie
    node copies its frame's lists and state bytes for the levels below."""
    frame, anti, diag, count, base, fall, rise = _brickwork_frame(ports)
    rows, runs = _brickwork_rows(ports), [_ONES[:run] for run in range(ports)]
    mate, result = bytearray(ports), bytearray(ports)
    tables, bits, lines = bytearray(), bytearray(), bytearray()  # a chunk's joined rows
    full = size * ports

    def walk(photons: list[int], frame_out: list[int], anti: list[int], diag: list[int],
             states: bytearray) -> _Chunks:
        n, bottom = len(photons), photons[-1]
        for i in range(n - 1):
            partner = photons[i]
            mate[bottom], mate[partner] = partner, bottom
            j_meet, rd, ra, rb, pa, qa, qb = rows[n, i]
            cut = states[:]
            if rd is not None:
                d = diag[rd]
                col = anti[ra] - d
                if not col:
                    cut[d] = 1
                    col = 1
                first = base + d + fall * col
                run = anti[rb] - d - col + 1
                cut[first : first + fall * run : fall] = runs[run]
                if pa is not None:
                    a, lo, hi = anti[pa], diag[qa], diag[qb]
                    first = base + hi + fall * (a - hi)
                    run = hi - lo + 1
                    cut[first : first + rise * run : rise] = runs[run]
            result[frame_out[j_meet]], result[frame_out[j_meet + 1]] = partner, bottom
            rest = photons[:i] + photons[i + 1 : -1]
            if n > 4:
                yield from walk(rest, frame_out[:j_meet] + frame_out[j_meet + 2 :],
                                anti if pa is None else anti[:pa] + anti[pa + 1 :],
                                diag if rd is None else diag[:rd] + diag[rd + 1 :], cut)
                continue
            if rest:  # frame 4 meets on lines 2 and 3 and leaves two photons, frame 2 none
                a, b = rest
                mate[a], mate[b] = b, a
                result[frame_out[0]], result[frame_out[1]] = a, b
            tables.extend(mate)
            bits.extend(cut)
            lines.extend(result)
            if len(tables) == full:
                yield bytes(tables), bytes(bits), bytes(lines)
                del tables[:], bits[:], lines[:]

    yield from walk(list(frame), list(frame), list(anti), list(diag), bytearray(count))
    if tables:
        yield bytes(tables), bytes(bits), bytes(lines)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

_CORES = {
    Design.TRIANGULAR: _route_triangular,
    Design.CHEVRON: _route_chevron,
    Design.BRICKWORK: _route_brickwork,
}
"""Each design's routing core: ``(ports, mate, counter=None) -> (state
bytes, permuted)``, the plan for one partner table, for callers that hold
checked tables.  What depends only on N is kept for the last N (chevron's
:func:`_chevron_windows`, brickwork's :func:`_brickwork_frame`), so calls
at one N share it."""

_EXHAUSTIVE = {
    Design.TRIANGULAR: _exhaustive_triangular,
    Design.CHEVRON: _exhaustive_chevron,
    Design.BRICKWORK: _exhaustive_brickwork,
}
"""Each design's exhaustive run on checked ports, ``(ports, size) ->
(tables, states, lines), ...``, every chunk but the last of ``size``
demands: each partner table of N once, with the plan ``_CORES[design]``
routes for it.  A chunk is three ``bytes``, each joining one row a demand
in the run's order: the partner table (N bytes, one id a byte, N <= 16
here), the state bytes (one a switch, 1 for Cross) and the output lines
(N bytes).  No object is made a demand: triangular stamps a block of 105
demands below each node of frame 8, chevron one of N-1 for each demand at
N-2, and brickwork extends the rows a leaf at a time."""


def route(design: Design | str, ports: int, demand: PairList,
          counter: OpCounter | None = None) -> RoutingPlan:
    """Dispatch to ``route_<design>``, looked up in this module at call time,
    as a direct call would, so a router replaced on the module (a tracing
    wrapper, a test's patch) is the one called.  A design is a ``str`` enum,
    so its member and its value name the same router."""
    try:
        router = globals()["route_" + design]
    except (KeyError, TypeError):  # no design: _design raises InvalidInput
        router = globals()["route_" + _design(design)]
    return router(ports, demand, counter)


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------

def plan_to_json(plan: RoutingPlan) -> str:
    # json.dumps(indent=2) of the plan, the states rows formatted by hand
    if not isinstance(plan, RoutingPlan):
        raise InvalidInput(f"plan {_shown(plan)} is not a RoutingPlan")
    if isinstance(plan.states, StateVector):  # straight from the bytes, in id order
        rows = [f'"{i}": "{_NAME_OF_BYTE[b]}"' for i, b in enumerate(plan.states.bits)]
    else:  # a plan read from a document may be sparse
        rows = [f'"{i}": "{plan.states[i].value}"' for i in sorted(plan.states)]
    doc = {
        "states": 0,  # placeholder for the rows
        "permuted": list(plan.permuted),
        "bsa": {str(j): list(pair) for j, pair in plan.bsa.items()},
    }
    section = "{\n    " + ",\n    ".join(rows) + "\n  }" if rows else "{}"
    return json.dumps(doc, indent=2).replace('"states": 0', '"states": ' + section, 1)


_BYTE_OF_NAME = {"bar": 0, "cross": 1}
_LOW_DIGITS = tuple(f"{k:03d}" for k in range(1000))


def _joined_ids(count: int) -> str:
    """``",".join(map(str, range(count)))`` with one join per thousand ids:
    the ids 1000q..1000q+999 are str(q) followed by three more digits."""
    blocks = [",".join(map(str, range(min(count, 1000))))]
    for high in range(1, -(-count // 1000)):
        lead = str(high)
        blocks.append(lead + ("," + lead).join(_LOW_DIGITS[: count - 1000 * high]))
    return ",".join(blocks)


def _states(doc: dict) -> Mapping[int, State]:
    # ids "0".."S-1" in order, as plan_to_json writes them: one pass into bytes.
    # Joined, the keys hold S-1 commas only if none holds one, so equal
    # joined strings mean equal keys.
    if isinstance(doc, dict) and ",".join(doc) == _joined_ids(len(doc)):
        try:
            return StateVector(bytearray(map(_BYTE_OF_NAME.__getitem__, doc.values())))
        except (KeyError, TypeError):
            pass  # a bad value: the general path below names it
    return {_json_id(k): State(v) for k, v in doc.items()}


def plan_from_json(text: str) -> RoutingPlan:
    """Parse a plan document; its ``bsa`` must agree with its ``permuted``."""
    try:
        doc = json.loads(text)
        permuted = tuple(_json_int(x) for x in doc["permuted"])
        plan = RoutingPlan(_states(doc["states"]), permuted)
        bsa = {_json_id(k): tuple(_json_int(x) for x in v) for k, v in doc["bsa"].items()}
    except (AttributeError, KeyError, OverflowError, RecursionError, TypeError,
            ValueError) as exc:
        raise InvalidInput(f"malformed plan document: {exc}") from exc
    if bsa != plan.bsa:
        raise InvalidInput("plan bsa does not match the pairs of its permuted lines")
    return plan


def states_from_json(text: str) -> Mapping[int, State]:
    """Accept either a full plan document or a bare id->state mapping."""
    try:
        doc = json.loads(text)
        if isinstance(doc, dict) and "states" in doc:
            doc = doc["states"]
        return _states(doc)
    except (AttributeError, KeyError, OverflowError, RecursionError, TypeError,
            ValueError) as exc:
        raise InvalidInput(f"malformed states document: {exc}") from exc
