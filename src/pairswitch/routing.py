"""Routing: compute switch states that bring every demanded pair together.

Each router returns a :class:`RoutingPlan` whose states, applied to the
matching network from :mod:`pairswitch.topology`, permute the inputs so the
two photons of every demanded pair exit on one output pair (2j, 2j+1).
Which output pair a demand lands on is emergent, not chosen.
"""
from __future__ import annotations

import json
import re
from bisect import bisect_left
from collections.abc import ItemsView, ValuesView
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InvalidDemand, InvalidInput, InvalidPorts
from .topology import MAX_PORTS, Design, State, _check_ports, optimal_switch_count
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
"""Cross bytes for the routers' runs, each at most N cells long: a slice of
a bytearray is assigned into the state bytes as it is, where ``bytes``
would first be copied into a new bytearray.  A single table slices it once
per run; a batch slices it once per run length (see :data:`_RUN_TEMPLATES`)."""

_RUN_TEMPLATES = 512
"""A core call that routes more than one table makes one bytearray of ones
per Cross-run length below this, once per call, and assigns its runs of
those lengths from them; longer runs, and every run of a single table, are
sliced from :data:`_ONES`.  Templates for every length hold N²/2 bytes for
triangular: at N = 2048 they took 1.6 ms to make, and batches of 2-4 tables
routed 1.1-1.5x slower than slicing; with this cap, 0.96-1.07x.  512 bytes
is the largest block CPython's small-object allocator serves."""


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
    if demand.ports != ports:
        raise InvalidDemand(
            f"demand covers {demand.ports} ports, network has {ports}"
        )


def _route_one(core, ports: int, demand: PairList, counter: OpCounter | None) -> RoutingPlan:
    """The plan ``core`` routes for ``demand`` alone, its ports checked first."""
    _check_demand(ports, demand)
    (states, permuted), = core(ports, [demand.mate], counter)
    return RoutingPlan(StateVector(states), permuted)


# ---------------------------------------------------------------------------
# Triangular
# ---------------------------------------------------------------------------

def route_triangular(ports: int, demand: PairList,
                     counter: OpCounter | None = None) -> RoutingPlan:
    """Route ``demand`` on the triangular network; see :func:`_route_triangular`."""
    return _route_one(_route_triangular, ports, demand, counter)


def _route_triangular(ports: int, mates: Iterable[Sequence[int]], counter: OpCounter | None = None
                      ) -> list[tuple[bytearray, tuple[int, ...]]]:
    """Bubble-style peeling: per layer, cascade the partner of the current
    bottom photon down to meet it, then recurse on the first n-2 photons.

    ``photons`` holds the n photons still unpaired, in line order.  A layer
    only removes photons from it, the bottom one and its partner, so it
    stays sorted by photon id and the partner's index is its rank, found by
    bisection.  The counter's ticks still model the cascade (a scan down to
    the partner, then the layer's switch commits and photon moves), not the
    Python steps taken.

    Returns one plan per partner table in ``mates``: the state bytes, 1 for
    Cross, and the photon on each output line."""
    count, lines = optimal_switch_count(ports), list(range(ports))
    mates = list(mates)
    # a layer's run is at most n - 2 <= N - 2 long
    runs = [_ONES[:k] for k in range(min(ports - 1, _RUN_TEMPLATES))] if len(mates) > 1 else []
    made = len(runs)
    plans = []
    for mate in mates:
        photons = lines[:]
        permuted = [0] * ports
        states = bytearray(count)
        first = 0  # layer n/2-1 starts at id S - (n/2-1)(n/2)
        n = ports
        while n > 2:
            bottom = photons.pop()
            idx = bisect_left(photons, mate[bottom])
            if counter:
                counter.tick(idx + 1)
            # switches above the partner stay Bar
            run = n - 2 - idx
            states[first + idx : first + n - 2] = runs[run] if run < made else _ONES[:run]
            permuted[n - 2], permuted[n - 1] = photons.pop(idx), bottom
            if counter:
                counter.tick(2 * n - 2)
            first += n - 2
            n -= 2
        permuted[0], permuted[1] = photons
        plans.append((states, tuple(permuted)))
    return plans


# ---------------------------------------------------------------------------
# Chevron
# ---------------------------------------------------------------------------

def route_chevron(ports: int, demand: PairList,
                  counter: OpCounter | None = None) -> RoutingPlan:
    """Route ``demand`` on the chevron network; see :func:`_route_chevron`."""
    return _route_one(_route_chevron, ports, demand, counter)


def _chevron_windows(ports: int) -> tuple[Iterator[tuple[int, int]],
                                          Iterator[tuple[int, int, int, int, int]]]:
    """The chevron router's per-window constants, which depend only on N,
    made by C-level passes over ``range``s.

    ``outer`` yields each window's ``(top, bot)`` lines from the outside in,
    ``inner`` each window's ``(top, bot, layer, mid, first)`` from the
    inside out.  Layer l holds ids ``first = l(l-1)`` to l(l+1)-1.  A pair
    entering at the middle joins the part below it on odd layers and the
    part above it on even ones, so no stored index moves: it takes ``mid``,
    -(l+1) from the bottom on odd layers and l from the top on even ones.
    """
    half = ports // 2
    outer = zip(range(half - 1), range(ports - 1, half, -1))
    mid = [0] * (half - 1)  # indexed by layer - 1
    mid[::2] = range(-2, -half - 1, -2)
    mid[1::2] = range(2, half, 2)
    # l(l-1) rises by 2l from layer l to layer l+1
    firsts = accumulate(range(2, 2 * half - 2, 2), initial=0)
    inner = zip(range(half - 2, -1, -1), range(half + 1, ports), range(1, half), mid, firsts)
    return outer, inner


def _route_chevron(ports: int, mates: Iterable[Sequence[int]], counter: OpCounter | None = None
                   ) -> list[tuple[bytearray, tuple[int, ...]]]:
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

    Returns one plan per partner table in ``mates``: the state bytes, 1 for
    Cross, and the photon on each output line.
    """
    count = optimal_switch_count(ports)
    mates = list(mates)
    outer, inner = _chevron_windows(ports)
    if len(mates) > 1:
        # every table reads the same constants, so a batch lists them once; a
        # single table reads them as they are made, since listing them adds
        # allocations that cost most when the call starts with a cold cache
        outer, inner = list(outer), list(inner)
    plans = []
    for mate in mates:
        mate = list(mate)  # rewritten as windows fold their outer pair inward
        virtual: list[tuple[int, int] | None] = []  # per window, outermost first
        for top, bot in outer:
            if counter:
                counter.tick(bot - top + 1)
            if mate[top] == bot:
                virtual.append(None)
            else:
                top_mate, bot_mate = mate[top], mate[bot]
                mate[top_mate], mate[bot_mate] = bot_mate, top_mate
                virtual.append((top_mate, bot_mate))

        states = bytearray(b"\x01") * count
        pos = [0] * ports  # photon -> index in its window: >= 0 from the top, < 0 from the bottom
        pos[ports // 2] = 1  # the innermost window holds N/2-1 above N/2
        for (top, bot, layer, mid, first), pair in zip(inner, reversed(virtual)):
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
        plans.append((states, tuple(permuted)))
    return plans


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
# likewise for `anti`.  Every entry has the parity of N/2, so frame cell
# (c, j) is entry (j + c + skip) // 2 of `anti` and (j - c - skip + N/2) // 2
# = (j - c + n/2) // 2 of `diag`.  A Cross run keeps to one entry of one
# list; its first and last cells are two entries of the other.  An
# iteration writes its runs, then deletes the two entries it used.
#
# Past column 0, switch ids are affine along both kinds of diagonal.  The
# cell on diagonal d = line - col in column col > 0 has id
#
#     N//4 - N/2 + (d + 1)//2 + (N/2)*col,
#
# so one step along a diagonal adds N/2 to the id, one step along an
# anti-diagonal N/2 - 1.  Column 0 holds ids 0..N//4 - 1, line // 2 on each
# of its lines.  A run is one strided slice of `states`, written at once as
# ones: the loop computes its first id from this formula and its length from
# the span of columns it covers.  Column 0 breaks the stride and can only
# hold the first cell of the partner's run, which is then written alone.
# The bottom photon's run ends in the last column and has at most n/2 - 1
# cells, since a partner on line 0 starts its diagonal by column 1.
#
# No run end is checked against the grid, and no run for being empty.  At
# every even N a partner below line n - 2 has a run of at least one cell,
# each end holds a switch and the bottom photon's run stays past column 0,
# by induction on the frame size (Waksman, JACM 1968): frame N is the
# network itself, and for every frame size n, partner rank and parity of
# skip, the partner's run is not empty (j_meet > i), both runs end on
# frame cells and every cell of frame n - 2, read past the two removed
# entries, reads a cell of frame n.  tools/brickwork_frames.py checks this
# to any bound and the tests to n = 256; the tests also tie the model to
# this loop at depth 0 and 1.  The loop reads skip only through its parity
# and an offset skip // 2 shared by every `anti` index, so that covers
# every depth.  Line and column are monotone along a run, so when both ends
# hold a switch the cells between do too.  Odd N breaks the step (a frame's
# last run can start at a column-0 cell that holds no switch); every way
# into this core rejects it first.
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


def _route_brickwork(ports: int, mates: Iterable[Sequence[int]], counter: OpCounter | None = None
                     ) -> list[tuple[bytearray, tuple[int, ...]]]:
    """Pair the bottom-most photon first: its partner moves down as soon as
    possible, the bottom photon up as late as necessary; recurse on the
    surviving smaller brickwork.

    ``photons`` holds the frame's unpaired photons, in line order.  Each
    iteration only removes photons from it, the bottom one and its partner,
    so it stays sorted by photon id and the partner's frame line is its rank,
    found by bisection.  Counter ticks are the cascade's, as in
    :func:`_route_triangular`, and so is what it returns."""
    half0 = ports // 2
    count = optimal_switch_count(ports)
    lines = list(range(ports))  # the photons, and frame line -> physical output line
    anti0 = list(range(half0 % 2, ports + half0, 2))  # surviving line + col
    diag0 = list(range(-half0, ports, 2))  # surviving line - col
    fall, rise = half0, half0 - 1  # id strides along a diagonal and an anti-diagonal
    base = ports // 4 - half0  # cell (col > 0, line) has id base + (line - col + 1)//2 + fall*col
    mates = list(mates)
    # a strided run lies past column 0 and visits at most one cell per
    # column, so it is at most N/2 - 1 long
    runs = [_ONES[:k] for k in range(min(half0, _RUN_TEMPLATES))] if len(mates) > 1 else []
    made = len(runs)
    plans = []
    for mate in mates:
        states = bytearray(count)
        photons, frame_out, anti, diag = lines[:], lines[:], anti0[:], diag0[:]
        result = [0] * ports
        # the frame's size and half of it, and the iterations done; since
        # half + skip = half0, the anti-diagonal ranks of the bottom photon's run
        # and the diagonal ranks of its ends need no frame offset
        n, half, skip = ports, half0, 0
        while n > 2:
            bottom = photons.pop()
            i = bisect_left(photons, mate[bottom])
            if counter:
                counter.tick(i + 1)
            j_meet = n - 2
            if i < j_meet:
                # column 0 holds the lines of half's parity up to half-2, column 1
                # every line of the other.  A partner off half's parity starts in
                # column 1, past column 0's switch above it if there is one; one
                # on it in column 0 up to line half-2, else in column 2, past
                # column 1's switch above it.  A switch passed stays Bar.
                cstart = 1 if (i + half) & 1 else 0 if i <= half - 2 else 2
                if i + half - cstart < j_meet:
                    j_meet = i + half - cstart
                rd = (i - cstart + half) >> 1
                d = diag[rd]
                ra = (i + cstart + skip) >> 1
                lo, hi = anti[ra], anti[ra + j_meet - i - 1]
                # cell (line + col, line - col) = (x, d) for x = lo, hi
                col = (lo - d) >> 1
                if not col:  # column 0 breaks the stride: its switch is written alone
                    states[d >> 1] = 1  # its id is line // 2, and line = d there
                    col = 1
                first = base + ((d + 1) >> 1) + fall * col
                run = ((hi - d) >> 1) - col + 1
                ones = runs[run] if run < made else _ONES[:run]
                states[first : first + fall * run : fall] = ones
                if j_meet < n - 2:
                    a = anti.pop((j_meet + half0) >> 1)
                    rq = (j_meet >> 1) + 1
                    # ranks count the partner's diagonal, which goes last
                    lo, hi = diag[rq], diag[rq + n - 3 - j_meet]
                    # cell (line + col, line - col) = (a, x) for x = hi, lo
                    first = base + ((hi + 1) >> 1) + fall * ((a - hi) >> 1)
                    run = ((hi - lo) >> 1) + 1
                    ones = runs[run] if run < made else _ONES[:run]
                    states[first : first + rise * run : rise] = ones
                del diag[rd]
                if counter:  # a tick when the partner's first switch couples it from above
                    bar = 0 < i < half if (i + half) & 1 else i >= half - 1
                    counter.tick(bar + 2 * (n - 2 - i))
            result[frame_out[j_meet]] = photons.pop(i)
            result[frame_out[j_meet + 1]] = bottom
            del frame_out[j_meet : j_meet + 2]
            if counter:
                counter.tick(2 * n)
            n -= 2
            half -= 1
            skip += 1

        result[frame_out[0]] = photons[0]
        result[frame_out[1]] = photons[1]
        plans.append((states, tuple(result)))
    return plans


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------

_CORES = {
    Design.TRIANGULAR: _route_triangular,
    Design.CHEVRON: _route_chevron,
    Design.BRICKWORK: _route_brickwork,
}
"""Each design's routing core: ``(ports, mates, counter=None) -> [(state
bytes, permuted), ...]``, one plan per partner table, for callers that hold
checked tables.  What depends only on N is worked out once per call, so a
batch pays it once: chevron lists its window constants, and triangular and
brickwork make their Cross-run templates (:data:`_RUN_TEMPLATES`).  Each
public router routes a batch of one, which reads those as it goes, since
making them costs more than one table saves."""


def route(design: Design | str, ports: int, demand: PairList,
          counter: OpCounter | None = None) -> RoutingPlan:
    """Dispatch to ``route_<design>``, looked up in this module at call time,
    as a direct call would, so a router replaced on the module (a tracing
    wrapper, a test's patch) is the one called.  A design is a ``str`` enum,
    so its member and its value name the same router."""
    try:
        router = globals()["route_" + design]
    except (KeyError, TypeError):  # no design: Design() raises its ValueError
        router = globals()["route_" + Design(design)]
    return router(ports, demand, counter)


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------

def plan_to_json(plan: RoutingPlan) -> str:
    # json.dumps(indent=2) of the plan, the states rows formatted by hand
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
