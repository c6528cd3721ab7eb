"""Construction of the three planar paired-egress switch networks.

A network routes N photons, entering on lines 0 (top) through N-1 (bottom),
through 2x2 switch elements that each couple a pair of adjacent lines.
Switches are stored in traversal order: propagation applies them by
ascending id.  All three designs use exactly N*(N-2)/4 switches.
"""
from __future__ import annotations

import json
import struct
from array import array
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, repeat
from operator import and_
from typing import Iterator, NamedTuple, Sequence

from .errors import BoundExceeded, InvalidInput, InvalidPorts


class Design(str, Enum):
    TRIANGULAR = "triangular"
    CHEVRON = "chevron"
    BRICKWORK = "brickwork"


class State(str, Enum):
    BAR = "bar"      # photons pass straight through
    CROSS = "cross"  # photons on the two lines are exchanged


class SwitchPoint(NamedTuple):
    """A 2x2 element coupling lines ``line`` and ``line + 1``.

    ``id`` is the global traversal index (dense, 0-based), ``layer`` the
    1-based group the design assigns, ``col`` a rendering column hint.
    """

    id: int
    layer: int
    line: int
    col: int


@dataclass(frozen=True)
class Network:
    """The layout as three ``array('i')``s indexed by switch id: the upper
    line, the layer and the rendering column of every switch."""

    design: Design
    ports: int
    lines: array
    layers: array
    cols: array
    reversed: bool = False

    @property
    def switches(self) -> tuple[SwitchPoint, ...]:
        """The switches in id order, built on each access."""
        ids = range(len(self.lines))
        return tuple(map(SwitchPoint, ids, self.layers, self.lines, self.cols))


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[tuple[str, object, str], ...]


def optimal_switch_count(ports: int) -> int:
    """Number of switches every design uses for an N-port network, for an
    int N (no bool)."""
    if type(ports) is not int and (isinstance(ports, bool) or not isinstance(ports, int)):
        raise InvalidInput(f"ports must be an integer, got {_shown(ports)}")
    return ports * (ports - 2) // 4


MAX_PORTS = 2048
"""Port budget: the largest N that is built, routed, enumerated or
tabulated.  Larger requests raise BoundExceeded instead of allocating
N(N-2)/4 switches."""


def _shown(value: object) -> str:
    """``value``'s repr cut to 60 characters, for an error message; an int
    too long to write in decimal shows its bit length."""
    try:
        return f"{value!r:.60}"
    except ValueError:  # past sys.get_int_max_str_digits()
        return f"<{value.bit_length()}-bit int>"


def _check_network(net: object) -> None:
    """Refuse a net that is no :class:`Network`."""
    if not isinstance(net, Network):
        raise InvalidInput(f"net {_shown(net)} is not a Network")


def _check_ports(ports: int, minimum: int = 2) -> None:
    if not isinstance(ports, int) or ports < minimum or ports % 2:
        raise InvalidPorts(f"ports must be an even integer >= {minimum}, got {_shown(ports)}")
    if ports > MAX_PORTS:
        raise BoundExceeded(f"{_shown(ports)} ports exceed the {MAX_PORTS}-port budget")


def _design(value: object) -> Design:
    """``Design(value)``; an unknown design raises InvalidInput with the
    enum's message, such as ``'bogus' is not a valid Design``."""
    try:
        return Design(value)
    except ValueError as exc:
        raise InvalidInput(str(exc)) from None


def _brickwork_columns(ports: int) -> Iterator[tuple[int, int, int, int]]:
    """Per brickwork column in traversal order: its layer, the parity of its
    lines, its first switch id and its size.  Column c holds layer N/2 - c,
    its switches at consecutive ids, on lines parity, parity + 2, ... ."""
    # Layer N/2 is traversed first.  Odd layers hold lines 1,3,..,N-3 and
    # even layers 0,2,..,N-2; the first-traversed layer is truncated to
    # floor(N/4) switches with the same parity as its index.
    half, first = ports // 2, 0
    for layer in range(half, 0, -1):
        parity = layer % 2
        size = ports // 4 if layer == half else half - parity
        yield layer, parity, first, size
        first += size


def _triangular_layers(ports: int) -> Iterator[tuple[int, int, int]]:
    """Per triangular layer in traversal order: its layer, its first switch
    id and its size.  Layer N/2 - 1 is traversed first, each layer's 2 *
    layer switches at consecutive ids; switch first + k sits on line k, so
    a layer is a cascade that carries one photon down to the bottom of its
    sub-network.  Switch k of the t-th layer traversed can run in step
    2t + k, the parallel schedule of a bubble-sort network (Knuth, TAOCP
    Vol. 3, 5.3.4)."""
    sizes = range(ports - 2, 0, -2)
    return zip(range(ports // 2 - 1, 0, -1), accumulate(sizes, initial=0), sizes)



def _chevron_layers(ports: int) -> tuple[range, Iterator[int], range, Iterator[int],
                                         Iterator[int]]:
    """The chevron layer table by columns, made by C-level passes; ``zip``
    gives its rows.  Per layer in traversal order: its layer, its first
    switch id and the sizes of its upper arm, its lower arm and its tip.
    Layer 1 is traversed first, layer l's 2l switches at ids l(l-1) to
    l(l+1)-1: the upper arm's l switches from line N/2-l-1 down to N/2-2,
    then the lower arm's l - odd from line N/2+l-1 up to N/2+odd, then on an
    odd layer a tip at line N/2-1.  Arm switch j of layer l can run in step
    l-1+j and the tip in step 2l-1, the parallel schedule of
    ``simulation._columns``."""
    layers = range(1, ports // 2)
    # l(l-1) rises by 2l from layer l to layer l+1; l & -2 is l - odd, l & 1 odd
    return (layers, accumulate(range(2, ports - 2, 2), initial=0), layers,
            map(and_, layers, repeat(-2)), map(and_, layers, repeat(1)))


_RAMP_BLOCK = 4096


def _ramp(size: int) -> array:
    """``array("i", range(size))``, packed ``_RAMP_BLOCK`` ids at a time: the
    array converts its items one by one, ``struct.pack`` a block in one call,
    and a block's argument tuple stays small."""
    out = array("i")
    for start in range(0, size, _RAMP_BLOCK):
        stop = min(size, start + _RAMP_BLOCK)
        out.frombytes(struct.pack(f"{stop - start}i", *range(start, stop)))
    return out


def build_network(design: Design | str, ports: int) -> Network:
    """Construct the named design for an even number of ports.

    N = 2 yields the trivial zero-switch network.
    """
    design = _design(design)
    _check_ports(ports)
    half, count = ports // 2, optimal_switch_count(ports)
    lines, layers, cols = (array("i", [0]) * count for _ in range(3))
    # an index ramp dominates a large build: each design makes only as long
    # a ramp as its slices read
    if design is Design.TRIANGULAR:
        # Largest layer sits on the input side.  Switch i sits alone in
        # column i, so cols is also the ramp (count >= N - 2).
        cols = _ramp(count)
        for layer, first, size in _triangular_layers(ports):
            lines[first : first + size] = cols[:size]
            layers[first : first + size] = array("i", [layer]) * size
    elif design is Design.CHEVRON:
        # Layer 1 sits innermost on the input side.  Each layer is two arms
        # converging on the middle lines, then an odd layer's tip.
        ramp = _ramp(count // 2 + ports)
        for layer, first, upper, lower, tip in zip(*_chevron_layers(ports)):
            col = first // 2 + layer // 2  # layers before it span j + j % 2 columns each
            arm = slice(first, first + upper)
            lines[arm] = ramp[half - upper - 1 : half - 1]
            cols[arm] = ramp[col : col + upper]
            arm = slice(first + upper, first + upper + lower)
            lines[arm] = ramp[half + upper - 1 : half + upper - lower - 1 : -1]
            cols[arm] = ramp[col : col + lower]
            if tip:
                lines[arm.stop] = half - 1
                cols[arm.stop] = col + upper
            layers[first : arm.stop + tip] = array("i", [layer]) * (2 * layer)
    else:
        ramp = _ramp(ports)
        for col, (layer, parity, first, size) in enumerate(_brickwork_columns(ports)):
            lines[first : first + size] = ramp[parity : parity + 2 * size : 2]
            layers[first : first + size] = array("i", [layer]) * size
            cols[first : first + size] = array("i", [col]) * size
    return Network(design, ports, lines, layers, cols)


def reverse_network(net: Network) -> Network:
    """Mirror the traversal order, for operation with sources behind the
    former output side: adjacent input pairs are distributed to arbitrary
    output pairings."""
    _check_network(net)
    max_col = max(net.cols, default=0)
    cols = array("i", [max_col - c for c in reversed(net.cols)])
    return Network(net.design, net.ports, net.lines[::-1], net.layers[::-1], cols, not net.reversed)


def validate_network(net: Network) -> ValidationReport:
    """Report violations of the structural rules.  Never raises."""
    if not isinstance(net, Network):
        return ValidationReport(False, (("network", None, f"{_shown(net)} is not a Network"),))
    violations: list[tuple[str, object, str]] = []
    n = net.ports
    if not isinstance(n, int) or n < 2 or n % 2:
        violations.append(("ports", n, "ports must be an even integer >= 2"))
        return ValidationReport(False, tuple(violations))
    for name in ("lines", "layers", "cols"):
        values = getattr(net, name)
        # by type: a bool or a float is no switch index
        if not isinstance(values, Sequence) or not all(type(v) is int for v in values):
            violations.append((name, None, f"{name} {_shown(values)} are not a sequence of ints"))
    if violations:
        return ValidationReport(False, tuple(violations))

    for i, line in enumerate(net.lines):
        if not 0 <= line <= n - 2:
            violations.append(("planarity", i, f"switch line {line} outside 0..{n - 2}"))

    expected = optimal_switch_count(n)
    if len(net.lines) != expected:
        violations.append(
            ("count", None, f"{len(net.lines)} switches != N(N-2)/4 = {expected}")
        )

    seen = set()
    for i, key in enumerate(zip(net.layers, net.lines)):
        if key in seen:
            violations.append(("duplicate", i, f"second switch at layer/line {key}"))
        seen.add(key)

    try:
        reference = build_network(net.design, n)
        if net.reversed:
            reference = reverse_network(reference)
        # compared as lists: an array never equals a list a caller passed
        got = (list(net.layers), list(net.lines))
        if got != (reference.layers.tolist(), reference.lines.tolist()):
            violations.append(
                ("layer-structure", None, "switch placement differs from the design rules")
            )
    except (BoundExceeded, ValueError):
        violations.append(("layer-structure", None, "design rules not checkable"))

    return ValidationReport(not violations, tuple(violations))


def _json_int(value: object) -> int:
    """A JSON integer; anything else, a float or a bool too, raises TypeError."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _json_id(key: str) -> int:
    """An id key as the writers emit it, the str() of an int."""
    sid = int(key)
    if str(sid) != key:
        raise ValueError(f"id key {key!r} is not plain decimal")
    return sid


def network_to_json(net: Network) -> str:
    """Serialize with deterministic key and array order (byte-stable)."""
    _check_network(net)
    doc = {
        "design": net.design.value,
        "ports": net.ports,
        "reversed": net.reversed,
        "switches": [
            {"id": i, "layer": layer, "line": line, "col": col}
            for i, (layer, line, col) in enumerate(zip(net.layers, net.lines, net.cols))
        ],
    }
    return json.dumps(doc, indent=2)


def network_from_json(text: str) -> Network:
    """Parse a network document, rejecting any switch that would index
    outside the network (ports, ids, layers, lines or columns out of range)."""
    return _network_from_doc(_network_doc(text))


def _network_doc(text: str) -> object:
    """The JSON value of a network document, read but not yet checked."""
    try:
        return json.loads(text)
    except (RecursionError, TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed network document: {exc}") from exc


def _network_from_doc(doc: object) -> Network:
    """The network of a parsed document; see :func:`network_from_json`."""
    try:
        design = Design(doc["design"])
        ports = _json_int(doc["ports"])
        _check_ports(ports)
        rows = [
            tuple(_json_int(s[key]) for key in ("id", "layer", "line", "col"))
            for s in doc["switches"]
        ]
        flipped = doc.get("reversed", False)
        if type(flipped) is not bool:
            raise TypeError(f"reversed must be true or false, got {flipped!r}")
    except (KeyError, OverflowError, RecursionError, TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed network document: {exc}") from exc
    for i, (sid, layer, line, col) in enumerate(rows):
        if sid != i:
            raise InvalidInput(f"switch ids are not dense 0..S-1 in order at position {i}")
        if not 1 <= layer <= ports // 2:
            raise InvalidInput(f"switch {i} layer {layer} outside 1..{ports // 2}")
        if not 0 <= line <= ports - 2:
            raise InvalidInput(f"switch {i} line {line} outside 0..{ports - 2}")
        if not 0 <= col < len(rows):
            raise InvalidInput(f"switch {i} col {col} outside 0..{len(rows) - 1}")
    layers, lines, cols = (array("i", [row[k] for row in rows]) for k in (1, 2, 3))
    return Network(design, ports, lines, layers, cols, reversed=flipped)
