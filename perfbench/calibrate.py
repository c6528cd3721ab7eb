"""Host-speed calibration.

The reference machine's speed swings by up to 1.8x over tens of seconds
(other tenants share its cores), far beyond any useful regression bound.
So every end-to-end time is measured in wall-clock seconds and then
rescaled by a fixed loop timed just before and just after it:

    reported = measured * REF_S / calibration_time

which is the time the operation would take on a host where the loop takes
REF_S.  The loop is the benchmark's own code, so a change to pairswitch
cannot move it.  It does the kinds of work the program does -- frozen
dataclass grids, dicts keyed by tuples, enum states, line swaps, sorting
pairs -- because a slow spell of the host slows such code more than a tight
arithmetic loop; on the reference machine this mix tracked the verify calls
better than either part alone.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum

REF_S = 0.05


@dataclass(frozen=True)
class _Cell:
    id: int
    layer: int
    line: int


class _Mode(str, Enum):
    A = "a"
    B = "b"


def _grid(ports: int) -> tuple[_Cell, ...]:
    cells = ((layer, line) for layer in range(ports // 2) for line in range(layer % 2, ports - 1, 2))
    return tuple(_Cell(i, layer, line) for i, (layer, line) in enumerate(cells))


def _grids() -> int:
    total = 0
    for ports in (16, 24, 32, 40, 48, 56, 64) * 4:
        cells = _grid(ports)
        ids = {(c.layer, c.line): c.id for c in cells}
        modes = {c.id: _Mode.A if (c.id * 7) % 3 else _Mode.B for c in cells}
        order = list(range(ports))
        for c in cells:
            if modes[ids[(c.layer, c.line)]] is _Mode.B:
                order[c.line], order[c.line + 1] = order[c.line + 1], order[c.line]
        pairs = sorted((a, b) if a < b else (b, a) for a, b in zip(order[::2], order[1::2]))
        total += sum(a for a, _ in pairs)
    return total


def _table() -> int:
    cells = [(i, i % 1021, i // 1021) for i in range(20_000)]
    index = {(line, layer): i for i, line, layer in cells}
    order = list(range(1021))
    total = 0
    for i, line, layer in cells:
        total += index[(line, layer)]
        if line and i % 3 == 0:
            order[line], order[line - 1] = order[line - 1], order[line]
    return total + order[0]


def measure() -> float:
    """Wall-clock seconds of one pass of the calibration loop."""
    start = time.perf_counter()
    _grids()
    _table()
    return time.perf_counter() - start


def median_of_three() -> float:
    return sorted(measure() for _ in range(3))[1]
