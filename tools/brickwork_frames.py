"""Certify that every Cross run the brickwork router writes ends on a switch.

The brickwork routing core (``pairswitch.routing._route_brickwork``) pairs
the bottom photon of a frame of size n with its partner, writes at most two
Cross runs, removes one diagonal and at most one anti-diagonal from its
lists, and goes on with a frame of size n - 2.  It checks no run end against
the grid and no partner's run for being empty; this module proves, by
induction on the frame size, that neither needs a check at any even N:

* frame(n) cells are (col c, line j) with c < n/2, 0 <= j <= n - 2,
  j = n/2 - c (mod 2), and in column 0 only j <= n/2 - 2;
* at depth parity k a frame(n) cell reads anti-diagonal rank
  (j + c + k) // 2 and diagonal rank (j - c + n/2) // 2, as the core reads
  them, less the core's offset skip // 2, which is the same on both sides
  of a step and cancels;
* base case: frame(N) at depth 0 is exactly the switches of
  ``build_network("brickwork", N)`` (:func:`base_case`);
* step, for every partner rank i and parity k: (a) the partner's run is
  not empty for i < n - 2, each run's two end cells are frame(n) cells, and
  the bottom photon's run starts past column 0, where the core's id stride
  holds (:func:`check_ends`); (b) every frame(n - 2) cell, read at parity
  k + 1 and shifted past the removed ranks, reads the ranks of a frame(n)
  cell (:func:`check_rows`).

So every frame cell at every depth reads the lists at a switch, and so does
every run end.  A step is a function of (n, i, k) alone, so checking every
even n <= B certifies every N <= B.  Ranks only grow under the shifts, and
an image's column is its cell's column plus 1 + (anti shift) - (diagonal
shift) >= 0, so a frame cell's physical column is at least its frame
column: the bottom photon's run never reaches physical column 0.

Frame rows are intervals of diagonal ranks along an anti-diagonal rank, and
the shifts are monotone, so (b) checks only each row's two ends.  The tests
tie this model to the core (every run it writes is the model's, at every
depth for N <= 42 and at depth 0 and 1 up to N = 66) and run the
certificate to N = 256; this script runs it to any bound.

Run it with ``PYTHONPATH=src python tools/brickwork_frames.py [BOUND]``;
the bound defaults to ``MAX_PORTS``.  A BOUND that is no integer from 2 to
``MAX_PORTS`` exits with status 2 and a one-line usage message before any
work.
"""
from __future__ import annotations

import sys
import time
from array import array
from operator import ge, le

from pairswitch.topology import MAX_PORTS, build_network


def in_frame(n: int, c: int, j: int) -> bool:
    """Whether (col c, line j) is a cell of frame(n)."""
    half = n // 2
    return (0 <= c < half and 0 <= j <= n - 2 and (j + c - half) % 2 == 0
            and (c > 0 or j <= half - 2))


def frame_rows(n: int) -> tuple[int, list[int], list[int]]:
    """Frame(n) by anti-diagonals s = j + c, which step by 2 from the first,
    s0: s0, then each one's first and last diagonal rank, an interval.  Read
    at parity k, anti-diagonal s has rank (s + k) // 2, so row r has rank
    (s0 + k) // 2 + r."""
    half, sums, los, his = n // 2, [], [], []
    for s in range(half % 2, n - 1 + half, 2):  # s has the parity of n/2
        first = max(0 if s <= half - 2 else 1, s - (n - 2))  # the least column
        last = min(half - 1, s)
        if first <= last:  # the diagonal rank falls as the column grows
            sums.append(s)
            los.append((s - 2 * last + half) // 2)
            his.append((s - 2 * first + half) // 2)
    if sums and sums != list(range(sums[0], sums[0] + 2 * len(sums), 2)):
        raise AssertionError(f"frame({n}) has a gap between its rows")
    return (sums[0] if sums else 0), los, his


def step(n: int, i: int) -> tuple[list[tuple[tuple[int, int], tuple[int, int]]], int | None, int]:
    """One core iteration on frame(n) for partner rank i <= n - 2: its Cross
    runs, each as (first cell, last cell) in traversal order, the diagonal
    rank it removes (None for none) and its meeting line.  The rules are the
    core's: the partner falls along a diagonal from column ``cstart``; if it
    cannot reach line n - 2, the bottom photon rises in the last columns."""
    half, j_meet, runs = n // 2, n - 2, []
    if i == j_meet:
        return runs, None, j_meet
    cstart = 1 if (i + half) & 1 else 0 if i <= half - 2 else 2
    j_meet = min(j_meet, i + half - cstart)
    runs.append(((cstart, i), (cstart + j_meet - i - 1, j_meet - 1)))
    if j_meet < n - 2:
        runs.append(((j_meet + 2 - half, n - 2), (half - 1, j_meet + 1)))
    return runs, (i - cstart + half) >> 1, j_meet


def check_ends(n: int, i: int, runs: list[tuple[tuple[int, int], tuple[int, int]]],
               j_meet: int) -> None:
    """(a): for i < n - 2 the partner's run, which the core writes without a
    check, holds at least one cell (j_meet > i); each run of :func:`step`
    (n, i) ends on frame(n) cells, and the bottom photon's starts past
    column 0, where the core's id stride holds."""
    if i < n - 2 and j_meet <= i:
        raise AssertionError(f"n={n} i={i}: the partner's run is empty (meets on line {j_meet})")
    for first, last in runs:
        if not (in_frame(n, *first) and in_frame(n, *last)):
            raise AssertionError(f"n={n} i={i}: a run end {first}..{last} is off frame({n})")
    if j_meet < n - 2 and runs[-1][0][0] < 1:
        raise AssertionError(f"n={n} i={i}: the bottom photon's run reaches column 0")


def check_rows(n: int, i: int, k: int, j_meet: int, rows: tuple[int, list[int], list[int]],
               inner: tuple[int, list[int], list[int]]) -> None:
    """(b) for :func:`step` (n, i), meeting on line ``j_meet``, at parity k.
    ``rows`` is ``frame_rows(n)``, ``inner`` is ``frame_rows(n - 2)`` with
    its diagonal ranks shifted past the one the step removes, and inner's
    rows are read at parity k + 1.  Both ends of every inner row must fall
    within the frame(n) row of its shifted anti-diagonal rank."""
    (s0, los, his), (t0, ilos, ihis) = rows, inner
    a0, b0 = (s0 + k) // 2, (t0 + k + 1) // 2
    size = len(ilos)
    # inner rows below the removed anti-diagonal rank keep their rank, the
    # rest move up by one: inner row t reads row t + off, or t + off + 1
    cut = min(max(((j_meet + n // 2 + k) >> 1) - b0, 0), size) if j_meet < n - 2 else size
    off = b0 - a0
    if not (0 <= off and off + size + (cut < size) <= len(los)
            and all(map(le, los[off : off + cut], ilos[:cut]))
            and all(map(ge, his[off : off + cut], ihis[:cut]))
            and all(map(le, los[off + cut + 1 :], ilos[cut:]))
            and all(map(ge, his[off + cut + 1 :], ihis[cut:]))):
        raise AssertionError(f"n={n} i={i} k={k}: a frame({n - 2}) row reads no frame({n}) cells")


def base_case(n: int) -> None:
    """Frame(n) at depth 0 is the brickwork network of n ports: column by
    column in traversal order, each column's lines rising, the network's
    switches are the frame's cells, as many as its rows hold."""
    net, half = build_network("brickwork", n), n // 2
    cols, lines = array("i"), array("i")
    for c in range(half):
        column = range((half - c) % 2, half - 1 if c == 0 else n - 1, 2)
        cols.extend([c] * len(column))
        lines.extend(column)
    _, los, his = frame_rows(n)
    if (net.cols, net.lines) != (cols, lines) or sum(his) - sum(los) + len(los) != len(lines):
        raise AssertionError(f"frame({n}) is not the brickwork network of {n} ports")


def certify(bound: int) -> None:
    """Base case for every even n <= ``bound``; (a) and (b) for each n >= 4
    among them, the sizes the core steps at, every partner rank and both
    parities."""
    for n in range(2, bound + 1, 2):
        base_case(n)
        if n == 2:
            continue
        rows = frame_rows(n)
        t0, ilos, ihis = frame_rows(n - 2)
        shifted = {None: (t0, ilos, ihis)}  # by the removed diagonal rank
        for i in range(n - 1):
            runs, rd, j_meet = step(n, i)
            check_ends(n, i, runs, j_meet)
            if rd not in shifted:  # diagonal ranks from the removed one on move up by one
                shifted[rd] = (t0, [d + (d >= rd) for d in ilos], [d + (d >= rd) for d in ihis])
            for k in (0, 1):
                check_rows(n, i, k, j_meet, rows, shifted[rd])


def main(argv: list[str]) -> int:
    args = argv[1:]
    try:
        bound = int(args[0]) if args else MAX_PORTS
    except ValueError:
        bound = None
    if len(args) > 1 or bound is None or not 2 <= bound <= MAX_PORTS:
        print(f"usage: brickwork_frames.py [BOUND], BOUND an integer from 2 to {MAX_PORTS}; "
              f"got {' '.join(args)!r}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    certify(bound)
    print(f"brickwork frames certified for every even N <= {bound} "
          f"in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
