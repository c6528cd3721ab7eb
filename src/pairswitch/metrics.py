"""Depth statistics and resource comparisons against classic full-permutation
switching fabrics."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InvalidInput
from .topology import Design, _check_ports, _design, optimal_switch_count
from .verification import VerificationReport


def depth_formulas(design: Design | str, ports: int) -> tuple[int, int, int]:
    """(max, min, delta) structural depth for the design at N ports."""
    design = _design(design)
    _check_ports(ports, minimum=4)
    half = ports // 2
    if design is Design.TRIANGULAR:
        return ports - 2, 0, ports - 2
    if design is Design.CHEVRON:
        if half % 2 == 0:
            return ports - 2, half - 2, half
        return ports - 3, half - 3, half
    return half, (ports + 3) // 4 - 1, ports // 4 + 1


@dataclass(frozen=True)
class DepthStats:
    design: Design
    ports: int
    formula_max: int
    formula_min: int
    formula_delta: int
    empirical_max: int | None = None
    empirical_min: int | None = None
    empirical_delta: int | None = None


def depth_stats(
    design: Design | str, ports: int, report: VerificationReport | None = None
) -> DepthStats:
    """Formula depth fields, with empirical extrema copied from a
    verification report when one is supplied; the report must be of the
    same design and N.  A report in which no demand passed has no extrema,
    and its empirical fields stay None."""
    design = _design(design)
    fmax, fmin, fdelta = depth_formulas(design, ports)
    emax = emin = edelta = None
    if report is not None:
        if not isinstance(report, VerificationReport):
            raise InvalidInput(f"report {report!r:.60} is not a VerificationReport")
        if (report.design, report.ports) != (design, ports):
            raise InvalidInput(
                f"report covers {report.design.value} at N = {report.ports},"
                f" not {design.value} at N = {ports}"
            )
        emax, emin = report.max_depth, report.min_depth
        if emax is not None:
            edelta = emax - emin
    return DepthStats(design, ports, fmax, fmin, fdelta, emax, emin, edelta)


SCHEME_OURS = "ours"
SCHEME_SPANKE_BENES = "spanke_benes"
SCHEME_BENES = "benes"
SCHEME_WAKSMAN = "waksman"


@dataclass(frozen=True)
class CountRow:
    scheme: str
    ports: int
    planar: bool
    switches: int
    crosspoints: int
    stages: int


@dataclass(frozen=True)
class ComparisonTable:
    rows: tuple[CountRow, ...]

    def ratio(self, ports: int) -> float:
        """ours / spanke_benes switch-count ratio at N ports."""
        by = {(r.scheme, r.ports): r.switches for r in self.rows}
        try:
            return by[(SCHEME_OURS, ports)] / by[(SCHEME_SPANKE_BENES, ports)]
        except (KeyError, TypeError):
            covered = sorted({r.ports for r in self.rows})
            raise InvalidInput(f"the table covers N = {covered}, not N = {ports!r}") from None


def _count_rows(n: int) -> list[CountRow]:
    """The rows of :func:`count_table` at N ports, which :func:`series_rows`
    also reads: every switch-count formula is written here once."""
    _check_ports(n, minimum=4)
    rows = [
        CountRow(SCHEME_OURS, n, True, optimal_switch_count(n), 0, 2),
        CountRow(SCHEME_SPANKE_BENES, n, True, n * (n - 1) // 2, 0, 2),
    ]
    if n & (n - 1) == 0:
        log2 = n.bit_length() - 1
        crosspoints = n * (n - log2 - 1) // 2
        stages = 4 * log2 - 2
        rows.append(CountRow(SCHEME_BENES, n, False, n * log2 - n // 2, crosspoints, stages))
        rows.append(CountRow(SCHEME_WAKSMAN, n, False, n * log2 - n + 1, crosspoints, stages))
    return rows


def count_table(ports_list: Sequence[int]) -> ComparisonTable:
    """Switch counts, fixed crosspoints, and coupling stages per scheme.

    The two non-planar schemes are defined only for power-of-two N and are
    omitted otherwise.
    """
    return ComparisonTable(tuple(r for n in ports_list for r in _count_rows(n)))


@dataclass(frozen=True)
class SeriesRow:
    """One (scheme, N) point of the reproduction series; max_depth is None
    for schemes without a depth formula here."""

    scheme: str
    ports: int
    switches: int
    crosspoints: int
    max_depth: int | None


def series_rows(ports_list: Sequence[int]) -> tuple[SeriesRow, ...]:
    """Per-N data points: the three designs, the planar full-permutation
    fabric (max depth N-1), and the non-planar schemes where defined."""
    rows = []
    for n in ports_list:
        for r in _count_rows(n):
            if r.scheme == SCHEME_OURS:
                rows.extend(
                    SeriesRow(d.value, n, r.switches, 0, depth_formulas(d, n)[0])
                    for d in Design
                )
            else:
                depth = n - 1 if r.scheme == SCHEME_SPANKE_BENES else None
                rows.append(SeriesRow(r.scheme, n, r.switches, r.crosspoints, depth))
    return tuple(rows)


def emit_csv(rows: Iterable[SeriesRow]) -> str:
    """CSV with stable column order; empty cell when no depth formula applies."""
    lines = ["scheme,N,switches,crosspoints,max_depth"]
    for r in rows:
        depth = "" if r.max_depth is None else str(r.max_depth)
        lines.append(f"{r.scheme},{r.ports},{r.switches},{r.crosspoints},{depth}")
    return "\n".join(lines) + "\n"


def format_count_table(table: ComparisonTable) -> str:
    """Aligned human-readable table plus the ours/spanke_benes ratio rows."""
    header = f"{'scheme':<14}{'N':>4}  {'planar':<8}{'switches':>9}{'crosspoints':>13}{'stages':>8}"
    lines = [header]
    for r in table.rows:
        lines.append(
            f"{r.scheme:<14}{r.ports:>4}  {'yes' if r.planar else 'no':<8}"
            f"{r.switches:>9}{r.crosspoints:>13}{r.stages:>8}"
        )
    for n in sorted({r.ports for r in table.rows}):
        lines.append(f"ratio ours/spanke_benes @ N={n}: {table.ratio(n):.4f}")
    return "\n".join(lines) + "\n"


def format_depth_table(ports_list: Sequence[int]) -> str:
    header = f"{'design':<12}{'N':>4}{'max':>6}{'min':>6}{'delta':>7}"
    lines = [header]
    for n in ports_list:
        for design in Design:
            fmax, fmin, fdelta = depth_formulas(design, n)
            lines.append(f"{design.value:<12}{n:>4}{fmax:>6}{fmin:>6}{fdelta:>7}")
    return "\n".join(lines) + "\n"
