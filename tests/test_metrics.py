import pytest

from pairswitch import (
    Design,
    InvalidInput,
    InvalidPorts,
    count_table,
    depth_formulas,
    depth_stats,
    emit_csv,
    series_rows,
    verify_design,
)
from pairswitch.metrics import format_count_table, format_depth_table


def test_depth_stats_examples():
    s = depth_stats(Design.TRIANGULAR, 12)
    assert (s.formula_max, s.formula_min, s.formula_delta) == (10, 0, 10)
    s = depth_stats(Design.CHEVRON, 12)
    assert (s.formula_max, s.formula_min, s.formula_delta) == (10, 4, 6)
    s = depth_stats(Design.BRICKWORK, 12)
    assert (s.formula_max, s.formula_min, s.formula_delta) == (6, 2, 4)


def test_delta_is_max_minus_min_for_all_designs():
    for design in Design:
        for n in range(4, 65, 2):
            fmax, fmin, fdelta = depth_formulas(design, n)
            assert fdelta == fmax - fmin


def test_depth_stats_copies_empirical_fields():
    report = verify_design(Design.TRIANGULAR, 6, mode="exhaustive")
    s = depth_stats(Design.TRIANGULAR, 6, report)
    assert s.empirical_max == report.max_depth
    assert s.empirical_min == report.min_depth
    assert s.empirical_delta == report.max_depth - report.min_depth
    bare = depth_stats(Design.TRIANGULAR, 6)
    assert bare.empirical_max is None


def test_depth_stats_rejects_a_report_of_another_network():
    report = verify_design(Design.CHEVRON, 10, mode="exhaustive")
    with pytest.raises(InvalidInput):
        depth_stats(Design.TRIANGULAR, 10, report)
    with pytest.raises(InvalidInput):
        depth_stats(Design.CHEVRON, 8, report)


def test_depth_stats_rejects_tiny_ports():
    with pytest.raises(InvalidPorts):
        depth_formulas(Design.TRIANGULAR, 2)
    with pytest.raises(InvalidPorts):
        depth_formulas(Design.TRIANGULAR, 7)


def test_count_table_n12_ratio():
    table = count_table([12])
    by = {r.scheme: r for r in table.rows}
    assert by["ours"].switches == 30
    assert by["spanke_benes"].switches == 66
    assert table.ratio(12) == 30 / 66 < 0.5


def test_count_table_n8_classics():
    table = count_table([8])
    by = {r.scheme: r for r in table.rows}
    assert by["benes"].switches == 20
    assert by["waksman"].switches == 17
    assert by["benes"].crosspoints == 16
    assert by["waksman"].crosspoints == 16
    assert by["benes"].stages == 10
    assert by["ours"].stages == 2 and by["ours"].planar


def test_count_table_n16():
    table = count_table([16])
    by = {r.scheme: r for r in table.rows}
    assert by["ours"].switches == 56
    assert by["spanke_benes"].switches == 120


def test_non_power_of_two_omits_nonplanar_rows():
    table = count_table([12])
    assert {r.scheme for r in table.rows} == {"ours", "spanke_benes"}


def test_ratio_below_half_for_all_sizes():
    ns = list(range(4, 65, 2))
    table = count_table(ns)
    for n in ns:
        assert table.ratio(n) == (n - 2) / (2 * (n - 1)) < 0.5


def test_emit_csv_header_only_for_empty_series():
    assert emit_csv([]) == "scheme,N,switches,crosspoints,max_depth\n"


def test_csv_depth_series_orderings():
    ns = list(range(4, 17, 2))
    rows = {(r.scheme, r.ports): r for r in series_rows(ns)}
    for n in ns:
        brick = rows[("brickwork", n)].max_depth
        chev = rows[("chevron", n)].max_depth
        tri = rows[("triangular", n)].max_depth
        sb = rows[("spanke_benes", n)].max_depth
        assert brick <= chev <= tri < sb == n - 1
        if n >= 8:
            assert brick < chev


def test_csv_count_series_ordering():
    rows = {(r.scheme, r.ports): r for r in series_rows(range(4, 17, 2))}
    for n in range(4, 17, 2):
        assert rows[("triangular", n)].switches < rows[("spanke_benes", n)].switches


def test_csv_document_shape():
    text = emit_csv(series_rows([8]))
    lines = text.splitlines()
    assert lines[0] == "scheme,N,switches,crosspoints,max_depth"
    assert "benes,8,20,16," in lines  # no depth formula for the non-planar rows
    assert text.endswith("\n")
    assert "\r" not in text


def test_human_tables_render():
    table_text = format_count_table(count_table([8, 12]))
    assert "ratio ours/spanke_benes @ N=12: 0.4545" in table_text
    depth_text = format_depth_table([12])
    assert "triangular" in depth_text and "brickwork" in depth_text
