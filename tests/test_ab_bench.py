import importlib.util
from pathlib import Path

import pytest


def _load_ab_bench():
    """tools/ab_bench.py, the paired parent/change benchmark runner."""
    path = Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py"
    spec = importlib.util.spec_from_file_location("ab_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ab_bench = _load_ab_bench()


def _pairs(name, parent, change):
    return [{"parent": {"metrics": {name: {"value": p}}}, "change": {"metrics": {name: {"value": c}}}}
            for p, c in zip(parent, change)]


def test_summary_counts_wins_without_ties_and_checks_the_bound():
    end_to_end = [{"name": "rate", "better": "higher", "bound": 0.25},
                  {"name": "call_s", "better": "lower", "bound": 0.25}]
    parent = [100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 101.0, 99.0, 100.0]
    # nine pairs won by a clear margin and one tie, which counts for neither side
    pairs = _pairs("rate", parent, [110.0] * 9 + [100.0])
    row = ab_bench.summarize(pairs, end_to_end)["rate"]
    assert row["change_wins"] == "9/10"
    assert row["parent_median"] == 100.0 and row["change_median"] == 110.0
    assert row["change_worse_by"] == pytest.approx(-0.1)
    assert row["within_bound"] and row["clear_gain"]
    assert set(ab_bench.summarize(pairs, end_to_end)) == {"rate"}  # call_s is not reported

    # eight wins in ten is no clear gain; a lower-is-better metric 30 % worse
    # is out of its bound
    row = ab_bench.summarize(_pairs("rate", parent, [110.0] * 8 + [90.0] * 2), end_to_end)["rate"]
    assert row["change_wins"] == "8/10" and not row["clear_gain"]
    row = ab_bench.summarize(_pairs("call_s", parent, [130.0] * 10), end_to_end)["call_s"]
    assert row["change_wins"] == "0/10"
    assert row["change_worse_by"] == pytest.approx(0.3)
    assert not row["within_bound"] and not row["clear_gain"]


def test_summary_needs_the_gain_to_clear_the_parents_quartile_spread():
    end_to_end = [{"name": "rate", "better": "higher", "bound": 0.25}]
    parent = [90.0, 110.0] * 5  # quartiles 90 and 110
    row = ab_bench.summarize(_pairs("rate", parent, [p + 1.0 for p in parent]), end_to_end)["rate"]
    assert row["change_wins"] == "10/10" and row["parent_quartiles"] == [90.0, 110.0]
    assert not row["clear_gain"]
