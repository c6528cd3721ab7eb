import importlib.util
import json
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


def test_repeated_workloads_run_in_turn_into_one_record_keyed_by_workload(monkeypatch, tmp_path):
    # no perfbench run: the export, the git and compile steps and each run
    # are stubbed; the change reads 10 % faster on every workload
    class Done:
        stdout = "abc1234\n"

    calls = []

    def run_once(tree, workload, seed):
        side = "change" if tree == ab_bench.ROOT else "parent"
        calls.append((workload, seed, side))
        value = 1.0 if side == "parent" else 0.9
        return {"correct": True, "failed": 0, "metrics": {"setup_s": {"value": value}}}

    monkeypatch.setattr(ab_bench, "export", lambda revision, dest: None)
    monkeypatch.setattr(ab_bench.subprocess, "run", lambda *args, **kwargs: Done())
    monkeypatch.setattr(ab_bench, "run_once", run_once)
    out = tmp_path / "record.json"
    argv = ["--parent", "HEAD", "--workload", "verify-sampled", "--workload", "route-large",
            "--pairs", "2", "--seed", "5", "--json", str(out)]
    assert ab_bench.main(argv) == 0
    assert calls == [("verify-sampled", 5, "parent"), ("verify-sampled", 5, "change"),
                     ("verify-sampled", 6, "change"), ("verify-sampled", 6, "parent"),
                     ("route-large", 5, "parent"), ("route-large", 5, "change"),
                     ("route-large", 6, "change"), ("route-large", 6, "parent")]
    record = json.loads(out.read_text())
    assert record["parent"] == "abc1234" and record["all_correct_and_no_failed_operations"]
    assert record["workloads"] == ["verify-sampled", "route-large"]
    assert list(record["summary"]) == list(record["runs"]) == record["workloads"]
    for workload in record["workloads"]:
        assert record["summary"][workload]["setup_s"]["change_wins"] == "2/2"
        assert [pair["seed"] for pair in record["runs"][workload]] == [5, 6]

    # a workload out of its bound fails the whole run
    monkeypatch.setattr(ab_bench, "run_once", lambda tree, workload, seed: {
        "correct": True, "failed": 0,
        "metrics": {"setup_s": {"value": 2.0 if tree == ab_bench.ROOT and workload == "route-large"
                                else 1.0}}})
    assert ab_bench.main(argv[:-2]) == 1


def test_a_tree_that_changes_under_a_run_ends_the_comparison(monkeypatch, tmp_path, capsys):
    # both trees are small copies; the stubbed run edits one file of the
    # parent's during the second pair, and bytecode caches change nothing
    class Done:
        stdout = "abc1234\n"

    def export(revision, dest):
        for name, text in (("BENCHMARK.json", '{"end_to_end": []}'), ("src/x.py", "x = 1\n"),
                           ("perfbench/run.py", "print()\n")):
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            (dest / name).write_text(text)

    change = tmp_path / "change"
    change.mkdir()
    export("HEAD", change)
    calls = []

    def run_once(tree, workload, seed):
        calls.append((seed, tree == change))
        (tree / "src" / "__pycache__").mkdir(exist_ok=True)
        (tree / "src" / "__pycache__" / f"x{seed}.pyc").write_bytes(b"")
        if seed == 2 and tree != change:
            (tree / "src" / "x.py").write_text("x = 2\n")
        return {"correct": True, "failed": 0, "metrics": {}}

    monkeypatch.setattr(ab_bench, "ROOT", change)
    monkeypatch.setattr(ab_bench, "export", export)
    monkeypatch.setattr(ab_bench.subprocess, "run", lambda *args, **kwargs: Done())
    monkeypatch.setattr(ab_bench, "run_once", run_once)
    argv = ["--parent", "HEAD", "--workload", "route-large", "--pairs", "3"]
    with pytest.raises(SystemExit) as exc:
        ab_bench.main(argv)
    assert calls == [(1, False), (1, True), (2, True), (2, False)]
    assert str(exc.value.code).startswith("the parent tree ")
    assert str(exc.value.code).endswith(
        " changed during route-large pair 2/3 (seed 2); no reading reported")
    assert capsys.readouterr().out == ""

    # an unchanged tree, its caches rewritten, gives the report
    calls.clear()
    monkeypatch.setattr(ab_bench, "run_once", lambda tree, workload, seed: run_once(tree, workload, 1))
    assert ab_bench.main(argv) == 0
    assert "route-large: 3 pairs against abc1234" in capsys.readouterr().out


def test_each_trees_src_lines_are_counted_into_the_record(monkeypatch, tmp_path, capsys):
    # two small trees; blank lines and comment lines do not count, a
    # docstring and a line with a trailing comment do, and so does no file
    # outside src/pairswitch
    class Done:
        stdout = "abc1234\n"

    files = {"parent": {"src/pairswitch/a.py": '"""Doc."""\n\n# note\nx = 1  # one\n',
                        "src/pairswitch/b.py": "    # indented note\n\t\ny = 2",
                        "src/other.py": "z = 3\n", "tools/t.py": "w = 4\n"},
             "change": {"src/pairswitch/a.py": "x = 1\n", "BENCHMARK.json": '{"end_to_end": []}'}}

    def write(tree, side):
        for name, text in files[side].items():
            (tree / name).parent.mkdir(parents=True, exist_ok=True)
            (tree / name).write_text(text)

    change = tmp_path / "change"
    write(change, "change")
    assert ab_bench.src_lines(change) == 1
    assert ab_bench.src_lines(tmp_path / "missing") == 0
    monkeypatch.setattr(ab_bench, "ROOT", change)
    monkeypatch.setattr(ab_bench, "export", lambda revision, dest: write(dest, "parent"))
    monkeypatch.setattr(ab_bench.subprocess, "run", lambda *args, **kwargs: Done())
    monkeypatch.setattr(ab_bench, "run_once", lambda tree, workload, seed: {
        "correct": True, "failed": 0, "metrics": {}})
    out = tmp_path / "record.json"
    argv = ["--parent", "HEAD", "--workload", "route-large", "--pairs", "1", "--json", str(out)]
    assert ab_bench.main(argv) == 0
    assert json.loads(out.read_text())["src_lines"] == {"parent": 3, "change": 1}
    assert "src lines (non-blank, non-comment): parent 3, change 1" in capsys.readouterr().out
