import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pairswitch import (
    Design, InvalidInput, build_network, cli, network_from_json, network_to_json, simulation,
)
from pairswitch.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_stdout(capsys):
    code, out, err = run(capsys, "generate", "--design", "triangular", "--ports", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc == json.loads(network_to_json(build_network(Design.TRIANGULAR, 4)))


def test_generate_reverse_out_file(tmp_path, capsys):
    target = tmp_path / "net.json"
    code, out, _ = run(
        capsys, "generate", "--design", "chevron", "--ports", "6",
        "--reverse", "--out", str(target),
    )
    assert code == 0
    assert out == ""  # JSON goes to the file, not stdout
    doc = json.loads(target.read_text())
    assert doc["reversed"] is True


def test_route_states(capsys):
    code, out, _ = run(
        capsys, "route", "--design", "triangular", "--ports", "4", "--pairs", "0-3,1-2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["states"] == {"0": "cross", "1": "cross"}
    assert doc["permuted"] == [1, 2, 0, 3]


def test_route_writes_svg(tmp_path, capsys):
    svg = tmp_path / "routed.svg"
    code, _, _ = run(
        capsys, "route", "--design", "brickwork", "--ports", "8",
        "--pairs", "0-7,1-6,2-5,3-4", "--out", str(tmp_path / "plan.json"),
        "--svg", str(svg),
    )
    assert code == 0
    assert svg.read_text().startswith("<?xml")


def test_route_malformed_pairs_exits_2(capsys):
    code, out, err = run(
        capsys, "route", "--design", "brickwork", "--ports", "12", "--pairs", "0-3,1-2"
    )
    assert code == 2
    assert out == ""
    assert "error" in err


def test_route_pairs_in_non_ascii_digits_exit_2(capsys):
    arabic_indic = "\u0660-\u0663,\u0661-\u0662"  # 0-3,1-2
    code, out, err = run(
        capsys, "route", "--design", "triangular", "--ports", "4", "--pairs", arabic_indic
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


def test_route_odd_ports_exits_2(capsys):
    code, _, err = run(
        capsys, "route", "--design", "triangular", "--ports", "5", "--pairs", "0-1"
    )
    assert code == 2
    assert "error" in err


def test_unknown_design_exits_2(capsys):
    code, _, _ = run(capsys, "generate", "--design", "butterfly", "--ports", "4")
    assert code == 2


def test_verify_exhaustive_range(capsys):
    code, out, err = run(
        capsys, "verify", "--design", "all", "--ports", "4..6", "--exhaustive"
    )
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 6  # 2 sizes x 3 designs
    assert all(r["failures"] == [] for r in reports)


def test_verify_sampled(capsys):
    code, out, _ = run(
        capsys, "verify", "--design", "brickwork", "--ports", "16",
        "--samples", "25", "--seed", "3",
    )
    assert code == 0
    (report,) = json.loads(out)
    assert report["mode"] == "random"
    assert report["demands_checked"] == 25
    assert report["seed"] == 3


def test_one_parser_serves_every_call_of_a_process(capsys, monkeypatch):
    # a bad argv, then a good verify, through the process's one parser; the
    # same two calls on a fresh parser each must print the same
    calls = [("verify", "--design", "chevron", "--ports", "8", "--samples", "0x"),
             ("verify", "--design", "triangular", "--ports", "4..8", "--samples", "3")]
    assert cli._build_parser() is cli._build_parser()
    shared = [run(capsys, *argv) for argv in calls]
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = [run(capsys, *argv) for argv in calls]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 0]
    assert "invalid int value: '0x'" in shared[0][2] and shared[1][2] == ""


def test_verify_rejects_odd_range(capsys):
    code, _, err = run(
        capsys, "verify", "--design", "all", "--ports", "4..7", "--exhaustive"
    )
    assert code == 2
    assert "error" in err


def test_minimality(capsys):
    for ports in ("4", "10"):
        code, out, _ = run(capsys, "minimality", "--design", "triangular", "--ports", ports)
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
    # N = 12 leaves 29 switches after a deletion, past the 24-switch budget
    code, out, err = run(capsys, "minimality", "--design", "chevron", "--ports", "12")
    assert (code, out) == (2, "")
    assert "brute-force budget" in err


def test_metrics_csv(tmp_path, capsys):
    csv_path = tmp_path / "table.csv"
    code, out, _ = run(capsys, "metrics", "--ports", "4..8", "--csv", str(csv_path))
    assert code == 0
    assert "ratio ours/spanke_benes" in out
    assert csv_path.read_text().startswith("scheme,N,switches,crosspoints,max_depth\n")


def test_metrics_without_an_n_of_at_least_4_exits_2(capsys):
    code, out, err = run(capsys, "metrics", "--ports", "2")
    assert code == 2
    assert out == ""
    assert err == "error: metrics need at least one even N >= 4\n"


# sha256 of the stdout and of the CSV bytes of `metrics --ports 4..16 --csv`,
# recorded while count_table and series_rows each wrote their own formulas.
GOLDEN_METRICS_SHA256 = (
    "97b347ff4a4df40fc717b9a28985d5c990b626e596eb939ac6617bef5e7ed586",
    "1601249da02084f36981478b6af660931454fad9af05c5f14a4f0d7394880929",
)


def test_metrics_match_golden_digest(tmp_path, capsys):
    csv_path = tmp_path / "table.csv"
    code, out, _ = run(capsys, "metrics", "--ports", "4..16", "--csv", str(csv_path))
    assert code == 0
    digests = tuple(
        hashlib.sha256(data).hexdigest() for data in (out.encode(), csv_path.read_bytes())
    )
    assert digests == GOLDEN_METRICS_SHA256


def test_render_ascii_from_file(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    run(capsys, "generate", "--design", "triangular", "--ports", "4",
        "--out", str(net_path))
    code, out, _ = run(capsys, "render", "--net", str(net_path), "--ascii")
    assert code == 0
    assert out.count("?") == 2


def test_render_ascii_past_the_cell_budget_exits_2(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    run(capsys, "generate", "--design", "triangular", "--ports", "512",
        "--out", str(net_path))
    code, out, err = run(capsys, "render", "--net", str(net_path), "--ascii")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "cell budget" in err


def _refuse_to_validate(doc):
    raise AssertionError("render validated the switches first")


@pytest.mark.parametrize("ports,cols", [(2048, [0, 2048]), (4, [0, 2**40]), (1024, [300000])])
def test_render_ascii_checks_the_cell_budget_before_any_switch(
        tmp_path, capsys, monkeypatch, ports, cols):
    # plain-int ports and cols decide the grid's size: the budget is checked
    # on the parsed document, before its switches are validated (these
    # switches would fail validation: their ids and layers are all 0)
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps({"design": "triangular", "ports": ports, "switches": [
        {"id": 0, "layer": 0, "line": 0, "col": col} for col in cols]}))
    monkeypatch.setattr(cli, "_network_from_doc", _refuse_to_validate)
    code, out, err = run(capsys, "render", "--net", str(net_path), "--ascii")
    cells = (2 * ports - 1) * (max(cols) + 1)
    assert (code, out) == (2, "")
    assert err == f"error: an ASCII diagram of {cells} cells exceeds the 8388608-cell budget\n"


@pytest.mark.parametrize("ports,switch", [
    (4, {"id": 0, "layer": 1, "line": 0, "col": True}),
    (4, {"id": 0, "layer": 1, "line": 0, "col": 1.0}),
    (4, {"id": 0, "layer": 1, "line": 0, "col": "0"}),
    (4, {"id": 0, "layer": 1, "line": 0}),
    (4, []),
    (4.0, {"id": 0, "layer": 1, "line": 0, "col": 0}),
    (True, {"id": 0, "layer": 1, "line": 0, "col": 0}),
])
def test_render_ascii_leaves_other_documents_to_validation(tmp_path, capsys, ports, switch):
    # ports or a col that is not a plain int, a switch without a col or one
    # that is no object: the validation error stands, whatever the other
    # switch's col says
    huge = {"id": 1, "layer": 1, "line": 1, "col": 2**40}
    text = json.dumps({"design": "triangular", "ports": ports, "switches": [switch, huge]})
    net_path = tmp_path / "net.json"
    net_path.write_text(text)
    with pytest.raises(InvalidInput) as raised:
        network_from_json(text)
    code, out, err = run(capsys, "render", "--net", str(net_path), "--ascii")
    assert (code, out, err) == (2, "", f"error: {raised.value}\n")
    assert "cell budget" not in err


def test_render_incomplete_states_exits_2(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    states_path = tmp_path / "states.json"
    run(capsys, "generate", "--design", "triangular", "--ports", "6",
        "--out", str(net_path))
    states_path.write_text('{"states": {"0": "cross"}}')
    code, _, err = run(capsys, "render", "--net", str(net_path),
                       "--states", str(states_path), "--ascii")
    assert code == 2
    assert "error" in err


def test_render_svg_with_states(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    plan_path = tmp_path / "plan.json"
    svg_path = tmp_path / "net.svg"
    run(capsys, "generate", "--design", "triangular", "--ports", "4",
        "--out", str(net_path))
    run(capsys, "route", "--design", "triangular", "--ports", "4",
        "--pairs", "0-3,1-2", "--out", str(plan_path))
    code, _, _ = run(capsys, "render", "--net", str(net_path),
                     "--states", str(plan_path), "--svg", str(svg_path))
    assert code == 0
    assert svg_path.read_text().count('class="cross"') == 2


_FULL_6 = {str(i): "cross" for i in range(6)}


@pytest.mark.parametrize("doc,message", [
    ({"0": "cross"}, "states do not cover the network exactly (missing [1, 2, 3, 4, 5], extra [])"),
    ({**_FULL_6, "9": "bar"}, "states do not cover the network exactly (missing [], extra [9])"),
    ({**{str(i): "bar" for i in range(5)}, "9": "bar"},
     "states do not cover the network exactly (missing [5], extra [9])"),
    ({**_FULL_6, "3": "sideways"}, "malformed states document: 'sideways' is not a valid State"),
    ({**_FULL_6, "x": "bar"},
     "malformed states document: invalid literal for int() with base 10: 'x'"),
])
def test_render_rejects_states_off_the_network_without_simulating(
        tmp_path, capsys, monkeypatch, doc, message):
    net_path = tmp_path / "net.json"
    states_path = tmp_path / "states.json"
    run(capsys, "generate", "--design", "triangular", "--ports", "6", "--out", str(net_path))
    states_path.write_text(json.dumps(doc))
    monkeypatch.setattr(simulation, "simulate", _no_simulation)
    code, out, err = run(capsys, "render", "--net", str(net_path),
                         "--states", str(states_path), "--ascii")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def _no_simulation(*args, **kwargs):
    raise AssertionError("render ran a simulation pass")


def test_render_with_states_runs_no_simulation_pass(tmp_path, capsys, monkeypatch):
    net_path = tmp_path / "net.json"
    plan_path = tmp_path / "plan.json"
    run(capsys, "generate", "--design", "brickwork", "--ports", "8", "--out", str(net_path))
    run(capsys, "route", "--design", "brickwork", "--ports", "8",
        "--pairs", "0-7,1-6,2-5,3-4", "--out", str(plan_path))
    expected = run(capsys, "render", "--net", str(net_path), "--states", str(plan_path), "--ascii")
    for name in ("simulate", "_check_bytes", "_check_plans"):
        monkeypatch.setattr(simulation, name, _no_simulation)
    assert not hasattr(cli, "propagate") and not hasattr(cli, "simulate")
    code, out, err = run(capsys, "render", "--net", str(net_path),
                         "--states", str(plan_path), "--ascii")
    assert (code, out, err) == expected
    assert code == 0 and out.count("X") == 12


_SWITCH = {"id": 0, "layer": 1, "line": 0, "col": 0}


@pytest.mark.parametrize(
    "ports,switches",
    [
        (4, [{**_SWITCH, "line": 7}]),
        (4, [{**_SWITCH, "line": -1}]),
        (5, []),
        (0, []),
        (4, [{**_SWITCH, "id": 1}]),
        (4, [_SWITCH, {**_SWITCH, "line": 1, "col": -1, "id": 1}]),
        (4, [_SWITCH, {**_SWITCH, "line": 1, "col": 2, "id": 1}]),
        (4, [_SWITCH, {**_SWITCH, "line": 1, "col": 500000, "id": 1}]),
        (4, [{**_SWITCH, "layer": 0}]),
        (4, [{**_SWITCH, "layer": -3}]),
        (4, [{**_SWITCH, "layer": 3}]),
        (4, [{**_SWITCH, "layer": 2**80}]),
        ("1e400", []),
        (4, [{**_SWITCH, "layer": "1e400"}]),
        (4, [{**_SWITCH, "col": "1e400"}]),
        (4.9, [_SWITCH]),
        (4, [{**_SWITCH, "layer": 1.7}]),
        (4, [{**_SWITCH, "line": 0.5}]),
        (4, [{**_SWITCH, "col": False}]),
        (4, [{**_SWITCH, "id": False}]),
        (4, [{**_SWITCH, "layer": True}]),
    ],
)
@pytest.mark.parametrize("with_states", [False, True])
def test_render_malformed_network_exits_2(tmp_path, capsys, ports, switches, with_states):
    net_path = tmp_path / "bad.json"
    # "1e400" stands for the bare number, which JSON reads as float infinity
    net_path.write_text(json.dumps(
        {"design": "triangular", "ports": ports, "reversed": False, "switches": switches}
    ).replace('"1e400"', "1e400"))
    argv = ["render", "--net", str(net_path), "--ascii"]
    if with_states:
        states_path = tmp_path / "states.json"
        states_path.write_text(json.dumps({str(s["id"]): "cross" for s in switches}))
        argv += ["--states", str(states_path)]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("flipped", ["no", 0, None])
def test_render_network_with_non_bool_reversed_exits_2(tmp_path, capsys, flipped):
    net_path = tmp_path / "bad.json"
    net_path.write_text(json.dumps(
        {"design": "triangular", "ports": 4, "reversed": flipped, "switches": [_SWITCH]}
    ))
    code, out, err = run(capsys, "render", "--net", str(net_path), "--ascii")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_verify_above_port_budget_exits_2_quickly(capsys):
    start = time.perf_counter()
    code, out, err = run(
        capsys, "verify", "--design", "triangular", "--ports", "3000000", "--samples", "1"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "budget" in err


@pytest.mark.parametrize("ports", ["2048", "4..2048"])
def test_exhaustive_verify_above_demand_budget_exits_2_quickly(capsys, ports):
    # the range is checked whole: N = 4..16 alone would take minutes
    start = time.perf_counter()
    code, out, err = run(
        capsys, "verify", "--design", "triangular", "--ports", ports,
        "--exhaustive", "--cap", "4096",
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_verify_range_crossing_port_budget_exits_2_quickly(capsys):
    start = time.perf_counter()
    code, out, err = run(
        capsys, "verify", "--design", "triangular", "--ports", "2048..2050", "--samples", "1"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "budget" in err


def test_verify_with_a_huge_sample_count_exits_2(capsys):
    code, out, err = run(
        capsys, "verify", "--design", "triangular", "--ports", "8",
        "--samples", "99999999999999999999999",
    )
    assert (code, out) == (2, "")
    assert err == f"error: samples capped at {sys.maxsize}, got 99999999999999999999999\n"


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_verify_rejects_a_sample_count_below_one(capsys, samples):
    code, out, err = run(
        capsys, "verify", "--design", "triangular", "--ports", "4", "--samples", samples
    )
    assert (code, out, err) == (2, "", "error: --samples must be >= 1\n")


@pytest.mark.parametrize("ports", ["abc", "4..", "..8", "4..x"])
def test_verify_rejects_non_numeric_range(capsys, ports):
    code, out, err = run(capsys, "verify", "--design", "all", "--ports", ports, "--exhaustive")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


# every numeric option, "{}" standing for its value
_NUMERIC_OPTIONS = [
    ("generate", "--design", "triangular", "--ports", "{}"),
    ("route", "--design", "triangular", "--ports", "{}", "--pairs", "0-1,2-3"),
    ("minimality", "--design", "triangular", "--ports", "{}"),
    ("verify", "--design", "triangular", "--ports", "{}", "--exhaustive"),
    ("verify", "--design", "triangular", "--ports", "2..{}", "--exhaustive"),
    ("verify", "--design", "triangular", "--ports", "4", "--samples", "{}"),
    ("verify", "--design", "triangular", "--ports", "4", "--samples", "2", "--seed", "{}"),
    ("verify", "--design", "triangular", "--ports", "4", "--exhaustive", "--cap", "{}"),
    ("metrics", "--ports", "{}"),
]


@pytest.mark.parametrize("value", ["\u0664", "1_0", "+4", " 4", "x"])  # \u0664 is an Arabic-Indic 4
@pytest.mark.parametrize("argv", _NUMERIC_OPTIONS, ids=lambda argv: "-".join(argv[:1] + argv[-2:]))
def test_numeric_options_take_only_ascii_decimal(capsys, argv, value):
    # int() reads every one of these values as 4 or 10
    code, out, err = run(capsys, *(arg.format(value) for arg in argv))
    assert (code, out) == (2, "")
    given = next(arg.format(value) for arg in argv if "{}" in arg)
    assert repr(given) in err and "Traceback" not in err
    assert run(capsys, *(arg.format("4") for arg in argv))[0] == 0


def test_a_seed_may_be_negative(capsys):
    code, out, _ = run(capsys, "verify", "--design", "chevron", "--ports", "8",
                       "--samples", "3", "--seed", "-4")
    assert code == 0
    assert json.loads(out)[0]["seed"] == -4


def test_generate_above_port_budget_exits_2(capsys):
    code, out, err = run(capsys, "generate", "--design", "brickwork", "--ports", "2050")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


# The CLI in a child process limited to 1 GiB of address space, so a demand
# that allocated its 10**9-entry partner table (8 GB) would fail there.
_LIMITED_CLI = (
    "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
    "from pairswitch.cli import main; sys.exit(main(sys.argv[1:]))"
)


def test_route_above_port_budget_exits_2_before_allocating():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _LIMITED_CLI, "route", "--design", "triangular",
         "--ports", "1000000000", "--pairs", "0-1"],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "budget" in proc.stderr


def test_cli_output_is_deterministic(capsys):
    argv = ["route", "--design", "chevron", "--ports", "8", "--pairs",
            "0-7,1-6,2-5,3-4"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_verify_failure_exits_1(capsys, monkeypatch):
    import pairswitch.cli as cli_mod
    from pairswitch import Design
    from pairswitch.verification import VerificationReport

    def fake_verify(design, ports, **kwargs):
        return VerificationReport(
            design=Design(design), ports=ports, mode="exhaustive",
            demands_checked=3, failures=(("0-3,1-2", "boom"),),
            max_depth=2, min_depth=0,
        )

    monkeypatch.setattr(cli_mod, "verify_design", fake_verify)
    code, out, err = run(
        capsys, "verify", "--design", "triangular", "--ports", "4", "--exhaustive"
    )
    assert code == 1
    assert json.loads(out)[0]["failures"] == [["0-3,1-2", "boom"]]
    assert "FAIL" in err


def test_minimality_failure_exits_1(capsys, monkeypatch):
    import pairswitch.cli as cli_mod
    from pairswitch import Design
    from pairswitch.verification import MinimalityReport

    def fake_minimality(design, ports, **kwargs):
        return MinimalityReport(
            design=Design(design), ports=ports, outcomes=((0, True), (1, False))
        )

    monkeypatch.setattr(cli_mod, "verify_minimality", fake_minimality)
    code, out, err = run(capsys, "minimality", "--design", "chevron", "--ports", "4")
    assert code == 1
    assert json.loads(out)["passed"] is False
