"""README's Library block runs as written, what its comments state holds, and
the figures of its routing, build_network, verify-path and Install and test
paragraphs match the records they name."""
import json
import re
from pathlib import Path

from pairswitch import State

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block():
    text = README.read_text()
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_block_runs_and_its_comments_hold():
    block = _library_block()
    for claim in ("# 30 switches, 6 layers", "# (11, 10, 9, ...)", "# every switch Cross",
                  "# {0: (5, 6), ...}", "# True", "# 30 = N(N-2)/4"):
        assert claim in block
    scope = {}
    exec(compile(block, str(README), "exec"), scope)
    ps, net, demand, plan = scope["ps"], scope["net"], scope["demand"], scope["plan"]
    assert len(net.lines) == 30 and len(set(net.layers)) == 6
    assert demand.mate[:3] == (11, 10, 9)
    assert set(plan.states.values()) == {State.CROSS}
    assert plan.states[0] is State.CROSS
    assert plan.bsa[0] == (5, 6)
    assert scope["perm"] == plan.permuted
    assert ps.check_pairing(scope["perm"], demand).ok
    assert ps.optimal_switch_count(12) == 30


ROOT = README.parent

# One row per figure of README's verify-path section: the phrase with the
# figure as {}, the record that holds it, its path in the record (a dict
# picks the list item with those fields) and the decimals it is rounded to,
# negative ones rounding to tens.  A change that moves a figure changes its
# row.
_CHEVRON = "BENCH_chevron_columns.json"
_FEW = ("boundaries", "few_plans")
_FIELDS = "BENCH_byte_fields.json"
_DISPATCH = ("dispatch",)  # the chunks at 24 plans per id bit, on the byte-field side
_CHEVRON_AT_RULE = {"design": "chevron", "ports": 8, "plans": 72}
_BRICKWORK_AT_RULE = {"design": "brickwork", "ports": 64, "plans": 144}
_LARGE = ("large_n", "runs", "verify --design chevron --ports 2048 --samples 3", "medians")
_SAMPLED = ("summary", "verify-sampled")
VERIFY_FIGURES = [
    ("costs {}x that at N = 16", _CHEVRON,
     (*_FEW, {"design": "chevron", "ports": 16, "plans": 1}, "ratio_with_build"), 2),
    ("about {} us more", _CHEVRON,
     (*_FEW, {"design": "chevron", "ports": 16, "plans": 1}, "over_us"), 0),
    ("{}x at N = 64 and", _CHEVRON,
     (*_FEW, {"design": "chevron", "ports": 64, "plans": 1}, "ratio_with_build"), 2),
    ("and {}x at N = 2048. One triangular", _CHEVRON,
     (*_FEW, {"design": "chevron", "ports": 2048, "plans": 1}, "ratio_with_build"), 3),
    ("One triangular plan costs {}x at N = 16", _CHEVRON,
     (*_FEW, {"design": "triangular", "ports": 16, "plans": 1}, "ratio_with_build"), 2),
    ("and {}x at N = 2048, one brickwork", _CHEVRON,
     (*_FEW, {"design": "triangular", "ports": 2048, "plans": 1}, "ratio_with_build"), 3),
    ("one brickwork plan {}x and", _CHEVRON,
     (*_FEW, {"design": "brickwork", "ports": 16, "plans": 1}, "ratio_with_build"), 2),
    ("x and {}x, so every design", _CHEVRON,
     (*_FEW, {"design": "brickwork", "ports": 2048, "plans": 1}, "ratio_with_build"), 3),
    ("column lanes take {}x the byte-field pass's time for chevron at N = 8", _FIELDS,
     (*_DISPATCH, _CHEVRON_AT_RULE, "columns_ratio"), 2),
    ("but {}x for brickwork at N = 64", _FIELDS,
     (*_DISPATCH, _BRICKWORK_AT_RULE, "columns_ratio"), 2),
    ("N = 64, {} ms against", _FIELDS, (*_DISPATCH, _BRICKWORK_AT_RULE, "column_lanes_ms"), 2),
    ("against {} ms for 144 plans", _FIELDS, (*_DISPATCH, _BRICKWORK_AT_RULE, "byte_fields_ms"), 2),
    ("replaced took {}x and", _FIELDS, (*_DISPATCH, _CHEVRON_AT_RULE, "bit_sliced_ratio"), 2),
    ("and {}x its time there", _FIELDS, (*_DISPATCH, _BRICKWORK_AT_RULE, "bit_sliced_ratio"), 2),
    ("spends {} s in `cli.main`", _CHEVRON, (*_LARGE, "change", "main_s"), 3),
    ("against {} s at the parent commit", _CHEVRON, (*_LARGE, "parent", "main_s"), 2),
    ("peak RSS of {} against", _CHEVRON, (*_LARGE, "change", "peak_rss_mib"), 1),
    ("against {} MiB", _CHEVRON, (*_LARGE, "parent", "peak_rss_mib"), 1),
    ("about {} (triangular)", _CHEVRON, (*_SAMPLED, "demands_per_s.triangular", "change_median"), -1),
    ("{} (chevron)", _CHEVRON, (*_SAMPLED, "demands_per_s.chevron", "change_median"), -1),
    ("{} (brickwork) demands/s", _CHEVRON,
     (*_SAMPLED, "demands_per_s.brickwork", "change_median"), -1),
]


# The same, for the figures of README's routing section; a fifth item
# scales the record's value (seconds to ms).
_DELETION = "BENCH_deletion_round.json"
_DOUBLING = ("traced_route_large", "metrics")
_ROUTE_LARGE = ("summary", "route-large")
_TRIES = "BENCH_exhaustive_tries.json"
_WALK = ("walk_ratios",)
_EXHAUSTIVE = ("summary", "verify-exhaustive")
_JOINED = "BENCH_joined_walks.json"
_WALKS = ("walks_ms",)
ROUTING_FIGURES = [
    ("a route by {} (triangular)", _DELETION,
     (*_DOUBLING, "routing.triangular.doubling_ratio", "change"), 2),
    ("(triangular), {} (chevron)", _DELETION,
     (*_DOUBLING, "routing.chevron.doubling_ratio", "change"), 2),
    ("{} (brickwork), the benchmark's `doubling_ratio`", _DELETION,
     (*_DOUBLING, "routing.brickwork.doubling_ratio", "change"), 2),
    ("reads {} ms (triangular)", _DELETION,
     (*_ROUTE_LARGE, "call_s.triangular", "change_median"), 2, 1000),
    ("{} ms (chevron) and", _DELETION, (*_ROUTE_LARGE, "call_s.chevron", "change_median"), 2, 1000),
    ("{} ms (brickwork) (medians", _DELETION,
     (*_ROUTE_LARGE, "call_s.brickwork", "change_median"), 1, 1000),
    ("N = 12 a walk took {}x (triangular)", _TRIES, (*_WALK, "triangular", "12", "ratio"), 2),
    ("{}x (chevron) and", _TRIES, (*_WALK, "chevron", "12", "ratio"), 2),
    ("and {}x (brickwork) the time", _TRIES, (*_WALK, "brickwork", "12", "ratio"), 2),
    ("it replaced, and {}x,", _TRIES, (*_WALK, "triangular", "14", "ratio"), 2),
    (", {}x and", _TRIES, (*_WALK, "chevron", "14", "ratio"), 2),
    ("and {}x at N = 14 (`walk_ratios`", _TRIES, (*_WALK, "brickwork", "14", "ratio"), 2),
    ("a walk now takes {} ms (triangular)", _JOINED, (*_WALKS, "change", "triangular 12"), 2),
    ("{} ms (chevron) and", _JOINED, (*_WALKS, "change", "chevron 12"), 2),
    ("{} ms (brickwork), against", _JOINED, (*_WALKS, "change", "brickwork 12"), 2),
    ("against {}, ", _JOINED, (*_WALKS, "parent", "triangular 12"), 2),
    (", {} and", _JOINED, (*_WALKS, "parent", "chevron 12"), 2),
    ("and {} ms for the walk and the joins", _JOINED, (*_WALKS, "parent", "brickwork 12"), 2),
    ("--exhaustive` checks about {} (triangular)", _JOINED,
     (*_EXHAUSTIVE, "demands_per_s.triangular", "change_median"), -2),
    ("{} (chevron) and", _JOINED, (*_EXHAUSTIVE, "demands_per_s.chevron", "change_median"), -2),
    ("and {} (brickwork) demands/s", _JOINED,
     (*_EXHAUSTIVE, "demands_per_s.brickwork", "change_median"), -2),
]

# The same, for the figures of README's build_network paragraph.
_RAMPS = "BENCH_draw_readback_ramps.json"
_BUILD = ("build_network_ms", "change")
BUILD_FIGURES = [
    ("{} ms (triangular),", _RAMPS, (*_BUILD, "triangular 1024"), 1),
    ("{} ms (chevron) and", _RAMPS, (*_BUILD, "chevron 1024"), 1),
    ("{} ms (brickwork) at N = 1024", _RAMPS, (*_BUILD, "brickwork 1024"), 1),
    ("and {} ms (triangular),", _RAMPS, (*_BUILD, "triangular 2048"), 0),
    ("{} ms (chevron) and", _RAMPS, (*_BUILD, "chevron 2048"), 0),
    ("{} ms (brickwork) at N = 2048", _RAMPS, (*_BUILD, "brickwork 2048"), 0),
]


# The same, for the figures of README's Install and test section.  A
# function in a path parses the value it reaches: the certificate's record
# holds its time only inside the line the script prints.
_DIGESTS = ("exhaustive_digests",)
INSTALL_FIGURES = [
    ("to 2048 it took {} s on a", _DELETION,
     ("certificate", "output", lambda line: float(re.fullmatch(r".* in ([0-9.]+) s", line)[1])),
     0),
    ("At N = 16 it took {} s (triangular)", _JOINED,
     (*_DIGESTS, "change", "runs", "triangular 16", "seconds"), 1),
    ("{} s (chevron) and", _JOINED, (*_DIGESTS, "change", "runs", "chevron 16", "seconds"), 1),
    ("{} s (brickwork), against", _JOINED,
     (*_DIGESTS, "change", "runs", "brickwork 16", "seconds"), 1),
    ("against {}, ", _JOINED, (*_DIGESTS, "parent", "runs", "triangular 16", "seconds"), 1),
    (", {} and", _JOINED, (*_DIGESTS, "parent", "runs", "chevron 16", "seconds"), 1),
    ("and {} s before the walks", _JOINED,
     (*_DIGESTS, "parent", "runs", "brickwork 16", "seconds"), 1),
    ("against {}, ", _TRIES, (*_DIGESTS, "parent", "runs", "triangular 16", "seconds"), 1),
    (", {} and", _TRIES, (*_DIGESTS, "parent", "runs", "chevron 16", "seconds"), 1),
    ("and {} s when", _TRIES, (*_DIGESTS, "parent", "runs", "brickwork 16", "seconds"), 1),
]


def _figure(record, path):
    value = json.loads((ROOT / record).read_text())
    for key in path:
        if isinstance(key, dict):
            value = next(item for item in value if key.items() <= item.items())
        elif callable(key):
            value = key(value)
        else:
            value = value[key]
    return value


def _section(start, end):
    text = README.read_text()
    first = text.index(start) if start else 0
    return " ".join(text[first : text.index(end, first)].split())


def _check_figures(section, rows):
    for phrase, record, path, digits, *scale in rows:
        value = _figure(record, path) * (scale[0] if scale else 1)
        figure = f"{round(value, digits):,.{max(digits, 0)}f}"
        assert phrase.format(figure) in section, (phrase, figure)


def test_verify_figures_match_their_records():
    _check_figures(_section("`simulate` is one stateless pass", "\n## Install and test"),
                   VERIFY_FIGURES)


def test_routing_figures_match_their_records():
    _check_figures(_section(None, "`build_network` fills its three arrays"), ROUTING_FIGURES)


def test_build_figures_match_their_records():
    _check_figures(_section("`build_network` fills its three arrays",
                            "`simulate` is one stateless pass"), BUILD_FIGURES)


def test_install_figures_match_their_records():
    _check_figures(_section("\n## Install and test", "\n## Library"), INSTALL_FIGURES)


def test_every_record_named_in_readme_or_changes_exists():
    names = set(re.findall(r"BENCH_\w+\.json", README.read_text()
                           + (ROOT / "CHANGES.md").read_text()))
    assert len(names) >= 24
    assert [name for name in sorted(names) if not (ROOT / name).is_file()] == []
