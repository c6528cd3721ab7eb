"""Time perfbench workloads at a parent revision and in the working tree,
in alternating pairs, and compare the two per end-to-end metric.

    python3 tools/ab_bench.py --parent HEAD~1 --workload verify-exhaustive --pairs 10
    python3 tools/ab_bench.py --parent HEAD~1 --workload route-large \
        --workload verify-sampled --workload verify-exhaustive --json BENCH_x.json

The parent's committed files are exported with ``git archive`` into a
temporary directory, so the repository gains no worktree entry and the
parent runs exactly what it committed.  Both trees are byte-compiled, then
each pair runs ``perfbench/run.py --workload W --seed S --trace 0`` once in
each tree, one run at a time, with seeds S0, S0 + 1, ...; the parent runs
first on odd seeds, so the side that runs first alternates from pair to
pair.  Every run lasts run.py's default length, the same on both sides.
Each tree's sources (``src/``, ``perfbench/`` and ``BENCHMARK.json``) are
hashed before the first pair and again after each run: a tree that changed
under a run ends the comparison with exit status 1, naming the side and
the pair, and no reading is reported.

``--workload`` may be given more than once: each workload runs all its
pairs in turn, in the order given.  For each workload and every end-to-end
metric of the working tree's ``BENCHMARK.json`` it prints both medians,
the parent's quartiles, the pairs the change won, how much worse the
change's median is (negative is better) against the metric's bound, and
whether a gain is clear: won in at least nine pairs in ten, by a median
gain larger than the spread between the parent's quartiles.  It also
prints each tree's src line count, the non-blank, non-comment lines of
``src/pairswitch/*.py``, summed.  With ``--json FILE`` it also writes one
record of both line counts, every run's final report line and the
summary, each keyed by workload.  Stdlib only; not part of the test
suite.  Exit status: 0 when every run is correct with no failed
operation and every metric is within its bound on every workload, 1
otherwise, 2 on a usage error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def export(revision: str, dest: Path) -> None:
    """The committed files of ``revision`` under ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", revision],
                             stdout=subprocess.PIPE, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def tree_hash(tree: Path) -> str:
    """sha256 over the sources a run reads: every file under ``src/`` and
    ``perfbench/``, bytecode caches aside, and ``BENCHMARK.json``, each by
    its path and its bytes."""
    files = [*tree.glob("BENCHMARK.json"),
             *sorted(path for top in ("src", "perfbench") for path in (tree / top).rglob("*")
                     if path.is_file() and "__pycache__" not in path.parts)]
    digest = hashlib.sha256()
    for path in files:
        data = path.read_bytes()
        digest.update(f"{path.relative_to(tree).as_posix()}\0{len(data)}\0".encode() + data)
    return digest.hexdigest()


def src_lines(tree: Path) -> int:
    """The lines of ``tree``'s ``src/pairswitch/*.py`` that are neither
    blank nor a comment, summed, docstrings counted: per file, what grep
    counts with ``-cvE`` and the pattern of optional blanks before a ``#``
    or the line's end."""
    return sum(1 for path in (tree / "src" / "pairswitch").glob("*.py")
               for line in path.read_text().splitlines()
               if line.strip() and not line.lstrip().startswith("#"))


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its final JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_pairs(trees: dict[str, Path], hashes: dict[str, str], workload: str, count: int,
              seed: int) -> list[dict]:
    """``count`` pairs of ``workload``, seeds ``seed``, ``seed + 1``, ...; the
    parent runs first on odd seeds.  After each run the tree must still hash
    to ``hashes[side]``, or the comparison ends with exit status 1."""
    pairs = []
    for k in range(count):
        first = SIDES[not (seed + k) % 2]
        pair = {"seed": seed + k, "first": first}
        for side in (first, SIDES[first == "parent"]):
            pair[side] = run_once(trees[side], workload, seed + k)
            if tree_hash(trees[side]) != hashes[side]:
                raise SystemExit(f"the {side} tree {trees[side]} changed during {workload} "
                                 f"pair {k + 1}/{count} (seed {seed + k}); no reading reported")
        pairs.append(pair)
        print(f"{workload} pair {k + 1}/{count} seed {seed + k} ({first} first) done",
              file=sys.stderr)
    return pairs


def print_summary(workload: str, count: int, parent: str, healthy: bool, summary: dict) -> None:
    print(f"{workload}: {count} pairs against {parent}; every run correct "
          f"with no failed operation: {healthy}")
    print(f"{'metric':26} {'parent':>12} {'change':>12} {'parent q1..q3':>25} "
          f"{'wins':>6} {'worse by':>9} {'bound':>6}  clear gain")
    for name, row in summary.items():
        q1, q3 = row["parent_quartiles"]
        print(f"{name:26} {row['parent_median']:12.6g} {row['change_median']:12.6g} "
              f"{q1:12.6g}..{q3:<12.6g} {row['change_wins']:>6} "
              f"{100 * row['change_worse_by']:+8.1f}% {row['bound']:6.2f}  "
              f"{'yes' if row['clear_gain'] else 'no'}"
              f"{'' if row['within_bound'] else '  OUT OF BOUND'}")


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric: medians, quartiles, wins and the bound check."""
    summary = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs
                         if name in p[side]["metrics"]] for side in SIDES}
        if any(len(v) != len(pairs) for v in values.values()):
            continue  # a metric this workload does not report
        parent, change = values["parent"], values["change"]
        p_med, c_med = statistics.median(parent), statistics.median(change)
        q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (p_med,) * 3
        worse_by = ((c_med - p_med) if lower else (p_med - c_med)) / p_med if p_med else 0.0
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        summary[name] = {
            "parent_median": p_med,
            "change_median": c_med,
            "parent_quartiles": [q1, q3],
            "change_wins": f"{wins}/{len(pairs)}",
            "change_worse_by": round(worse_by, 4),
            "bound": spec["bound"],
            "within_bound": worse_by <= spec["bound"],
            # the change must win nine pairs in ten, by more than the
            # parent's own spread between its quartiles
            "clear_gain": (worse_by < 0 and 10 * wins >= 9 * len(pairs)
                           and abs(c_med - p_med) > q3 - q1),
        }
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, action="append",
                        choices=("route-large", "verify-sampled", "verify-exhaustive"),
                        help="a workload to time; repeat for more, run in the order given")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload")
    parser.add_argument("--seed", type=int, default=1, help="seed of each workload's first pair")
    parser.add_argument("--tmpdir", help="where to export the parent (default: the system's)")
    parser.add_argument("--json", metavar="FILE", help="write every run and the summary here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = list(dict.fromkeys(args.workload))

    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", args.parent],
                            stdout=subprocess.PIPE, text=True, check=True).stdout.strip()
    runs = {}
    with tempfile.TemporaryDirectory(prefix="ab_bench-", dir=args.tmpdir) as tmp:
        trees = {"parent": Path(tmp), "change": ROOT}
        export(parent, trees["parent"])
        for tree in trees.values():
            subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                           cwd=tree, check=True, stdout=subprocess.DEVNULL)
        hashes = {side: tree_hash(tree) for side, tree in trees.items()}
        lines = {side: src_lines(tree) for side, tree in trees.items()}
        for workload in workloads:
            runs[workload] = run_pairs(trees, hashes, workload, args.pairs, args.seed)

    summary = {workload: summarize(pairs, end_to_end) for workload, pairs in runs.items()}
    healthy = {workload: all(p[side]["correct"] and not p[side]["failed"]
                             for p in pairs for side in SIDES)
               for workload, pairs in runs.items()}
    print(f"src lines (non-blank, non-comment): parent {lines['parent']}, "
          f"change {lines['change']}")
    for workload in workloads:
        print_summary(workload, args.pairs, parent, healthy[workload], summary[workload])
    if args.json:
        record = {"parent": parent, "workloads": workloads, "src_lines": lines,
                  "all_correct_and_no_failed_operations": all(healthy.values()),
                  "summary": summary, "runs": runs}
        Path(args.json).write_text(json.dumps(record, indent=2) + "\n")
    within = all(row["within_bound"] for rows in summary.values() for row in rows.values())
    return 0 if all(healthy.values()) and within else 1


if __name__ == "__main__":
    sys.exit(main())
