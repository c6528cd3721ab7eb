"""Time one perfbench workload at a parent revision and in the working tree,
in alternating pairs, and compare the two per end-to-end metric.

    python3 tools/ab_bench.py --parent HEAD~1 --workload verify-exhaustive --pairs 10

The parent's committed files are exported with ``git archive`` into a
temporary directory, so the repository gains no worktree entry and the
parent runs exactly what it committed.  Both trees are byte-compiled, then
each pair runs ``perfbench/run.py --workload W --seed S --trace 0`` once in
each tree, one run at a time, with seeds S0, S0 + 1, ...; the parent runs
first on odd seeds, so the side that runs first alternates from pair to
pair.  Every run lasts run.py's default length, the same on both sides.

For every end-to-end metric of the working tree's ``BENCHMARK.json`` it
prints both medians, the parent's quartiles, the pairs the change won, how
much worse the change's median is (negative is better) against the metric's
bound, and whether a gain is clear: won in at least nine pairs in ten, by a
median gain larger than the spread between the parent's quartiles.  With
``--json FILE`` it also writes every run's final report line and the
summary.  Stdlib only; not part of the test suite.  Exit status: 0 when
every run is correct with no failed operation and every metric is within
its bound, 1 otherwise, 2 on a usage error.
"""
from __future__ import annotations

import argparse
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


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its final JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


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
    parser.add_argument("--workload", required=True,
                        choices=("route-large", "verify-sampled", "verify-exhaustive"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--tmpdir", help="where to export the parent (default: the system's)")
    parser.add_argument("--json", metavar="FILE", help="write every run and the summary here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", args.parent],
                            stdout=subprocess.PIPE, text=True, check=True).stdout.strip()
    with tempfile.TemporaryDirectory(prefix="ab_bench-", dir=args.tmpdir) as tmp:
        trees = {"parent": Path(tmp), "change": ROOT}
        export(parent, trees["parent"])
        for tree in trees.values():
            subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                           cwd=tree, check=True, stdout=subprocess.DEVNULL)
        pairs = []
        for k in range(args.pairs):
            seed = args.seed + k
            first = SIDES[not seed % 2]
            pair = {"seed": seed, "first": first}
            for side in (first, SIDES[first == "parent"]):
                pair[side] = run_once(trees[side], args.workload, seed)
            pairs.append(pair)
            print(f"pair {k + 1}/{args.pairs} seed {seed} ({first} first) done", file=sys.stderr)

    summary = summarize(pairs, end_to_end)
    healthy = all(p[side]["correct"] and not p[side]["failed"] for p in pairs for side in SIDES)
    print(f"{args.workload}: {args.pairs} pairs against {parent}; every run correct "
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
    if args.json:
        record = {"parent": parent, "workload": args.workload,
                  "all_correct_and_no_failed_operations": healthy,
                  "summary": summary, "runs": pairs}
        Path(args.json).write_text(json.dumps(record, indent=2) + "\n")
    return 0 if healthy and all(row["within_bound"] for row in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
