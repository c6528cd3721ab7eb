"""Benchmark of pairswitch: large-N routing, sampled and exhaustive verification.

    python3 perfbench/run.py --workload route-large --seed 1 --seconds 15 --trace 0

Runs the self-test of the output checks, then the workload in a fresh
process (``worker.py``).  With ``--trace 0`` it also repeats the set-up in
two more processes and reports the median set-up time with the end-to-end
metrics; with ``--trace 1`` it reports the per-layer metrics.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md in this directory.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import selftest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
DEADLINE_S = 170


def run_worker(args, setup_only: bool, deadline: float) -> tuple[dict, float]:
    """Run one worker process; return its report and its set-up time, from
    process start to the first timed operation, rescaled by calibration
    runs just before the process starts and just after its set-up."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    before = calibrate.median_of_three()
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - start))
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    report = json.loads(proc.stdout.splitlines()[-1])
    scale = calibrate.REF_S * 2 / (before + report["calibration"])
    return report, (report["ready"] - start) * scale


def main() -> int:
    deadline = time.monotonic() + DEADLINE_S
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("route-large", "verify-sampled", "verify-exhaustive"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "pairswitch" / "__init__.py").is_file():
        print(f"error: no pairswitch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if selftest.main() != 0:
        return 1

    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(run_worker(args, True, deadline)[1])
    report, setup_s = run_worker(args, False, deadline)
    metrics = report["metrics"]
    if not args.trace:
        setups.append(setup_s)
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics["peak_rss_mib"] = {"value": report["peak_rss_kib"] / 1024, "unit": "MiB"}

    for name in sorted(metrics):
        print(f"{args.workload:18} {name:44} {metrics[name]['value']:>14.6g} {metrics[name]['unit']}")
    print(f"{args.workload:18} attempted {report['attempted']}, failed {report['failed']}, "
          f"correct {report['correct']}")
    print(json.dumps({k: report[k] for k in ("correct", "attempted", "failed")} | {"metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
