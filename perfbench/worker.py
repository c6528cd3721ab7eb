"""One workload in a process of its own: set-up, timed rounds, checks.

Run by ``run.py``; prints one JSON line.  With ``--setup-only`` it stops
where the first timed operation would start, so ``run.py`` can repeat the
set-up and take its median.  Set-up is importing ``pairswitch``, making the
inputs and one untimed warm-up operation per configuration.

Every run attempts whole rounds, at least MIN_ROUNDS and then until
``--seconds`` have passed, and every round of a workload issues the same
operations, so a run differs from another only in how many rounds it makes.
"""
from __future__ import annotations

import argparse
import array
import contextlib
import io
import json
import random
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import calibrate
from checks import check_plan, check_verify_run, double_factorial, switch_count, switch_lines, worst_case_pairs
from spans import ROUTERS, SPANS, Tracer

ROOT = Path(__file__).resolve().parent.parent
DESIGNS = ("triangular", "chevron", "brickwork")
MIN_ROUNDS = 3  # so that a median has a middle even when a round is long


def import_program():
    """Import ``pairswitch`` (with its ``cli`` module) from this checkout's
    ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "pairswitch" / "__init__.py").is_file():
        raise SystemExit(f"no pairswitch sources under {src}")
    sys.path.insert(0, str(src))
    import pairswitch
    import pairswitch.cli

    if src.resolve() not in Path(pairswitch.__file__).resolve().parents:
        raise SystemExit(f"imported pairswitch from {pairswitch.__file__}, not {src}")
    return pairswitch


def peak_resident_kib() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    """``pairswitch <argv>`` in this process, with its output captured.
    ``cli.main`` is looked up at call time so a traced run sees its wrapper."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def random_pairs(rng: random.Random, ports: int) -> list[tuple[int, int]]:
    order = list(range(ports))
    rng.shuffle(order)
    return [(order[2 * j], order[2 * j + 1]) for j in range(ports // 2)]


@dataclass
class Op:
    design: str
    demands: int
    main: bool  # counted in call_s: route at the top N, or a whole verify run
    fn: Callable[[], object]
    check: Callable[[object], list[str]]


class RouteLarge:
    """``route`` over a sweep of N with seeded random demands, and the
    worst-case demand at the smallest N (at N = 1024 it costs brickwork
    twice a random demand, 13 s, which would leave too few rounds)."""

    sweep = (128, 256, 512, 1024)
    top = 1024

    def __init__(self, ps, seed: int) -> None:
        self.ps, self.seed = ps, seed
        self._lines: dict[tuple[str, int], array.array] = {}

    def _pairs(self, tag, ports: int) -> list[tuple[int, int]]:
        return random_pairs(random.Random(f"route-large:{self.seed}:{tag}:{ports}"), ports)

    def warm_up(self) -> None:
        for design in DESIGNS:
            for ports in self.sweep:
                self.ps.route(design, ports, self.ps.PairList.from_pairs(self._pairs("warm-up", ports), ports))

    def _lines_for(self, design: str, ports: int) -> array.array:
        # Two bytes a switch, so the check data adds little to peak memory.
        key = (design, ports)
        if key not in self._lines:
            self._lines[key] = array.array("H", switch_lines(self.ps.build_network(design, ports)))
        return self._lines[key]

    def round(self, tag: int) -> Iterator[Op]:
        cases = [(n, self._pairs(tag, n), False) for n in self.sweep]
        cases.append((self.sweep[0], worst_case_pairs(self.sweep[0]), True))
        for design in DESIGNS:
            for ports, pairs, worst in cases:
                lines = self._lines_for(design, ports)
                demand = self.ps.PairList.from_pairs(pairs, ports)
                yield Op(
                    design, 1, ports == self.top and not worst,
                    lambda: self.ps.route(design, ports, demand),
                    lambda plan: check_plan(design, ports, lines, pairs, plan.states, plan.permuted,
                                            all_cross=worst),
                )


class Verify:
    """``pairswitch verify`` through ``cli.main``, one run per design."""

    def __init__(self, ps, seed: int, exhaustive: bool) -> None:
        self.cli, self.seed, self.exhaustive = ps.cli, seed, exhaustive
        lo, hi = (4, 12) if exhaustive else (16, 64)
        self.top = hi
        self.ports_arg = f"{lo}..{hi}"
        self.ports_list = list(range(lo, hi + 1, 2))
        self.samples = None if exhaustive else 5
        if exhaustive:
            self.mode_args = ["--exhaustive"]
            self.demands = sum(double_factorial(n - 1) for n in self.ports_list)
        else:
            self.mode_args = ["--samples", str(self.samples), "--seed", str(seed)]
            self.demands = self.samples * len(self.ports_list)

    def warm_up(self) -> None:
        # One demand at every N of the range, so anything kept per
        # (design, N) is in place before timing starts.
        for design in DESIGNS:
            run_cli(self.cli, ["verify", "--design", design, "--ports", self.ports_arg,
                               "--samples", "1", "--seed", str(self.seed)])

    def _check(self, design: str, result) -> list[str]:
        code, out, err = result
        try:
            reports = json.loads(out)
        except ValueError:
            return [f"{design}: stdout is not JSON"]
        return check_verify_run(design, self.ports_list, self.exhaustive, self.samples, self.seed,
                                code, err, reports)

    def round(self, tag: int) -> Iterator[Op]:
        for design in DESIGNS:
            argv = ["verify", "--design", design, "--ports", self.ports_arg] + self.mode_args
            yield Op(design, self.demands, True, lambda: run_cli(self.cli, argv),
                     lambda result: self._check(design, result))


def make_workload(name: str, ps, seed: int):
    if name == "route-large":
        return RouteLarge(ps, seed)
    return Verify(ps, seed, exhaustive=name == "verify-exhaustive")


class Tally:
    def __init__(self) -> None:
        self.attempted = self.failed = self.rounds = 0
        self.problems: list[str] = []
        self.busy_s = 0.0  # calibrated, like call_s and rate
        self.call_s: dict[str, list[float]] = defaultdict(list)
        self.rate: dict[str, list[float]] = defaultdict(list)


def run_round(workload, tag: int, tally: Tally, tracer: Tracer | None) -> None:
    """Run one round.  Each operation is rescaled by the calibration runs
    just before and just after it."""
    spent: dict[str, float] = defaultdict(float)
    handled: dict[str, int] = defaultdict(int)
    before = calibrate.measure()
    for op in workload.round(tag):
        tally.attempted += 1
        if tracer:
            tracer.on = True
        start = time.perf_counter()
        try:
            out = op.fn()
        except Exception as exc:  # an operation that raises is a failed operation
            tally.failed += 1
            print(f"operation failed: {op.design}: {exc!r}", file=sys.stderr)
            continue
        finally:
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.on = False
        after = calibrate.measure()
        scale = calibrate.REF_S * 2 / (before + after)
        before = after
        if tracer:
            tracer.commit(scale)
        scaled = elapsed * scale
        tally.busy_s += scaled
        spent[op.design] += scaled
        handled[op.design] += op.demands
        if op.main:
            tally.call_s[op.design].append(scaled)
        tally.problems += op.check(out)
        del out
    for design in spent:
        tally.rate[design].append(handled[design] / spent[design])
    tally.rounds += 1


def end_to_end(tally: Tally) -> dict:
    metrics = {}
    for design in DESIGNS:
        metrics[f"call_s.{design}"] = (statistics.median(tally.call_s[design]), "s")
        metrics[f"demands_per_s.{design}"] = (statistics.median(tally.rate[design]), "1/s")
    return metrics


def per_layer(tracer: Tracer, rounds: int, top: int, overhead: float) -> dict:
    def per_round(x):
        return x // rounds if isinstance(x, int) and x % rounds == 0 else x / rounds

    metrics = {}
    for span in SPANS:
        own = "self_s" if span in ROUTERS or span in ("verification.verify_design", "cli.main") else "s"
        metrics[f"{span}.{own}"] = (per_round(tracer.self_s[span]), "s")
        metrics[f"{span}.calls"] = (per_round(tracer.calls[span]), "count")
    for span, design in zip(ROUTERS, DESIGNS):
        per_call = {}
        for label, ports in (("top", top), ("half", top // 2)):
            calls, own = tracer.by_ports[span][ports]
            per_call[label] = own / calls if calls else 0.0
            metrics[f"routing.{design}.ns_per_switch.{label}"] = (
                per_call[label] / switch_count(ports) * 1e9, "ns")
        ratio = per_call["top"] / per_call["half"] if per_call["half"] else 0.0
        metrics[f"routing.{design}.doubling_ratio"] = (ratio, "ratio")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=("route-large", "verify-sampled", "verify-exhaustive"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    ps = import_program()

    workload = make_workload(args.workload, ps, args.seed)
    workload.warm_up()
    ready = time.monotonic()
    # Read before the first calibration run, whose own allocations would
    # otherwise set the verify workloads' peak.  VmHWM, unlike ru_maxrss,
    # does not carry over the parent's resident set from before exec.
    peak_rss_kib = peak_resident_kib()
    calibration = calibrate.median_of_three()
    if args.setup_only:
        print(json.dumps({"ready": ready, "calibration": calibration}))
        return 0

    plain = Tally()
    begin = time.perf_counter()
    if not args.trace:
        while plain.rounds < MIN_ROUNDS or time.perf_counter() - begin < args.seconds:
            run_round(workload, plain.rounds, plain, None)
        tallies = [plain]
        metrics = end_to_end(plain)
    else:
        # Traced and untraced rounds alternate in pairs, A-B then B-A, over
        # the same inputs, so a steady drift in the host's speed cancels out
        # of the overhead ratio; hence at least one A-B and one B-A pair.
        tracer, traced = Tracer(), Tally()
        while traced.rounds < 2 or time.perf_counter() - begin < args.seconds:
            tag = traced.rounds
            for with_trace in ((False, True) if tag % 2 == 0 else (True, False)):
                if not with_trace:
                    run_round(workload, tag, plain, None)
                    continue
                tracer.install()
                try:
                    run_round(workload, tag, traced, tracer)
                finally:
                    tracer.restore()
        tallies = [plain, traced]
        metrics = per_layer(tracer, traced.rounds, workload.top, traced.busy_s / plain.busy_s)

    problems = [p for t in tallies for p in t.problems]
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "ready": ready,
        "calibration": calibration,
        "correct": not problems,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "peak_rss_kib": peak_rss_kib,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
