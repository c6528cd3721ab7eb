"""Self-test of the output checks: they accept the program's real outputs
and reject outputs broken on purpose, so no check passes without testing
anything.

    python3 perfbench/selftest.py

``run.py`` runs it before every workload.
"""
from __future__ import annotations

import json
import sys

from checks import check_plan, check_verify_run, switch_lines, worst_case_pairs
from worker import DESIGNS, import_program, run_cli


def _flip(state) -> str:
    return "bar" if state == "cross" else "cross"


def plan_misses(ps) -> list[str]:
    """Checks on routing plans that failed to reject a broken plan."""
    misses = []
    n = 8
    pairs = [(0, 5), (1, 2), (3, 7), (4, 6)]
    for design in DESIGNS:
        lines = switch_lines(ps.build_network(design, n))
        plan = ps.route(design, n, ps.PairList.from_pairs(pairs, n))
        if check_plan(design, n, lines, pairs, plan.states, plan.permuted):
            misses.append(f"{design}: the program's plan was rejected")
        pairing_caught = False
        for sid, state in plan.states.items():
            problems = check_plan(design, n, lines, pairs, {**plan.states, sid: _flip(state)},
                                  plan.permuted)
            pairing_caught |= any("output pairs" in p for p in problems)
            if not problems:
                misses.append(f"{design}: switch {sid} flipped was not caught")
        if not pairing_caught:
            misses.append(f"{design}: the pairing check caught no flipped switch")
        partial = {sid: s for sid, s in plan.states.items() if sid}
        if not check_plan(design, n, lines, pairs, partial, plan.permuted):
            misses.append(f"{design}: a state map without switch 0 was not caught")

        worst = worst_case_pairs(n)
        plan = ps.route(design, n, ps.PairList.from_pairs(worst, n))
        if check_plan(design, n, lines, worst, plan.states, plan.permuted, all_cross=True):
            misses.append(f"{design}: the program's worst-case plan was rejected")
        last = max(plan.states)
        problems = check_plan(design, n, lines, worst, {**plan.states, last: "bar"},
                              plan.permuted, all_cross=True)
        if not any("Bar" in p for p in problems):
            misses.append(f"{design}: a Bar switch in the worst-case plan was not caught")
    return misses


def report_misses(ps) -> list[str]:
    """Checks on verify runs that failed to reject a broken report."""
    misses = []
    runs = (([4, 6, 8], True, None, None, ["--ports", "4..8", "--exhaustive"]),
            ([16, 18], False, 3, 5, ["--ports", "16..18", "--samples", "3", "--seed", "5"]))
    for design in DESIGNS:
        for ports_list, exhaustive, samples, seed, flags in runs:
            code, out, err = run_cli(ps.cli, ["verify", "--design", design] + flags)
            reports = json.loads(out)

            def problems(code=code, err=err, edit=None):
                docs = json.loads(json.dumps(reports))
                if edit:
                    edit(docs[-1])
                return check_verify_run(design, ports_list, exhaustive, samples, seed, code, err, docs)

            where = f"{design} {' '.join(flags)}"
            if problems():
                misses.append(f"{where}: the program's report was rejected: {problems()}")
            broken = {
                "a demand count one too high": lambda r: r.update(demands_checked=r["demands_checked"] + 1),
                "a reported failure": lambda r: r.update(failures=[["0-1", "x"]]),
                "a maximum depth above the bound": lambda r: r.update(max_depth=r["ports"]),
            }
            if exhaustive:
                broken["a maximum depth below the bound"] = lambda r: r.update(max_depth=r["max_depth"] - 1)
            for what, edit in broken.items():
                if not problems(edit=edit):
                    misses.append(f"{where}: {what} was not caught")
            if not problems(code=1):
                misses.append(f"{where}: exit code 1 was not caught")
    return misses


def main() -> int:
    ps = import_program()

    misses = plan_misses(ps) + report_misses(ps)
    for miss in misses:
        print(f"self-test: {miss}", file=sys.stderr)
    print("self-test: " + ("FAILED" if misses else "every check rejects its broken output"))
    return 1 if misses else 0


if __name__ == "__main__":
    raise SystemExit(main())
