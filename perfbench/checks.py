"""Output checks that do not rely on the program's own simulator or formulas.

Every check returns a list of problems; an empty list means the output
passed.  The switch count, the propagation loop, the pairing test, the
double factorial and the depth bounds are all written out here, so a fault
in the matching code of ``pairswitch`` cannot hide itself.
"""
from __future__ import annotations

from typing import Sequence


def switch_count(ports: int) -> int:
    """N(N-2)/4: the number of switches every design uses."""
    return ports * (ports - 2) // 4


def double_factorial(n: int) -> int:
    """(n)!!, so (N-1)!! is the number of perfect matchings of N ports."""
    out = 1
    for k in range(n, 1, -2):
        out *= k
    return out


def max_depth_bound(design: str, ports: int) -> int:
    """The paper's maximum traversal depth: N-2 for triangular, N-2 (N/2
    even) or N-3 (N/2 odd) for chevron, N/2 for brickwork."""
    if design == "triangular":
        return ports - 2
    if design == "chevron":
        return ports - 2 if (ports // 2) % 2 == 0 else ports - 3
    return ports // 2


def worst_case_pairs(ports: int) -> list[tuple[int, int]]:
    """The demand k <-> N-1-k, which pairs the two most distant inputs."""
    return [(k, ports - 1 - k) for k in range(ports // 2)]


def switch_lines(net) -> list[int]:
    """The upper line of every switch in traversal order, after checking
    that the ids run densely from 0 and every line exists."""
    lines = []
    for expected_id, sp in enumerate(net.switches):
        if sp.id != expected_id or not 0 <= sp.line <= net.ports - 2:
            raise ValueError(f"switch {expected_id} malformed: id {sp.id}, line {sp.line}")
        lines.append(sp.line)
    return lines


def check_plan(
    design: str,
    ports: int,
    lines: Sequence[int],
    pairs: list[tuple[int, int]],
    states,
    permuted,
    *,
    all_cross: bool = False,
) -> list[str]:
    """Propagate ``states`` over ``lines`` with a swap loop of our own and
    check the state map's coverage, every output pair (2j, 2j+1), the
    router's predicted permutation, the depth bound and, optionally, that
    every switch is Cross."""
    count = switch_count(ports)
    where = f"{design} N={ports}"
    if len(lines) != count:
        return [f"{where}: network has {len(lines)} switches, expected {count}"]
    if set(states) != set(range(count)):
        return [f"{where}: state map covers {len(states)} ids, expected ids 0..{count - 1}"]
    problems = []
    perm = list(range(ports))
    depth = [0] * ports
    crosses = 0
    for sid, line in enumerate(lines):
        a, b = perm[line], perm[line + 1]
        depth[a] += 1
        depth[b] += 1
        state = states[sid]
        if state == "cross":
            perm[line], perm[line + 1] = b, a
            crosses += 1
        elif state != "bar":
            problems.append(f"{where}: switch {sid} has state {state!r}")
    mate = {}
    for a, b in pairs:
        mate[a], mate[b] = b, a
    bad = [j for j in range(ports // 2) if mate.get(perm[2 * j]) != perm[2 * j + 1]]
    if bad:
        problems.append(f"{where}: output pairs {bad[:5]} do not hold a demanded pair")
    if list(permuted) != perm:
        problems.append(f"{where}: predicted permutation differs from propagation")
    bound = max_depth_bound(design, ports)
    if max(depth) > bound:
        problems.append(f"{where}: a photon traverses {max(depth)} switches, bound {bound}")
    if all_cross and crosses != count:
        problems.append(f"{where}: worst-case demand left {count - crosses} switches Bar")
    return problems


def check_verify_run(
    design: str,
    ports_list: list[int],
    exhaustive: bool,
    samples: int | None,
    seed: int | None,
    exit_code: int,
    stderr: str,
    reports: list[dict],
) -> list[str]:
    """Check one ``pairswitch verify`` run for one design: exit code 0, no
    diagnostics, one report per N with no failures, the expected demand
    count and a maximum depth that meets the paper's bound (exactly, when
    every demand was checked)."""
    problems = []
    if exit_code != 0:
        problems.append(f"{design}: exit code {exit_code}")
    if stderr:
        problems.append(f"{design}: diagnostics on stderr: {stderr.strip()[:200]}")
    if [r.get("ports") for r in reports] != ports_list:
        return problems + [f"{design}: reports cover {[r.get('ports') for r in reports]}"]
    for r in reports:
        n = r["ports"]
        where = f"{design} N={n}"
        want = double_factorial(n - 1) if exhaustive else samples
        if r["design"] != design or r["mode"] != ("exhaustive" if exhaustive else "random"):
            problems.append(f"{where}: report for {r['design']} in {r['mode']} mode")
        if not exhaustive and r["seed"] != seed:
            problems.append(f"{where}: report seed {r['seed']}, asked for {seed}")
        if r["demands_checked"] != want:
            problems.append(f"{where}: {r['demands_checked']} demands checked, expected {want}")
        if r["failures"]:
            problems.append(f"{where}: {len(r['failures'])} failures reported")
        bound = max_depth_bound(design, n)
        if r["max_depth"] > bound or (exhaustive and r["max_depth"] != bound):
            problems.append(f"{where}: maximum depth {r['max_depth']}, bound {bound}")
    return problems
