"""Command-line interface.

Exit codes: 0 success, 1 verification/minimality failure, 2 usage or input
error.  Machine-readable JSON goes to stdout only when --out is absent;
diagnostics go to stderr.
"""
from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from pathlib import Path

from .errors import BoundExceeded, PairSwitchError
from .metrics import count_table, emit_csv, format_count_table, format_depth_table, series_rows
from .render import RenderOptions, _check_document_cells, render_ascii, render_svg
from .routing import PairList, plan_to_json, route, states_from_json
from .simulation import _state_bits
from .topology import (
    MAX_PORTS, Design, _network_doc, _network_from_doc, build_network, network_to_json,
    reverse_network,
)
from .verification import _check_exhaustive, report_to_json, verify_design, verify_minimality

_DESIGNS = [d.value for d in Design]

_DECIMAL = re.compile(r"-?[0-9]+")  # not \d, which takes any Unicode digit


def _decimal(text: str) -> int:
    """A numeric option's value: plain ASCII decimal digits, with an optional
    leading minus.  ``int`` would also take other scripts' digits,
    underscores, a plus sign and surrounding whitespace."""
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"{text!r} is not a decimal integer")
    return int(text)


_decimal.__name__ = "int"  # argparse names the type in its message: "invalid int value"


def _parse_ports_range(text: str) -> list[int]:
    """``N`` or ``A..B``: even values only, odd endpoints rejected, and the
    whole range checked against the port budget before any work starts."""
    lo_s, sep, hi_s = text.partition("..")
    try:
        lo = _decimal(lo_s)
        hi = _decimal(hi_s) if sep else lo
    except ValueError as exc:
        raise PairSwitchError(f"ports range {text!r} is not N or A..B") from exc
    if lo % 2 or hi % 2 or lo < 2 or hi < lo:
        raise PairSwitchError(f"ports range {text!r} must use even endpoints >= 2")
    if hi > MAX_PORTS:
        raise BoundExceeded(f"ports range {text!r} exceeds the {MAX_PORTS}-port budget")
    return list(range(lo, hi + 1, 2))


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")


def _cmd_generate(args: argparse.Namespace) -> int:
    net = build_network(args.design, args.ports)
    if args.reverse:
        net = reverse_network(net)
    _emit(network_to_json(net), args.out)
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    demand = PairList.from_text(args.pairs, args.ports)
    plan = route(args.design, args.ports, demand)
    _emit(plan_to_json(plan), args.out)
    if args.svg:
        net = build_network(args.design, args.ports)
        Path(args.svg).write_text(render_svg(net, plan.states))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    designs = _DESIGNS if args.design == "all" else [args.design]
    mode = "exhaustive" if args.exhaustive else "random"
    ports_list = _parse_ports_range(args.ports)
    if args.exhaustive:  # the whole range, before its first N is verified
        for ports in ports_list:
            _check_exhaustive(ports, args.cap)
    reports = []
    for ports in ports_list:
        for design in designs:
            reports.append(
                verify_design(
                    design, ports, mode=mode,
                    samples=args.samples, seed=args.seed, cap=args.cap,
                )
            )
    sys.stdout.write(json.dumps([r.to_dict() for r in reports], indent=2) + "\n")
    failed = [r for r in reports if not r.passed]
    for r in failed:
        sys.stderr.write(
            f"FAIL {r.design.value} N={r.ports}: {len(r.failures)} demand(s)\n"
        )
    return 1 if failed else 0


def _cmd_minimality(args: argparse.Namespace) -> int:
    report = verify_minimality(args.design, args.ports)
    sys.stdout.write(report_to_json(report) + "\n")
    if not report.passed:
        sys.stderr.write(f"FAIL {args.design} N={args.ports}: deletion survivable\n")
        return 1
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    ports_list = _parse_ports_range(args.ports)
    ports_list = [n for n in ports_list if n >= 4]
    if not ports_list:
        raise PairSwitchError("metrics need at least one even N >= 4")
    sys.stdout.write(format_count_table(count_table(ports_list)))
    sys.stdout.write("\n")
    sys.stdout.write(format_depth_table(ports_list))
    if args.csv:
        Path(args.csv).write_text(emit_csv(series_rows(ports_list)))
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    doc = _network_doc(Path(args.net).read_text())
    if args.ascii:  # the grid's size is known before any switch is validated
        _check_document_cells(doc)
    net = _network_from_doc(doc)
    states = None
    if args.states:
        states = states_from_json(Path(args.states).read_text())
        _state_bits(states, len(net.lines))  # rejects a map that is not one State per switch
    if args.ascii:
        sys.stdout.write(render_ascii(net, states))
    else:
        Path(args.svg).write_text(render_svg(net, states, RenderOptions()))
    return 0


@functools.cache  # built once per process: parsing leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairswitch",
        description="Planar paired-egress switching networks: build, route, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a network as JSON")
    p.add_argument("--design", choices=_DESIGNS, required=True)
    p.add_argument("--ports", type=_decimal, required=True)
    p.add_argument("--reverse", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("route", help="route a pair list and emit the plan")
    p.add_argument("--design", choices=_DESIGNS, required=True)
    p.add_argument("--ports", type=_decimal, required=True)
    p.add_argument("--pairs", required=True, help="e.g. 0-3,1-2")
    p.add_argument("--out")
    p.add_argument("--svg", help="also render the configured network")
    p.set_defaults(func=_cmd_route)

    p = sub.add_parser("verify", help="check non-blocking operation")
    p.add_argument("--design", choices=_DESIGNS + ["all"], required=True)
    p.add_argument("--ports", required=True, help="N or A..B (even)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--exhaustive", action="store_true")
    group.add_argument("--samples", type=_decimal)
    p.add_argument("--seed", type=_decimal, default=0)
    p.add_argument("--cap", type=_decimal, default=12)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("minimality", help="single-switch deletion search")
    p.add_argument("--design", choices=_DESIGNS, required=True)
    p.add_argument("--ports", type=_decimal, required=True)
    p.set_defaults(func=_cmd_minimality)

    p = sub.add_parser("metrics", help="comparison and depth tables")
    p.add_argument("--ports", required=True, help="N or A..B (even)")
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("render", help="draw a network")
    p.add_argument("--net", required=True, help="network JSON file")
    p.add_argument("--states", help="plan or states JSON file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--svg")
    group.add_argument("--ascii", action="store_true")
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "command", None) == "verify" and args.samples is not None:
        if args.samples < 1:
            sys.stderr.write("error: --samples must be >= 1\n")
            return 2
    try:
        return args.func(args)
    except PairSwitchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (OSError, UnicodeDecodeError) as exc:  # a file unreadable, or not text
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
