"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces the public functions at each layer boundary with
wrappers, in every ``pairswitch`` module that refers to them, and ``restore``
puts the originals back.  A span's self time is its duration minus the
time of the spans nested in it.  Spans are recorded only while ``on`` is
set, so the benchmark's own checks stay out of the figures, and each
operation's spans are held until ``commit`` rescales them by the same
host-speed factor as the operation.
"""
from __future__ import annotations

import importlib
import time
from collections import defaultdict

_MODULES = ("", ".topology", ".routing", ".simulation", ".verification", ".cli")

# (module defining it, attribute, span name, is a generator function)
_BOUNDARIES = (
    (".topology", "build_network", "topology.build_network", False),
    (".routing", "route_triangular", "routing.route_triangular", False),
    (".routing", "route_chevron", "routing.route_chevron", False),
    (".routing", "route_brickwork", "routing.route_brickwork", False),
    (".simulation", "propagate", "simulation.propagate", False),
    (".simulation", "traversal_depths", "simulation.traversal_depths", False),
    (".simulation", "check_pairing", "simulation.check_pairing", False),
    (".verification", "random_pair_list", "verification.demand_gen", False),
    (".verification", "enumerate_pair_lists", "verification.demand_gen", True),
    (".verification", "verify_design", "verification.verify_design", False),
    (".cli", "main", "cli.main", False),
)
ROUTERS = ("routing.route_triangular", "routing.route_chevron", "routing.route_brickwork")
SPANS = sorted({b[2] for b in _BOUNDARIES} | {"routing.pairlist"})
_DONE = object()


class Tracer:
    def __init__(self) -> None:
        self.on = False
        self._open: list[float] = []  # time of finished child spans, per open span
        self._patched: list[tuple[object, str, object]] = []
        self._pending: list[tuple[str, float, int | None]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        # router span -> ports -> [calls, self seconds]
        self.by_ports: dict[str, dict[int, list]] = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))

    def _record(self, name: str, start: float, ports: int | None) -> None:
        elapsed = time.perf_counter() - start
        own = elapsed - self._open.pop()
        if self._open:
            self._open[-1] += elapsed
        self._pending.append((name, own, ports))

    def commit(self, scale: float) -> None:
        """Add the spans recorded since the last commit, times ``scale``."""
        for name, own, ports in self._pending:
            self.calls[name] += 1
            self.self_s[name] += own * scale
            if ports is not None:
                cell = self.by_ports[name][ports]
                cell[0] += 1
                cell[1] += own * scale
        self._pending.clear()

    def _wrap(self, name: str, fn):
        by_ports = name in ROUTERS

        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._record(name, start, args[0] if by_ports else None)

        return wrapper

    def _wrap_generator(self, name: str, fn):
        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                if not self.on:
                    item = next(items, _DONE)
                else:
                    self._open.append(0.0)
                    start = time.perf_counter()
                    try:
                        item = next(items, _DONE)
                    finally:
                        self._record(name, start, None)
                if item is _DONE:
                    return
                yield item

        return wrapper

    def _patch(self, owner, attr: str, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patched.append((owner, attr, original))

    def install(self) -> None:
        modules = [importlib.import_module("pairswitch" + m) for m in _MODULES]
        for home, attr, name, generator in _BOUNDARIES:
            original = getattr(importlib.import_module("pairswitch" + home), attr)
            wrapped = (self._wrap_generator if generator else self._wrap)(name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, original, wrapped)
        pair_list = importlib.import_module("pairswitch.routing").PairList
        init = pair_list.__init__
        self._patch(pair_list, "__init__", init, self._wrap("routing.pairlist", init))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
