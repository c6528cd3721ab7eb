"""ASCII and SVG diagrams of a network, optionally with switch states and
highlighted photon paths."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .errors import InvalidInput
from .routing import StateVector
from .topology import Network, State

_PALETTE = (
    "#4e79a7", "#f28e2b", "#59a14f", "#e15759",
    "#b07aa1", "#76b7b2", "#edc948", "#9c755f",
)

_GLYPH = {State.BAR: "=", State.CROSS: "X", None: "?"}
_GLYPH_OF_BYTE = b"=" + b"X" * 255  # translates a StateVector's bytes to glyphs


def _bits(net: Network, states: Mapping[int, State] | None) -> bytearray | None:
    """The state bytes of a StateVector that covers every switch, else None."""
    if isinstance(states, StateVector) and len(states) == len(net.lines):
        return states.bits
    return None


@dataclass(frozen=True)
class RenderOptions:
    show_states: bool = True
    highlight: tuple[int, ...] = ()
    scale: int = 24
    palette: tuple[str, ...] = field(default=_PALETTE)

    def __post_init__(self) -> None:
        if self.scale < 1:
            raise InvalidInput(f"scale must be >= 1, got {self.scale}")


def _columns(net: Network) -> int:
    return max(net.cols, default=-1) + 1


def render_ascii(net: Network, states: Mapping[int, State] | None = None) -> str:
    """N horizontal lines with one state glyph per switch, drawn between the
    two lines it couples; brackets join each output pair on the right.

    Glyphs: ``X`` Cross, ``=`` Bar, ``?`` unset.
    """
    ncols = max(_columns(net), 1)
    cell = 3
    # even text rows are photon lines, odd rows the gaps between them
    grid = [
        [("-" if r % 2 == 0 else " ") * cell for _ in range(ncols)]
        for r in range(2 * net.ports - 1)
    ]
    bits = _bits(net, states)
    if bits is not None:
        glyphs = bits.translate(_GLYPH_OF_BYTE).decode()
    else:
        glyphs = [_GLYPH[states.get(i) if states is not None else None]
                  for i in range(len(net.lines))]
    for line, col, glyph in zip(net.lines, net.cols, glyphs):
        grid[2 * line + 1][col] = f" {glyph} "
    out = []
    for r in range(2 * net.ports - 1):
        body = "".join(grid[r])
        if r % 2 == 0:
            out.append(f"{r // 2:>3} {body}-+")
        elif r % 4 == 1:
            # gap between output lines 2j and 2j+1
            out.append(f"    {body} ] BSA{r // 4}")
        else:
            out.append(f"    {body}".rstrip())
    return "\n".join(out) + "\n"


def _trajectories(
    net: Network, states: Mapping[int, State], photons: tuple[int, ...]
) -> dict[int, list[int]]:
    """Line positions of each of ``photons`` at every column boundary
    (column order)."""
    ncols = _columns(net)
    lines = list(range(net.ports))  # line -> photon
    where = list(range(net.ports))  # photon -> line
    pos: dict[int, list[int]] = {p: [] for p in photons}
    by_col: dict[int, list[int]] = {}
    for i, col in enumerate(net.cols):
        by_col.setdefault(col, []).append(i)
    bits = _bits(net, states)
    for c in range(ncols + 1):
        for photon, path in pos.items():
            path.append(where[photon])
        for k in by_col.get(c, ()):
            if bits[k] if bits is not None else states[k] is State.CROSS:
                i = net.lines[k]
                a, b = lines[i], lines[i + 1]
                lines[i], lines[i + 1] = b, a
                where[a], where[b] = i + 1, i
    return pos


def render_svg(
    net: Network,
    states: Mapping[int, State] | None = None,
    options: RenderOptions | None = None,
) -> str:
    """SVG 1.1 document: horizontal photon lines, one rectangle per switch
    spanning its two lines (colored per layer), semicircles for the output
    pair analyzers, and optional highlighted photon paths."""
    opt = options or RenderOptions()
    s = opt.scale
    ncols = _columns(net)
    left, top = 2 * s, s
    width = left + (ncols + 2) * s + 2 * s
    height = top + net.ports * s
    x_out = left + (ncols + 1) * s

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        "<style>.bar rect{fill-opacity:0.35;} .cross rect{fill-opacity:1.0;} "
        ".unset rect{fill-opacity:0.65;} .photon{fill:none;stroke-width:2;}</style>",
    ]
    for line in range(net.ports):
        y = top + line * s
        parts.append(
            f'<line x1="{left - s}" y1="{y}" x2="{x_out}" y2="{y}" '
            f'stroke="#555555" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - s - 4}" y="{y + 4}" font-size="{max(s // 2, 8)}" '
            f'text-anchor="end">{line}</text>'
        )
    if states is not None and opt.highlight:
        traj = _trajectories(net, states, opt.highlight)
        for photon in opt.highlight:
            pts = traj[photon]
            coords = " ".join(
                f"{left + c * s},{top + line * s}" for c, line in enumerate(pts)
            )
            color = opt.palette[photon % len(opt.palette)]
            parts.append(f'<polyline class="photon" stroke="{color}" points="{coords}"/>')
    bits = _bits(net, states)
    for i, (layer, line, col) in enumerate(zip(net.layers, net.lines, net.cols)):
        x = left + col * s + s // 6
        y = top + line * s - s // 6
        w = s - s // 3
        h = s + s // 3
        color = opt.palette[(layer - 1) % len(opt.palette)]
        if states is None or not opt.show_states:
            cls = "unset"
        elif bits is not None:
            cls = "cross" if bits[i] else "bar"
        else:
            cls = states[i].value
        parts.append(
            f'<g class="{cls}"><rect x="{x}" y="{y}" width="{w}" height="{h}" '
            f'rx="{s // 6}" fill="{color}" stroke="#222222"/></g>'
        )
    for j in range(net.ports // 2):
        y0 = top + 2 * j * s
        y1 = y0 + s
        r = s // 2
        parts.append(
            f'<path class="bsa" d="M {x_out} {y0} A {r} {r} 0 0 1 {x_out} {y1}" '
            f'fill="#cccccc" stroke="#222222"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
