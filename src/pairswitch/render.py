"""ASCII and SVG diagrams of a network, optionally with switch states and
highlighted photon paths."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .errors import BoundExceeded, InvalidInput
from .routing import _BIT_OF_BYTE, StateVector, _check_states
from .topology import Network, State, _check_network

_PALETTE = (
    "#4e79a7", "#f28e2b", "#59a14f", "#e15759",
    "#b07aa1", "#76b7b2", "#edc948", "#9c755f",
)

_BAR, _CROSS, _UNSET = range(3)  # a switch's code: its index in "=X?" and the SVG classes
_CODE_OF_STATE = {State.BAR: _BAR, State.CROSS: _CROSS, None: _UNSET}


def _codes(net: Network, states: Mapping[int, State] | None) -> bytes:
    """One code per switch id: _BAR, _CROSS or _UNSET.  A StateVector over
    every switch is read from its bytes, any nonzero byte as Cross; any other
    mapping by id, a missing id as unset and a value equal to a State member
    (``"cross"`` too) as that state.  Any other value raises InvalidInput."""
    count = len(net.lines)
    if isinstance(states, StateVector) and len(states) == count:
        return states.bits.translate(_BIT_OF_BYTE)
    _check_states({} if states is None else states)
    get = {}.get if states is None else states.get
    codes = bytearray(count)
    for i in range(count):
        value = get(i)
        try:
            codes[i] = _CODE_OF_STATE[value]
        except (KeyError, TypeError):  # TypeError: an unhashable value
            raise InvalidInput(f"switch {i} state {value!r} is not a State") from None
    return codes


@dataclass(frozen=True)
class RenderOptions:
    show_states: bool = True
    highlight: tuple[int, ...] = ()
    scale: int = 24
    palette: tuple[str, ...] = field(default=_PALETTE)

    def __post_init__(self) -> None:
        if type(self.scale) is not int or self.scale < 1:  # a bool is no scale either
            raise InvalidInput(f"scale must be an integer >= 1, got {self.scale!r}")
        if not (isinstance(self.palette, tuple) and self.palette
                and all(isinstance(color, str) for color in self.palette)):
            raise InvalidInput(f"palette must be a non-empty tuple of str, got {self.palette!r}")
        if not isinstance(self.highlight, tuple):
            raise InvalidInput(f"highlight must be a tuple of photons, got {self.highlight!r}")


MAX_ASCII_CELLS = 1 << 23
"""Cell budget of :func:`render_ascii`, whose grid holds (2N-1) x columns
cells: N^3/2 for triangular and N^3/4 for chevron.  2^23 = 8,388,608 cells
draw triangular up to N = 256 and brickwork up to N = 2048."""


def _columns(net: Network) -> int:
    return max(net.cols, default=-1) + 1


def _check_cells(ports: int, columns: int) -> None:
    """Raise BoundExceeded when an ASCII diagram of N = ``ports`` lines and
    ``columns`` columns exceeds :data:`MAX_ASCII_CELLS`."""
    cells = (2 * ports - 1) * max(columns, 1)
    if cells > MAX_ASCII_CELLS:
        raise BoundExceeded(
            f"an ASCII diagram of {cells} cells exceeds the {MAX_ASCII_CELLS}-cell budget"
        )


def _check_document_cells(doc: object) -> None:
    """The cell budget of :func:`render_ascii` on a parsed network document,
    before any switch is validated: its ``ports`` and every switch's ``col``
    decide the grid's size.  A document where any of them is not a plain
    int is left to the network's own validation."""
    try:
        ports, cols = doc["ports"], [switch["col"] for switch in doc["switches"]]
    except (KeyError, TypeError):
        return
    if type(ports) is int and all(type(col) is int for col in cols):
        _check_cells(ports, max(cols, default=-1) + 1)


def render_ascii(net: Network, states: Mapping[int, State] | None = None) -> str:
    """N horizontal lines with one state glyph per switch, drawn between the
    two lines it couples; brackets join each output pair on the right.

    Glyphs: ``X`` Cross, ``=`` Bar, ``?`` unset.
    """
    _check_network(net)
    ncols = max(_columns(net), 1)
    _check_cells(net.ports, ncols)
    # even text rows are photon lines, odd rows the gaps between them
    grid = [[("-" if r % 2 == 0 else " ") * 3] * ncols for r in range(2 * net.ports - 1)]
    for line, col, code in zip(net.lines, net.cols, _codes(net, states)):
        grid[2 * line + 1][col] = f" {'=X?'[code]} "
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
    net: Network, codes: bytes, photons: tuple[int, ...]
) -> dict[int, list[int]]:
    """Line positions of each of ``photons`` at every column boundary
    (column order); a photon passes an unset switch straight, as Bar."""
    for photon in photons:
        if not (isinstance(photon, int) and -net.ports <= photon < net.ports):
            raise InvalidInput(f"highlight {photon!r} is not in -{net.ports}..{net.ports - 1}")
    ncols = _columns(net)
    lines = list(range(net.ports))  # line -> photon
    where = list(range(net.ports))  # photon -> line
    pos: dict[int, list[int]] = {p: [] for p in photons}
    by_col: dict[int, list[int]] = {}
    for i, col in enumerate(net.cols):
        by_col.setdefault(col, []).append(i)
    for c in range(ncols + 1):
        for photon, path in pos.items():
            path.append(where[photon])
        for k in by_col.get(c, ()):
            if codes[k] == _CROSS:
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
    _check_network(net)
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
    codes = _codes(net, states)
    if states is not None and opt.highlight:
        traj = _trajectories(net, codes, opt.highlight)
        for photon in opt.highlight:
            pts = traj[photon]
            coords = " ".join(
                f"{left + c * s},{top + line * s}" for c, line in enumerate(pts)
            )
            color = opt.palette[photon % len(opt.palette)]
            parts.append(f'<polyline class="photon" stroke="{color}" points="{coords}"/>')
    names = ("bar", "cross", "unset") if opt.show_states else ("unset",) * 3
    for layer, line, col, code in zip(net.layers, net.lines, net.cols, codes):
        x = left + col * s + s // 6
        y = top + line * s - s // 6
        w = s - s // 3
        h = s + s // 3
        color = opt.palette[(layer - 1) % len(opt.palette)]
        parts.append(
            f'<g class="{names[code]}"><rect x="{x}" y="{y}" width="{w}" height="{h}" '
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
