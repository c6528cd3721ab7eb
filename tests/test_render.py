import hashlib
import random
import re
import tracemalloc
import xml.etree.ElementTree as ET

import pytest

from pairswitch import (
    BoundExceeded,
    Design,
    InvalidInput,
    PairList,
    RenderOptions,
    State,
    build_network,
    random_pair_list,
    render_ascii,
    render_svg,
    route,
    route_triangular,
)
from pairswitch import render
from pairswitch.routing import StateVector


def glyph_positions(text, glyph):
    hits = []
    for row, line in enumerate(text.splitlines()):
        for col, char in enumerate(line):
            if char == glyph:
                hits.append((row, col))
    return hits


def test_ascii_two_cross_glyphs_at_distinct_columns():
    plan = route_triangular(4, PairList.from_text("0-3,1-2"))
    art = render_ascii(build_network(Design.TRIANGULAR, 4), plan.states)
    hits = glyph_positions(art, "X")
    assert len(hits) == 2
    assert len({col for _, col in hits}) == 2


def test_ascii_trivial_network():
    art = render_ascii(build_network(Design.TRIANGULAR, 2))
    assert "BSA0" in art
    for glyph in "X=?":
        assert glyph not in art
    assert len(art.splitlines()) == 3  # two lines and the gap row


def test_ascii_brickwork_12_unset():
    art = render_ascii(build_network(Design.BRICKWORK, 12))
    hits = glyph_positions(art, "?")
    assert len(hits) == 30
    per_col = {}
    for _, col in hits:
        per_col[col] = per_col.get(col, 0) + 1
    assert sorted(per_col.values(), reverse=True) == [6, 6, 5, 5, 5, 3]
    assert len(per_col) == 6


def test_ascii_mixed_states():
    plan = route_triangular(6, PairList.from_text("0-1,2-5,3-4"))
    art = render_ascii(build_network(Design.TRIANGULAR, 6), plan.states)
    crosses = list(plan.states.values()).count(State.CROSS)
    bars = list(plan.states.values()).count(State.BAR)
    assert len(glyph_positions(art, "X")) == crosses
    assert len(glyph_positions(art, "=")) == bars


def test_ascii_renders_at_the_cell_budget_and_raises_past_it(monkeypatch):
    net = build_network(Design.TRIANGULAR, 8)  # 15 rows x 12 columns
    monkeypatch.setattr(render, "MAX_ASCII_CELLS", 15 * 12)
    assert render_ascii(net).count("?") == 12
    monkeypatch.setattr(render, "MAX_ASCII_CELLS", 15 * 12 - 1)
    with pytest.raises(BoundExceeded):
        render_ascii(net)


def test_ascii_past_the_cell_budget_raises_before_allocating():
    net = build_network(Design.TRIANGULAR, 512)  # 1023 x 65,280 cells
    tracemalloc.start()
    try:
        with pytest.raises(BoundExceeded, match="66781440 cells exceeds the 8388608-cell budget"):
            render_ascii(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_svg_is_well_formed_xml():
    for design in Design:
        doc = render_svg(build_network(design, 8))
        ET.fromstring(doc)


def test_svg_triangular_12_counts():
    doc = render_svg(build_network(Design.TRIANGULAR, 12))
    root = ET.fromstring(doc)
    ns = {"svg": "http://www.w3.org/2000/svg"}
    rects = root.findall(".//svg:rect", ns)
    bsas = [p for p in root.findall(".//svg:path", ns) if p.get("class") == "bsa"]
    assert len(rects) == 30
    assert len(bsas) == 6


def test_svg_states_classes():
    net = build_network(Design.TRIANGULAR, 6)
    plan = route_triangular(6, PairList.from_text("0-5,1-2,3-4"))
    doc = render_svg(net, plan.states)
    root = ET.fromstring(doc)
    ns = {"svg": "http://www.w3.org/2000/svg"}
    groups = [g.get("class") for g in root.findall(".//svg:g", ns)]
    assert len(groups) == len(net.switches)
    assert set(groups) <= {"bar", "cross"}


def test_svg_highlight_paths():
    net = build_network(Design.TRIANGULAR, 6)
    plan = route_triangular(6, PairList.from_text("0-5,1-2,3-4"))
    doc = render_svg(net, plan.states, RenderOptions(highlight=(0, 5)))
    root = ET.fromstring(doc)
    ns = {"svg": "http://www.w3.org/2000/svg"}
    polys = root.findall(".//svg:polyline", ns)
    assert len(polys) == 2


def test_rendering_is_pure():
    net = build_network(Design.CHEVRON, 10)
    assert render_svg(net) == render_svg(net)
    assert render_ascii(net) == render_ascii(net)


def test_scale_validated():
    with pytest.raises(InvalidInput):
        RenderOptions(scale=0)


@pytest.mark.parametrize("scale", [-3, True, False, 2.0, "3", None])
def test_scale_must_be_an_int_of_at_least_one(scale):
    with pytest.raises(InvalidInput, match="^scale must be an integer >= 1"):
        RenderOptions(scale=scale)


@pytest.mark.parametrize("palette", [(), ("#4e79a7", 3), (None,), ["#4e79a7"], "#4e79a7", 5])
def test_palette_must_be_a_non_empty_tuple_of_str(palette):
    with pytest.raises(InvalidInput, match="^palette must be a non-empty tuple of str"):
        RenderOptions(palette=palette)


@pytest.mark.parametrize("highlight", [5, [0, 1], None, "01", range(2)])
def test_highlight_must_be_a_tuple(highlight):
    with pytest.raises(InvalidInput, match="^highlight must be a tuple of photons"):
        RenderOptions(highlight=highlight)


def test_options_at_the_edge_of_the_checks_render():
    net = build_network(Design.TRIANGULAR, 4)
    plan = route_triangular(4, PairList.from_text("0-3,1-2"))
    doc = render_svg(net, plan.states, RenderOptions(scale=1, palette=("red",), highlight=(0,)))
    assert doc.count('fill="red"') == 2 and 'stroke="red"' in doc


def test_show_states_false_renders_unset():
    net = build_network(Design.TRIANGULAR, 4)
    plan = route_triangular(4, PairList.from_text("0-3,1-2"))
    doc = render_svg(net, plan.states, RenderOptions(show_states=False))
    root = ET.fromstring(doc)
    ns = {"svg": "http://www.w3.org/2000/svg"}
    assert {g.get("class") for g in root.findall(".//svg:g", ns)} == {"unset"}


@pytest.mark.parametrize("design", list(Design))
def test_state_vectors_render_as_their_dicts(design):
    # a StateVector is drawn from its bytes, a dict through per-id lookups;
    # the two must give the same text, any nonzero byte reading as Cross
    rng = random.Random(41)
    for n in (2, 6, 12):
        net = build_network(design, n)
        plan = route(design, n, random_pair_list(n, rng))
        bits = bytearray(b * 7 for b in plan.states.bits)
        for states in (plan.states, StateVector(bits)):
            as_dict = dict(states)
            options = RenderOptions(highlight=tuple(range(n)))
            assert render_ascii(net, states) == render_ascii(net, as_dict)
            assert render_svg(net, states, options) == render_svg(net, as_dict, options)


def test_short_state_vector_renders_unset_glyphs():
    net = build_network(Design.TRIANGULAR, 6)
    states = StateVector(bytearray(b"\x01\x00\x01"))
    art = render_ascii(net, states)
    assert art == render_ascii(net, dict(states))
    assert len(glyph_positions(art, "?")) == 3


def test_svg_matches_golden_digest():
    # recorded when every photon's trajectory was kept and class names were
    # read through per-id State lookups
    digest = hashlib.sha256()
    rng = random.Random(43)
    for design in Design:
        for n in (2, 4, 10, 24):
            net = build_network(design, n)
            plan = route(design, n, random_pair_list(n, rng))
            bits = StateVector(bytearray(b * 255 for b in plan.states.bits))
            for states in (None, plan.states, dict(plan.states), bits):
                for highlight in ((), (0,), (n - 1, 0), (-1,), tuple(range(n))):
                    for show in (True, False):
                        options = RenderOptions(show_states=show, highlight=highlight)
                        digest.update(render_svg(net, states, options).encode())
    assert digest.hexdigest() == "0aaff74b0bff8b9785f03cb7da2e1baf9972cd2f7799cd3249eb9d25fc95d277"


_SVG = "{http://www.w3.org/2000/svg}"


def _svg_classes(doc):
    return [g.get("class") for g in ET.fromstring(doc).iter(_SVG + "g")]


def _svg_paths(doc):
    return [p.get("points") for p in ET.fromstring(doc).iter(_SVG + "polyline")]


def _ascii_glyphs(net, art):
    # each switch's glyph, read at its gap row and column cell
    rows = art.splitlines()
    return [rows[2 * line + 1][5 + 3 * col] for line, col in zip(net.lines, net.cols)]


@pytest.mark.parametrize("design", list(Design))
def test_svg_and_ascii_agree_on_unset_switches(design):
    # a partial map, the same map as strings and a short StateVector: the
    # SVG marks unset exactly the switches the ASCII drawing shows as "?"
    net = build_network(design, 6)
    plan = route(design, 6, random_pair_list(6, random.Random(47)))
    partial = {i: s for i, s in plan.states.items() if i % 3}
    strings = {i: s.value for i, s in partial.items()}
    short = StateVector(bytearray(plan.states.bits[:4]))
    names = {"=": "bar", "X": "cross", "?": "unset"}
    for states in (partial, strings, short):
        doc = render_svg(net, states, RenderOptions(highlight=(0, 5)))
        glyphs = _ascii_glyphs(net, render_ascii(net, states))
        assert "?" in glyphs
        assert _svg_classes(doc) == [names[g] for g in glyphs]
        assert len(_svg_paths(doc)) == 2


@pytest.mark.parametrize("design", list(Design))
@pytest.mark.parametrize("value", [1, 0.5, "sideways", ["cross"]])
def test_a_value_that_is_no_state_raises_invalid_input(design, value):
    net = build_network(design, 6)
    states = {i: State.CROSS for i in range(len(net.lines))}
    states[2] = value
    message = rf"^switch 2 state {re.escape(repr(value))} is not a State$"
    with pytest.raises(InvalidInput, match=message):
        render_ascii(net, states)
    with pytest.raises(InvalidInput, match=message):
        render_svg(net, states, RenderOptions(highlight=(1,)))


@pytest.mark.parametrize("states", [5, "cross", [State.CROSS] * 6, 2.5],
                         ids=["int", "str", "list", "float"])
def test_states_that_are_no_mapping_raise_invalid_input(states):
    # no .get: a typed error naming the argument, not an AttributeError
    net = build_network(Design.TRIANGULAR, 6)
    message = r"^states .* are not a mapping of switch ids$"
    with pytest.raises(InvalidInput, match=message):
        render_ascii(net, states)
    with pytest.raises(InvalidInput, match=message):
        render_svg(net, states)


def test_highlighted_path_passes_unset_switches_straight():
    net = build_network(Design.TRIANGULAR, 4)
    options = RenderOptions(highlight=(0, 1, 2, 3))
    bars = {i: State.BAR for i in range(len(net.lines))}
    assert _svg_paths(render_svg(net, {}, options)) == _svg_paths(render_svg(net, bars, options))
    assert _svg_paths(render_svg(net, {1: State.BAR}, options)) != _svg_paths(
        render_svg(net, {0: State.CROSS, 1: State.BAR}, options))


@pytest.mark.parametrize("photon", [6, 9, -7, -100, 1.5, "0"])
def test_highlight_outside_the_network_raises_invalid_input(photon):
    net = build_network(Design.TRIANGULAR, 6)
    plan = route_triangular(6, PairList.from_text("0-5,1-2,3-4"))
    message = rf"^highlight {re.escape(repr(photon))} is not in -6\.\.5$"
    with pytest.raises(InvalidInput, match=message):
        render_svg(net, plan.states, RenderOptions(highlight=(0, photon)))


def test_negative_highlights_in_range_index_from_the_end():
    net = build_network(Design.TRIANGULAR, 6)
    plan = route_triangular(6, PairList.from_text("0-5,1-2,3-4"))
    for photon, twin in ((-6, 0), (-1, 5)):
        paths = [_svg_paths(render_svg(net, plan.states, RenderOptions(highlight=(p,))))
                 for p in (photon, twin)]
        assert paths[0] == paths[1]
