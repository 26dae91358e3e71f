"""Scene graph, bounding boxes, overlap queries, and SVG rendering."""

import math
import re
import xml.etree.ElementTree as ET
from random import Random
from xml.sax.saxutils import escape as xml_escape

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absynth import pipeline, scene as scene_module
from absynth.gate import feasibility_gate
from absynth.pipeline import RunConfig, generate_image, scenario_def
from absynth.records import SCENARIOS
from absynth.palette import color_css
from absynth.scene import (
    ANCHORS, Canvas, InvalidScene, Primitive, SceneBuilder, SceneGraph, StyleSpec,
    _fmt, angle_point, arc, bounding_box, bbox_intersection_area, circle, line, overlap_pairs,
    polygon, polyline, primitive_problems, rect, render_svg, text, wedge,
)
from tests_helpers import role_indices

STROKED = StyleSpec(stroke="black")
FILLED = StyleSpec(fill="blue")

SVG_NS = "{http://www.w3.org/2000/svg}"


def parse_svg(data: bytes):
    return ET.fromstring(data.decode("utf-8"))


def test_empty_scene_has_only_background_rect():
    scene = SceneGraph(Canvas(640, 480), ())
    root = parse_svg(render_svg(scene))
    rects = root.findall(f"{SVG_NS}rect")
    assert len(rects) == 1
    assert rects[0].get("width") == "640"
    assert rects[0].get("height") == "480"
    assert rects[0].get("fill") == "rgb(255,255,255)"
    assert len(list(root)) == 1


def test_circle_round_trips_through_svg():
    scene = SceneGraph(Canvas(640, 480), (circle(100, 100, 10, STROKED, "marks"),))
    root = parse_svg(render_svg(scene))
    el = root.find(f"{SVG_NS}circle")
    assert el is not None
    assert (el.get("cx"), el.get("cy"), el.get("r")) == ("100", "100", "10")


def test_render_is_deterministic():
    b = SceneBuilder(Canvas(640, 480))
    b.add(circle(10, 20, 5, FILLED, "marks"))
    b.add(text(50, 50, "hello & <world>", StyleSpec(font_size=12), "labels"))
    b.add(wedge(100, 100, 40, 0, 144, FILLED, "marks"))
    scene = b.build()
    assert render_svg(scene) == render_svg(scene)


ESCAPE_CASES = ["a & b", "x < y > z", "&amp;", "&lt;", "<", ">", "&", 'say "hi"',
                "it's", "naïve café, 温度 ±5°", "<b>&nbsp;</b>"]


def test_text_content_is_escaped_like_the_standard_escaper():
    """Each text element's character data is exactly what
    `xml.sax.saxutils.escape` makes of it, and parses back to the content."""
    b = SceneBuilder(Canvas(640, 480))
    for i, content in enumerate(ESCAPE_CASES):
        b.add(text(10, 10 + 30 * i, content, StyleSpec(font_size=12), "labels"))
    svg = render_svg(b.build()).decode("utf-8")
    raw = re.findall(r"<text [^>]*>(.*?)</text>", svg)
    assert raw == [xml_escape(c) for c in ESCAPE_CASES]
    assert [el.text for el in parse_svg(svg.encode()).iter(f"{SVG_NS}text")] == ESCAPE_CASES
    by_content = dict(zip(ESCAPE_CASES, raw))
    assert by_content["<"] == "&lt;"  # not "&amp;lt;": "&" is replaced first
    assert by_content["&lt;"] == "&amp;lt;"  # an entity-like text is escaped once
    assert by_content['say "hi"'] == 'say "hi"' and by_content["it's"] == "it's"


def test_z_order_and_each_primitive_once():
    b = SceneBuilder(Canvas(640, 480))
    top, bottom = circle(1, 1, 1, FILLED, "top", z=5), circle(2, 2, 1, FILLED, "bottom", z=0)
    b.add(top)
    b.add(bottom)
    scene = b.build()
    # A primitive is built once, with its role: the scene holds the very
    # objects handed to `add`, only sorted by z.
    assert scene.primitives[0] is bottom and scene.primitives[1] is top
    assert [p.role for p in scene.primitives] == ["bottom", "top"]
    root = parse_svg(render_svg(scene))
    assert len(root.findall(f"{SVG_NS}circle")) == 2


def test_invalid_scene_lists_offenders():
    # Each primitive checked itself when it was built, so what a scene can
    # still get wrong is its z order: every primitive after one of higher z
    # is named.
    prims = [circle(5, 5, 1, FILLED, "marks", z=z) for z in (2, 0, 3, 1, 1)]
    with pytest.raises(InvalidScene) as err:
        SceneGraph(Canvas(640, 480), tuple(prims))
    assert err.value.problems == [(1, "primitives not sorted by z"),
                                  (3, "primitives not sorted by z")]


TEXT_STYLE = StyleSpec(font_size=10)

# Each constructor call breaks its kind's rules, with every message it must
# raise, in primitive_problems' order.
INVALID_PRIMITIVES = {
    "empty-polyline": (lambda: polyline([], STROKED, "marks"), ["polyline without points"]),
    "empty-polygon": (lambda: polygon([], FILLED, "marks"), ["polygon without points"]),
    "negative-width": (lambda: rect(630, 0, -700, 10, FILLED, "marks"),
                       ["negative width or height"]),
    "negative-height": (lambda: rect(0, 0, 10, -0.5, FILLED, "marks"),
                        ["negative width or height"]),
    "slightly-negative-width": (lambda: rect(0, 0, -1e-9, 10, FILLED, "marks"),
                                ["negative width or height"]),
    "no-ink-line": (lambda: line(0, 0, 1, 1, StyleSpec(), "marks"),
                    ["shape needs stroke or fill"]),
    "no-ink-text-style": (lambda: rect(0, 0, 1, 1, TEXT_STYLE, "marks"),
                          ["shape needs stroke or fill"]),
    "zero-radius-circle": (lambda: circle(0, 0, 0, FILLED, "marks"), ["non-positive radius"]),
    "negative-radius-arc": (lambda: arc(0, 0, -1, 0, 90, STROKED, "marks"),
                            ["non-positive radius"]),
    "zero-sweep-wedge": (lambda: wedge(0, 0, 5, 0, 0, FILLED, "marks"),
                         ["sweep 0.0 outside (0, 360]"]),
    "wide-sweep-arc": (lambda: arc(0, 0, 5, 0, 361, STROKED, "marks"),
                       ["sweep 361.0 outside (0, 360]"]),
    "nan-sweep-wedge": (lambda: wedge(0, 0, 5, 0, math.nan, FILLED, "marks"),
                        ["non-finite coordinates", "sweep nan outside (0, 360]"]),
    "nan-radius-circle": (lambda: circle(0, 0, math.nan, FILLED, "marks"),
                          ["non-finite coordinates"]),
    "empty-text": (lambda: text(0, 0, "", TEXT_STYLE, "labels"), ["empty text content"]),
    "bad-anchor": (lambda: text(0, 0, "x", TEXT_STYLE, "labels", anchor="left"),
                   ["bad anchor 'left'"]),
    "no-font-size": (lambda: text(0, 0, "x", StyleSpec(), "labels"),
                     ["text requires positive font_size"]),
    "zero-font-size": (lambda: text(0, 0, "x", StyleSpec(font_size=0), "labels"),
                       ["text requires positive font_size"]),
    "every-text-fault": (lambda: text(math.inf, 0, "", StyleSpec(fill="red"), "labels",
                                      anchor=""),
                         ["non-finite coordinates", "empty text content", "bad anchor ''",
                          "text requires positive font_size"]),
    "every-wedge-fault": (lambda: wedge(0, math.nan, -2, 0, 400, StyleSpec(), "marks"),
                          ["non-finite coordinates", "shape needs stroke or fill",
                           "sweep 400.0 outside (0, 360]", "non-positive radius"]),
}


@pytest.mark.parametrize("name", INVALID_PRIMITIVES)
def test_degenerate_shapes_are_invalid(name):
    # Each would reach the gate with no box, an inverted one or nothing to
    # draw, so its constructor refuses it, naming every fault.
    build, messages = INVALID_PRIMITIVES[name]
    with pytest.raises(InvalidScene) as err:
        build()
    assert err.value.problems == [(0, message) for message in messages]


VALUES = (0.0, -0.0, 1.0, -1.0, 5.5, 360.0, 360.5, -1e-9, 1e308, -1e308, math.nan, math.inf,
          -math.inf)
STYLES = (StyleSpec(), STROKED, FILLED, StyleSpec(font_size=0), StyleSpec(font_size=-1),
          StyleSpec(font_size=math.nan), StyleSpec(font_size=9, stroke="red"))


def test_each_constructor_refuses_exactly_what_primitive_problems_names():
    """Random geometry and styles, valid and not: a constructor raises, in
    primitive_problems' words, exactly when that function names a problem,
    and otherwise makes the primitive. Its quick check never lets a fault by."""
    rng = Random(13)
    kinds = {"line": (line, 4), "rectangle": (rect, 4), "circle": (circle, 3), "arc": (arc, 5),
             "wedge": (wedge, 5), "polyline": (polyline, None), "polygon": (polygon, None),
             "text": (text, 2)}
    made = refused = 0
    for _ in range(20_000):
        kind = rng.choice(sorted(kinds))
        build, arity = kinds[kind]
        style = rng.choice(STYLES)
        if kind == "text":
            content, anchor = rng.choice(("", "x")), rng.choice(ANCHORS + ("left",))
            x, y = rng.choice(VALUES), rng.choice(VALUES)
            geometry = (x, y, content, anchor)
            call = lambda: text(x, y, content, style, "labels", anchor=anchor)
        elif arity is None:
            geometry = tuple((rng.choice(VALUES), rng.choice(VALUES))
                             for _ in range(rng.randint(0, 3)))
            call = lambda: build(geometry, style, "marks")
        else:
            geometry = tuple(rng.choice(VALUES) for _ in range(arity))
            call = lambda: build(*geometry, style, "marks")
        problems = primitive_problems(kind, geometry, style)
        if problems:
            with pytest.raises(InvalidScene) as err:
                call()
            assert err.value.problems == [(0, msg) for msg in problems], (kind, geometry, style)
            refused += 1
        else:
            prim = call()
            assert (prim.kind, prim.geometry, prim.style) == (kind, geometry, style)
            made += 1
    assert made > 1000 and refused > 1000


def test_text_without_font_size_is_invalid():
    with pytest.raises(InvalidScene, match="text requires positive font_size"):
        text(0, 0, "x", StyleSpec(), "labels")


# -- bounding boxes ---------------------------------------------------------


def test_bbox_circle():
    assert bounding_box(circle(100, 100, 10, FILLED, "marks")) == (90, 90, 110, 110)


def test_bbox_line():
    assert bounding_box(line(0, 0, 10, 20, STROKED, "marks")) == (0, 0, 10, 20)


def test_bbox_text_heuristic():
    # width = 0.6 * font_size * chars, height = font_size
    p = text(0, 0, "AB", StyleSpec(font_size=10), "labels")
    assert bounding_box(p) == (0, 0, 12, 10)


def test_bbox_text_middle_anchor():
    p = text(100, 0, "AB", StyleSpec(font_size=10), "labels", anchor="middle")
    assert bounding_box(p) == (94, 0, 106, 10)


def test_bbox_wedge_contains_arc_extremes():
    # Quarter wedge from 12 o'clock to 3 o'clock around (0, 0).
    box = bounding_box(wedge(0, 0, 10, 0, 90, FILLED, "marks"))
    assert box == (0, -10, 10, 0)
    # Sweep crossing 90 and 180 degrees pulls the box to the full extents.
    box = bounding_box(wedge(0, 0, 10, 45, 180, FILLED, "marks"))
    assert box[2] == pytest.approx(10)
    assert box[3] == pytest.approx(10)


@st.composite
def primitives(draw):
    x = st.floats(min_value=-500, max_value=500, allow_nan=False, width=32)
    kind = draw(st.sampled_from(["line", "rect", "circle", "polyline", "polygon", "wedge"]))
    if kind == "line":
        return line(draw(x), draw(x), draw(x), draw(x), STROKED, "marks")
    if kind == "rect":
        return rect(draw(x), draw(x), draw(st.floats(0, 100, width=32)),
                    draw(st.floats(0, 100, width=32)), FILLED, "marks")
    if kind == "circle":
        return circle(draw(x), draw(x), draw(st.floats(0.5, 100, width=32)), FILLED, "marks")
    if kind == "wedge":
        return wedge(draw(x), draw(x), draw(st.floats(0.5, 100, width=32)),
                     draw(st.floats(0, 360, width=32)),
                     draw(st.floats(1, 360, width=32)), FILLED, "marks")
    pts = draw(st.lists(st.tuples(x, x), min_size=2, max_size=8))
    return polyline(pts, STROKED, "marks") if kind == "polyline" else polygon(pts, FILLED, "marks")


def geometry_points(p: Primitive):
    """Sampled points that must lie inside the primitive's bounding box."""
    g = p.geometry
    if p.kind == "line":
        return [(g[0], g[1]), (g[2], g[3])]
    if p.kind in ("polyline", "polygon"):
        return list(g)
    if p.kind == "rectangle":
        x, y, w, h = g
        return [(x, y), (x + w, y + h)]
    if p.kind == "circle":
        cx, cy, r = g
        return [(cx + r * math.sin(t), cy - r * math.cos(t))
                for t in [i * math.pi / 8 for i in range(16)]]
    if p.kind == "wedge":
        cx, cy, r, start, sweep = g
        pts = [(cx, cy)]
        for f in (0.0, 0.25, 0.5, 0.75, 1.0):
            pts.append(angle_point(cx, cy, r, start + f * sweep))
        return pts
    raise AssertionError(p.kind)


@given(primitives())
@settings(max_examples=200)
def test_bbox_contains_geometry(p):
    x0, y0, x1, y1 = bounding_box(p)
    eps = 1e-6
    for px, py in geometry_points(p):
        assert x0 - eps <= px <= x1 + eps
        assert y0 - eps <= py <= y1 + eps


# -- overlap pairs ----------------------------------------------------------


def scene_with_rects(*boxes):
    b = SceneBuilder(Canvas(640, 480))
    for x0, y0, x1, y1 in boxes:
        b.add(rect(x0, y0, x1 - x0, y1 - y0, FILLED, "marks"))
    return b.build()


def test_overlap_disjoint_rects_empty():
    scene = scene_with_rects((0, 0, 10, 10), (20, 20, 30, 30))
    assert overlap_pairs(scene, role_indices(scene, "marks")) == []


def test_overlap_identical_rects():
    scene = scene_with_rects((0, 0, 10, 10), (0, 0, 10, 10))
    assert overlap_pairs(scene, role_indices(scene, "marks")) == [(0, 1, 100.0)]


def test_overlap_partial_rects():
    # Intersection of (0,0,10,10) and (5,5,15,15) is the 5x5 square = 25.
    scene = scene_with_rects((0, 0, 10, 10), (5, 5, 15, 15))
    assert overlap_pairs(scene, role_indices(scene, "marks")) == [(0, 1, 25.0)]


def test_overlap_explicit_indices_join_roles():
    # A role's indices joined with those of a primitive of another role,
    # in any order and with repeats, select each primitive once.
    b = SceneBuilder(Canvas(640, 480))
    b.add(rect(0, 0, 10, 10, FILLED, "marks"))
    b.add(text(5, 5, "other role", StyleSpec(font_size=10), "labels"))
    b.add(rect(100, 100, 10, 10, FILLED, "marks"))
    scene = b.build()
    marks = role_indices(scene, "marks")
    assert overlap_pairs(scene, marks) == []
    assert overlap_pairs(scene, (1,) + marks + (0,)) == overlap_pairs(scene, (0, 1, 2))
    assert [(i, j) for i, j, _ in overlap_pairs(scene, marks + (1,))] == [(0, 1)]


def pixel_grid_area(box_a, box_b, step=0.25):
    """Brute-force intersection area estimate on a fine pixel grid."""
    x0 = min(box_a[0], box_b[0])
    y0 = min(box_a[1], box_b[1])
    x1 = max(box_a[2], box_b[2])
    y1 = max(box_a[3], box_b[3])
    count = 0
    y = y0 + step / 2
    while y < y1:
        x = x0 + step / 2
        while x < x1:
            if box_a[0] <= x <= box_a[2] and box_a[1] <= y <= box_a[3] \
                    and box_b[0] <= x <= box_b[2] and box_b[1] <= y <= box_b[3]:
                count += 1
            x += step
        y += step
    return count * step * step


@given(
    st.tuples(st.integers(0, 80), st.integers(0, 80), st.integers(5, 60), st.integers(5, 60)),
    st.tuples(st.integers(0, 80), st.integers(0, 80), st.integers(5, 60), st.integers(5, 60)),
)
@settings(max_examples=30, deadline=None)
def test_overlap_matches_pixel_grid(a, b):
    box_a = (a[0], a[1], a[0] + a[2], a[1] + a[3])
    box_b = (b[0], b[1], b[0] + b[2], b[1] + b[3])
    analytic = bbox_intersection_area(box_a, box_b)
    estimate = pixel_grid_area(box_a, box_b)
    if analytic == 0:
        assert estimate <= 2.0
    else:
        assert abs(estimate - analytic) <= 0.02 * max(analytic, 1.0) + 1.0


def test_undersized_canvas_rejected():
    with pytest.raises(ValueError, match="minimum"):
        Canvas(32, 480)


def test_bad_background_rejected():
    with pytest.raises(ValueError, match="background"):
        Canvas(640, 480, (300, 0, 0))


# -- the scene kernel against the code it replaced ---------------------------


def all_pairs_overlaps(scene, indices):
    """The all-pairs loop `overlap_pairs` replaced, kept as the reference."""
    selected = sorted(set(indices))
    boxes = {i: bounding_box(scene.primitives[i]) for i in selected}
    pairs = []
    for a_pos, i in enumerate(selected):
        for j in selected[a_pos + 1:]:
            area = bbox_intersection_area(boxes[i], boxes[j])
            if area > 0:
                pairs.append((i, j, area))
    return pairs


def sampled_scenes(seeds=range(8), scenarios=SCENARIOS):
    for name in sorted(scenarios):
        sdef = scenario_def(name)
        for seed in seeds:
            result = feasibility_gate(sdef.sample(seed), sdef.build)
            if result.accepted:
                yield name, result.scene


# The roles each scenario draws. Every primitive carries exactly one of its
# scenario's roles, and a sample of scenes draws every one of them.
SCENARIO_ROLES = {
    "chart": {"axis", "data_marks", "legend", "title"},
    "table": {"axis", "data_marks", "grid", "title"},
    "map": {"end_marker", "landmark_labels", "landmarks", "obstacles", "roads", "start_marker"},
    "dashboard": {"bulb", "face", "hour_hand", "hub", "mercury", "minute_hand", "needle",
                  "numbers", "tick_labels", "ticks", "tube"},
    "flowchart": {"edge_labels", "edges", "node_labels", "nodes"},
    "relation_graph": {"edges", "extra_edges", "node_labels", "nodes"},
    "puzzle": {"marks", "option_labels", "panel_titles", "panels", "title"},
    "layout": {"doors", "fixture_labels", "fixtures", "room_labels", "rooms", "title"},
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_every_primitive_has_one_role_from_its_scenario(scenario):
    assert set(SCENARIO_ROLES) == set(SCENARIOS)
    expected = SCENARIO_ROLES[scenario]
    sdef = scenario_def(scenario)
    seen = set()
    for seed in range(100):
        result = feasibility_gate(sdef.sample(seed), sdef.build)
        assert result.accepted, seed
        for p in result.scene.primitives:
            assert p.role in expected, (seed, p)
            seen.add(p.role)
    assert seen == expected


def test_swept_overlaps_match_all_pairs_on_sampled_scenes():
    seen = set()
    for name, scene in sampled_scenes():
        seen.add(name)
        everything = range(len(scene.primitives))
        text_ix = [i for i, p in enumerate(scene.primitives) if p.kind == "text"]
        roles = sorted({p.role for p in scene.primitives})
        selections = [("all", everything), ("text", text_ix)]
        selections += [(role, text_ix + list(role_indices(scene, role))) for role in roles]
        for what, indices in selections:
            assert overlap_pairs(scene, indices) == \
                all_pairs_overlaps(scene, indices), (name, what)
    assert seen == set(SCENARIOS)


def test_swept_overlaps_match_all_pairs_on_random_boxes():
    # Integer corners on a small grid make touching edges, equal x-mins,
    # duplicates and nested boxes common; zero sizes appear too.
    rng = Random(7)
    for _ in range(400):
        b = SceneBuilder(Canvas(640, 480))
        for _ in range(rng.randint(0, 14)):
            x, y = rng.randint(0, 12), rng.randint(0, 12)
            w, h = rng.choice((0, 0, 1, 2, 3, 5, 8)), rng.choice((0, 1, 2, 4, 6))
            b.add(rect(x, y, w, h, FILLED, rng.choice(("a", "b"))))
        scene = b.build()
        everything = range(len(scene.primitives))
        assert overlap_pairs(scene, everything) == all_pairs_overlaps(scene, everything)


def test_overlap_passes_over_a_column_apart_in_y(monkeypatch):
    """A tall column of cells, like a table column or a flowchart's labels:
    every pair overlaps in x, no two cells in y (neighbours touch at an
    edge). No area is computed for a pair apart in y, so only the pairs of
    the one cell that overlaps its neighbour reach the area."""
    cells = [(5 * (k % 2), 12 * k, 60, 12 * k + 12) for k in range(30)]
    cells.append((0, 100, 60, 110))  # overlaps cells 8 and 9
    scene = scene_with_rects(*cells)
    measured = []
    real_area = scene_module.bbox_intersection_area

    def counting_area(a, b):
        measured.append((a, b))
        return real_area(a, b)

    monkeypatch.setattr(scene_module, "bbox_intersection_area", counting_area)
    everything = range(len(scene.primitives))
    assert overlap_pairs(scene, everything) == [(8, 30, 480.0), (9, 30, 110.0)]
    assert len(measured) == 2
    monkeypatch.undo()
    assert overlap_pairs(scene, everything) == all_pairs_overlaps(scene, everything)


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_each_primitive_is_boxed_once_per_image(scenario, monkeypatch):
    """The aesthetics gate boxes the text and legend primitives it compares,
    each once, and no other primitive."""
    boxed, gated = [], []
    real_box, real_gate = scene_module.bounding_box, pipeline.aesthetics_gate

    def counting_box(p):
        boxed.append(p)
        return real_box(p)

    def recording_gate(scene, config):
        gated.append(scene)
        return real_gate(scene, config)

    monkeypatch.setattr(scene_module, "bounding_box", counting_box)
    monkeypatch.setattr(pipeline, "aesthetics_gate", recording_gate)
    config = RunConfig(scenarios=(scenario,), default_count=3, seed=1)
    for index in range(3):
        assert generate_image(config, scenario, index).rejection is None
    compared = [p for scene in gated for p in scene.primitives
                if p.kind == "text" or p.role == "legend"]
    assert len(gated) == 3
    assert compared
    assert sorted(map(id, boxed)) == sorted(map(id, compared))


def fmt_reference(v):
    """The `_fmt` formula before it converted its input once, kept as the
    reference."""
    if float(v).is_integer():
        return str(int(v))
    return f"{v:.3f}".rstrip("0").rstrip(".")


def test_fmt_is_byte_identical_to_the_old_formula():
    rng = Random(11)
    corpus = [-0.0, 0.0, 2.9995, 0.0005, -0.0004, 1e20, 7, -3, 10**20 + 1, True,
              float("inf"), float("-inf"), 0.1 + 0.2, 1e-9, 4503599627370495.5]
    for _ in range(20_000):
        scale = rng.choice((1.0, 1e-3, 1e3, 1e6))
        value = rng.uniform(-640, 640) * scale
        corpus += [value, round(value, rng.randint(0, 4)), float(int(value))]
    for v in corpus:
        assert _fmt(v) == fmt_reference(v), v


EQUAL_KEYS = ((0.0, -0.0, 0, False), (1, 1.0, True), (2**60, float(2**60)), (-7, -7.0))


def test_equal_values_format_alike():
    # The coordinate memo rests on this: keys that are equal in a dict give
    # the same text, so whichever of them filled an entry, no byte changes.
    for group in EQUAL_KEYS:
        assert {_fmt(v) for v in group} == {fmt_reference(group[0])}, group


@pytest.mark.parametrize("order", ["forward", "reversed"])
def test_coordinate_memo_gives_the_reference_text_whichever_key_came_first(order):
    scene_module._coord.cache_clear()
    for group in EQUAL_KEYS:
        for v in (group if order == "forward" else group[::-1]):
            assert scene_module._coord(v) == fmt_reference(v), v


def test_render_with_the_coordinate_memo_matches_formatting_each_value(monkeypatch):
    """Each constructor formats its element, so every scene is built again
    for each way of formatting its coordinates."""
    def rendered():
        named = list(sampled_scenes(range(4)))
        assert {name for name, _ in named} == set(SCENARIOS)
        return [render_svg(scene) for _, scene in named]

    scene_module._coord.cache_clear()
    cold = rendered()
    warm = rendered()
    monkeypatch.setattr(scene_module, "_coord", _fmt)
    assert cold == warm == rendered()


# -- each constructor's render against the renderer it replaced -------------
#
# The renderer's per-kind functions as they were before each shape
# constructor formatted its own element, kept verbatim as the reference. They
# read their coordinates through `_coord` and escape through `_escape`, here
# the reference formula and the standard escaper.

_coord = fmt_reference
_fmt = fmt_reference
_escape = xml_escape


def _style_attrs(style: StyleSpec, is_text: bool) -> str:
    if is_text:
        return (f'fill="{color_css(style.fill or "black")}" '
                f'font-size="{_fmt(style.font_size)}" font-family="sans-serif"')
    attrs = f'fill="{color_css(style.fill)}"' if style.fill is not None else 'fill="none"'
    if style.stroke is not None:
        attrs += f' stroke="{color_css(style.stroke)}" stroke-width="{_fmt(style.stroke_width)}"'
    if style.dash:
        attrs += f' stroke-dasharray="{" ".join([_fmt(d) for d in style.dash])}"'
    return attrs


def _points_attr(points) -> str:
    return " ".join([f"{_coord(x)},{_coord(y)}" for x, y in points])


def _arc_path(cx, cy, r, start, sweep, close_to_center: bool) -> str:
    x1, y1 = angle_point(cx, cy, r, start)
    if sweep >= 360.0:
        # Full circle: two half arcs, since a single 360-degree arc collapses.
        xm, ym = angle_point(cx, cy, r, start + 180.0)
        d = (
            f"M {_coord(x1)} {_coord(y1)} "
            f"A {_coord(r)} {_coord(r)} 0 0 1 {_coord(xm)} {_coord(ym)} "
            f"A {_coord(r)} {_coord(r)} 0 0 1 {_coord(x1)} {_coord(y1)}"
        )
        return d + " Z" if close_to_center else d
    x2, y2 = angle_point(cx, cy, r, start + sweep)
    large = 1 if sweep > 180.0 else 0
    arc_part = f"A {_coord(r)} {_coord(r)} 0 {large} 1 {_coord(x2)} {_coord(y2)}"
    if close_to_center:
        return f"M {_coord(cx)} {_coord(cy)} L {_coord(x1)} {_coord(y1)} {arc_part} Z"
    return f"M {_coord(x1)} {_coord(y1)} {arc_part}"


def _element(p: Primitive, attrs: str) -> str:
    """One SVG element for `p`, whose style attributes are `attrs`."""
    kind, g = p.kind, p.geometry
    if kind == "text":
        x, y, content, anchor = g
        # Baseline sits at ~0.8em below the top of the heuristic line box.
        baseline = y + 0.8 * float(p.style.font_size)
        return (f'<text x="{_coord(x)}" y="{_coord(baseline)}" text-anchor="{anchor}" {attrs}>'
                f"{_escape(content)}</text>")
    if kind == "line":
        x1, y1, x2, y2 = g
        return (f'<line x1="{_coord(x1)}" y1="{_coord(y1)}" '
                f'x2="{_coord(x2)}" y2="{_coord(y2)}" {attrs}/>')
    if kind == "rectangle":
        x, y, w, h = g
        return (f'<rect x="{_coord(x)}" y="{_coord(y)}" '
                f'width="{_coord(w)}" height="{_coord(h)}" {attrs}/>')
    if kind == "polyline" or kind == "polygon":
        return f'<{kind} points="{_points_attr(g)}" {attrs}/>'
    if kind == "circle":
        cx, cy, r = g
        return f'<circle cx="{_coord(cx)}" cy="{_coord(cy)}" r="{_coord(r)}" {attrs}/>'
    if kind == "arc" or kind == "wedge":
        cx, cy, r, start, sweep = g
        return f'<path d="{_arc_path(cx, cy, r, start, sweep, kind == "wedge")}" {attrs}/>'
    raise ValueError(f"unknown kind {kind!r}")


def reference_render(p: Primitive) -> str:
    return _element(p, _style_attrs(p.style, p.kind == "text"))


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_each_primitive_renders_like_the_reference(scenario):
    """300 seeds of each scenario: every primitive's stored element is what
    the reference renders from its kind, geometry and style, and a scene
    renders as the reference's elements joined in z order."""
    scenes = 0
    for _, scene in sampled_scenes(range(300), (scenario,)):
        texts = [reference_render(p) for p in scene.primitives]
        assert [p.svg for p in scene.primitives] == texts
        assert render_svg(scene).decode("utf-8").splitlines()[3:-1] == texts
        scenes += 1
    assert scenes == 300


def test_hand_built_primitives_render_like_the_reference():
    """Every kind, a full circle of arc and wedge, points, dashes, escapes,
    anchors and values the memo keys alike."""
    dashed = StyleSpec(stroke="navy", stroke_width=0.25, fill="red", dash=(4.0, 2.5, 1.125))
    prims = [
        line(-0.0, 1, 2.0005, True, dashed, "marks"),
        polyline([(0, 0), (1.5, 2.25), (1e-4, -3)], STROKED, "marks"),
        polygon([(10, 10), (20, 10), (15, 0.1 + 0.2)], FILLED, "marks"),
        rect(1, 2, 0, 0, dashed, "marks"),
        circle(100, 100.4999, 0.001, FILLED, "marks"),
        arc(50, 50, 20, 0, 360, STROKED, "marks"),
        wedge(50, 50, 20, 45, 360, FILLED, "marks"),
        arc(50, 50, 20, 350, 181, STROKED, "marks"),
        wedge(50, 50, 20, -30, 180, dashed, "marks"),
        *[text(10, 12.5, content, StyleSpec(fill="blue", font_size=9.75), "labels",
               anchor=anchor) for content, anchor in zip(ESCAPE_CASES, ANCHORS * 4)],
        text(0, 0, 42, StyleSpec(font_size=12), "labels"),
    ]
    for p in prims:
        assert p.svg == reference_render(p), p


def test_primitive_fields_cannot_be_assigned():
    prim = line(0, 0, 10, 10, STROKED, "marks")
    for name, value in (("kind", "circle"), ("geometry", ()), ("style", FILLED), ("z", 3),
                        ("role", "labels"), ("svg", "")):
        with pytest.raises(AttributeError):
            setattr(prim, name, value)
    assert prim == line(0, 0, 10, 10, STROKED, "marks")


def test_style_memo_keeps_each_style_string():
    # Equal styles, text and shape use of one style, and a dash pattern.
    dashed = StyleSpec(stroke="black", stroke_width=1.5, dash=(4.0, 2.5))
    prims = (line(0, 0, 10, 10, dashed, "marks"), line(1, 1, 5, 5, StyleSpec(stroke="black",
             stroke_width=1.5, dash=(4.0, 2.5)), "marks"),
             rect(2, 2, 3, 3, StyleSpec(fill="blue"), "marks"),
             text(5, 5, "a", StyleSpec(fill="blue", font_size=12.5), "labels"),
             rect(8, 8, 2, 2, StyleSpec(fill="blue", font_size=12.5), "marks"))
    root = parse_svg(render_svg(SceneGraph(Canvas(640, 480), prims)))
    lines = root.findall(f"{SVG_NS}line")
    assert [el.get("stroke-dasharray") for el in lines] == ["4 2.5", "4 2.5"]
    assert [el.get("stroke-width") for el in lines] == ["1.5", "1.5"]
    assert root.find(f"{SVG_NS}text").get("font-size") == "12.5"
    shape_fills = [el.get("fill") for el in root.findall(f"{SVG_NS}rect")[1:]]
    assert shape_fills == [root.find(f"{SVG_NS}text").get("fill")] * 2
    assert root.findall(f"{SVG_NS}rect")[2].get("font-size") is None


NON_FINITE = (float("nan"), float("inf"), float("-inf"))


def coordinate_slots():
    """(arity, build) pairs; build(values) makes a primitive from a flat
    list of `arity` coordinates."""
    return [
        (4, lambda v: line(*v, STROKED, "marks")),
        (4, lambda v: rect(*v, FILLED, "marks")),
        (3, lambda v: circle(*v, FILLED, "marks")),
        (5, lambda v: arc(*v, STROKED, "marks")),
        (5, lambda v: wedge(*v, FILLED, "marks")),
        (2, lambda v: text(*v, "t", StyleSpec(font_size=10), "labels")),
        (6, lambda v: polyline(zip(v[0::2], v[1::2]), STROKED, "marks")),
        (6, lambda v: polygon(zip(v[0::2], v[1::2]), FILLED, "marks")),
    ]


def test_finiteness_check_rejects_each_non_finite_slot():
    base = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0]
    for arity, build in coordinate_slots():
        build(base[:arity])
        for slot in range(arity):
            for bad in NON_FINITE:
                values = base[:arity]
                values[slot] = bad
                with pytest.raises(InvalidScene) as err:
                    build(values)
                assert (0, "non-finite coordinates") in err.value.problems, (arity, slot, bad)


def test_finiteness_check_accepts_large_finite_values_whose_sum_overflows():
    """Their sum fails each constructor's quick check, so primitive_problems
    looks at each value, finds them finite, and the primitive is made."""
    big = 1e308
    assert math.isinf(big + big)
    digits = str(int(big))
    prims = (text(big, big, "t", StyleSpec(font_size=10), "labels"),
             line(big, big, big, big, STROKED, "marks"),
             rect(big, -big, big, big, FILLED, "marks"),
             polyline([(big, big), (-big, -big), (-big, big)], STROKED, "marks"),
             circle(big, big, big, FILLED, "marks"),
             wedge(big, big, big, 0, 90, FILLED, "marks"))
    for p in prims:
        assert math.isinf(sum(geometry_values(p)))
        assert primitive_problems(p.kind, p.geometry, p.style) == []
        assert digits in p.svg, p.kind
    svg = render_svg(SceneGraph(Canvas(640, 480), prims)).decode("utf-8")
    assert svg.splitlines()[3:-1] == [p.svg for p in prims]


def geometry_values(p):
    """The numbers of a primitive's geometry, points flattened."""
    for v in p.geometry:
        if isinstance(v, tuple):
            yield from v
        elif isinstance(v, float):
            yield v
