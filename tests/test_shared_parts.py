"""Shared scene parts: primitives checked and rendered once per process.

Map roads, obstacles and markers, dial faces, puzzle frames and comparison
marks, flowchart boxes, arrows, edges and branch labels, and table grids
and header cells are made by cached helpers of their generators, so each is
checked and rendered by its shape constructor once, and every scene that
draws it holds that one object. Styles come from one interner,
`scene.style`. These tests pin that such a part renders like a fresh copy,
that it stays one object across scenes and `gen` runs in a process, that a
scene is still checked for z order around it, and that each helper's cache
stays within the fixed domain its keys come from.
"""

import json
import os
import subprocess
import sys

import pytest

from absynth import maps, pipeline
from absynth.pipeline import RunConfig, generate_dataset, generate_image, scenario_def
from absynth.scene import (
    Canvas, InvalidScene, Primitive, SceneBuilder, SceneGraph, StyleSpec, arc, circle, line,
    polygon, polyline, rect, render_svg, text, wedge,
)
from tests_helpers import SRC_DIR

STROKED = StyleSpec(stroke="black")


def fresh_copy(p: Primitive) -> Primitive:
    """`p` made again by its shape constructor, a new object."""
    g, style, role, z = p.geometry, p.style, p.role, p.z
    if p.kind == "text":
        return text(g[0], g[1], g[2], style, role, anchor=g[3], z=z)
    if p.kind in ("polyline", "polygon"):
        return (polyline if p.kind == "polyline" else polygon)(g, style, role, z=z)
    build = {"line": line, "rectangle": rect, "circle": circle, "arc": arc, "wedge": wedge}
    return build[p.kind](*g, style, role, z=z)


# The roles whose every primitive is a fixed part of its scenario's frame,
# and so must reach the built scene as the cached object itself. A puzzle's
# marks are cached only in comparison scenes; labels, hands, needles,
# columns, table titles and value cells are made per image, and so is every
# part of a chart, a relation graph and a floor plan, so none of them is
# listed. Every part of a flowchart is fixed.
FIXED_ROLES = {
    "map": {"roads", "obstacles", "start_marker", "end_marker", "landmarks"},
    "dashboard": {"face", "ticks", "numbers", "tick_labels", "hub", "tube", "bulb"},
    "puzzle": {"title", "panels", "option_labels", "panel_titles"},
    "table": {"grid", "axis"},
    "flowchart": {"nodes", "node_labels", "edges", "edge_labels"},
}
# How many objects of those roles a process can make, one per key of the
# helper that makes them (see PART_BOUNDS below); a puzzle's are the 18
# induction parts other than the "?" mark, and the two comparison titles
# and frames. A table grid of r data rows and c value columns has
# (r + 2) + (c + 2) lines, 138 over the 12 grids; a flowchart node is a box
# and a label.
FIXED_OBJECTS = {"map": 264 + 144 + 432, "dashboard": 107, "puzzle": 18 + 4,
                 "table": 138 + 327, "flowchart": 2 * 342 + 286 + 437 + 120 + 413}
# The scenarios whose styles all come from module constants or the
# interner; a puzzle draws with two equal module constants of font 13.
TEXT_SCENARIOS = ("chart", "table", "flowchart", "relation_graph", "layout")


@pytest.mark.parametrize("scenario", sorted(FIXED_ROLES))
def test_shared_parts_render_like_fresh_copies(scenario):
    """Every scene renders like a copy of it made of fresh objects, and its
    fixed parts are a few objects that every scene reuses."""
    sdef = scenario_def(scenario)
    parts: dict[int, Primitive] = {}
    n_fixed = n_prims = 0
    for seed in range(300):
        graph = sdef.build(sdef.sample(seed))
        copy = tuple(fresh_copy(p) for p in graph.primitives)
        assert not any(a is b for a, b in zip(graph.primitives, copy))
        assert copy == graph.primitives, seed
        assert render_svg(graph) == render_svg(SceneGraph(graph.canvas, copy)), seed
        n_prims += len(graph.primitives)
        for prim in graph.primitives:
            if prim.role in FIXED_ROLES[scenario]:
                parts[id(prim)] = prim
                n_fixed += 1
    # Most of each scene is a fixed part, so the comparison above tests them.
    assert n_fixed > n_prims / 3
    assert {p.role for p in parts.values()} == FIXED_ROLES[scenario]
    assert len(parts) <= FIXED_OBJECTS[scenario]


@pytest.mark.parametrize("scenario", TEXT_SCENARIOS)
def test_equal_styles_are_one_object(scenario):
    """Every style a text scene draws with is a module constant or comes
    from the interner, so two equal styles are one object: a style built
    per image would be a second object equal to the first image's."""
    sdef = scenario_def(scenario)
    styles = {}
    for seed in range(300):
        for prim in sdef.build(sdef.sample(seed)).primitives:
            styles[id(prim.style)] = prim.style
    assert len(set(styles.values())) == len(styles)


def test_a_cached_part_is_one_object_in_every_scene_and_every_gen(monkeypatch):
    """Two `gen` runs in one process: each fixed part is the same object,
    with the same text, in every scene of both, and the second run, which
    finds every part made, writes what the first wrote."""
    scenes, current = [], []

    def tagging_generate_image(config, scenario, index):
        current[:] = [scenario]
        return generate_image(config, scenario, index)

    def recording_render(scene):
        scenes.append((current[0], scene))
        return render_svg(scene)

    monkeypatch.setattr(pipeline, "generate_image", tagging_generate_image)
    monkeypatch.setattr(pipeline, "render_svg", recording_render)
    config = RunConfig(scenarios=tuple(FIXED_ROLES), default_count=40, seed=5)
    outputs, per_run = [], []
    for _ in range(2):
        scenes.clear()
        outputs.append(generate_dataset(config)[2])
        per_run.append(list(scenes))
    assert outputs[0] == outputs[1]
    first, second = ({id(p): p for scenario, scene in run for p in scene.primitives
                      if p.role in FIXED_ROLES[scenario]} for run in per_run)
    assert second.keys() == first.keys()
    assert len(first) <= sum(FIXED_OBJECTS.values())
    assert all(fresh_copy(p).svg == p.svg for p in first.values())


def test_a_part_is_tagged_checked_and_rendered_once():
    """A part is tagged with its role and rendered when it is built, and a
    scene built from it holds it as it is and writes its text."""
    part = line(0, 0, 10, 10.5, STROKED, "roads", z=2)
    assert part.role == "roads" and part.z == 2
    assert part.svg == ('<line x1="0" y1="0" x2="10" y2="10.5" fill="none" '
                        'stroke="rgb(16,16,16)" stroke-width="1"/>')
    b = SceneBuilder(Canvas())
    b.add(part)
    scene = b.build()
    [placed] = scene.primitives
    assert placed is part
    assert render_svg(scene).decode("utf-8").splitlines()[3] == part.svg


def test_shared_parts_are_still_checked_for_z_order():
    road = maps._roads_from((0, 0))[0][1]
    obstacle = maps._obstacle((0, 0))
    assert (road.z, obstacle.z) == (0, 1)
    with pytest.raises(InvalidScene) as err:
        SceneGraph(Canvas(), (obstacle, road))
    assert err.value.problems == [(1, "primitives not sorted by z")]


# The bound of each cached helper, from the fixed set its keys come from.
# Map: a road per cell and down or right neighbour (12 x 11 x 2 = 264), an
# obstacle per cell (144), and a start, end or landmark marker per cell (432).
# Dashboard: each family's face, its ticks, tick labels, hubs and columns
# (clock 26, speedometer 28, fuel 12, thermometer 18, barometer 23). Puzzle:
# a comparison mark per (shape, colour, cell, panel) (4 x 6 x 9 x 2 = 432),
# and the induction parts: one title, the shown frames of the 4- and 5-panel
# rows (3 + 4), a "?" box and mark for each (4), and four option frames and
# letters (8).
# Table: a grid per (data rows 2-5, value columns 3-5) (4 x 3 = 12). A
# header cell per category pool (5), its first 3, 4 or 5 labels, each in
# its column (3 + 4 + 5), and the row count that sets the grid's top (4):
# 5 x 12 x 4 = 240. A row label per (series pool (4) x its first 2 or 3
# labels, or "Row 1".."Row 4" or "Row 5") in its row (8 + 12 + 4 + 5 = 29),
# and the column count that sets its column's width (3): 87. 240 + 87 = 327.
# Flowchart: at most 9 main rows (start, 5 steps, 2 decisions, end) at
# x 240 and fix nodes at x 500. A node per (start, end, 15 steps or 6
# conditions) x 9 rows, and per 15 fix labels x 9 rows: 207 + 135 = 342.
# An arrow head down into each of rows 1-8 on a box or a diamond (16), right
# into each fix label's box (15 x 9) and left into each step's box
# (15 x 9): 286. An edge line down between consecutive rows from and to a
# box or a diamond (8 x 2 x 2 = 32), and across from each condition to each
# fix label of its kind (3 x 15 x 9 = 405): 437. A loop path per fix label
# and row (15 x 8 = 120). A "Yes" label between consecutive rows (8), and a
# "No" label across each (condition, fix label, row) (405): 413. A canvas
# per count of main rows that grows the canvas past 480 px, and one 480 px
# tall for the rest (7, 8 and 9 rows: 4).
# Styles: eleven fonts (the chart title; the chart label, tick and cell
# fonts at two scales; node labels; floor-plan title, room and fixture
# labels), five styles per chart colour (legend swatch, wedge, bar, line and
# point: 5 x 12), a node box per palette colour (16), and a puzzle mark per
# cycle colour (6): 11 + 60 + 16 + 6 = 93.
PART_BOUNDS = {"roads": 264, "obstacles": 144, "markers": 432, "dial parts": 107,
               "induction parts": 20, "comparison marks": 432,
               "table grids": 12, "table cells": 327, "flow nodes": 342, "flow arrows": 286,
               "flow edges": 437, "flow loops": 120, "branch labels": 413,
               "flow canvases": 4, "styles": 93}

_GROWTH = """
import json, sys
from absynth import charts, diagrams, gauges, maps, pipeline, puzzles, scene
from absynth.pipeline import RunConfig, generate_dataset

objects = {}
render, generate_image = pipeline.render_svg, pipeline.generate_image
current = []

def tagging_generate_image(config, scenario, index):
    current[:] = [scenario]
    return generate_image(config, scenario, index)

def recording_render(scene):
    for p in scene.primitives:
        objects.setdefault(p.role, {})[id(p)] = p
        objects.setdefault((current[0], p.role), {})[id(p)] = p
    return render(scene)

pipeline.generate_image = tagging_generate_image
pipeline.render_svg = recording_render
generate_dataset(RunConfig(scenarios=("map", "dashboard", "puzzle", "chart", "table", "flowchart"),
                           default_count=600, seed=4))
size = lambda helper: helper.cache_info().currsize
distinct = lambda *roles: sum(len(objects.get(role, ())) for role in roles)
flow = lambda role: ("flowchart", role)
print(json.dumps({
    "roads": distinct("roads"),
    "obstacles": distinct("obstacles"), "obstacle cache": size(maps._obstacle),
    "markers": distinct("start_marker", "end_marker", "landmarks"),
    "marker cache": size(maps._marker),
    "dial parts": sum(len(gauges._face(f)) for f in gauges.FAMILIES),
    "dial face objects": distinct("face", "ticks", "numbers", "tick_labels", "hub", "tube", "bulb"),
    "induction parts": size(puzzles._frame) + size(puzzles._induction_title)
                       + 2 * size(puzzles._question_box) + size(puzzles._option_label),
    "comparison marks": size(puzzles._diff_mark),
    "table grids": size(charts._table_grid), "table cells": size(charts._label_cell),
    "table objects": distinct(("table", "grid"), ("table", "axis")),
    "flow nodes": size(diagrams._flow_node), "flow arrows": size(diagrams._flow_arrow),
    "flow edges": size(diagrams._flow_edge), "flow loops": size(diagrams._flow_loop),
    "branch labels": size(diagrams._branch_label), "flow canvases": size(diagrams._flow_canvas),
    "flow objects": distinct(flow("nodes"), flow("node_labels"), flow("edges"),
                             flow("edge_labels")),
    "styles": size(scene.style),
}))
"""


def test_each_part_cache_stays_within_its_domain(tmp_path):
    """600 images of each scenario with shared parts and of charts, in a
    fresh interpreter, so no other test's parts are counted. A part made per
    image instead of once would count one object per image and break its
    bound."""
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR.parent))
    done = subprocess.run([sys.executable, "-c", _GROWTH], env=env, cwd=tmp_path,
                          capture_output=True, text=True, check=True)
    grown = json.loads(done.stdout.splitlines()[-1])
    assert all(0 < grown[name] <= bound for name, bound in PART_BOUNDS.items()), grown
    assert grown["dial parts"] == grown["dial face objects"] == 107, grown
    assert 0 < grown["obstacle cache"] == grown["obstacles"], grown
    assert 0 < grown["marker cache"] == grown["markers"], grown
    # Every flowchart part is a cached object, and so is every table part
    # of a fixed role: at most 138 grid lines, and one object per cell.
    assert grown["flow objects"] == (2 * grown["flow nodes"] + grown["flow arrows"]
                                     + grown["flow edges"] + grown["flow loops"]
                                     + grown["branch labels"]), grown
    assert grown["table cells"] < grown["table objects"] <= grown["table cells"] + 138, grown
