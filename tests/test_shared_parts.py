"""Shared scene parts: primitives checked and rendered once per process.

Map roads, obstacles and markers, dial faces, and puzzle frames and
comparison marks are made by cached helpers of their generators, so each is
checked and rendered by its shape constructor once, and every scene that
draws it holds that one object. These tests pin that such a part renders
like a fresh copy, that it stays one object across scenes and `gen` runs in
a process, that a scene is still checked for z order around it, and that
each helper's cache stays within the fixed domain its keys come from.
"""

import json
import os
import subprocess
import sys

import pytest

from absynth import maps, pipeline
from absynth.pipeline import RunConfig, generate_dataset, scenario_def
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
# marks are cached only in comparison scenes, and labels, hands, needles and
# columns are made per image, so none of them is listed.
FIXED_ROLES = {
    "map": {"roads", "obstacles", "start_marker", "end_marker", "landmarks"},
    "dashboard": {"face", "ticks", "numbers", "tick_labels", "hub", "tube", "bulb"},
    "puzzle": {"title", "panels", "option_labels", "panel_titles"},
}
# How many objects of those roles a process can make, one per key of the
# helper that makes them (see PART_BOUNDS below); a puzzle's are the 18
# induction parts other than the "?" mark, and the two comparison titles
# and frames.
FIXED_OBJECTS = {"map": 264 + 144 + 432, "dashboard": 107, "puzzle": 18 + 4}


@pytest.mark.parametrize("scenario", ["map", "dashboard", "puzzle"])
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


def test_a_cached_part_is_one_object_in_every_scene_and_every_gen(monkeypatch):
    """Two `gen` runs in one process: each fixed part is the same object,
    with the same text, in every scene of both, and the second run, which
    finds every part made, writes what the first wrote."""
    scenes = []

    def recording_render(scene):
        scenes.append(scene)
        return render_svg(scene)

    monkeypatch.setattr(pipeline, "render_svg", recording_render)
    config = RunConfig(scenarios=tuple(FIXED_ROLES), default_count=40, seed=5)
    outputs, per_run = [], []
    for _ in range(2):
        scenes.clear()
        outputs.append(generate_dataset(config)[2])
        per_run.append(list(scenes))
    assert outputs[0] == outputs[1]
    roles = set().union(*FIXED_ROLES.values())
    first, second = ({id(p): p for scene in run for p in scene.primitives if p.role in roles}
                     for run in per_run)
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
PART_BOUNDS = {"roads": 264, "obstacles": 144, "markers": 432, "dial parts": 107,
               "induction parts": 20, "comparison marks": 432}

_GROWTH = """
import json, sys
from absynth import gauges, maps, pipeline, puzzles
from absynth.pipeline import RunConfig, generate_dataset

objects = {}
render = pipeline.render_svg

def recording_render(scene):
    for p in scene.primitives:
        objects.setdefault(p.role, {})[id(p)] = p
    return render(scene)

pipeline.render_svg = recording_render
generate_dataset(RunConfig(scenarios=("map", "dashboard", "puzzle"), default_count=600, seed=4))
size = lambda helper: helper.cache_info().currsize
distinct = lambda *roles: sum(len(objects.get(role, ())) for role in roles)
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
}))
"""


def test_each_part_cache_stays_within_its_domain(tmp_path):
    """600 images of each scenario, in a fresh interpreter, so no other test's
    parts are counted. A part made per image instead of once would count one
    object per image and break its bound."""
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR.parent))
    done = subprocess.run([sys.executable, "-c", _GROWTH], env=env, cwd=tmp_path,
                          capture_output=True, text=True, check=True)
    grown = json.loads(done.stdout.splitlines()[-1])
    assert all(0 < grown[name] <= bound for name, bound in PART_BOUNDS.items()), grown
    assert grown["dial parts"] == grown["dial face objects"] == 107, grown
    assert 0 < grown["obstacle cache"] == grown["obstacles"], grown
    assert 0 < grown["marker cache"] == grown["markers"], grown
