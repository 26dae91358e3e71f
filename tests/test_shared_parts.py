"""Shared scene parts: primitives checked and rendered once per process.

Map roads, obstacles and markers, dial faces, and puzzle frames and
comparison marks are `scene.shared` primitives, kept in one registry keyed
by id(). These tests pin that sharing changes no byte, that a bad part is
refused before it is registered, that a scene is still checked around its
shared parts, and that the registry stays within the fixed domains its keys
come from.
"""

import json
import os
import subprocess
import sys

import pytest

from absynth import scene
from absynth.pipeline import scenario_def
from absynth.scene import (
    Canvas, InvalidScene, Primitive, SceneBuilder, SceneGraph, StyleSpec, circle, line, rect,
    render_svg, shared,
)
from tests_helpers import SRC_DIR

FILLED = StyleSpec(fill="blue")
STROKED = StyleSpec(stroke="black")


def unshared(graph: SceneGraph) -> SceneGraph:
    """The same scene made of fresh copies, none of them in the registry."""
    return SceneGraph(graph.canvas, tuple(Primitive(*p) for p in graph.primitives))


# The roles whose every primitive is a fixed part of its scenario's frame,
# and so must reach the built scene as the registered object itself. A puzzle's
# marks are shared only in comparison scenes, and labels, hands, needles and
# columns are made per image, so none of them is listed.
FIXED_ROLES = {
    "map": {"roads", "obstacles", "start_marker", "end_marker", "landmarks"},
    "dashboard": {"face", "ticks", "numbers", "tick_labels", "hub", "tube", "bulb"},
    "puzzle": {"title", "panels", "option_labels", "panel_titles"},
}


@pytest.mark.parametrize("scenario", ["map", "dashboard", "puzzle"])
def test_shared_parts_render_like_fresh_copies(scenario):
    sdef = scenario_def(scenario)
    n_shared = n_prims = 0
    fixed = set()
    for seed in range(300):
        graph = sdef.build(sdef.sample(seed))
        copy = unshared(graph)
        assert not any(id(p) in scene._SHARED for p in copy.primitives)
        assert render_svg(graph) == render_svg(copy), seed
        n_shared += sum(id(p) in scene._SHARED for p in graph.primitives)
        n_prims += len(graph.primitives)
        for prim in graph.primitives:
            if prim.role in FIXED_ROLES[scenario]:
                fixed.add(prim.role)
                assert scene._SHARED[id(prim)][0] is prim, (seed, prim.role)
    # Most of each scene is shared, so the comparison above tests the registry.
    assert n_shared > n_prims / 3
    assert fixed == FIXED_ROLES[scenario]


def test_an_invalid_part_is_refused_and_not_registered():
    before = dict(scene._SHARED)
    with pytest.raises(InvalidScene, match="negative width or height"):
        shared(rect(0, 0, -5, 5, FILLED, "boxes"))
    with pytest.raises(InvalidScene, match="shape needs stroke or fill"):
        shared(circle(10, 10, 5, StyleSpec(), "dots"))
    assert scene._SHARED == before


def test_a_part_is_tagged_checked_and_rendered_once():
    """A part is tagged with its role when it is built; `shared` registers
    that very object, and a scene built from it holds it as it is."""
    part = line(0, 0, 10, 10, STROKED, "roads", z=2)
    assert shared(part) is part
    stored, text = scene._SHARED[id(part)]
    assert stored is part
    assert text == scene._element(part, scene._style_attrs(STROKED, False))
    b = SceneBuilder(Canvas())
    b.add(part)
    [placed] = b.build().primitives
    assert placed is part


def test_an_unshared_fault_is_named_among_shared_parts():
    parts = (shared(rect(0, 0, 10, 10, FILLED, "a")), shared(circle(5, 5, 3, FILLED, "b", z=1)))
    bad = rect(0, 0, 10, -1, FILLED, "c", z=1)
    with pytest.raises(InvalidScene) as err:
        SceneGraph(Canvas(), (*parts, bad))
    assert err.value.problems == [(2, "negative width or height")]


def test_shared_parts_are_still_checked_for_z_order():
    low = shared(rect(0, 0, 10, 10, FILLED, "low"))
    high = shared(rect(0, 0, 10, 10, FILLED, "high", z=3))
    with pytest.raises(InvalidScene) as err:
        SceneGraph(Canvas(), (high, low))
    assert err.value.problems == [(1, "primitives not sorted by z")]


# The registry bound of each scenario, from the fixed sets its keys come from.
# Map: a road per cell and down or right neighbour (12 x 11 x 2 = 264), an
# obstacle per cell (144), and a start, end or landmark marker per cell (432).
# Dashboard: each family's face, its ticks, tick labels, hubs and columns
# (clock 26, speedometer 28, fuel 12, thermometer 18, barometer 23). Puzzle:
# the two comparison titles and frames, a mark per (shape, colour, cell,
# panel) (4 x 6 x 9 x 2 = 432), and the induction parts: one title, the shown
# frames of the 4- and 5-panel rows (3 + 4), a "?" box and mark for each (4),
# and four option frames and letters (8).
REGISTRY_BOUNDS = {"map": 264 + 144 + 432, "dashboard": 107, "puzzle": 436 + 20}

_GROWTH = """
import json, sys
from absynth import scene
from absynth.pipeline import RunConfig, generate_dataset, scenario_def
grown = {}
for name in sys.argv[1:]:
    before = len(scene._SHARED)
    scenario_def(name)
    generate_dataset(RunConfig(scenarios=(name,), default_count=600, seed=4))
    grown[name] = len(scene._SHARED) - before
print(json.dumps(grown))
"""


def test_the_registry_stays_within_its_domains(tmp_path):
    """600 images of each scenario, in a fresh interpreter, so no other test's
    parts are counted."""
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR.parent))
    done = subprocess.run([sys.executable, "-c", _GROWTH, *REGISTRY_BOUNDS], env=env,
                          cwd=tmp_path, capture_output=True, text=True, check=True)
    grown = json.loads(done.stdout.splitlines()[-1])
    assert all(0 < grown[name] <= bound for name, bound in REGISTRY_BOUNDS.items()), grown
