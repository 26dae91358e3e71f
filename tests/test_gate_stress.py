"""A seeded stress sampler for the quality gate, and the containment
property that lets the aesthetics gate skip an out-of-canvas check.

Default specs never reach most gate outcomes: at seed 9, 300 images per
scenario, no layout overflowed and no aesthetics reason fired. The sampler
builds specs by hand (long titles, over-long room names, dense maps under a
tighter interference or font bound) so that every outcome the gate can give
happens, and pins how often each happens. Feasibility is one build, so a
spec that overflows is rejected there.
"""

import dataclasses
from collections import Counter
from random import Random

from absynth.charts import ChartSpec, Series, SeriesPoint, build_chart_scene, sample_chart
from absynth.gate import GateConfig, aesthetics_gate, feasibility_gate
from absynth.maps import STREET_NAMES, build_map_scene, generate_map
from absynth.pipeline import scenario_def
from absynth.puzzles import FloorPlanSpec, build_floorplan_scene, sample_floorplan
from absynth.records import SCENARIOS
from absynth.scene import LayoutOverflow, bounding_box, text_width

# Font scales that size the over-long room names: a name has from one glyph
# fewer than fit at the first scale to two more than fit at the last.
ROOM_NAME_SCALES = (1.0, 0.85, 0.85 ** 2)
CASES_PER_KIND = 40
STRESS_SEED = 16


def letters(rng, n):
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(n))


def pie(title):
    names = ("Alpha", "Beta", "Gamma", "Delta")
    series = (Series("share", tuple(SeriesPoint(c, v) for c, v in
                                    zip(names, (40.0, 30.0, 20.0, 10.0)))),)
    colors = dict(zip(names, ("blue", "orange", "green", "red")))
    return ChartSpec("pie", title, "percent", series, ("", ""), "bottom_left", colors)


def renamed(plan, index, name):
    """`plan` with room `index` called `name`, its doors included."""
    old = plan.rooms[index].name
    rooms = tuple(dataclasses.replace(room, name=name) if i == index else room
                  for i, room in enumerate(plan.rooms))
    doors = tuple(tuple(name if n == old else n for n in door) for door in plan.doors)
    return FloorPlanSpec(plan.style, rooms, doors)


def dense_map(seed):
    """The map of `seed` with a label on every road cell. A network has at
    most 57 cells, fewer than there are street names."""
    spec = generate_map(seed)
    return dataclasses.replace(spec, landmark_names=dict(zip(sorted(spec.network), STREET_NAMES)))


def stress_cases(seed, n=CASES_PER_KIND):
    """(kind, spec, builder, gate config) for `n` hand-built specs of each kind:
    - pie title: 50-95 glyphs against a title lane that holds 57 at 18 px;
    - composite title: 50-70 glyphs on a composite chart that the `chart`
      scenario draws, whose sub-chart fonts sit at exactly 8 px;
    - room name: one room renamed to about as many glyphs as its width holds
      at one of ROOM_NAME_SCALES;
    - dense map: a sampled map with every road cell named, not only its
      junctions and ends, gated at 0.1% interference instead of 2%;
    - small-font map: a dense map gated as above and at a 10 px font bound,
      above its 9 px labels."""
    rng = Random(seed)
    composites = [s for s in map(sample_chart, range(200)) if s.kind == "composite"]
    cases = []
    for _ in range(n):
        cases.append(("pie title", pie(letters(rng, rng.randint(50, 95))),
                      build_chart_scene, GateConfig()))
    for _ in range(n):
        spec = dataclasses.replace(rng.choice(composites), topic=letters(rng, rng.randint(50, 70)))
        cases.append(("composite title", spec, build_chart_scene, GateConfig()))
    for _ in range(n):
        plan = sample_floorplan(rng.randrange(2**32))
        index = rng.randrange(len(plan.rooms))
        room_w = plan.rooms[index].bounds[2] - 8
        fits = [int(room_w / text_width("x", 11.0 * scale)) for scale in ROOM_NAME_SCALES]
        name = letters(rng, rng.randint(fits[0] - 1, fits[-1] + 2))
        cases.append(("room name", renamed(plan, index, name), build_floorplan_scene,
                      GateConfig()))
    for _ in range(n):
        cases.append(("dense map", dense_map(rng.randrange(2**32)), build_map_scene,
                      GateConfig(max_overlap_fraction=0.001)))
    for _ in range(n):
        cases.append(("small-font map", dense_map(rng.randrange(2**32)),
                      build_map_scene, GateConfig(max_overlap_fraction=0.001, min_font_px=10.0)))
    return cases


def gate_outcome(spec, builder, config):
    """"accept", "feasibility", or the aesthetics reasons."""
    result = feasibility_gate(spec, builder)
    if not result.accepted:
        return "feasibility"
    verdict = aesthetics_gate(result.scene, config)
    return "+".join(sorted(r.split(":")[0] for r in verdict.reasons)) or "accept"


STRESS_OUTCOMES = {
    ("pie title", "accept"): 8,
    ("pie title", "feasibility"): 32,
    ("composite title", "accept"): 14,
    ("composite title", "feasibility"): 26,
    ("room name", "accept"): 7,
    ("room name", "feasibility"): 33,
    ("dense map", "accept"): 6,
    ("dense map", "interference"): 34,
    ("small-font map", "small-font"): 6,
    ("small-font map", "interference+small-font"): 34,
}


def test_stress_sampler_drives_every_gate_outcome():
    counts = Counter((kind, gate_outcome(spec, builder, config))
                     for kind, spec, builder, config in stress_cases(STRESS_SEED))
    assert dict(counts) == STRESS_OUTCOMES
    outcomes = {outcome for _, outcome in counts}
    # Accepted, rejected for a layout overflow, and rejected for each
    # aesthetics reason alone and both together: each at least once.
    assert {"accept", "feasibility", "interference", "small-font",
            "interference+small-font"} <= outcomes


def test_builders_keep_every_box_on_the_canvas():
    """Every box of every scene a builder makes lies on its canvas, within
    0.5 px. The builders rule it out by construction: width checks raise
    LayoutOverflow and margins are fixed. So the aesthetics gate has no
    containment check. A default spec that overflows fails this test, since
    feasibility would reject its image."""
    def off_canvas(scene):
        right, bottom = scene.canvas.width + 0.5, scene.canvas.height + 0.5
        return [p for p in scene.primitives
                for x0, y0, x1, y1 in [bounding_box(p)]
                if x0 < -0.5 or y0 < -0.5 or x1 > right or y1 > bottom]

    built = Counter()
    for name in sorted(SCENARIOS):
        sdef = scenario_def(name)
        for seed in range(150):
            scene = sdef.build(sdef.sample(seed))
            assert not off_canvas(scene), (name, seed)
            built[name] += 1
    for kind, spec, builder, _ in stress_cases(STRESS_SEED):
        try:
            scene = builder(spec)
        except LayoutOverflow:
            continue
        assert not off_canvas(scene), kind
        built[kind] += 1
    assert all(built[name] == 150 for name in SCENARIOS)
    assert {"pie title", "composite title", "room name", "dense map",
            "small-font map"} <= set(built)
