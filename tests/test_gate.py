"""Feasibility, aesthetics screening, and gate reports."""

import json
from random import Random

import pytest

from absynth.charts import ChartSpec, Series, SeriesPoint, build_chart_scene, sample_chart
from absynth.gate import (
    AestheticsResult, GateConfig, GateReport, Rejection,
    _interference_area, aesthetics_gate, feasibility_gate,
)
from absynth.pipeline import scenario_def
from absynth.records import SCENARIOS
from absynth.scene import (
    Canvas, SceneBuilder, StyleSpec, bbox_intersection_area, bounding_box,
    rect, text,
)
from test_gate_stress import STRESS_SEED, stress_cases
from tests_helpers import role_indices


def pie(title):
    names = ("Alpha", "Beta", "Gamma", "Delta")
    series = (Series("share", tuple(SeriesPoint(c, v) for c, v in
                                    zip(names, (40.0, 30.0, 20.0, 10.0)))),)
    colors = dict(zip(names, ("blue", "orange", "green", "red")))
    return ChartSpec("pie", title, "percent", series, ("", ""), "bottom_left", colors)


def test_wellformed_spec_accepted_first_attempt():
    result = feasibility_gate(sample_chart(1), build_chart_scene)
    assert result.accepted
    assert result.rejection is None


def test_an_overflowing_spec_is_rejected_after_one_build():
    # The title lane holds 57 glyphs at the 18 px title font.
    for glyphs in (58, 60, 120):
        spec = pie("x" * glyphs)
        calls = []

        def counting_builder(s):
            calls.append(s)
            return build_chart_scene(s)

        result = feasibility_gate(spec, counting_builder)
        assert calls == [spec]
        assert not result.accepted
        assert result.rejection == Rejection(
            "feasibility", f"layout failed: title {spec.topic!r} wider than canvas")
    assert feasibility_gate(pie("x" * 57), build_chart_scene).accepted


def scene_with(*prims, canvas=None):
    b = SceneBuilder(canvas or Canvas(640, 480))
    for prim in prims:
        b.add(prim)
    return b.build()


def test_clean_scene_passes_aesthetics():
    scene = build_chart_scene(sample_chart(2))
    result = aesthetics_gate(scene, GateConfig())
    assert result.passed
    assert result.reasons == ()


def test_coincident_titles_fail_with_interference():
    # Two coincident 50-glyph titles overlap by ~9700px^2 > 2% of 640x480.
    style = StyleSpec(font_size=18)
    content = "duplicated title " * 3
    scene = scene_with(
        text(320, 10, content, style, "title", anchor="middle"),
        text(320, 12, content, style, "title", anchor="middle"),
    )
    result = aesthetics_gate(scene, GateConfig())
    assert not result.passed
    assert any(r.startswith("interference") for r in result.reasons)


def test_small_font_fails():
    scene = scene_with(text(10, 10, "tiny", StyleSpec(font_size=6), "title"))
    result = aesthetics_gate(scene, GateConfig())
    assert not result.passed
    assert any(r.startswith("small-font") for r in result.reasons)


def test_legend_internal_overlap_not_interference():
    swatch = rect(10, 10, 10, 10, StyleSpec(fill="blue"), "legend")
    label = text(12, 11, "series", StyleSpec(font_size=10), "legend")
    scene = scene_with(swatch, label)
    assert aesthetics_gate(scene, GateConfig()).passed


def test_gate_idempotent_on_accepted_scene():
    spec = sample_chart(5)
    config = GateConfig()
    first = feasibility_gate(spec, build_chart_scene)
    second = feasibility_gate(spec, build_chart_scene)
    assert first == second
    scene = first.scene
    assert aesthetics_gate(scene, config) == aesthetics_gate(scene, config)


def test_report_counts_and_uniqueness():
    report = GateReport()
    report.record("a", None)
    report.record("b", Rejection("feasibility", "too wide"))
    report.record("c", Rejection("aesthetics", "interference: overlap"))
    report.record("d", None)
    summary = report.aggregate()
    assert summary["candidates"] == 4
    assert summary["accepted"] == 2
    assert summary["rejected_by_stage"] == {"aesthetics": 1, "feasibility": 1}
    assert summary["pass_rate"] == 0.5
    with pytest.raises(ValueError):
        report.record("a", None)
    parsed = json.loads(report.to_json())
    assert parsed["outcomes"]["b"]["stage"] == "feasibility"


# Text that each escape rule of json.dumps acts on, and text it leaves be.
AWKWARD_TEXT = ['say "hi"', "back\\slash", "tab\there", "new\nline", "bell\x07 nul\x00",
                "del\x7f", "naïve café, 温度 ±5°", "emoji \U0001f600", "line\u2028sep", "",
                " "]


def random_report(rng: Random) -> GateReport:
    report = GateReport()
    for image in range(rng.randint(1, 40)):
        scenario = rng.choice(["chart", "map", "puzzle", rng.choice(AWKWARD_TEXT)])
        image_id = f"{scenario}-{image:05d}"
        outcome = rng.choice([None, None, Rejection("feasibility", rng.choice(AWKWARD_TEXT)),
                              Rejection("aesthetics", "; ".join(rng.sample(AWKWARD_TEXT, 2)))])
        report.record(image_id, outcome)
        if outcome is None:
            for q in rng.sample(range(6), rng.randint(0, 2)):
                expected, got = rng.choice(AWKWARD_TEXT), rng.choice(AWKWARD_TEXT)
                reason = f"expected [{expected!r}], got [{got!r}]"
                report.record(f"{image_id}-q{q:02d}", Rejection("accuracy", reason))
    return report


def test_report_json_round_trips():
    """The report's JSON gives back every candidate's outcome and the
    summary: for the empty report, and for seeded mixes of accepted, rejected
    and accuracy-dropped entries whose ids and reasons need escaping."""
    assert json.loads(GateReport().to_json()) == {"outcomes": {},
                                                  "summary": GateReport().aggregate()}
    stages = set()
    for seed in range(300):
        report = random_report(Random(seed))
        parsed = json.loads(report.to_json())
        assert parsed["summary"] == report.aggregate(), seed
        assert list(parsed["outcomes"]) == sorted(report.outcomes), seed
        for cid, out in report.outcomes.items():
            entry = parsed["outcomes"][cid]
            assert entry["accepted"] is (out is None), (seed, cid)
            if out is not None:
                assert (entry["stage"], entry["reason"]) == (out.stage, out.reason), (seed, cid)
        stages |= set(report.aggregate()["rejected_by_stage"])
    assert stages == {"feasibility", "aesthetics", "accuracy"}


def test_config_validation():
    with pytest.raises(ValueError):
        GateConfig(max_overlap_fraction=0.0)



def reference_interference(scene):
    """Every pair of text/legend primitives in sorted order, zero-area and
    legend-internal pairs included, summed left to right."""
    legend = set(role_indices(scene, "legend"))
    chosen = sorted({i for i, p in enumerate(scene.primitives) if p.kind == "text"} | legend)
    total = 0.0
    for pos, i in enumerate(chosen):
        for j in chosen[pos + 1:]:
            if not (i in legend and j in legend):
                total += bbox_intersection_area(bounding_box(scene.primitives[i]),
                                                bounding_box(scene.primitives[j]))
    return total


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_interference_area_is_bit_identical_to_full_pair_sum(scenario):
    sdef = scenario_def(scenario)
    for seed in range(6):
        result = feasibility_gate(sdef.sample(seed), sdef.build)
        if result.accepted:
            scene = result.scene
            text = [i for i, p in enumerate(scene.primitives) if p.kind == "text"]
            legend = set(role_indices(scene, "legend"))
            assert _interference_area(scene, text, legend) == reference_interference(scene)


def two_scan_gate(scene, config):
    """The aesthetics gate before it made one scan: one walk for the text
    set, another for the small fonts, every text/legend pair compared. Kept
    as the reference."""
    reasons = []
    canvas_area = scene.canvas.width * scene.canvas.height
    overlap = reference_interference(scene)
    if overlap > config.max_overlap_fraction * canvas_area:
        reasons.append(
            f"interference: text/legend overlap area {overlap:.1f}px^2 exceeds "
            f"{config.max_overlap_fraction:.0%} of canvas"
        )
    small = sorted(
        i for i, p in enumerate(scene.primitives)
        if p.kind == "text" and (p.style.font_size or 0) < config.min_font_px
    )
    if small:
        reasons.append(f"small-font: primitives {small} below {config.min_font_px}px")
    return AestheticsResult(not reasons, tuple(reasons))


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_one_scan_gate_matches_the_two_scan_gate_on_every_scenario(scenario):
    sdef, config = scenario_def(scenario), GateConfig()
    for seed in range(20):
        scene = sdef.build(sdef.sample(seed))
        assert aesthetics_gate(scene, config) == two_scan_gate(scene, config), seed


def test_one_scan_gate_matches_the_two_scan_gate_on_the_stress_specs():
    reasons = set()
    for _, spec, builder, config in stress_cases(STRESS_SEED):
        scene = feasibility_gate(spec, builder).scene
        if scene is None:
            continue
        result = aesthetics_gate(scene, config)
        assert result == two_scan_gate(scene, config)
        reasons.add(tuple(r.split(":")[0] for r in result.reasons))
    assert reasons == {(), ("interference",), ("small-font",), ("interference", "small-font")}


def test_one_scan_gate_matches_the_two_scan_gate_on_crowded_scenes():
    """Texts and legend swatches dropped on a small patch, so that most
    pairs overlap, some only in x or only in y, and some touch at an edge."""
    rng = Random(17)
    config = GateConfig(max_overlap_fraction=0.002)
    reasons = set()
    for _ in range(300):
        b = SceneBuilder(Canvas(640, 480))
        for _ in range(rng.randint(0, 12)):
            x, y = rng.randint(0, 60), rng.randint(0, 60)
            role = rng.choice(("data_marks", "data_marks", "legend"))
            if rng.random() < 0.7:
                style = StyleSpec(font_size=rng.choice((6, 7.5, 8, 10, 14)))
                b.add(text(x, y, "w" * rng.randint(1, 9), style, role,
                           anchor=rng.choice(("start", "middle", "end"))))
            else:
                b.add(rect(x, y, rng.randint(0, 20), rng.randint(0, 20),
                           StyleSpec(fill="blue"), role))
        scene = b.build()
        result = aesthetics_gate(scene, config)
        assert result == two_scan_gate(scene, config)
        reasons.add(tuple(r.split(":")[0] for r in result.reasons))
    assert reasons == {(), ("interference",), ("small-font",), ("interference", "small-font")}
