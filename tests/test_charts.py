"""Chart sampling, scene construction, and question derivation."""

import re
from collections import Counter

import pytest

from absynth.charts import (
    ChartSpec, Series, SeriesPoint, build_chart_scene, chart_questions,
    nice_axis_max, sample_chart, sample_chart_spec, sample_table,
)
from absynth.records import format_number
from absynth.scene import LayoutOverflow, bounding_box, overlap_pairs
from tests_helpers import role_indices


def pie_spec(values=(40, 30, 20, 10), names=("Alpha", "Beta", "Gamma", "Delta")):
    series = (Series("share", tuple(SeriesPoint(c, float(v)) for c, v in zip(names, values))),)
    colors = {n: c for n, c in zip(names, ("blue", "orange", "green", "red"))}
    return ChartSpec("pie", "budget allocation by ministry", "percent", series,
                     ("", ""), "bottom_left", colors)


def table_spec(rows=3, cols=4):
    cats = tuple(f"Q{i + 1}" for i in range(cols))
    series = tuple(
        Series(f"Row {r + 1}", tuple(SeriesPoint(c, float(10 * r + i)) for i, c in enumerate(cats)))
        for r in range(rows)
    )
    return ChartSpec("table", "quarterly company revenue", "currency", series,
                     ("category", "value ($)"), "top_left", {})


# -- sampling ---------------------------------------------------------------

# The two scenarios' samplers, the only ways `gen` draws a chart spec.
SAMPLERS = (sample_chart, sample_table)


def sampled_specs(n):
    """(seed, spec) for seeds 0..n-1 of each scenario's sampler."""
    return [(seed, sample(seed)) for sample in SAMPLERS for seed in range(n)]


def test_pie_has_four_categories_summing_to_100():
    for seed in range(50):
        spec = sample_chart_spec(seed, kind="pie")
        values = [p.value for p in spec.series[0].points]
        assert len(values) == 4
        assert sum(values) == pytest.approx(100.0, abs=0.01)
        assert all(v > 0 for v in values)


def test_same_seed_same_spec():
    for sample in SAMPLERS:
        for seed in (0, 7, 991):
            assert sample(seed) == sample(seed)


def test_chart_scenario_draws_each_non_table_kind_at_least_10_percent():
    counts = Counter(sample_chart(seed).kind for seed in range(1000))
    assert set(counts) == {"line", "bar", "pie", "composite"}
    for kind, n in counts.items():
        assert n >= 100, f"{kind} drawn only {n}/1000 times"


def test_table_scenario_always_gives_a_table():
    assert {sample_table(seed).kind for seed in range(200)} == {"table"}


# A scene holds only the roles its kind draws: a pie has no axis, a table
# no legend but a grid.
VALUE_CHART_ROLES = {"title", "legend", "axis", "data_marks"}
CHART_ROLES = {"pie": {"title", "legend", "data_marks"},
               "table": {"title", "axis", "data_marks", "grid"}}


def test_sampled_specs_build_clean_scenes():
    for seed, spec in sampled_specs(60):
        scene = build_chart_scene(spec)
        roles = {p.role for p in scene.primitives}
        assert roles == CHART_ROLES.get(spec.kind, VALUE_CHART_ROLES), seed
        # No primitive may leave the canvas.
        for p in scene.primitives:
            x0, y0, x1, y1 = bounding_box(p)
            assert x0 >= 0 and y0 >= 0, (seed, spec.kind, p)
            assert x1 <= scene.canvas.width and y1 <= scene.canvas.height, (seed, spec.kind, p)


# -- scenes -----------------------------------------------------------------


def test_pie_wedge_sweeps_proportional():
    scene = build_chart_scene(pie_spec())
    wedges = [p for p in scene.primitives if p.kind == "wedge"]
    sweeps = [w.geometry[4] for w in wedges]
    assert sweeps == [144.0, 108.0, 72.0, 36.0]


def test_pie_sweep_sum_is_360():
    for seed in range(30):
        spec = sample_chart_spec(seed, kind="pie")
        scene = build_chart_scene(spec)
        total = sum(p.geometry[4] for p in scene.primitives if p.kind == "wedge")
        assert abs(total - 360.0) <= 0.05


def test_bar_heights_proportional_to_values():
    spec = sample_chart_spec(3, kind="bar")
    values = [p.value for p in spec.series[0].points]
    scene = build_chart_scene(spec)
    bars = [p for p in scene.primitives if p.role == "data_marks" and p.kind == "rectangle"]
    assert len(bars) == len(values)
    heights = [b.geometry[3] for b in bars]
    # Documented mapping: height = value / nice_axis_max(max) * plot_height.
    vmax = max(values)
    hmax = max(heights)
    for v, h in zip(values, heights):
        assert abs(h - hmax * v / vmax) <= 0.5


def test_bar_height_matches_documented_mapping():
    spec = sample_chart_spec(3, kind="bar")
    values = [p.value for p in spec.series[0].points]
    scene = build_chart_scene(spec)
    bars = [p for p in scene.primitives if p.role == "data_marks" and p.kind == "rectangle"]
    heights = [b.geometry[3] for b in bars]
    axis_max = nice_axis_max(max(values))
    plot_height = heights[0] / (values[0] / axis_max)
    for v, h in zip(values, heights):
        assert h == pytest.approx(v / axis_max * plot_height, abs=1e-6)


def test_table_3x4_has_12_cells_plus_grid():
    scene = build_chart_scene(table_spec(3, 4))
    cells = [p for p in scene.primitives if p.role == "data_marks"]
    assert len(cells) == 12
    assert all(p.kind == "text" for p in cells)
    grid = [p for p in scene.primitives if p.role == "grid"]
    assert all(p.kind == "line" for p in grid)
    assert len(grid) == (3 + 2) + (4 + 2)


def test_oversized_title_overflows():
    spec = ChartSpec("pie", "x" * 120, "percent", pie_spec().series, ("", ""),
                     "bottom_left", pie_spec().palette_assignment)
    with pytest.raises(LayoutOverflow):
        build_chart_scene(spec)


def test_no_text_interference_on_sampled_charts():
    for seed, spec in sampled_specs(40):
        scene = build_chart_scene(spec)
        text_ix = tuple(i for i, p in enumerate(scene.primitives) if p.kind == "text")
        legend = set(role_indices(scene, "legend"))
        area = sum(a for i, j, a in overlap_pairs(scene, legend.union(text_ix))
                   if not (i in legend and j in legend))
        assert area <= 0.02 * scene.canvas.width * scene.canvas.height, seed


# -- questions --------------------------------------------------------------


def quoted(question):
    return re.findall(r"'([^']*)'", question)


def chart_answer_oracle(spec: ChartSpec, draft):
    """Independent recomputation of a draft's answer from the spec alone."""
    target = spec
    if spec.kind == "composite" and draft.question.startswith("In the first sub-chart"):
        target = spec.subcharts[0]
    q = draft.question
    if draft.question_type == "ocr":
        return spec.topic
    if draft.question_type == "perception":
        if "sub-charts" in q:
            return str(len(spec.subcharts))
        if "data rows" in q:
            return str(len(spec.series))
        if "largest share" in q:
            values = [p.value for p in spec.series[0].points]
            return spec.series[0].points[values.index(max(values))].category
        if "legend" in q:
            return spec.legend_position.replace("_", " ")
        return str(len(spec.categories()))
    if draft.question_type == "extraction":
        names = quoted(q)
        series = target.series[0]
        if len(names) == 2:
            series = next(s for s in target.series if s.label == names[1])
        point = next(p for p in series.points if p.category == names[0])
        return format_number(point.value)
    if draft.question_type == "math":
        names = quoted(q)
        series = target.series[0]
        if names:
            series = next(s for s in target.series if s.label == names[0])
        values = [p.value for p in series.points]
        if "largest and smallest" in q or "highest and lowest" in q:
            return format_number(max(values) - min(values))
        if "total" in q:
            return format_number(sum(values))
        return format_number(sum(values) / len(values))
    return None  # caption: no independent recomputation


def test_pie_math_difference_with_rationale():
    drafts = chart_questions(pie_spec())
    math_draft = next(d for d in drafts if d.question_type == "math")
    assert math_draft.answer == "30"
    assert "40" in math_draft.rationale and "10" in math_draft.rationale


def test_ocr_returns_topic_verbatim():
    spec = pie_spec()
    drafts = chart_questions(spec)
    ocr = next(d for d in drafts if d.question_type == "ocr")
    assert ocr.answer == spec.topic


def test_extraction_is_direct_lookup():
    spec = sample_chart_spec(11, kind="bar")
    drafts = chart_questions(spec)
    ext = next(d for d in drafts if d.question_type == "extraction")
    category = quoted(ext.question)[0]
    point = next(p for p in spec.series[0].points if p.category == category)
    assert ext.answer == format_number(point.value)


def test_all_five_question_types_present():
    types = {d.question_type for d in chart_questions(sample_chart(5))}
    assert types == {"ocr", "caption", "perception", "extraction", "math"}


def test_questions_deterministic_per_spec():
    spec = sample_chart(42)
    assert chart_questions(spec) == chart_questions(spec)


def test_oracle_reproduces_all_answers():
    for seed, spec in sampled_specs(200):
        for draft in chart_questions(spec):
            expected = chart_answer_oracle(spec, draft)
            if expected is None:
                assert spec.topic in draft.answer  # caption mentions the title
                continue
            assert draft.answer == expected, (seed, draft.question)
            if draft.question_type == "math":
                assert draft.rationale


def test_math_rationale_cites_operands():
    for seed, spec in sampled_specs(50):
        math_draft = next(d for d in chart_questions(spec) if d.question_type == "math")
        assert math_draft.answer in math_draft.rationale.replace(",", "")


def test_values_respect_unit_ranges():
    from absynth.keywords import UNIT_CLASSES
    for seed, spec in sampled_specs(80):
        targets = spec.subcharts if spec.kind == "composite" else (spec,)
        for target in targets:
            lo, hi, _ = UNIT_CLASSES["percent" if target.kind == "pie" else target.unit]
            for s in target.series:
                for p in s.points:
                    if target.kind == "pie":
                        assert 0 < p.value <= 100
                    else:
                        assert lo <= p.value <= hi, (seed, target.kind, p)
