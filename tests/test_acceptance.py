"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import time
from collections import Counter
from functools import lru_cache

import pytest

from absynth.charts import ChartSpec, Series, SeriesPoint, build_chart_scene
from absynth.diagrams import sample_tree_spec, tree_layers, tree_nodes
from absynth.gate import GateConfig, aesthetics_gate, feasibility_gate
from absynth.gauges import build_dial_scene, decode_clock_scene, dial_questions, sample_dial_spec
from absynth.keywords import ORGANIZATION_TOPICS
from absynth.maps import generate_map
from absynth.pipeline import RunConfig, generate_dataset, scenario_def, write_outputs
from absynth.records import canonicalize, verify_record
from absynth.scene import Canvas, SceneBuilder, StyleSpec, text
from absynth.scoring import (
    aggregate, dataset_stats, lcs_length, score_landmarks, score_numeric,
)

from test_diagrams import forensics_tree
from test_scoring import FIXTURE_PREDICTIONS, fixture_manifest, lcs_oracle


def ok(n, message):
    print(f"ACCEPTANCE PASS criterion {n}: {message}")


@lru_cache(maxsize=1)
def full_run():
    config = RunConfig(default_count=50, seed=1, out_dir="unused")
    start = time.monotonic()
    manifest, report, images = generate_dataset(config)
    elapsed = time.monotonic() - start
    return manifest, report, images, elapsed


def test_criterion_1_end_to_end_oracle_soundness():
    manifest, report, images, elapsed = full_run()
    accepted = len(manifest.records)
    assert accepted >= 350, f"only {accepted} records"
    assert set(manifest.stats()) == {
        "chart", "table", "map", "dashboard", "flowchart", "relation_graph",
        "puzzle", "layout",
    }
    verified = 0
    for record in manifest.records:
        sdef = scenario_def(record.scenario)
        oracle = sdef.questions(sdef.sample(record.provenance.seed))
        assert verify_record(record, oracle).ok, record.id
        verified += 1
    assert elapsed < 120.0, f"generation took {elapsed:.1f}s"
    ok(1, f"{accepted} records across 8 scenarios, verify_record ok for all "
          f"{verified}, generated in {elapsed:.1f}s single-threaded")


def test_criterion_2_clock_fidelity():
    seed = next(
        s for s in range(60_000)
        if (spec := sample_dial_spec(s, family="clock")).reading == (8, 10)
        and spec.offset == 8.0 and spec.exercise_hours == 1.5
    )
    spec = sample_dial_spec(seed, family="clock")
    drafts = {d.question_type: d for d in dial_questions(spec)}

    def forms(draft):
        return {canonicalize(draft.answer)} | {canonicalize(a) for a in draft.alternates}

    assert forms(drafts["reading"]) >= {"8:10"}
    assert forms(drafts["offset_math"]) == {"4:10", "16:10"}
    assert forms(drafts["inverse_reasoning"]) == {"6", "7"}
    scene = build_dial_scene(spec)
    assert decode_clock_scene(scene) == (8, 10)
    ok(2, f"seed {seed} forces the 8:10 clock; answers 8:10 / {{4:10,16:10}} / "
          f"{{6,7}} reproduced and hand angles decode back to 8:10")


def test_criterion_3_metric_oracles():
    import random
    rng = random.Random(20_24)
    alphabet = list("abcdefgh")
    for _ in range(1000):
        a = [rng.choice(alphabet) for _ in range(rng.randint(0, 12))]
        b = [rng.choice(alphabet) for _ in range(rng.randint(0, 12))]
        assert lcs_length(a, b) == lcs_oracle(a, b)
    pred = "Start at Oak, continue to Elm and finish at Maple."
    assert score_landmarks(pred, ["Oak", "Pine", "Elm", "Maple"]) == 0.75
    ok(3, "LCS matches the brute-force oracle on 1000 random cases; "
          "[Oak,Elm,Maple] vs [Oak,Pine,Elm,Maple] scores LCR 0.75")


def test_criterion_4_numeric_boundary():
    assert score_numeric("105", "100", tolerant=True) == "correct"
    assert score_numeric("105.01", "100", tolerant=True) == "incorrect"
    assert score_numeric("95", "100", tolerant=True) == "correct"
    ok(4, "5% rule inclusive at the boundary: 105 correct, 105.01 incorrect")


def test_criterion_5_map_difficulty_distribution():
    levels = Counter()
    for seed in range(1000):
        spec = generate_map(seed)
        levels[spec.difficulty] += 1
        cells = spec.gold.cells
        assert len(set(cells)) == len(cells), "gold path revisits a cell"
        for a, b in zip(cells, cells[1:]):
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1, "gold path disconnected"
            assert a in spec.network and b in spec.network
    assert set(levels) == {1, 2, 3, 4, 5}, dict(levels)
    share = sum(v for k, v in levels.items() if k >= 3) / 1000
    assert share >= 0.5, f"levels 3-5 cover only {share:.1%}"
    ok(5, f"1000 maps: levels {dict(sorted(levels.items()))}, "
          f"levels 3-5 at {share:.1%}, all gold paths connected and self-avoiding")


def test_criterion_6_gate_bounds():
    names = ("Alpha", "Beta", "Gamma", "Delta")
    series = (Series("share", tuple(SeriesPoint(c, v) for c, v in
                                    zip(names, (40.0, 30.0, 20.0, 10.0)))),)
    colors = dict(zip(names, ("blue", "orange", "green", "red")))
    hopeless = ChartSpec("pie", "x" * 120, "percent", series, ("", ""),
                         "bottom_left", colors)
    result = feasibility_gate(hopeless, build_chart_scene)
    assert not result.accepted
    assert result.rejection.stage == "feasibility"

    b = SceneBuilder(Canvas(640, 480))
    content = "forced overlapping title " * 2
    b.add(text(320, 10, content, StyleSpec(font_size=18), anchor="middle"), "title")
    b.add(text(320, 12, content, StyleSpec(font_size=18), anchor="middle"), "title")
    verdict = aesthetics_gate(b.build(), GateConfig())
    assert not verdict.passed
    assert any(r.startswith("interference") for r in verdict.reasons)

    fine = scenario_def("chart").sample(77)
    first = feasibility_gate(fine, build_chart_scene)
    second = feasibility_gate(fine, build_chart_scene)
    assert first == second and first.accepted
    assert aesthetics_gate(first.scene, GateConfig()) == aesthetics_gate(
        second.scene, GateConfig())
    ok(6, "hopeless spec rejected by its one build; forced overlap fails "
          "with 'interference'; re-gating accepted output changes nothing")


def test_criterion_7_tree_constraints():
    for seed in range(500):
        topic = ORGANIZATION_TOPICS[seed % len(ORGANIZATION_TOPICS)]
        spec = sample_tree_spec(seed, topic)
        nodes = tree_nodes(spec.root)
        assert len(nodes) <= 8, f"seed {seed}: {len(nodes)} nodes"
        for layer in tree_layers(spec.root):
            assert len(layer) <= 3, f"seed {seed}: layer width {len(layer)}"
    from absynth.diagrams import diagram_questions
    dept = next(d for d in diagram_questions(forensics_tree())
                if "How many departments" in d.question)
    assert dept.answer == "2"
    ok(7, "500 sampled trees satisfy <=8 nodes and <=3 per layer; the "
          "organization fixture answers '2' departments")


def test_criterion_8_full_determinism(tmp_path):
    config_a = RunConfig(default_count=4, seed=13, out_dir=str(tmp_path / "a"))
    config_b = RunConfig(default_count=4, seed=13, out_dir=str(tmp_path / "b"))
    ma, ra, ia = generate_dataset(config_a)
    mb, rb, ib = generate_dataset(config_b)
    write_outputs(config_a, ma, ra, ia)
    write_outputs(config_b, mb, rb, ib)
    files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*")
                     if p.is_file())
    files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*")
                     if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel
    ok(8, f"two identically-seeded runs produced byte-identical trees "
          f"({len(files_a)} files: manifest, images, gate report)")


def test_criterion_9_eval_fixture():
    report = aggregate(fixture_manifest(), FIXTURE_PREDICTIONS)
    assert report.total.counts == {"gold": 12, "scored": 10, "missing": 1, "unparsable": 1}
    expected_accuracy = {
        "chart": 50.0, "map": 50.0, "dashboard": 100.0, "flowchart": 50.0,
        "puzzle": 100.0, "layout": 100.0, "relation_graph": 0.0, "table": 100.0,
    }
    for scenario, accuracy in expected_accuracy.items():
        assert report.per_scenario[scenario].accuracy == pytest.approx(accuracy), scenario
    assert report.per_scenario["chart"].rouge_mean == pytest.approx(2 / 3)
    assert report.total.lcr_mean_pct == pytest.approx(50.0)
    assert report.total.accuracy == pytest.approx(100.0 * 7 / 11)
    ok(9, "12-record fixture scores exactly the hand-computed report "
          "(routing by answer kind verified)")


def test_criterion_10_statistics_shape():
    counts = {"chart": 15, "table": 6, "map": 30}  # 149:58:300 scaled by ~1/10
    config = RunConfig(scenarios=("chart", "table", "map"), counts=counts, seed=2,
                       out_dir="unused")
    manifest, report, _ = generate_dataset(config)
    stats = dataset_stats(manifest)
    for scenario, expected in counts.items():
        assert stats["per_scenario"][scenario]["images"] == expected
    assert report.aggregate()["rejected"] == 0
    assert set(stats["per_difficulty"])  # map difficulty histogram present
    ok(10, f"stats reports image counts {counts} equal to the configured "
           f"proportions with zero gate rejections")
