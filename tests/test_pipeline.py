"""Generation pipeline: determinism, verification, scenario-order invariance, backend."""

import pytest

from absynth import pipeline
from absynth.bridge import BackendConfig
from absynth.gate import LLM_ANSWER_VOTES, GateConfig
from absynth.pipeline import (
    RunConfig, generate_dataset, generate_image, scenario_def, write_outputs,
)
from absynth.records import SCENARIOS, dump_manifest, verify_record


def small_config(**kw):
    defaults = dict(default_count=3, seed=5, out_dir="unused")
    defaults.update(kw)
    return RunConfig(**defaults)


def test_covers_all_scenarios():
    manifest, report, images = generate_dataset(small_config())
    assert set(manifest.stats()) == set(SCENARIOS)
    assert len(images) == 24
    assert report.aggregate()["accepted"] == 24


def test_deterministic_across_runs():
    a = generate_dataset(small_config())
    b = generate_dataset(small_config())
    assert dump_manifest(a[0]) == dump_manifest(b[0])
    assert a[2] == b[2]
    assert a[1].to_json() == b[1].to_json()


def test_scenario_order_does_not_change_output():
    """Slots run scenarios by name, so the order the scenarios are named in
    changes no byte, no report entry and no image key's place."""
    a = generate_dataset(small_config(scenarios=("table", "map", "chart")))
    b = generate_dataset(small_config(scenarios=("chart", "map", "table")))
    assert dump_manifest(a[0]) == dump_manifest(b[0])
    assert a[1].to_json() == b[1].to_json()
    assert list(a[2].items()) == list(b[2].items())


def test_seed_changes_output():
    a = generate_dataset(small_config(seed=5))
    b = generate_dataset(small_config(seed=6))
    assert dump_manifest(a[0]) != dump_manifest(b[0])


def test_every_record_reverifies_from_provenance():
    manifest, _, _ = generate_dataset(small_config())
    for record in manifest.records:
        sdef = scenario_def(record.scenario)
        spec = sdef.sample(record.provenance.seed)
        assert verify_record(record, sdef.questions(spec)), record.id


def test_image_refs_point_at_written_images():
    manifest, _, images = generate_dataset(small_config())
    for record in manifest.records:
        assert record.image_ref in images


def test_questions_per_image_knob():
    config = small_config(questions_per_image=2)
    manifest, _, _ = generate_dataset(config)
    per_image: dict[str, int] = {}
    for r in manifest.records:
        per_image[r.image_ref] = per_image.get(r.image_ref, 0) + 1
    assert max(per_image.values()) <= 2


def test_train_fraction_split():
    config = small_config(default_count=6, train_fraction=0.5)
    manifest, _, _ = generate_dataset(config)
    splits = {r.split for r in manifest.records}
    assert splits == {"train", "test"}
    split_of: dict[str, set[str]] = {}
    for r in manifest.records:
        split_of.setdefault(r.image_ref, set()).add(r.split)
    assert [ref for ref, sides in split_of.items() if len(sides) > 1] == []
    again, _, _ = generate_dataset(small_config(default_count=6, train_fraction=0.5))
    assert [r.split for r in again.records] == [r.split for r in manifest.records]


def test_offline_backend_adds_voted_records():
    config = small_config(scenarios=("chart",), backend=BackendConfig())
    manifest, _, _ = generate_dataset(config)
    llm_records = [r for r in manifest.records if r.provenance.generator == "llm-bridge"]
    assert llm_records
    for r in llm_records:
        assert r.question_type == "llm_qa"
        assert r.id.endswith("-qllm")
    # Offline completions are unanimous, so voting support always clears the gate.
    assert len(llm_records) == 3


def test_the_highest_vote_support_keeps_unanimous_llm_records():
    """The pipeline casts LLM_ANSWER_VOTES votes, so a gate that asks for all
    of them still keeps every unanimous answer."""
    gate = GateConfig(min_vote_support=LLM_ANSWER_VOTES)
    config = small_config(scenarios=("chart",), backend=BackendConfig(), gate=gate)
    manifest, _, _ = generate_dataset(config)
    assert sum(r.question_type == "llm_qa" for r in manifest.records) == 3


def test_backend_runs_stay_deterministic():
    config = small_config(scenarios=("chart",), backend=BackendConfig())
    a, _, _ = generate_dataset(config)
    b, _, _ = generate_dataset(small_config(scenarios=("chart",), backend=BackendConfig()))
    assert dump_manifest(a) == dump_manifest(b)


def test_write_outputs_layout(tmp_path):
    config = small_config(default_count=1, out_dir=str(tmp_path))
    manifest, report, images = generate_dataset(config)
    paths = write_outputs(config, manifest, report, images)
    assert (tmp_path / "manifest.jsonl").exists()
    assert (tmp_path / "gate_report.json").exists()
    for rel in images:
        assert (tmp_path / rel).exists()
    assert paths["manifest"].endswith("manifest.jsonl")


def test_generate_image_slot_is_self_contained():
    config = small_config()
    result = generate_image(config, "map", 2)
    assert result.image_id == "map-00002"
    assert result.svg is not None
    assert result.records
    assert result.records[0].difficulty in range(1, 6)


def test_a_scenario_imports_its_module_once(monkeypatch):
    """The first image of a scenario resolves its row; every later image
    reads the resolved row and makes no import call."""
    config = small_config()
    first = generate_image(config, "chart", 0)
    monkeypatch.setattr(pipeline, "import_module", lambda name: pytest.fail(name))
    assert generate_image(config, "chart", 0) == first
    assert scenario_def("chart") is pipeline.SCENARIO_DEFS["chart"]


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(scenarios=("nope",))
    with pytest.raises(ValueError):
        RunConfig(counts={"chart": -1})
