"""Golden digest: the bytes a fixed run writes, pinned.

A change that alters any output byte (manifest, SVG or gate report) for a
fixed seed and count must update GOLDEN_DIGEST on purpose and say why.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from typing import ClassVar

import pytest

from absynth import charts, pipeline, scene, seeds
from absynth.gauges import FAMILIES
from absynth.maps import RoadMapSpec
from absynth.pipeline import (
    RunConfig, SCENARIO_DEFS, SCENARIO_SOURCES, generate_dataset, generate_image, scenario_def,
    write_outputs,
)
from absynth.puzzles import PatternRule
from absynth.records import SCENARIOS, record_to_json
from absynth.seeds import derive_seed, plain, question_seed, stable_digest
from tests_helpers import SRC_DIR

GOLDEN_DIGEST = "a717a88ebf7e8792aa3449a8df9ca64cc2f87dda65daf3004f71f7cadcce5cd4"
# The same recipe at 12 images per scenario: the smallest count at seed 1 whose
# slots reach every generator family and shape the test below lists.
EVERY_FAMILY_DIGEST = "474f38e28e6ecb384f817d3b96ad4844d28121ffca51a7ac279fe22a4bbf9a4b"


def digest_tree(out) -> str:
    """sha256 over manifest.jsonl, every SVG in sorted path order, and
    gate_report.json."""
    h = hashlib.sha256()
    svgs = sorted(p.relative_to(out).as_posix() for p in out.glob("images/*/*.svg"))
    for rel in ["manifest.jsonl", *svgs, "gate_report.json"]:
        h.update(rel.encode() + b"\0" + (out / rel).read_bytes() + b"\0")
    return h.hexdigest()


def run_digest(out, count: int) -> str:
    config = RunConfig(default_count=count, seed=1, out_dir=str(out))
    manifest, report, images = generate_dataset(config)
    write_outputs(config, manifest, report, images)
    assert len(images) == count * len(SCENARIOS)
    return digest_tree(out)


def test_golden_digest(tmp_path):
    assert run_digest(tmp_path, 2) == GOLDEN_DIGEST


@pytest.mark.parametrize("hash_seed", ["0", "12345"])
def test_golden_digest_in_a_fresh_process(tmp_path, hash_seed):
    """The CLI writes the pinned bytes in a new interpreter, whatever its
    str-hash salt: no output may depend on hash() or id() order."""
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR.parent), PYTHONHASHSEED=hash_seed)
    subprocess.run([sys.executable, "-m", "absynth.cli", "gen", "--all", "--count", "2",
                    "--seed", "1", "--out", str(tmp_path)],
                   env=env, cwd=tmp_path, capture_output=True, check=True)
    assert digest_tree(tmp_path) == GOLDEN_DIGEST


def test_golden_digest_every_family(tmp_path):
    specs = {scenario: [scenario_def(scenario).sample(derive_seed(1, scenario, index))
                        for index in range(12)]
             for scenario in SCENARIOS}
    assert {s.kind for s in specs["chart"]} == set(charts.NON_TABLE_CHART_KINDS)
    assert {s.family for s in specs["dashboard"]} == set(FAMILIES)
    assert {isinstance(s, PatternRule) for s in specs["puzzle"]} == {True, False}
    assert {s.style for s in specs["layout"]} == {"architectural", "webpage"}
    assert ({(s.kind, sum(n.shape == "decision" for n in s.nodes)) for s in specs["flowchart"]}
            == {(kind, n) for kind in ("algorithm", "workflow") for n in (0, 1, 2)})
    assert {bool(s.extra_edges) for s in specs["relation_graph"]} == {True, False}
    assert run_digest(tmp_path, 12) == EVERY_FAMILY_DIGEST


def test_scenario_table_matches_scenarios():
    assert tuple(SCENARIO_SOURCES) == SCENARIOS


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_each_image_validated_once(scenario, monkeypatch):
    calls = []
    original = scene.validate_scene

    def counting(graph):
        calls.append(graph)
        return original(graph)

    monkeypatch.setattr(scene, "validate_scene", counting)
    config = RunConfig(scenarios=(scenario,), default_count=3, seed=1)
    _, report, images = generate_dataset(config)
    assert report.aggregate()["accepted"] == len(images) == 3
    assert len(calls) == len(images)


# The scenarios whose questions functions seed their RNG from the spec digest.
QUESTION_SEEDED = ("chart", "table", "flowchart", "relation_graph", "layout")


def count_digests(monkeypatch) -> list:
    """Every object seeds.stable_digest is asked to digest from now on."""
    calls = []

    def counting(obj):
        calls.append(obj)
        return stable_digest(obj)

    monkeypatch.setattr(seeds, "stable_digest", counting)
    return calls


@pytest.mark.parametrize("scenario", QUESTION_SEEDED)
def test_question_seed_is_the_spec_digest_computed_once(scenario, monkeypatch):
    sample = scenario_def(scenario).sample
    calls = count_digests(monkeypatch)
    for seed in range(50):
        spec = sample(seed)
        first = question_seed(spec)
        assert first == stable_digest(spec.to_dict()), seed
        assert question_seed(spec) == first
        assert len(calls) == seed + 1
        # Kept off the fields: equality, repr and copies see the spec alone.
        fresh = sample(seed)
        assert spec == fresh and repr(spec) == repr(fresh)
        assert "_question_seed" not in vars(dataclasses.replace(spec))


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_each_image_encodes_its_spec_at_most_once(scenario, monkeypatch):
    """The drafting call and the oracle call share one spec digest; the
    scenarios whose questions need no digest never compute one."""
    calls = count_digests(monkeypatch)
    config = RunConfig(scenarios=(scenario,), default_count=3, seed=1)
    for index in range(3):
        calls.clear()
        assert generate_image(config, scenario, index).rejection is None
        assert len(calls) == (1 if scenario in QUESTION_SEEDED else 0)


def asdict_encoding(spec) -> dict:
    """The spec encoding before the asdict-free `to_dict`, kept as the
    reference: dataclasses.asdict, plus the road map's three overrides."""
    data = dataclasses.asdict(spec)
    if isinstance(spec, RoadMapSpec):
        data["network"] = sorted(spec.network)
        data["obstacles"] = sorted(spec.obstacles)
        data["landmark_names"] = {str(k): v for k, v in sorted(spec.landmark_names.items())}
    return data


@dataclasses.dataclass(frozen=True)
class Leaf:
    x: float
    tag: str | None = None


@dataclasses.dataclass
class Tree:
    kind: ClassVar[str] = "tree"  # not a field: left out by both encodings
    leaves: tuple = ()
    by_name: dict = dataclasses.field(default_factory=dict)
    nested: list = dataclasses.field(default_factory=list)


def test_plain_encodes_like_asdict():
    tree = Tree((Leaf(1.5), Leaf(-2, "b")), {"a": Leaf(0.0, "a"), "n": None},
                [[Leaf(3)], (), [Tree()]])
    assert (json.dumps(plain(tree), sort_keys=True)
            == json.dumps(dataclasses.asdict(tree), sort_keys=True))
    assert "kind" not in plain(tree)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_spec_encoding_matches_asdict(scenario):
    sample = scenario_def(scenario).sample
    for seed in range(50):
        spec = sample(seed)
        assert stable_digest(spec.to_dict()) == stable_digest(asdict_encoding(spec)), seed


def test_record_json_matches_asdict():
    manifest, _, _ = generate_dataset(RunConfig(default_count=2, seed=1))
    assert manifest.records
    for record in manifest.records:
        data = dataclasses.asdict(record)
        data["alternates"] = list(record.alternates)
        assert record_to_json(record) == json.dumps(data, ensure_ascii=False, sort_keys=True)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_oracle_runs_once_per_image_apart_from_drafts(scenario, monkeypatch):
    returned = []  # every list the scenario's questions function handed out, in call order
    sdef = scenario_def(scenario)

    def counting(spec):
        drafts = sdef.questions(spec)
        returned.append(drafts)
        return drafts

    monkeypatch.setitem(SCENARIO_DEFS, scenario, dataclasses.replace(sdef, questions=counting))
    oracles = []
    real_verify = pipeline.verify_record

    def recording(record, oracle):
        oracles.append(oracle)
        return real_verify(record, oracle)

    monkeypatch.setattr(pipeline, "verify_record", recording)
    config = RunConfig(scenarios=(scenario,), default_count=3, seed=1)
    manifest, report, images = generate_dataset(config)
    assert report.aggregate()["accepted"] == len(images) == 3
    assert len(returned) == 2 * len(images)
    assert len(oracles) == len(manifest.records)
    drafting, oracle_lists = returned[0::2], returned[1::2]
    for oracle in oracles:
        assert any(oracle is o for o in oracle_lists)
        assert not any(oracle is d for d in drafting)
