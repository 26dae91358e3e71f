"""Golden digest: the bytes a fixed run writes, pinned.

A change that alters any output byte (manifest, SVG or gate report) for a
fixed seed and count must update GOLDEN_DIGEST on purpose and say why.
"""

import hashlib

import pytest

from absynth import scene
from absynth.pipeline import RunConfig, SCENARIO_DEFS, generate_dataset, write_outputs
from absynth.records import SCENARIOS

GOLDEN_DIGEST = "a717a88ebf7e8792aa3449a8df9ca64cc2f87dda65daf3004f71f7cadcce5cd4"


def digest_tree(out) -> str:
    """sha256 over manifest.jsonl, every SVG in sorted path order, and
    gate_report.json."""
    h = hashlib.sha256()
    svgs = sorted(p.relative_to(out).as_posix() for p in out.glob("images/*/*.svg"))
    for rel in ["manifest.jsonl", *svgs, "gate_report.json"]:
        h.update(rel.encode() + b"\0" + (out / rel).read_bytes() + b"\0")
    return h.hexdigest()


def test_golden_digest(tmp_path):
    config = RunConfig(default_count=2, seed=1, jobs=1, out_dir=str(tmp_path))
    manifest, report, images = generate_dataset(config)
    write_outputs(str(tmp_path), manifest, report, images,
                  review_fraction=config.gate.review_fraction, seed=config.seed)
    assert len(images) == 2 * len(SCENARIOS)
    assert digest_tree(tmp_path) == GOLDEN_DIGEST


def test_scenario_table_matches_scenarios():
    assert tuple(SCENARIO_DEFS) == SCENARIOS


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
