"""End-to-end dataset generation: sample, gate, question, verify, serialize.

One image per (scenario, index) slot; the record seed is derived from the
master seed, so a run reproduces byte-for-byte. The slots run on one thread,
in one pass, in the order their outputs are written, scenarios by name and
then index, so the order the scenarios are named in changes no byte either.

SCENARIO_SOURCES is the only scenario table. It names, for each scenario, the
generator module and the functions in it; `scenario_def` imports that module
the first time the scenario runs and keeps the resolved row in SCENARIO_DEFS,
so `gen --scenario map` never loads the chart code. Every
procedural record must re-verify against its spec before it is written. The
oracle runs once per image: it reruns the same questions function on the
same spec, and every record of the image is matched against those drafts. A
mismatch drops the record through the accuracy gate. Both calls seed their
question RNG with `stable_digest(spec.to_dict())`, which
`seeds.question_seed` computes once per spec and keeps on it, so the rerun
catches only an impure questions function, one whose drafts differ from call
to call; a wrong answer that the function gives twice passes. ROADMAP item 3
replaces this oracle with one that reads the scene.

A RunConfig checks itself when it is constructed, as its GateConfig and
BackendConfig do, so a bad value fails before any image is made, even
under `gen --dry-run`.

With a backend configured, each accepted image also gains one LLM-proposed
question whose answer passes self-consistency voting: at least
min_vote_support of gate.LLM_ANSWER_VOTES completions agree (the only
records that bypass oracle verification, marked by the "llm-bridge"
provenance). Those are the bridge's only two stages:
`bridge.propose_qa` on the image's topic, then `bridge.self_consistent_answer`
on the first proposed question. A backend that stays unavailable, or whose
reply breaks the output contract twice, costs the image that one record and
nothing else.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from importlib import import_module
from typing import Any, Callable

from . import bridge
from .gate import (
    LLM_ANSWER_VOTES, GateConfig, GateReport, Rejection, aesthetics_gate, feasibility_gate,
)
from .records import (
    InstructionRecord, Manifest, Provenance, QuestionDraft, SCENARIOS, dump_manifest,
    sample_for_review, verify_record,
)
from .scene import SceneGraph, render_svg
from .seeds import derive_seed


@dataclass(frozen=True)
class ScenarioDef:
    sample: Callable[[int], Any]
    build: Callable[[Any], SceneGraph]
    questions: Callable[[Any], list[QuestionDraft]]
    generator: str


# Where each scenario's functions live: (module, sample, build, questions,
# generator name).
SCENARIO_SOURCES: dict[str, tuple[str, str, str, str, str]] = {
    "chart": ("charts", "sample_chart", "build_chart_scene", "chart_questions", "chart-gen"),
    "table": ("charts", "sample_table", "build_chart_scene", "chart_questions", "chart-gen"),
    "map": ("maps", "generate_map", "build_map_scene", "map_questions", "map-gen"),
    "dashboard": ("gauges", "sample_dial_spec", "build_dial_scene", "dial_questions",
                  "gauge-gen"),
    "flowchart": ("diagrams", "sample_flow_spec", "layout_hierarchy", "diagram_questions",
                  "diagram-gen"),
    "relation_graph": ("diagrams", "sample_graph", "layout_hierarchy", "diagram_questions",
                       "diagram-gen"),
    "puzzle": ("puzzles", "sample_puzzle", "build_puzzle_scene", "puzzle_questions",
               "puzzle-gen"),
    "layout": ("puzzles", "sample_floorplan", "build_floorplan_scene", "layout_questions",
               "floorplan-gen"),
}

# The rows resolved so far, filled by scenario_def.
SCENARIO_DEFS: dict[str, ScenarioDef] = {}


def scenario_def(scenario: str) -> ScenarioDef:
    """The scenario's row, importing its generator module the first time.

    Later calls read SCENARIO_DEFS alone."""
    try:
        return SCENARIO_DEFS[scenario]
    except KeyError:
        module, sample, build, questions, generator = SCENARIO_SOURCES[scenario]
        mod = import_module(f"{__package__}.{module}")
        sdef = ScenarioDef(getattr(mod, sample), getattr(mod, build), getattr(mod, questions),
                           generator)
        SCENARIO_DEFS[scenario] = sdef
        return sdef


@dataclass(frozen=True)
class RunConfig:
    scenarios: tuple[str, ...] = SCENARIOS
    counts: dict[str, int] = field(default_factory=dict)
    default_count: int = 10
    seed: int = 0
    out_dir: str = "out"
    gate: GateConfig = field(default_factory=GateConfig)
    questions_per_image: int = 5
    train_fraction: float = 0.0
    backend: bridge.BackendConfig | None = None

    def count_for(self, scenario: str) -> int:
        return int(self.counts.get(scenario, self.default_count))

    def __post_init__(self) -> None:
        for pos, scenario in enumerate(self.scenarios):
            if scenario not in SCENARIO_SOURCES:
                raise ValueError(f"unknown scenario {scenario!r}")
            if scenario in self.scenarios[:pos]:
                raise ValueError(f"scenario {scenario!r} given twice")
            if self.count_for(scenario) < 0:
                raise ValueError(f"negative count for {scenario!r}")
        for scenario in self.counts:
            if scenario not in SCENARIO_SOURCES:
                raise ValueError(f"unknown scenario {scenario!r} in counts")
        if not (0 <= self.seed < 2**64):
            raise ValueError(f"seed {self.seed} outside [0, 2**64)")
        if self.questions_per_image < 1:
            raise ValueError("questions_per_image must be >= 1")
        if not (0.0 <= self.train_fraction <= 1.0):
            raise ValueError("train_fraction must be in [0, 1]")


def image_id_for(scenario: str, index: int) -> str:
    """The image's gate-report key, and the stem of its file and record ids."""
    return f"{scenario}-{index:05d}"


@dataclass
class ImageResult:
    image_id: str
    image_ref: str
    rejection: Rejection | None = None
    svg: bytes | None = None
    records: list[InstructionRecord] = field(default_factory=list)
    dropped_records: list[tuple[str, Rejection]] = field(default_factory=list)


def _assign_split(config: RunConfig, image_id: str) -> str:
    """One split per image, so no picture has records on both sides."""
    if config.train_fraction <= 0.0:
        return "test"
    bucket = derive_seed(config.seed, "split", image_id) % 10_000
    return "train" if bucket < config.train_fraction * 10_000 else "test"


def _llm_extra_record(
    config: RunConfig, scenario: str, result: ImageResult, split: str, spec: Any, seed: int
) -> InstructionRecord | None:
    """One backend-proposed question gated by self-consistency support."""
    assert config.backend is not None
    topic = getattr(spec, "topic", None) or getattr(spec, "root_label", None) or scenario
    try:
        pairs = bridge.propose_qa(str(topic), config.backend, request_id=seed % 1_000_000)
        question = pairs[0]["question"]
        answer, support = bridge.self_consistent_answer(
            question, {"topic": str(topic)}, n=LLM_ANSWER_VOTES, config=config.backend)
    except (bridge.BackendUnavailable, bridge.ContractViolation):
        return None
    if support < config.gate.min_vote_support:
        return None
    return InstructionRecord(
        id=f"{result.image_id}-qllm", scenario=scenario, image_ref=result.image_ref,
        question=question, answer=answer, answer_kind="phrase", question_type="llm_qa",
        split=split, provenance=Provenance("llm-bridge", seed),
    )


def generate_image(config: RunConfig, scenario: str, index: int) -> ImageResult:
    sdef = scenario_def(scenario)
    image_id = image_id_for(scenario, index)
    seed = derive_seed(config.seed, scenario, index)
    result = ImageResult(image_id, f"images/{scenario}/{image_id}.svg")
    spec = sdef.sample(seed)
    feasibility = feasibility_gate(spec, sdef.build)
    if not feasibility.accepted:
        result.rejection = feasibility.rejection
        return result
    aesthetics = aesthetics_gate(feasibility.scene, config.gate)
    if not aesthetics.passed:
        result.rejection = Rejection("aesthetics", "; ".join(aesthetics.reasons))
        return result
    result.svg = render_svg(feasibility.scene)
    drafts = sdef.questions(spec)[: config.questions_per_image]
    # The same call again: it catches only a questions function that is not pure.
    oracle = sdef.questions(spec)
    difficulty = getattr(spec, "difficulty", None)
    split = _assign_split(config, image_id)
    for j, draft in enumerate(drafts):
        record = InstructionRecord(
            id=f"{image_id}-q{j:02d}", scenario=scenario, image_ref=result.image_ref,
            question=draft.question, answer=draft.answer,
            answer_kind=draft.answer_kind, question_type=draft.question_type,
            alternates=draft.alternates, rationale=draft.rationale,
            difficulty=difficulty, split=split,
            provenance=Provenance(sdef.generator, seed),
        )
        verdict = verify_record(record, oracle)
        if verdict.ok:
            result.records.append(record)
        else:
            result.dropped_records.append((record.id, Rejection("accuracy", verdict.details)))
    if config.backend is not None and result.records:
        extra = _llm_extra_record(config, scenario, result, split, spec, seed)
        if extra is not None:
            result.records.append(extra)
    return result


def generate_dataset(config: RunConfig) -> tuple[Manifest, GateReport, dict[str, bytes]]:
    """Run every (scenario, index) slot through the full pipeline.

    Returns the manifest, the gate report, and the image files keyed by
    their manifest-relative path, all three built in one pass over the
    slots in slot order, scenarios by name and then index, with no sort.
    Output does not depend on the order of config.scenarios. The manifest
    is validated once, when write_outputs dumps it.
    """
    manifest = Manifest()
    report = GateReport()
    images: dict[str, bytes] = {}
    for scenario in sorted(config.scenarios):
        for index in range(config.count_for(scenario)):
            result = generate_image(config, scenario, index)
            report.record(result.image_id, result.rejection)
            if result.rejection is not None:
                continue
            for record_id, rejection in result.dropped_records:
                report.record(record_id, rejection)
            images[result.image_ref] = result.svg
            manifest.records.extend(result.records)
    return manifest, report, images


def write_outputs(
    config: RunConfig, manifest: Manifest, report: GateReport, images: dict[str, bytes]
) -> dict[str, str]:
    """Write manifest.jsonl, gate_report.json, the stratified human-review
    sample (config.gate.review_fraction, seeded by config.seed), and every
    SVG under config.out_dir."""
    out_dir = config.out_dir
    review_fraction = config.gate.review_fraction
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    manifest_path = os.path.join(out_dir, "manifest.jsonl")
    with open(manifest_path, "wb") as fh:
        fh.write(dump_manifest(manifest))
    paths["manifest"] = manifest_path
    report_path = os.path.join(out_dir, "gate_report.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json() + "\n")
    paths["gate_report"] = report_path
    review_path = os.path.join(out_dir, "review_sample.json")
    review_ids = sample_for_review(manifest, review_fraction, config.seed)
    with open(review_path, "w", encoding="utf-8") as fh:
        json.dump({"fraction": review_fraction, "record_ids": review_ids}, fh, indent=2)
        fh.write("\n")
    paths["review_sample"] = review_path
    for rel_dir in {os.path.dirname(rel) for rel in images}:
        os.makedirs(os.path.join(out_dir, rel_dir), exist_ok=True)
    for rel, data in images.items():
        with open(os.path.join(out_dir, rel), "wb") as fh:
            fh.write(data)
    return paths
