"""Three-level quality filter: render feasibility, geometric aesthetics
screening, and answer-consistency support thresholds.

Feasibility is one build of the scene: a layout that overflows its canvas
is rejected, never raised. (The paper regenerates drawing code that fails to
compile; no spec the samplers can reach overflows, so a rebuild would have
nothing to do.) The aesthetics gate is purely geometric: text/legend
interference area and minimum font size, each reported as a
machine-readable reason. It walks the primitives once,
collecting the text and the too-small text together, and boxes only the text
and legend primitives, in a sweep that skips pairs apart in x or in y before
it computes any area. A GateConfig checks its thresholds when it is
constructed, so the gates take it as valid. The GateReport, written as
gate_report.json, is plain `json.dumps` text, like every JSON file absynth
writes other than the manifest's record lines.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

from .scene import LayoutOverflow, SceneGraph, overlap_pairs

# Completions voted on per LLM-proposed answer; min_vote_support counts
# agreeing votes among them.
LLM_ANSWER_VOTES = 3


@dataclass(frozen=True)
class GateConfig:
    max_overlap_fraction: float = 0.02
    min_font_px: float = 8.0
    min_vote_support: int = 2
    review_fraction: float = 0.10

    def __post_init__(self) -> None:
        for name in ("max_overlap_fraction", "review_fraction"):
            v = getattr(self, name)
            if not (0 < v <= 1):
                raise ValueError(f"{name} must be in (0, 1]")
        # NaN fails both comparisons. An infinite floor, which is what JSON's
        # 1e400 loads as, would reject every image that has text.
        if not (0 <= self.min_font_px < math.inf):
            raise ValueError("min_font_px must be a finite number >= 0")
        if not (1 <= self.min_vote_support <= LLM_ANSWER_VOTES):
            raise ValueError(f"min_vote_support must be in [1, {LLM_ANSWER_VOTES}]")


@dataclass(frozen=True)
class Rejection:
    stage: str
    reason: str


@dataclass(frozen=True)
class FeasibilityResult:
    scene: SceneGraph | None
    rejection: Rejection | None = None
    # One build per image. Kept only while the bench tallies it (ROADMAP
    # item 9(d)); a class attribute, so it is no field of the result.
    attempts = 1

    @property
    def accepted(self) -> bool:
        return self.scene is not None


def feasibility_gate(spec: Any, builder: Callable[[Any], SceneGraph]) -> FeasibilityResult:
    """Build the spec's scene once. A layout overflow is the rejection: a
    value, not an exception."""
    try:
        scene = builder(spec)
    except LayoutOverflow as err:
        return FeasibilityResult(None, Rejection("feasibility", f"layout failed: {err}"))
    return FeasibilityResult(scene)


@dataclass(frozen=True)
class AestheticsResult:
    passed: bool
    reasons: tuple[str, ...] = ()


def _interference_area(scene: SceneGraph, text: list[int], legend: set[int]) -> float:
    """Total pairwise bbox overlap among the `text` primitives and the
    `legend` elements, ignoring pairs inside the legend itself (a swatch
    under its own label is not interference). Summed in sorted pair order."""
    total = 0.0
    for i, j, area in overlap_pairs(scene, [*text, *legend]):
        if not (i in legend and j in legend):
            total += area
    return total


def aesthetics_gate(scene: SceneGraph, config: GateConfig) -> AestheticsResult:
    """Fail on text/legend interference or illegible fonts; reasons
    enumerate every violation found."""
    min_font = config.min_font_px
    text: list[int] = []
    small: list[int] = []
    legend: set[int] = set()
    for i, p in enumerate(scene.primitives):
        if p.kind == "text":
            text.append(i)
            if p.style.font_size < min_font:
                small.append(i)
        if p.role == "legend":
            legend.add(i)
    reasons: list[str] = []
    canvas_area = scene.canvas.width * scene.canvas.height
    overlap = _interference_area(scene, text, legend)
    if overlap > config.max_overlap_fraction * canvas_area:
        reasons.append(
            f"interference: text/legend overlap area {overlap:.1f}px^2 exceeds "
            f"{config.max_overlap_fraction:.0%} of canvas"
        )
    if small:
        reasons.append(f"small-font: primitives {small} below {config.min_font_px}px")
    return AestheticsResult(not reasons, tuple(reasons))


@dataclass
class GateReport:
    """Per-candidate outcome of the full gate pipeline."""

    outcomes: dict[str, Rejection | None] = field(default_factory=dict)

    def record(self, candidate_id: str, outcome: Rejection | None) -> None:
        """Note one candidate's outcome: None if it was accepted."""
        if candidate_id in self.outcomes:
            raise ValueError(f"candidate {candidate_id!r} gated twice")
        self.outcomes[candidate_id] = outcome

    def aggregate(self) -> dict:
        total = len(self.outcomes)
        by_stage = Counter(out.stage for out in self.outcomes.values() if out is not None)
        accepted = total - by_stage.total()
        return {
            "candidates": total,
            "accepted": accepted,
            "rejected": total - accepted,
            "rejected_by_stage": dict(sorted(by_stage.items())),
            "pass_rate": round(accepted / total, 4) if total else 1.0,
        }

    def to_json(self) -> str:
        """The summary and each candidate's outcome, under its id, as
        `json.dumps(body, indent=2, sort_keys=True, ensure_ascii=False)`
        writes them; sort_keys puts the candidate ids in sorted order."""
        outcomes = {cid: ({"accepted": True} if out is None
                          else {"accepted": False, "stage": out.stage, "reason": out.reason})
                    for cid, out in self.outcomes.items()}
        return json.dumps({"outcomes": outcomes, "summary": self.aggregate()},
                          indent=2, sort_keys=True, ensure_ascii=False)
