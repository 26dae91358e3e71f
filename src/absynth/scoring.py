"""Metric suite and aggregate scoring for prediction files.

Routing is by answer kind: numeric answers use the 5% relative-error rule in
chart/table/dashboard scenarios and exact matching elsewhere. The relative
rule, |p - g| <= 5% of |g| with an inclusive boundary, is the only one: for
a zero gold it leaves no room, so a zero gold needs a zero prediction.
Phrase and choice answers match as token-boundary substrings of the
canonical response (a response equal to a gold form is one): a gold form
matches where the characters on each side of it are not ASCII [a-z0-9].
Sentence answers score token-level Rouge-L (F1, beta=1). Landmark sequences
score the Landmark Coverage Rate, the LCS between the extracted and
annotated sequences divided by the annotated length, with names found by
the same boundary rule. Numeric extraction always takes the LAST number in
a response, because chain-of-thought answers end with the result.
"Compared sequentially" is read as the LCS, the more generous
order-preserving reading.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, fields
from decimal import Decimal
from operator import attrgetter
from typing import Iterable

from .records import (
    JSON_TYPE_NAMES, InstructionRecord, Manifest, SchemaMismatch, canonicalize, json_lines,
    parse_number,
)

TOLERANT_SCENARIOS = frozenset({"chart", "table", "dashboard"})
NUMERIC_TOLERANCE = 0.05


def load_predictions(data: bytes | str) -> dict[str, str]:
    """Parse a prediction file: one JSON object per line with a string
    ``id`` and a ``response``, a string or a JSON number, which scores as
    its decimal text: an integer's str, and a float's repr, with an exponent
    written out in positional form with the same digits (1e16 as
    10000000000000000, 1.5e-07 as 0.00000015), since parse_number would read
    "1e+16" as 16. Later duplicates win. `records.json_lines` reads the
    lines, so a bad one raises SchemaMismatch("prediction line N: ...") in a
    manifest line's words, as does a missing or wrongly typed id or response."""
    out: dict[str, str] = {}
    for number, row in json_lines(data, "prediction"):
        try:
            record_id = row["id"]
            response = row["response"]
        except KeyError as err:
            raise SchemaMismatch(f"prediction line {number}: missing field {err}") from None
        if type(record_id) is not str:
            raise SchemaMismatch(f"prediction line {number}: id must be a string, "
                                 f"not {JSON_TYPE_NAMES[type(record_id)]}")
        if type(response) is not str:
            if type(response) not in (int, float):
                raise SchemaMismatch(f"prediction line {number}: response must be a string "
                                     f"or a number, not {JSON_TYPE_NAMES[type(response)]}")
            response = str(response)
            if "e" in response:  # a float's repr in exponent form, as 1e+65
                response = f"{Decimal(response):f}"
        out[record_id] = response
    return out


# ---------------------------------------------------------------------------
# Primitive metrics


_TOKEN_RE = re.compile(r"[a-z0-9]+")
_WORD_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789")


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def _boundary_find(haystack: str, needle: str) -> int:
    """Start of the first occurrence of needle in haystack whose neighbouring
    characters are not ASCII [a-z0-9] (or are the string's ends), else -1.

    Same result as searching for (?<![a-z0-9]) + re.escape(needle) +
    (?![a-z0-9]), without building a pattern per needle."""
    size = len(haystack)
    i = haystack.find(needle)
    while i >= 0:
        end = i + len(needle)
        if ((i == 0 or haystack[i - 1] not in _WORD_CHARS)
                and (end == size or haystack[end] not in _WORD_CHARS)):
            return i
        i = haystack.find(needle, i + 1)
    return -1


def lcs_length(a: list, b: list) -> int:
    """Length of the longest common subsequence of two sequences of
    hashable tokens.

    Hyyrö's bit-parallel LCS, which is exact: bit j of the state v stands
    for b[j], and after each token of a the count of zero bits in v is the
    LCS of b and the prefix of a read so far. One add, one subtract and two
    masks on a Python int update every bit at once, so the cost is len(a)
    big-int steps over len(b) bits instead of a len(a) x len(b) table. An
    empty side leaves nothing to count: no bits, or no step that clears one."""
    masks: dict = {}
    for j, y in enumerate(b):
        masks[y] = masks.get(y, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    for x in a:
        u = v & masks.get(x, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def score_numeric(
    pred: str, gold: str, alternates: tuple[str, ...] = (), tolerant: bool = False
) -> str:
    """'correct', 'incorrect', or 'unparsable' (no number in the response)."""
    p = parse_number(pred)
    if p is None:
        return "unparsable"
    for form in (gold, *alternates):
        g = parse_number(form)
        if g is None:
            continue
        if tolerant:
            if abs(p - g) <= NUMERIC_TOLERANCE * abs(g):
                return "correct"
        elif p == g:
            return "correct"
    return "incorrect"


def score_phrase(pred: str, gold: str, alternates: tuple[str, ...] = ()) -> bool:
    """Correct iff any non-empty canonical gold form appears in the canonical
    prediction as a token-boundary substring. A prediction equal to the gold
    form is one: it starts at 0 and ends at the prediction's end."""
    canon_pred = canonicalize(pred)
    for form in (gold, *alternates):
        canon_gold = canonicalize(form)
        if canon_gold and _boundary_find(canon_pred, canon_gold) >= 0:
            return True
    return False


def score_sentence(pred: str, gold: str) -> float:
    """Token-level Rouge-L F-score with beta = 1; 0.0 when no token is
    shared, which includes an empty side."""
    pred_tokens = tokenize(pred)
    gold_tokens = tokenize(gold)
    lcs = lcs_length(pred_tokens, gold_tokens)
    if lcs == 0:
        return 0.0
    precision = lcs / len(pred_tokens)
    recall = lcs / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def extract_landmarks(pred_raw: str, vocabulary: Iterable[str]) -> list[str]:
    """Gold-vocabulary names found in the response, ordered by first
    occurrence (each name counted once)."""
    lowered = pred_raw.lower()
    hits: list[tuple[int, str]] = []
    for name in vocabulary:
        start = _boundary_find(lowered, name.lower())
        if start >= 0:
            hits.append((start, name))
    hits.sort()
    return [name for _, name in hits]


def score_landmarks(pred_raw: str, gold_sequence: list[str] | tuple[str, ...]) -> float:
    """Landmark Coverage Rate in [0, 1]: the LCS of the names found in the
    response and the gold sequence, over the gold length."""
    gold = list(gold_sequence)
    if not gold:
        raise ValueError("gold landmark sequence must be non-empty")
    return lcs_length(extract_landmarks(pred_raw, gold), gold) / len(gold)


# ---------------------------------------------------------------------------
# Aggregation


@dataclass
class ScenarioScore:
    gold: int = 0
    scored: int = 0
    missing: int = 0
    unparsable: int = 0
    accuracy_points: float = 0.0  # sum of per-record scores in [0, 1]
    accuracy_n: int = 0  # non-sentence records
    rouge_sum: float = 0.0
    rouge_n: int = 0
    lcr_sum: float = 0.0
    lcr_n: int = 0

    @property
    def accuracy(self) -> float | None:
        if self.accuracy_n == 0:
            return None
        return 100.0 * self.accuracy_points / self.accuracy_n

    @property
    def rouge_mean(self) -> float | None:
        return self.rouge_sum / self.rouge_n if self.rouge_n else None

    @property
    def lcr_mean_pct(self) -> float | None:
        return 100.0 * self.lcr_sum / self.lcr_n if self.lcr_n else None

    @property
    def counts(self) -> dict[str, int]:
        return {"gold": self.gold, "scored": self.scored, "missing": self.missing,
                "unparsable": self.unparsable}


@dataclass
class ScoreReport:
    per_scenario: dict[str, ScenarioScore] = field(default_factory=dict)
    per_question_type: dict[str, tuple[float, int]] = field(default_factory=dict)

    @property
    def total(self) -> ScenarioScore:
        """The per-scenario rows added field by field, in scenario order."""
        row_values = attrgetter(*(f.name for f in fields(ScenarioScore)))
        return ScenarioScore(*map(sum, zip(*map(row_values, self.per_scenario.values()))))

    def to_json(self) -> str:
        total = self.total
        body = {
            "counts": total.counts,
            "overall_accuracy": _round(total.accuracy),
            "sentence_rouge_mean": _round(total.rouge_mean, 4),
            "map_lcr_mean_pct": _round(total.lcr_mean_pct),
            "per_scenario": {
                name: {
                    **s.counts,
                    "accuracy": _round(s.accuracy),
                    "rouge_mean": _round(s.rouge_mean, 4),
                    "lcr_mean_pct": _round(s.lcr_mean_pct),
                }
                for name, s in sorted(self.per_scenario.items())
            },
            "per_question_type": {
                qt: {"accuracy": _round(100.0 * pts / n), "records": n}
                for qt, (pts, n) in sorted(self.per_question_type.items())
            },
        }
        return json.dumps(body, indent=2, sort_keys=True, ensure_ascii=False)


def _round(v: float | None, digits: int = 2) -> float | None:
    return None if v is None else round(v, digits)


def score_record(record: InstructionRecord, raw: str) -> tuple[float, str]:
    """(score in [0,1], status) for one prediction against one record."""
    if record.answer_kind == "numeric":
        verdict = score_numeric(raw, record.answer, record.alternates,
                                tolerant=record.scenario in TOLERANT_SCENARIOS)
        if verdict == "unparsable":
            return 0.0, "unparsable"
        return (1.0 if verdict == "correct" else 0.0), "scored"
    if record.answer_kind in ("phrase", "choice"):
        return (1.0 if score_phrase(raw, record.answer, record.alternates) else 0.0), "scored"
    if record.answer_kind == "sentence":
        return score_sentence(raw, record.answer), "scored"
    if record.answer_kind == "landmark_sequence":
        gold_seq = [n.strip() for n in record.answer.split(",")]
        return score_landmarks(raw, gold_seq), "scored"
    raise ValueError(f"unknown answer kind {record.answer_kind!r}")


def aggregate(manifest: Manifest, predictions: dict[str, str]) -> ScoreReport:
    """Score a prediction map against every record of the gold manifest.

    Missing and unparsable predictions score zero and are tallied
    separately; scored + missing + unparsable = gold record count.
    """
    report = ScoreReport()
    per_scenario = report.per_scenario
    for record in manifest.records:
        s = per_scenario.get(record.scenario)
        if s is None:  # setdefault would build a throwaway row for every record
            s = per_scenario[record.scenario] = ScenarioScore()
        s.gold += 1
        raw = predictions.get(record.id)
        if raw is None:
            s.missing += 1
            score, status = 0.0, "missing"
        else:
            score, status = score_record(record, raw)
            if status == "unparsable":
                s.unparsable += 1
            else:
                s.scored += 1
        if record.answer_kind == "sentence":
            s.rouge_sum += score
            s.rouge_n += 1
        else:
            s.accuracy_points += score
            s.accuracy_n += 1
            pts, n = report.per_question_type.get(record.question_type, (0.0, 0))
            report.per_question_type[record.question_type] = (pts + score, n + 1)
        if record.answer_kind == "landmark_sequence":
            s.lcr_sum += score
            s.lcr_n += 1
    return report


def render_report_text(report: ScoreReport) -> str:
    lines = [
        f"{'scenario':<16}{'gold':>6}{'scored':>8}{'miss':>6}{'unpar':>7}"
        f"{'acc%':>8}{'rouge':>8}{'lcr%':>7}",
        "-" * 66,
    ]
    for name, s in sorted(report.per_scenario.items()):
        acc = f"{s.accuracy:.1f}" if s.accuracy is not None else "-"
        rouge = f"{s.rouge_mean:.3f}" if s.rouge_mean is not None else "-"
        lcr = f"{s.lcr_mean_pct:.1f}" if s.lcr_mean_pct is not None else "-"
        lines.append(f"{name:<16}{s.gold:>6}{s.scored:>8}{s.missing:>6}"
                     f"{s.unparsable:>7}{acc:>8}{rouge:>8}{lcr:>7}")
    lines.append("-" * 66)
    total = report.total
    overall = f"{total.accuracy:.1f}" if total.accuracy is not None else "-"
    lines.append(f"overall accuracy {overall}%  gold {total.gold}  scored {total.scored}  "
                 f"missing {total.missing}  unparsable {total.unparsable}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Dataset statistics


def dataset_stats(manifest: Manifest) -> dict:
    """Recounted statistics: per scenario (images + records), question type,
    difficulty, and split."""
    per_scenario = manifest.stats()
    by_type: dict[str, int] = {}
    by_difficulty: dict[str, int] = {}
    by_split: dict[str, int] = {}
    for r in manifest.records:
        by_type[r.question_type] = by_type.get(r.question_type, 0) + 1
        if r.difficulty is not None:
            key = f"level_{r.difficulty}"
            by_difficulty[key] = by_difficulty.get(key, 0) + 1
        by_split[r.split] = by_split.get(r.split, 0) + 1
    return {
        "records": len(manifest.records),
        "images": sum(v["images"] for v in per_scenario.values()),
        "per_scenario": {k: dict(v) for k, v in sorted(per_scenario.items())},
        "per_question_type": dict(sorted(by_type.items())),
        "per_difficulty": dict(sorted(by_difficulty.items())),
        "per_split": dict(sorted(by_split.items())),
    }
