"""Instruction records, the dataset manifest, and answer verification.

One InstructionRecord is one dataset row: a question about one image, its
canonical answer, acceptable alternates, and an optional rationale. Records
are serialized one-per-line as JSON (see MANIFEST_SCHEMA_VERSION and the
field list in the README). record_to_json is the one record line writer: a
single f-string in sorted key order over the C string escaper, giving the
bytes of json.dumps(sort_keys=True, ensure_ascii=False) for every record that
validate_record accepts. It checks nothing itself, so it is right only for
validated records.

json_lines is the one reader of input lines, for manifest and prediction
files alike: it decodes, splits, numbers and parses them, and it and its
callers refuse a bad line with one SchemaMismatch("<file> line N: ...").
Its parse_json_line runs the C scanner, and json.loads only for what the
scanner does not take whole, so it accepts, returns and rejects exactly what
json.loads does. JSON_TYPE_NAMES words a JSON type in every such error.
load_manifest reads a record line in record_to_json's own form, with no
string that needs an escape, by one fixed-schema pattern, the writer's
inverse, and record_from_match builds its record from the groups; every
other line, the header too, goes through parse_json_line and
record_from_json. Either way validate_record checks the record, so a line
gives the same record or the same error whichever path reads it.

InstructionRecord and QuestionDraft are plain slotted dataclasses: mutable,
unhashable and without a per-instance __dict__, so building one stores each
field directly instead of through a frozen __init__'s object.__setattr__.
Building a record checks nothing; dump_manifest runs validate_record on every
record before it writes it, and load_manifest on each record as it reads its
line. validate_record tests each rule once and names every problem it finds.
Provenance is slotted too but stays frozen and hashable, because its default
is one instance shared by every record that leaves provenance out.

verify_record matches one record against an oracle: every draft that the
scenario's questions function returns for the spec that produced the image.
The caller makes that list, so this module knows nothing of the scenario
table; the pipeline takes it from a second call, apart from the one that
drafted the records. A record whose raw answer fields equal its draft's
passes without being canonicalized.

write_files is the one writer of the files `gen`, `eval`, `stats` and
`gallery` write: it takes bytes, so "\n" ends lines on every platform.
"""

from __future__ import annotations

import json
import math
import os
import re
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import cache, partial
from random import Random
from typing import Callable, Iterator

from .seeds import derive_seed

MANIFEST_SCHEMA_VERSION = "1"

SCENARIOS = (
    "chart",
    "table",
    "map",
    "dashboard",
    "flowchart",
    "relation_graph",
    "puzzle",
    "layout",
)

ANSWER_KINDS = ("numeric", "phrase", "sentence", "landmark_sequence", "choice")

# Question types whose records must carry a step-by-step rationale.
RATIONALE_REQUIRED_TYPES = frozenset({"math", "offset_math", "inverse_reasoning"})


class SchemaMismatch(ValueError):
    pass


@dataclass(slots=True)
class QuestionDraft:
    """A question/answer unit produced by a scenario generator, before it is
    bound to an image and an id."""

    question: str
    answer: str
    answer_kind: str
    question_type: str
    alternates: tuple[str, ...] = ()
    rationale: str | None = None


@dataclass(frozen=True, slots=True)
class Provenance:
    generator: str
    seed: int


@dataclass(slots=True)
class InstructionRecord:
    id: str
    scenario: str
    image_ref: str
    question: str
    answer: str
    answer_kind: str
    question_type: str
    alternates: tuple[str, ...] = ()
    rationale: str | None = None
    difficulty: int | None = None
    split: str = "test"
    provenance: Provenance = Provenance("unknown", 0)


_SCENARIO_SET = frozenset(SCENARIOS)
_ANSWER_KIND_SET = frozenset(ANSWER_KINDS)
_SPLIT_SET = frozenset({"train", "test"})


def validate_record(record: InstructionRecord) -> list[str]:
    """All invariant violations for a record (empty list = valid), in a
    fixed order.

    Type checks come first: a manifest line can hold any JSON value, and the
    rules after them parse and compare these fields. A question_type, answer
    or difficulty of the wrong type is set to None once it is named, so no
    later rule reads it. A vocabulary field is looked up in its frozenset
    only once it is a str, since a JSON array or object would not hash.
    """
    problems: list[str] = []
    r, p = record, record.provenance
    qtype, answer, rationale = r.question_type, r.answer, r.rationale
    alternates, difficulty = r.alternates, r.difficulty
    if type(r.id) is not str:
        problems.append(f"id must be a string, not {type(r.id).__name__}")
    if type(r.image_ref) is not str:
        problems.append(f"image_ref must be a string, not {type(r.image_ref).__name__}")
    if type(qtype) is not str:
        problems.append(f"question_type must be a string, not {type(qtype).__name__}")
        qtype = None
    if not isinstance(answer, str):
        problems.append(f"answer must be a string, not {type(answer).__name__}")
        answer = None
    if not isinstance(r.question, str):
        problems.append(f"question must be a string, not {type(r.question).__name__}")
    if rationale is not None and not isinstance(rationale, str):
        problems.append(f"rationale must be a string, not {type(rationale).__name__}")
    if not isinstance(alternates, (tuple, list)):
        problems.append(f"alternates must be a list, not {type(alternates).__name__}")
    else:
        for a in alternates:
            if not isinstance(a, str):
                problems.append("alternates must all be strings")
                break
    if difficulty is not None and type(difficulty) is not int:  # JSON true/false load as bool
        problems.append(f"difficulty must be an integer, not {type(difficulty).__name__}")
        difficulty = None
    if type(p) is not Provenance:
        problems.append(f"provenance must be a Provenance, not {type(p).__name__}")
    else:
        if type(p.generator) is not str:
            problems.append(f"provenance generator must be a string, "
                            f"not {type(p.generator).__name__}")
        if type(p.seed) is not int:  # True is a bool, and writes as true
            problems.append(f"provenance seed must be an integer, not {type(p.seed).__name__}")
    scenario, kind, split = r.scenario, r.answer_kind, r.split
    if not (isinstance(scenario, str) and scenario in _SCENARIO_SET):
        problems.append(f"unknown scenario {scenario!r}")
    if not (isinstance(kind, str) and kind in _ANSWER_KIND_SET):
        problems.append(f"unknown answer_kind {kind!r}")
    if answer is not None:
        if kind == "numeric":
            value = parse_number(answer)
            if value is None or not math.isfinite(value):
                problems.append(f"numeric answer {answer!r} does not parse")
        elif kind == "landmark_sequence":
            names = [n.strip() for n in answer.split(",")]
            if len(names) != len(set(names)) or not all(names):
                problems.append("landmark sequence must be unique non-empty names")
    if qtype in RATIONALE_REQUIRED_TYPES and not rationale:
        problems.append(f"{qtype} record missing rationale")
    if not (isinstance(split, str) and split in _SPLIT_SET):
        problems.append(f"bad split {split!r}")
    if difficulty is not None and not 1 <= difficulty <= 5:
        problems.append(f"difficulty {difficulty} outside 1..5")
    return problems


# ---------------------------------------------------------------------------
# Canonicalization

_TIME_RE = re.compile(r"^(\d{1,2}):(\d{2})(?:\s*(am|pm))?$")
_NUMBER_RE = re.compile(r"-?\d{1,3}(?:,\d{3})+(?:\.\d+)?|-?\d+(?:\.\d+)?")
# Searched in the reversed text: the last digit and the run of digits, commas,
# dots and minus signs before it.
_LAST_RUN_RE = re.compile(r"\d[\d,.\-]*")


def parse_number(text: str) -> float | None:
    """Last number appearing in `text`, or None.

    Chain-of-thought responses state the answer last, so the final number is
    taken as the prediction. Every number lies inside one maximal run of
    digits, commas, dots and minus signs, and each run is matched afresh, so
    the last number is the last match in the last run that holds a digit;
    only that run, found by scanning from the end, is matched. A text that
    is one number, as a gold answer usually is, is that number.
    """
    whole = _NUMBER_RE.fullmatch(text)
    if whole is not None:
        return float(whole[0].replace(",", ""))
    run = _LAST_RUN_RE.search(text[::-1])
    if run is None:
        return None
    end = len(text) - run.start()
    last = _NUMBER_RE.findall(text, end - len(run[0]), end)[-1]
    return float(last.replace(",", ""))


def format_number(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.6f}".rstrip("0").rstrip(".")


def canonicalize(answer: str, kind: str = "phrase") -> str:
    """Normalize an answer string for comparison.

    Trims and casefolds; collapses whitespace; rewrites 12-hour clock times
    ("4:10 pm") to 24-hour form; for numeric kinds, reduces the text to its
    final number with units stripped.
    """
    out = " ".join(str(answer).split()).casefold()
    m = _TIME_RE.match(out)
    if m:
        hour, minute, meridiem = int(m.group(1)), m.group(2), m.group(3)
        if meridiem == "pm" and hour != 12:
            hour += 12
        elif meridiem == "am" and hour == 12:
            hour = 0
        return f"{hour}:{minute}"
    if kind == "numeric":
        value = parse_number(out)
        if value is not None:
            return format_number(value)
    return out


def answer_set(record: InstructionRecord | QuestionDraft) -> set[str]:
    """Canonical forms of the gold answer and all alternates."""
    forms = {canonicalize(record.answer, record.answer_kind)}
    forms.update(canonicalize(a, record.answer_kind) for a in record.alternates)
    return forms


# ---------------------------------------------------------------------------
# Oracle verification

@dataclass(frozen=True)
class Verdict:
    ok: bool
    details: str = ""


# The one passing verdict, returned for every record that passes.
_PASSED = Verdict(True)


def verify_record(record: InstructionRecord, oracle: list[QuestionDraft]) -> Verdict:
    """Compare a record's answer with the oracle's.

    `oracle` is every draft that the questions function of the record's
    scenario returns for the spec sampled from its provenance seed. Finds the
    draft with the same question and question type. If that draft's answer,
    alternates and answer kind equal the record's, the record passes at once:
    `canonicalize` is a pure function of the answer text and kind, so equal
    inputs canonicalize alike. Otherwise answer plus alternates are compared
    canonically.
    """
    match = None
    for draft in oracle:
        if draft.question == record.question and draft.question_type == record.question_type:
            match = draft
            break
    if match is None:
        return Verdict(False, f"no draft regenerated for question {record.question!r}")
    if (match.answer == record.answer and match.alternates == record.alternates
            and match.answer_kind == record.answer_kind):
        return _PASSED
    expected = answer_set(match)
    got = answer_set(record)
    if expected == got:
        return _PASSED
    return Verdict(False, f"expected {sorted(expected)}, got {sorted(got)}")


def vote_select(candidates: list[str], kind: str = "phrase") -> tuple[str, int]:
    """Modal answer after canonicalization, with its support count.

    Requires at least one candidate. The tally keeps canonical forms in
    first-seen order and max returns the first maximal one, so ties break
    toward the earliest-seen form. The returned winner is the first raw
    candidate whose canonical form won.
    """
    if not candidates:
        raise ValueError("vote_select needs at least one candidate")
    counts: dict[str, int] = {}
    first_raw: dict[str, str] = {}
    for raw in candidates:
        key = canonicalize(raw, kind)
        counts[key] = counts.get(key, 0) + 1
        first_raw.setdefault(key, raw)
    best_key = max(counts, key=counts.get)
    return first_raw[best_key], counts[best_key]


# ---------------------------------------------------------------------------
# Manifest

@dataclass
class Manifest:
    records: list[InstructionRecord] = field(default_factory=list)

    def stats(self) -> dict[str, dict[str, int]]:
        """Per-scenario record and image counts, recomputed from records in
        one pass, in SCENARIOS order."""
        refs: dict[str, list[str]] = {}
        for r in self.records:
            refs.setdefault(r.scenario, []).append(r.image_ref)
        return {scenario: {"records": len(refs[scenario]), "images": len(set(refs[scenario]))}
                for scenario in SCENARIOS if scenario in refs}

    def validate(self) -> None:
        # Records first: an id that is not a string may not hash.
        for r in self.records:
            problems = validate_record(r)
            if problems:
                raise ValueError(f"record {r.id}: {problems}")
        _refuse_repeated_ids(self.records)


def _refuse_repeated_ids(records: list[InstructionRecord]) -> None:
    ids = [r.id for r in records]
    if len(ids) != len(set(ids)):
        dupes = sorted(i for i, n in Counter(ids).items() if n > 1)
        raise ValueError(f"duplicate record ids: {dupes[:5]}")


# The C escaper behind json.dumps(ensure_ascii=False): quotes, backslashes
# and control characters escaped, everything else written as is.
_quote = json.encoder.encode_basestring
# The C scanner json.loads runs, with json.loads's default settings.
_scan_once = json.JSONDecoder().scan_once


def record_to_json(record: InstructionRecord) -> str:
    """The record's manifest line: json.dumps of its fields with sorted keys
    and ensure_ascii=False, written directly. Right for every record that
    validate_record accepts: strings where strings go, ints or None for
    difficulty, and an int seed."""
    r, p = record, record.provenance
    alternates = ", ".join(map(_quote, r.alternates)) if r.alternates else ""
    difficulty = "null" if r.difficulty is None else r.difficulty
    rationale = "null" if r.rationale is None else _quote(r.rationale)
    return (
        f'{{"alternates": [{alternates}], "answer": {_quote(r.answer)}, '
        f'"answer_kind": {_quote(r.answer_kind)}, "difficulty": {difficulty}, '
        f'"id": {_quote(r.id)}, "image_ref": {_quote(r.image_ref)}, '
        f'"provenance": {{"generator": {_quote(p.generator)}, "seed": {p.seed}}}, '
        f'"question": {_quote(r.question)}, "question_type": {_quote(r.question_type)}, '
        f'"rationale": {rationale}, "scenario": {_quote(r.scenario)}, '
        f'"split": {_quote(r.split)}}}'
    )


# record_to_json's line when no text needs an escape, as a pattern whose 13
# groups hold the values in key order: a string's text (nothing to unescape),
# the alternates' strings as written between the brackets, and difficulty
# (None for null) and seed as JSON ints of at most 20 digits. _record_line()
# compiles it once, on the first load, since gen imports this module and
# never loads a manifest.
_TEXT = r'"([^"\\\x00-\x1f]*)"'
_INT = r"(-?(?:0|[1-9][0-9]{0,19}))"
_record_line = cache(partial(re.compile, (
    r'\{"alternates": \[((?:"[^"\\\x00-\x1f]*"(?:, "[^"\\\x00-\x1f]*")*)?)\], '
    rf'"answer": {_TEXT}, "answer_kind": {_TEXT}, "difficulty": (?:null|{_INT}), '
    rf'"id": {_TEXT}, "image_ref": {_TEXT}, '
    rf'"provenance": \{{"generator": {_TEXT}, "seed": {_INT}\}}, '
    rf'"question": {_TEXT}, "question_type": {_TEXT}, "rationale": (?:null|{_TEXT}), '
    rf'"scenario": {_TEXT}, "split": {_TEXT}\}}'
)))


def record_from_match(match: re.Match) -> InstructionRecord:
    """The record of a manifest line that _record_line matches: the record
    that record_from_json builds from the line's JSON value, unchecked."""
    (alternates, answer, kind, difficulty, record_id, image_ref, generator, seed, question,
     qtype, rationale, scenario, split) = match.groups()
    return InstructionRecord(
        record_id, scenario, image_ref, question, answer, kind, qtype,
        tuple(alternates[1:-1].split('", "')) if alternates else (), rationale,
        None if difficulty is None else int(difficulty), split,
        Provenance(generator, int(seed)),
    )


def parse_json_line(line: str):
    """The JSON value of one line, as json.loads(line) gives it.

    Calls the C scanner that json.loads runs, without json.loads's wrapper.
    Whatever the scanner does not read whole from the first character
    (leading or trailing whitespace, a BOM, extra data, no value at all) goes
    to json.loads itself, so every accepted value and every error message is
    json.loads's own.
    """
    try:
        value, end = _scan_once(line, 0)
    except StopIteration:
        return json.loads(line)
    if end != len(line):
        return json.loads(line)
    return value


# The JSON type of a value, or of a config field's Python type, in words.
JSON_TYPE_NAMES = {type(None): "null", bool: "a boolean", int: "an integer", float: "a number",
                   str: "a string", list: "an array", tuple: "an array", dict: "an object"}


def json_lines(data: bytes | str, what: str,
               match: Callable[[str], re.Match | None] | None = None,
               ) -> Iterator[tuple[int, dict | re.Match]]:
    """(line number, object) for each line of a JSON-lines file that is not
    blank or whitespace only, numbered from 1 with blank lines counted. A
    line that `match` matches, if it is given, is not parsed: its match
    object stands in for its object.

    Lines end at "\n" only: a JSON string holds U+0085, U+2028 and U+2029
    unescaped, and str.splitlines would cut it there. A byte that is not
    UTF-8 (on line 1 plus the number of "\n" before it), a line that is not
    JSON, one nested deeper than the JSON scanner can follow and one that is
    not an object raise SchemaMismatch("<what> line N: ...")."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as err:
            number = data.count(b"\n", 0, err.start) + 1
            raise SchemaMismatch(f"{what} line {number}: not UTF-8 ({err.reason})") from None
    for number, line in enumerate(data.split("\n"), start=1):
        if not line or line.isspace():
            continue
        if match is not None:
            found = match(line)
            if found is not None:
                yield number, found
                continue
        try:
            value = parse_json_line(line)
        except json.JSONDecodeError as err:
            raise SchemaMismatch(f"{what} line {number}: invalid JSON ({err.msg})") from None
        except RecursionError:
            raise SchemaMismatch(f"{what} line {number}: JSON nested too deeply") from None
        if type(value) is not dict:
            raise SchemaMismatch(f"{what} line {number}: not a JSON object")
        yield number, value


def record_from_json(row: dict) -> InstructionRecord:
    """The record of a manifest line's object, unchecked: a missing field
    raises KeyError, and a provenance that is not an object ValueError. The
    other rules are validate_record's, so a non-list alternates is kept as is."""
    prov = row.get("provenance", {})
    if type(prov) is not dict:  # 0, "" or [] is not a missing provenance
        raise ValueError(f"provenance must be an object, not {type(prov).__name__}")
    alternates = row.get("alternates", ())
    return InstructionRecord(
        row["id"], row["scenario"], row["image_ref"], row["question"], row["answer"],
        row["answer_kind"], row["question_type"],
        tuple(alternates) if type(alternates) is list else alternates,
        row.get("rationale"), row.get("difficulty"), row.get("split", "test"),
        Provenance(prov.get("generator", "unknown"), prov.get("seed", 0)),
    )


# UTF-8 encodes every code point but a surrogate.
_SURROGATE_RE = re.compile("[\ud800-\udfff]")


def _texts(record: InstructionRecord) -> Iterator[tuple[str, str]]:
    """(field name, text) for each string that a validated record's line
    holds, in field order."""
    for f in fields(record):
        value = getattr(record, f.name)
        if f.name == "alternates":
            yield from ((f.name, text) for text in value)
        elif f.name == "provenance":
            yield f.name, value.generator
        elif type(value) is str:
            yield f.name, value


def dump_manifest(manifest: Manifest) -> bytes:
    """Serialize to line-delimited JSON: one header line, one line per record.

    A record holding text that UTF-8 cannot encode (a lone surrogate) raises
    ValueError("record <id>: [...]") naming the first such field. That
    record is looked for only once the file's encode has failed."""
    manifest.validate()
    header = json.dumps(
        {"kind": "manifest-header", "schema_version": MANIFEST_SCHEMA_VERSION},
        sort_keys=True,
    )
    text = "\n".join([header, *map(record_to_json, manifest.records), ""])
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as err:
        record = manifest.records[text.count("\n", 0, err.start) - 1]
        name = next(name for name, value in _texts(record) if _SURROGATE_RE.search(value))
        problem = f"{name} cannot be encoded as UTF-8 ({err.reason})"
        raise ValueError(f"record {record.id}: {[problem]}") from None


def load_manifest(data: bytes | str) -> Manifest:
    """Parse a manifest file, read line by line through json_lines, which
    hands over a line that _record_line matches unparsed.

    The first line is the header of this schema version. Each record is
    built and run through validate_record as its line is read, and a bad
    line raises SchemaMismatch naming it: "manifest line N: " and then the
    problem, as "missing field 'answer'" or, for a record that breaks a
    record rule, Manifest.validate's text, as "record None: ['id must be a
    string, not NoneType']". Once every line is read, a repeated id raises
    ValueError("duplicate record ids: [...]")."""
    rows = json_lines(data, "manifest", _record_line().fullmatch)
    for number, header in rows:
        break
    else:
        raise SchemaMismatch("empty manifest file")
    if type(header) is not dict or header.get("kind") != "manifest-header":
        raise SchemaMismatch(f"manifest line {number}: missing manifest header line")
    version = header.get("schema_version")
    if version != MANIFEST_SCHEMA_VERSION:
        raise SchemaMismatch(f"manifest line {number}: schema_version {version!r}, "
                             f"expected {MANIFEST_SCHEMA_VERSION!r}")
    records = []
    for number, row in rows:
        if type(row) is not dict:
            record = record_from_match(row)
        else:
            try:
                record = record_from_json(row)
            except KeyError as err:
                raise SchemaMismatch(f"manifest line {number}: missing field {err}") from None
            except ValueError as err:
                raise SchemaMismatch(f"manifest line {number}: malformed record ({err})") from None
        problems = validate_record(record)
        if problems:
            raise SchemaMismatch(f"manifest line {number}: record {record.id}: {problems}")
        records.append(record)
    _refuse_repeated_ids(records)
    return Manifest(records=records)


def sample_for_review(manifest: Manifest, fraction: float, seed: int) -> list[str]:
    """Deterministic stratified sample of record ids for human review.

    Per scenario, in SCENARIOS order, picks ceil(fraction * count) ids. The
    records are grouped by scenario in one pass.
    """
    if not (0 < fraction <= 1):
        raise ValueError("fraction must be in (0, 1]")
    by_scenario: dict[str, list[str]] = {}
    for r in manifest.records:
        by_scenario.setdefault(r.scenario, []).append(r.id)
    chosen: list[str] = []
    for scenario in SCENARIOS:
        ids = sorted(by_scenario.get(scenario, ()))
        if not ids:
            continue
        k = math.ceil(fraction * len(ids))
        rng = Random(derive_seed(seed, "review", scenario))
        chosen.extend(rng.sample(ids, k))
    return chosen


# The flags open(path, "wb") passes, so each file is made, truncated and
# moded (0o666 less the umask) as it would be.
_WRITE_FLAGS = (os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)
                | getattr(os, "O_CLOEXEC", 0))


def write_files(root: str, files: dict[str, bytes]) -> None:
    """Write each of `files`, keyed by its path under `root`, whole, making
    its directory first, through the raw descriptor calls, which skip the
    buffered file object that open() builds around them."""
    for rel_dir in {os.path.dirname(rel) for rel in files}:
        os.makedirs(os.path.join(root, rel_dir), exist_ok=True)
    for rel, data in files.items():
        fd = os.open(os.path.join(root, rel), _WRITE_FLAGS, 0o666)
        try:
            written = os.write(fd, data)
            while written < len(data):
                written += os.write(fd, memoryview(data)[written:])
        finally:
            os.close(fd)
