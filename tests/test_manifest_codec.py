"""The manifest line codec against the generic JSON path it replaced.

`records.record_to_json` writes a record line directly and
`records.parse_json_line` reads any line through the C scanner. Both must
agree byte for byte and error for error with `json.dumps(dataclasses.asdict(
record), ensure_ascii=False, sort_keys=True)` and `json.loads(line)`, which
are kept here as the reference. `reference_problems` likewise keeps the record checks
that `records.validate_record` must match, message for message and in order.
`load_manifest` reads a line in the writer's own form by a fixed-schema
pattern; `json_path_load`, the same reader with that pattern off, is the
reference it must match, record for record and error for error.
"""

import dataclasses
import json
import math
import re
import time
from functools import cache
from itertools import combinations, product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absynth.pipeline import RunConfig, generate_dataset
from absynth.records import (
    ANSWER_KINDS, RATIONALE_REQUIRED_TYPES, SCENARIOS, InstructionRecord, Manifest, Provenance,
    SchemaMismatch, _record_line, dump_manifest, load_manifest, parse_json_line, parse_number,
    record_from_json, record_from_match, record_to_json, validate_record,
)
from absynth.scoring import load_predictions


def reference_line(record):
    return json.dumps(dataclasses.asdict(record), ensure_ascii=False, sort_keys=True)


# Characters the escaper treats differently: quotes, backslashes, every
# control character, line and paragraph separators, a BOM, non-ASCII,
# lone surrogates and astral characters, plus JSON punctuation.
AWKWARD = (
    ['"', "\\", "/", "\x7f", "\x85", "\xa0", "\u2028", "\u2029", "\ufeff", "\xe9", "\xdf", "\u4e2d",
     "\ud800", "\udfff", "\U0001f600", "\U0001d11e", "\U0010ffff", "a", "Z", "0", " ", "{", "}",
     "[", "]", ":", ","]
    + [chr(c) for c in range(0x20)]
)


def awkward_text(rng, longest=12):
    return "".join(rng.choice(AWKWARD) for _ in range(rng.randint(0, longest)))


def random_valid_record(rng, i):
    kind = rng.choice(ANSWER_KINDS)
    if kind == "numeric":
        answer = awkward_text(rng) + str(rng.randint(-10**6, 10**6))
    elif kind == "landmark_sequence":
        # A trailing index keeps the stripped names distinct and non-empty.
        answer = ", ".join(awkward_text(rng).replace(",", "") + str(j)
                           for j in range(rng.randint(1, 4)))
    else:
        answer = awkward_text(rng)
    qtype = rng.choice(("extraction", "math", awkward_text(rng)))
    rationale = rng.choice((None, awkward_text(rng)))
    if qtype in RATIONALE_REQUIRED_TYPES:
        rationale = awkward_text(rng) + "."
    return InstructionRecord(
        id=f"{awkward_text(rng)}-{i}",
        scenario=rng.choice(SCENARIOS),
        image_ref=awkward_text(rng),
        question=awkward_text(rng, 40),
        answer=answer,
        answer_kind=kind,
        question_type=qtype,
        alternates=tuple(awkward_text(rng) for _ in range(rng.randint(0, 3))),
        rationale=rationale,
        difficulty=rng.choice((None, 1, 2, 3, 4, 5)),
        split=rng.choice(("train", "test")),
        provenance=Provenance(
            rng.choice(("chart-gen", "map-gen", awkward_text(rng))),
            rng.choice((0, 1, 2**63, 2**64 - 1, rng.getrandbits(64), rng.randint(0, 10**6))),
        ),
    )


def test_writer_matches_json_dumps_on_a_generated_manifest():
    manifest, _, _ = generate_dataset(RunConfig(default_count=3, seed=9))
    assert {r.scenario for r in manifest.records} == set(SCENARIOS)
    for record in manifest.records:
        assert record_to_json(record) == reference_line(record)
    lines = dump_manifest(manifest).decode("utf-8").splitlines()
    assert lines[1:] == [reference_line(r) for r in manifest.records]


def test_writer_matches_json_dumps_on_seeded_awkward_records():
    rng = Random(2024)
    seen_kinds, seen_alternates = set(), set()
    for i in range(6000):
        record = random_valid_record(rng, i)
        assert validate_record(record) == [], record
        line = record_to_json(record)
        assert line == reference_line(record), record
        assert parse_json_line(line) == json.loads(line)
        assert record_from_json(parse_json_line(line)) == record
        seen_kinds.add(record.answer_kind)
        seen_alternates.add(len(record.alternates))
    assert seen_kinds == set(ANSWER_KINDS)
    assert seen_alternates == {0, 1, 2, 3}


# Values of the wrong type for each field; validate_record must refuse
# every one the writer would write differently from json.dumps.
WRONG_VALUES = {
    "id": [7, None, ["a"]],
    "image_ref": [7, None],
    "question": [None, 1.5, ["q"]],
    "answer": [5, None, True],
    "question_type": [None, ["math"]],
    "alternates": ["ab", "", {"a": 1}, ["x", 3], ("x", None), ["x", "y"]],
    "rationale": [5, True, ["why"]],
    "difficulty": [True, False, 2.0, "3", 0, 6],
    "provenance": [None, {"generator": "g", "seed": 1}, ("g", 1), Provenance(7, 1),
                   Provenance("g", True), Provenance("g", "12"), Provenance("g", 1.0),
                   Provenance(None, 1)],
    "scenario": [None, 7, ["chart"], {"chart": 1}],
    "answer_kind": [None, 7, ["numeric"], {"numeric": 1}],
    "split": [None, 1, ["test"], {"test": 1}],
}


def test_writer_is_right_for_every_record_that_validates():
    rng = Random(5)
    accepted = rejected = 0
    for i in range(2000):
        record = random_valid_record(rng, i)
        field = rng.choice(sorted(WRONG_VALUES))
        record = dataclasses.replace(record, **{field: rng.choice(WRONG_VALUES[field])})
        if validate_record(record):
            rejected += 1
            continue
        accepted += 1
        assert record_to_json(record) == reference_line(record), record
    # Of the wrong values above only a list of string alternates is accepted.
    assert accepted and rejected > 10 * accepted


@pytest.mark.parametrize("field, value, problem", [
    ("provenance", Provenance("chart-gen", "12"), "provenance seed must be an integer, not str"),
    ("provenance", Provenance("chart-gen", True), "provenance seed must be an integer, not bool"),
    ("provenance", Provenance("chart-gen", 1.0), "provenance seed must be an integer, not float"),
    ("provenance", Provenance(7, 1), "provenance generator must be a string, not int"),
    ("provenance", {"generator": "chart-gen", "seed": 1},
     "provenance must be a Provenance, not dict"),
    ("alternates", "ab", "alternates must be a list, not str"),
], ids=["str-seed", "bool-seed", "float-seed", "int-generator", "dict-provenance",
        "str-alternates"])
def test_dump_refuses_what_the_writer_would_write_wrongly(field, value, problem):
    record = dataclasses.replace(random_valid_record(Random(1), 0), **{field: value})
    assert validate_record(record) == [problem]
    with pytest.raises(ValueError, match="^record "):
        dump_manifest(Manifest(records=[record]))


class Text(str):
    """A str subclass, which the isinstance checks on answer, question and
    rationale accept."""


def substitutions(record):
    """(field, value) pairs that each replace one field of `record`: every
    WRONG_VALUES entry, then a Text as answer, question and rationale."""
    for field, values in sorted(WRONG_VALUES.items()):
        for value in values:
            yield field, value
    yield "answer", Text(record.answer)
    yield "question", Text(record.question)
    yield "rationale", Text(record.rationale or "Because.")


def test_dump_accepts_exactly_what_validate_record_accepts():
    rng = Random(22)
    records = [r for r in (random_valid_record(rng, i) for i in range(500)) if encodable(r)]
    assert len(records) > 40
    accepted = set()
    for record in records[:40]:
        for field, value in substitutions(record):
            changed = dataclasses.replace(record, **{field: value})
            problems = validate_record(changed)
            try:
                data = dump_manifest(Manifest(records=[changed]))
            except ValueError as err:
                assert problems and str(err) == f"record {changed.id}: {problems}", changed
                continue
            assert problems == [], changed
            assert data.decode("utf-8").split("\n")[1] == reference_line(changed), changed
            accepted.add((field, "Text" if type(value) is Text else repr(value)))
    assert accepted == {("alternates", "['x', 'y']"), ("answer", "Text"), ("question", "Text"),
                        ("rationale", "Text")}


def reference_problems(record):
    """validate_record as it was before it became one pass over locals and
    frozensets: tuple membership for the vocabulary fields and a flag for
    each field whose type would break a later rule. Kept as the reference
    for every message and for their order."""
    problems: list[str] = []
    # Type checks come first: a manifest line can hold any JSON value, and
    # the checks below parse and compare these fields.
    if type(record.id) is not str:
        problems.append(f"id must be a string, not {type(record.id).__name__}")
    if type(record.image_ref) is not str:
        problems.append(f"image_ref must be a string, not {type(record.image_ref).__name__}")
    qtype_is_str = type(record.question_type) is str  # a list would not hash below
    if not qtype_is_str:
        problems.append(
            f"question_type must be a string, not {type(record.question_type).__name__}")
    answer_is_str = isinstance(record.answer, str)
    if not answer_is_str:
        problems.append(f"answer must be a string, not {type(record.answer).__name__}")
    if not isinstance(record.question, str):
        problems.append(f"question must be a string, not {type(record.question).__name__}")
    if record.rationale is not None and not isinstance(record.rationale, str):
        problems.append(f"rationale must be a string, not {type(record.rationale).__name__}")
    if not isinstance(record.alternates, (tuple, list)):
        problems.append(f"alternates must be a list, not {type(record.alternates).__name__}")
    elif not all(isinstance(a, str) for a in record.alternates):
        problems.append("alternates must all be strings")
    difficulty = record.difficulty
    difficulty_is_int = type(difficulty) is int  # JSON true/false load as bool, not int
    if difficulty is not None and not difficulty_is_int:
        problems.append(f"difficulty must be an integer, not {type(difficulty).__name__}")
    provenance = record.provenance
    if type(provenance) is not Provenance:
        problems.append(f"provenance must be a Provenance, not {type(provenance).__name__}")
    else:
        if type(provenance.generator) is not str:
            problems.append(f"provenance generator must be a string, "
                            f"not {type(provenance.generator).__name__}")
        if type(provenance.seed) is not int:  # True is a bool, and writes as true
            problems.append(f"provenance seed must be an integer, "
                            f"not {type(provenance.seed).__name__}")
    if record.scenario not in SCENARIOS:
        problems.append(f"unknown scenario {record.scenario!r}")
    if record.answer_kind not in ANSWER_KINDS:
        problems.append(f"unknown answer_kind {record.answer_kind!r}")
    if record.answer_kind == "numeric" and answer_is_str:
        value = parse_number(record.answer)
        if value is None or not math.isfinite(value):
            problems.append(f"numeric answer {record.answer!r} does not parse")
    if record.answer_kind == "landmark_sequence" and answer_is_str:
        names = [n.strip() for n in record.answer.split(",")]
        if len(names) != len(set(names)) or any(not n for n in names):
            problems.append("landmark sequence must be unique non-empty names")
    if qtype_is_str and record.question_type in RATIONALE_REQUIRED_TYPES and not record.rationale:
        problems.append(f"{record.question_type} record missing rationale")
    if record.split not in ("train", "test"):
        problems.append(f"bad split {record.split!r}")
    if difficulty_is_int and not (1 <= difficulty <= 5):
        problems.append(f"difficulty {difficulty} outside 1..5")
    return problems


# Every WRONG_VALUES value, plus str subclasses, which the vocabulary
# membership tests accept and the exact question_type test refuses, and
# values of the right type that break the numeric, landmark or rationale
# rule, so that those messages also meet the type faults.
FAULTS = {field: values + {
    "scenario": [Text("chart")],
    "answer_kind": [Text("numeric"), Text("landmark_sequence")],
    "split": [Text("train")],
    "answer": [Text("7"), Text("a, , a"), "no number"],
    "question": [Text("What?")],
    "question_type": [Text("math"), "math"],
    "rationale": [Text("Because."), None, ""],
}.get(field, []) for field, values in sorted(WRONG_VALUES.items())}


def faulty_changes(rng, triples):
    """Field replacements: each fault alone, every pair of faults on two
    distinct fields, and `triples` seeded picks of three faults on three."""
    for field, values in FAULTS.items():
        for value in values:
            yield {field: value}
    for pair in combinations(FAULTS, 2):
        for values in product(*(FAULTS[f] for f in pair)):
            yield dict(zip(pair, values))
    for _ in range(triples):
        yield {f: rng.choice(FAULTS[f]) for f in rng.sample(sorted(FAULTS), 3)}


def test_validate_record_gives_the_reference_messages_in_order():
    rng = Random(23)
    seen = set()
    for i in range(40):
        record = random_valid_record(rng, i)
        assert validate_record(record) == reference_problems(record) == [], record
        for change in faulty_changes(rng, 300):
            changed = dataclasses.replace(record, **change)
            problems = validate_record(changed)
            assert problems == reference_problems(changed), (record, change)
            seen.add(len(problems))
    # Some replacements are valid (a str subclass, a list of strings), and
    # three faulty fields give up to three messages.
    assert seen == {0, 1, 2, 3}

VOCABULARY_PROBLEMS = {"scenario": "unknown scenario", "answer_kind": "unknown answer_kind",
                       "split": "bad split"}


@pytest.mark.parametrize("field, value", [
    (field, value) for field in VOCABULARY_PROBLEMS for value in WRONG_VALUES[field]
    if isinstance(value, (list, dict))])
def test_load_refuses_a_vocabulary_field_that_is_an_array_or_object(field, value):
    record = random_valid_record(Random(6), 0)
    row = json.loads(record_to_json(record))
    row[field] = value
    data = dump_manifest(Manifest()) + json.dumps(row).encode("utf-8") + b"\n"
    with pytest.raises(SchemaMismatch) as err:
        load_manifest(data)
    problems = [f"{VOCABULARY_PROBLEMS[field]} {value!r}"]
    assert str(err.value) == f"manifest line 2: record {record.id}: {problems}"


@pytest.mark.parametrize("blank", [" \x0b ", "", "\r", "\x1c\u3000\u2028"])
def test_whitespace_only_line_is_skipped(blank):
    rng = Random(7)
    first, second = (random_valid_record(rng, i) for i in range(2))
    header = dump_manifest(Manifest()).decode("utf-8")
    manifest = f"{header}{record_to_json(first)}\n{blank}\n{record_to_json(second)}\n"
    assert load_manifest(manifest).records == [first, second]
    predictions = f'{{"id": "a", "response": "1"}}\n{blank}\n{{"id": "b", "response": "2"}}\n'
    assert load_predictions(predictions) == {"a": "1", "b": "2"}


@pytest.mark.parametrize("newline, blanks, bad, problem", [
    (b"\n", [], b'{"id": "\xfe"}', "not UTF-8 (invalid start byte)"),
    (b"\n", [], b'{"id": ', "invalid JSON (Expecting value)"),
    (b"\n", [], b'["a", "1"]', "not a JSON object"),
    (b"\n", [b"", b" \t", b"\x0b"], b'{"id": ', "invalid JSON (Expecting value)"),
    (b"\r\n", [b"", b" "], b'["a", "1"]', "not a JSON object"),
    (b"\r\n", [b""], b'{"id": "\xff"}', "not UTF-8 (invalid start byte)"),
], ids=["undecodable", "invalid-json", "array", "after-blank-lines", "crlf",
        "crlf-undecodable"])
def test_manifest_and_prediction_lines_are_refused_in_the_same_words(newline, blanks, bad,
                                                                      problem):
    """Both files are read by one line reader: a bad line gives the same
    problem in each, under the file's own label, on the line it is on."""
    record = InstructionRecord("chart-00000-q00", "chart", "images/chart/chart-00000.svg",
                               "What is 'B'?", "30", "numeric", "ocr")
    header, record = dump_manifest(Manifest(records=[record])).split(b"\n")[:2]
    prediction = b'{"id": "a", "response": "1"}'
    number = 3 + len(blanks)
    for what, load, first, second in (("manifest", load_manifest, header, record),
                                      ("prediction", load_predictions, prediction, prediction)):
        data = newline.join([first, second, *blanks, bad, b""])
        with pytest.raises(SchemaMismatch) as err:
            load(data)
        assert str(err.value) == f"{what} line {number}: {problem}"


def test_writer_keys_are_the_record_fields():
    """A field added to InstructionRecord or Provenance must reach the line."""
    row = json.loads(record_to_json(random_valid_record(Random(3), 0)))
    assert list(row) == sorted(f.name for f in dataclasses.fields(InstructionRecord))
    assert list(row["provenance"]) == sorted(f.name for f in dataclasses.fields(Provenance))


def encodable(record):
    """Whether the record's line encodes as UTF-8: a lone surrogate does
    not, so no manifest file can hold it."""
    try:
        record_to_json(record).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def test_load_of_dump_is_the_manifest():
    rng = Random(11)
    records = [r for r in (random_valid_record(rng, i) for i in range(2000)) if encodable(r)]
    assert len(records) > 200
    data = dump_manifest(Manifest(records=records))
    again = load_manifest(data)
    assert again.records == records
    assert dump_manifest(again) == data


def outcome(read, line):
    """What reading `line` gives: the value (by type and repr, so NaN equals
    NaN) or the exception type and message."""
    try:
        value = read(line)
    except Exception as err:  # noqa: BLE001  (the error is the result compared)
        return ("error", type(err), str(err))
    return ("value", type(value), repr(value))


GOOD_LINE = record_to_json(random_valid_record(Random(4), 0))

READER_LINES = [
    GOOD_LINE,
    '{"id": "a", "response": "1"}',
    '{"id": "a\\u00e9\\ud83d\\ude00\\n", "response": "x\\"y\\\\"}',
    '{"a": [1, 2.5, -0.0, 1e400, true, false, null, {}]}',
    "[1, 2]", '"text"', "12", "-1.5e3", "true", "null",
    "NaN", "-Infinity", '{"a": NaN}',
    " " + GOOD_LINE, GOOD_LINE + " ", "\t" + GOOD_LINE + "\r", " 1 ",
    "\ufeff" + GOOD_LINE, "\ufeff",
    GOOD_LINE + GOOD_LINE, '{"a": 1} {"b": 2}', "1 2", "[1]]", "{}x",
    "", " ", "\n",
    '{"id": ', '{"id" 1}', '{"id": "a",}', "[1,]", "tru", "-", "01", "'a'", '"\x01"',
    '"\\x"', '{"a": "\\ud800"}', "{" * 3 + "}" * 3,
]


@pytest.mark.parametrize("line", READER_LINES, ids=[
    repr(line) if len(line) < 30 else f"long-line-{i}" for i, line in enumerate(READER_LINES)])
def test_reader_matches_json_loads(line):
    assert outcome(parse_json_line, line) == outcome(json.loads, line)


# ---------------------------------------------------------------------------
# The fixed-schema pattern against the JSON path

NEVER = re.compile(r"(?!)")


def json_path_load(data):
    """load_manifest with the fixed-schema pattern off, so every line goes
    through the JSON scanner and record_from_json: the reader as it was
    before the pattern, kept as the reference."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("absynth.records._record_line", lambda: NEVER)
        return load_manifest(data)


# Characters the escaper writes as they are (U+2028, DEL, non-BMP, non-ASCII
# and JSON punctuation), and the ones it escapes, which send a line to the
# JSON path.
PLAIN = "\x7f\x85\u2028\ufeff\xe9\U0001f600 ,:[]{}a0"
ESCAPED = '"\\\x00\x08\n\r\x1f'


def texts(alphabet):
    return (st.text(st.sampled_from(alphabet), max_size=8)
            | st.text(st.characters(codec="utf-8", exclude_categories=("Cc",)), max_size=8))


@st.composite
def valid_records(draw):
    """A record that validate_record accepts, its texts drawn with or
    without characters that need an escape, about one record in two each."""
    text = texts(PLAIN + draw(st.sampled_from(("", ESCAPED))))
    kind = draw(st.sampled_from(ANSWER_KINDS))
    if kind == "numeric":
        answer = f"{draw(text)} {draw(st.integers(-10**6, 10**6))}"
    elif kind == "landmark_sequence":
        names = st.builds(lambda t: t.replace(",", "").strip(), text).filter(bool)
        answer = ", ".join(draw(st.lists(names, min_size=1, max_size=4, unique=True)))
    else:
        answer = draw(text)
    qtype = draw(st.sampled_from(("ocr", "math")) | text)
    if qtype in RATIONALE_REQUIRED_TYPES:
        rationale = draw(text) + "."
    else:
        rationale = draw(st.none() | text)
    return InstructionRecord(
        id=draw(text), scenario=draw(st.sampled_from(SCENARIOS)), image_ref=draw(text),
        question=draw(text), answer=answer, answer_kind=kind, question_type=qtype,
        alternates=tuple(draw(st.lists(text, max_size=3))), rationale=rationale,
        difficulty=draw(st.none() | st.integers(1, 5)),
        split=draw(st.sampled_from(("train", "test"))),
        provenance=Provenance(draw(text), draw(st.sampled_from((-2**63, 2**64 - 1))
                                               | st.integers(-2**63, 2**64 - 1))),
    )


@given(st.lists(valid_records(), max_size=6))
@settings(max_examples=100)
def test_load_of_dump_is_the_manifest_on_either_path(drawn):
    """A writer line takes the pattern exactly when it holds no backslash:
    with ensure_ascii=False the only backslashes are escapes. Either way
    the record is the JSON path's, field type for field type."""
    records = [dataclasses.replace(r, id=f"{r.id}-{i}") for i, r in enumerate(drawn)]
    data = dump_manifest(Manifest(records=records))
    assert repr(load_manifest(data)) == repr(json_path_load(data)) == repr(Manifest(records))
    for record, line in zip(records, data.decode("utf-8").split("\n")[1:]):
        match = _record_line().fullmatch(line)
        assert (match is not None) == ("\\" not in line), line
        if match is not None:
            assert repr(record_from_match(match)) == repr(record_from_json(json.loads(line)))


@cache
def canonical_lines():
    """One record line per scenario and question type of a small generated
    manifest. Every line gen writes there is free of escapes, so the
    pattern takes each."""
    manifest, _, _ = generate_dataset(RunConfig(default_count=2, seed=9))
    assert all(_record_line().fullmatch(record_to_json(r)) for r in manifest.records)
    firsts = {(r.scenario, r.question_type): r for r in reversed(manifest.records)}
    return [record_to_json(r) for r in firsts.values()]


# One change each to a canonical line, none of which the pattern takes, and
# what the JSON path then reads: the record, or a record error.
MUTATIONS = {
    "reordered-keys": (lambda line: json.dumps(dict(reversed(json.loads(line).items())),
                                               ensure_ascii=False), "value"),
    "compact-separators": (lambda line: json.dumps(json.loads(line), ensure_ascii=False,
                                                   sort_keys=True, separators=(",", ":")),
                           "value"),
    "trailing-cr": (lambda line: line + "\r", "value"),
    "extra-key": (lambda line: line[:-1] + ', "zzz": 1}', "value"),
    "float-difficulty": (lambda line: re.sub(r'"difficulty": [^,]*', '"difficulty": 2.0', line),
                         "error"),
    "21-digit-seed": (lambda line: re.sub(r'"seed": [0-9]*', '"seed": 123456789012345678901',
                                          line), "value"),
    "escaped-quote": (lambda line: line.replace('"question": "', '"question": "\\"'), "value"),
}


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_a_mutated_line_reads_as_the_json_path_reads_it(name):
    mutate, expected = MUTATIONS[name]
    header = dump_manifest(Manifest()).decode("utf-8")
    lines = canonical_lines()
    for previous, line in zip(lines[-1:] + lines[:-1], lines):
        changed = mutate(line)
        assert changed != line and _record_line().fullmatch(changed) is None, changed
        data = f"{header}{previous}\n{changed}\n"
        got = outcome(load_manifest, data)
        assert got == outcome(json_path_load, data), changed
        assert got[0] == expected, got
    if name == "float-difficulty":
        assert got[2].endswith("['difficulty must be an integer, not float']")


def test_a_record_line_in_place_of_the_header_is_refused_alike():
    line = canonical_lines()[0]
    for data in (f"{line}\n", f"\n \n{line}\n{line}\n"):
        assert outcome(load_manifest, data) == outcome(json_path_load, data)
    with pytest.raises(SchemaMismatch, match="^manifest line 3: missing manifest header line$"):
        load_manifest(f"\n \n{line}\n")


def test_a_long_near_miss_line_is_read_in_linear_time():
    """A backtracking pattern could take time that grows faster than the
    line; this one fails a 1 MB near miss in tens of milliseconds."""
    record = InstructionRecord("a", "chart", "images/a.svg", "q" * 2**20, "1", "numeric", "ocr",
                               alternates=("b",) * 2**15)
    header = dump_manifest(Manifest()).decode("utf-8")
    line = record_to_json(record)
    near_misses = {"trailing-cr": line + "\r", "extra-key": line[:-1] + ', "zzz": 1}',
                   "truncated": line[:-2]}
    for name, changed in near_misses.items():
        data = f"{header}{changed}\n"
        start = time.perf_counter()
        got = outcome(load_manifest, data)
        assert time.perf_counter() - start < 0.5, name
        assert got == outcome(json_path_load, data), name
