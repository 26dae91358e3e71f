"""Instruction records: canonicalization, verification, voting, manifests."""

import dataclasses
import json
import math
import re
from random import Random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from absynth.charts import chart_questions, sample_chart_spec
from absynth.gauges import DialSpec
from absynth.maps import generate_map, map_questions
from absynth.records import (
    ANSWER_KINDS, MANIFEST_SCHEMA_VERSION, SCENARIOS, InstructionRecord, Manifest, Provenance,
    QuestionDraft, Verdict, answer_set, canonicalize,
    dump_manifest, format_number, load_manifest, parse_number, record_from_json, record_to_json,
    SchemaMismatch, sample_for_review, validate_record, verify_record,
    vote_select,
)
from absynth.seeds import derive_seed


def make_record(i=0, scenario="chart", answer="30", kind="numeric", qtype="extraction",
                question="What is the value of 'B'?", alternates=(), rationale=None,
                split="test"):
    return InstructionRecord(
        id=f"{scenario}-{i:05d}-q00",
        scenario=scenario,
        image_ref=f"images/{scenario}/{scenario}-{i:05d}.svg",
        question=question,
        answer=answer,
        answer_kind=kind,
        question_type=qtype,
        alternates=tuple(alternates),
        rationale=rationale,
        split=split,
        provenance=Provenance("chart-gen", i),
    )


# -- canonicalization -------------------------------------------------------


def test_canonicalize_trims_and_casefolds():
    assert canonicalize("  Organization CHART  ") == "organization chart"


def test_canonicalize_normalizes_pm_times():
    assert canonicalize("4:10 PM") == "16:10"
    assert canonicalize("4:10pm") == "16:10"
    assert canonicalize("12:05 am") == "0:05"
    assert canonicalize("16:10") == "16:10"
    assert canonicalize("4:10") == "4:10"


def test_canonicalize_numeric_strips_units():
    assert canonicalize("57 units", "numeric") == "57"
    assert canonicalize("$1,200", "numeric") == "1200"
    assert canonicalize("about 30.50", "numeric") == "30.5"


def test_parse_number_takes_last():
    assert parse_number("first 3 then 42, so the answer is 7") == 7.0
    assert parse_number("no digits here") is None
    assert parse_number("-12.5 then -3") == -3.0


def findall_last_number(text):
    """The whole-text `findall` that `parse_number` replaced, kept as the
    reference."""
    matches = re.findall(r"-?\d{1,3}(?:,\d{3})+(?:\.\d+)?|-?\d+(?:\.\d+)?", text)
    if not matches:
        return None
    try:
        return float(matches[-1].replace(",", ""))
    except ValueError:
        return None


# ASCII digits and number punctuation, letters, spaces, non-ASCII decimal
# digits (Arabic-Indic three, fullwidth three, Devanagari seven) and
# non-ASCII non-digits (a superscript two, which is no decimal digit).
NUMBER_ALPHABET = ("0123456789" * 3 + ",,..--" + "  ab xZ" + "\u0663\uff13\u096d"
                   + "\u00b2\u00e9\u20ac\u4e2d")


@pytest.mark.parametrize("text", [
    "1,234,5678", "-.5", "3.", "", "no digits at all", "42", "-1,234.50", "0.5", "1,234.5",
    "12,34", "--5", "5-3", "1.2.3", "-0", "1,000,000 and 2,000", "the answer is 7.",
    "\u0663\uff13.5 x", "\u00b2", "1,23,456", "9" * 400,
])
def test_parse_number_matches_findall_on_fixed_cases(text):
    assert repr(parse_number(text)) == repr(findall_last_number(text))


def test_parse_number_matches_findall_on_seeded_strings():
    rng = Random(20261018)
    for _ in range(12_000):
        text = "".join(rng.choices(NUMBER_ALPHABET, k=rng.randint(0, 30)))
        assert repr(parse_number(text)) == repr(findall_last_number(text)), text


@given(st.text(max_size=60))
def test_canonicalize_idempotent(s):
    once = canonicalize(s)
    assert canonicalize(once) == once


def split_join_canonicalize(answer, kind="phrase"):
    """canonicalize as it was before a single-spaced printable ASCII text was
    kept as it is: every text split and joined. Kept as the reference."""
    out = " ".join(str(answer).split()).casefold()
    m = re.match(r"^(\d{1,2}):(\d{2})(?:\s*(am|pm))?$", out)
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


# Every character str.split() cuts at: the ASCII controls \t-\r and
# \x1c-\x1f, the space, \x85, \xa0, \u1680, \u2000-\u200a, \u2028,
# \u2029, \u202f, \u205f and \u3000.
SPLIT_WHITESPACE = "".join(c for c in map(chr, range(0x3001)) if c.isspace())
CANONICAL_ALPHABET = (SPLIT_WHITESPACE + "    " + "aZ09:.,-$%" + "AaMmPp" + "\x00\x7f~!"
                      + "\xe9\xdf\u0130\u4e2d")


def clock_texts():
    space = st.text(st.sampled_from(" \t\n\x1f\xa0\u3000"), max_size=2)
    return st.builds(lambda a, h, m, b, meridiem, c: f"{a}{h}:{m:02d}{b}{meridiem}{c}",
                     space, st.integers(0, 23), st.integers(0, 59), space,
                     st.sampled_from(("", "am", "pm", "AM", "Pm")), space)


@given(st.text(st.sampled_from(CANONICAL_ALPHABET), max_size=30) | st.text(max_size=30)
       | clock_texts(), st.sampled_from(ANSWER_KINDS))
@example(" a", "phrase")
@example("a ", "phrase")
@example("a  b", "phrase")
@example("a\x1cb", "phrase")
@example("a\x85b", "phrase")
@example("4:10 \u2028pm", "phrase")
@example("4:10 PM", "numeric")
@example("", "numeric")
def test_canonicalize_equals_split_and_join(text, kind):
    assert all(c in SPLIT_WHITESPACE for c in "\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000")
    assert canonicalize(text, kind) == split_join_canonicalize(text, kind)


# -- record validation ------------------------------------------------------


def test_numeric_answer_must_parse():
    rec = make_record(answer="not-a-number")
    assert any("does not parse" in p for p in validate_record(rec))
    assert validate_record(make_record(answer="42.5")) == []


def test_landmark_sequence_unique_names():
    ok = make_record(answer="Oak, Pine, Elm", kind="landmark_sequence", qtype="navigation")
    assert validate_record(ok) == []
    dup = make_record(answer="Oak, Oak", kind="landmark_sequence", qtype="navigation")
    assert validate_record(dup)


def test_math_records_require_rationale():
    missing = make_record(qtype="math")
    assert any("rationale" in p for p in validate_record(missing))
    assert validate_record(make_record(qtype="math", rationale="because 40 - 10 = 30")) == []


# -- verification -----------------------------------------------------------


def test_verify_record_ok_for_generated_chart_answers():
    spec = sample_chart_spec(3, kind="pie")
    for i, draft in enumerate(chart_questions(spec)):
        rec = InstructionRecord(
            id=f"chart-00003-q{i:02d}", scenario="chart", image_ref="images/chart/x.svg",
            question=draft.question, answer=draft.answer, answer_kind=draft.answer_kind,
            question_type=draft.question_type, alternates=draft.alternates,
            rationale=draft.rationale, provenance=Provenance("chart-gen", 3),
        )
        assert verify_record(rec, chart_questions(spec)).ok


def test_verify_record_detects_tampering():
    spec = sample_chart_spec(3, kind="pie")
    draft = next(d for d in chart_questions(spec) if d.question_type == "math")
    tampered = str(float(draft.answer) + 1)
    rec = InstructionRecord(
        id="chart-00003-q04", scenario="chart", image_ref="images/chart/x.svg",
        question=draft.question, answer=tampered, answer_kind="numeric",
        question_type="math", rationale=draft.rationale,
        provenance=Provenance("chart-gen", 3),
    )
    verdict = verify_record(rec, chart_questions(spec))
    assert not verdict.ok
    assert draft.answer in verdict.details and tampered.rstrip("0").rstrip(".") in verdict.details


def canonical_verdict(record, draft):
    """The full canonical comparison `verify_record` makes when the raw
    answers differ, kept as the reference for its shortcut."""
    expected, got = answer_set(draft), answer_set(record)
    if expected == got:
        return Verdict(True)
    return Verdict(False, f"expected {sorted(expected)}, got {sorted(got)}")


ANSWER_TEXTS = st.one_of(
    st.sampled_from(["4:10 PM", "16:10", "4:10", "1,200", "1200", "1200.0", " Paris ",
                     "paris", "12 km", "-3", "A, B", "a,b"]),
    st.text(max_size=8),
)
ANSWER_FIELDS = st.tuples(ANSWER_TEXTS, st.lists(ANSWER_TEXTS, max_size=3).map(tuple),
                          st.sampled_from(ANSWER_KINDS))


@given(ANSWER_FIELDS, ANSWER_FIELDS, st.booleans())
@example(("1,200", (), "numeric"), ("1,200", (), "numeric"), False)
@example(("4:10 PM", ("4:10",), "phrase"), ("16:10", ("4:10",), "phrase"), False)
@example(("16:10", (), "phrase"), ("4:10 PM", (), "phrase"), False)
@example(("1,200", (), "numeric"), ("1200", (), "numeric"), False)
@example(("1,200", (), "phrase"), ("1200", (), "phrase"), False)
@example(("1,200", (), "numeric"), ("1,200", (), "phrase"), False)
def test_raw_answer_shortcut_gives_the_canonical_verdict(drafted, recorded, copy):
    """A record whose raw answer, alternates and kind equal its draft's
    passes at once; any other record gets the verdict and details of the
    full canonical comparison."""
    answer, alternates, kind = drafted
    draft = QuestionDraft("How many?", answer, kind, "extraction", alternates)
    if copy:
        recorded = drafted
    record = make_record(answer=recorded[0], alternates=recorded[1], kind=recorded[2],
                         question="How many?")
    assert verify_record(record, [draft]) == canonical_verdict(record, draft)


def test_verify_clock_alternates_accepted():
    spec = DialSpec("clock", (8, 10), 8.0, 1.5)
    from absynth.gauges import dial_questions
    draft = next(d for d in dial_questions(spec) if d.question_type == "offset_math")
    rec = InstructionRecord(
        id="dashboard-00000-q01", scenario="dashboard", image_ref="images/dashboard/x.svg",
        question=draft.question, answer="4:10 PM", answer_kind="phrase",
        question_type="offset_math", alternates=("4:10",), rationale=draft.rationale,
        provenance=Provenance("gauge-gen", 0),
    )
    assert verify_record(rec, dial_questions(spec)).ok


def test_verify_map_instruction():
    spec = generate_map(9)
    draft = map_questions(spec)[0]
    rec = InstructionRecord(
        id="map-00009-q00", scenario="map", image_ref="images/map/x.svg",
        question=draft.question, answer=draft.answer, answer_kind="landmark_sequence",
        question_type="navigation", rationale=draft.rationale,
        provenance=Provenance("map-gen", 9),
    )
    assert verify_record(rec, map_questions(spec)).ok


# -- voting -----------------------------------------------------------------


def test_vote_majority():
    assert vote_select(["8:10", "8:10", "10:10"]) == ("8:10", 2)


def test_vote_unanimous():
    assert vote_select(["30", "30", "30", "30"]) == ("30", 4)


def test_vote_all_distinct_first_wins():
    assert vote_select(["a", "b", "c"]) == ("a", 1)


def test_vote_canonicalizes_before_counting():
    winner, support = vote_select(["16:10", "4:10 PM", "9:00"])
    assert winner == "16:10"
    assert support == 2


def test_vote_select_needs_a_candidate():
    # Three votes are the bridge's rule on how many it asks for; a vote
    # over the replies that parse may count fewer.
    with pytest.raises(ValueError):
        vote_select([])
    assert vote_select(["x", "y"]) == ("x", 1)


def reference_vote_select(candidates, kind="phrase"):
    """vote_select as it was with a hand-written argmax, kept as the
    reference for its winner, its support and its tie-break."""
    if not candidates:
        raise ValueError("vote_select needs at least one candidate")
    counts: dict[str, int] = {}
    first_raw: dict[str, str] = {}
    for raw in candidates:
        key = canonicalize(raw, kind)
        counts[key] = counts.get(key, 0) + 1
        first_raw.setdefault(key, raw)
    best_key = None
    best_count = -1
    for key in counts:  # dict preserves first-seen order
        if counts[key] > best_count:
            best_key, best_count = key, counts[key]
    assert best_key is not None
    return first_raw[best_key], best_count


VOTE_TEXTS = ["", " ", "x", "X ", "y", "4:10 PM", "16:10", "16:10 ", "4:10", "12:00 am", "0:00",
              "30", "30 units", "$30", "30.0", "-0", "0", "29", "Yes", "yes"]


@pytest.mark.parametrize("candidates, kind, expected", [
    (["a", "b", "a", "b"], "phrase", ("a", 2)),
    (["b", "a", "a", "b"], "phrase", ("b", 2)),
    (["4:10 PM", "9:00", "16:10", "9:00"], "phrase", ("4:10 PM", 2)),
    (["", " ", "x"], "phrase", ("", 2)),
    (["-0", "0", "1", "1"], "numeric", ("-0", 2)),
    (["30 units", "29", "$30", "29"], "numeric", ("30 units", 2)),
], ids=["tie-first-seen", "tie-other-order", "clock-time-tie", "empty", "negative-zero",
        "numeric-tie"])
def test_vote_ties_go_to_the_earliest_seen_form(candidates, kind, expected):
    assert vote_select(candidates, kind) == reference_vote_select(candidates, kind) == expected


def test_vote_select_equals_the_reference_on_seeded_votes():
    rng = Random(2524)
    for _ in range(5000):
        candidates = rng.choices(VOTE_TEXTS[:rng.randint(1, len(VOTE_TEXTS))],
                                 k=rng.randint(1, 7))
        for kind in ("phrase", "numeric"):
            assert (vote_select(candidates, kind)
                    == reference_vote_select(candidates, kind)), (candidates, kind)


def test_vote_reorder_invariant_without_ties():
    candidates = ["30", "30", "29", "30", "29"]
    winner, support = vote_select(candidates)
    assert (winner, support) == ("30", 3)
    assert vote_select(list(reversed(candidates))) == ("30", 3)


# -- manifest ---------------------------------------------------------------


def sample_manifest(n_chart=5, n_map=3):
    records = [make_record(i) for i in range(n_chart)]
    records += [
        InstructionRecord(
            id=f"map-{i:05d}-q00", scenario="map", image_ref=f"images/map/map-{i:05d}.svg",
            question="Plan a route.", answer="Oak, Pine", answer_kind="landmark_sequence",
            question_type="navigation", provenance=Provenance("map-gen", i),
        )
        for i in range(n_map)
    ]
    return Manifest(records=records)


def test_manifest_round_trip():
    manifest = sample_manifest()
    data = dump_manifest(manifest)
    again = load_manifest(data)
    assert again.records == manifest.records
    assert dump_manifest(again) == data


def test_manifest_duplicate_ids_rejected():
    manifest = Manifest(records=[make_record(1), make_record(1)])
    with pytest.raises(ValueError, match="duplicate"):
        dump_manifest(manifest)
    records = [make_record(i) for i in (7, 2, 3, 2, 5, 7, 7)]
    with pytest.raises(ValueError) as err:
        Manifest(records=records).validate()
    assert str(err.value) == "duplicate record ids: ['chart-00002-q00', 'chart-00007-q00']"


def test_manifest_stats_recount():
    manifest = sample_manifest(5, 3)
    stats = manifest.stats()
    assert stats["chart"] == {"records": 5, "images": 5}
    assert stats["map"] == {"records": 3, "images": 3}


def test_record_json_round_trip():
    rec = make_record(7, alternates=("a", "b"), rationale="why")
    assert record_from_json(json.loads(record_to_json(rec))) == rec


def test_sample_for_review_sizes():
    manifest = sample_manifest(100, 1)
    ids = sample_for_review(manifest, 0.10, seed=4)
    chart_ids = [i for i in ids if i.startswith("chart")]
    map_ids = [i for i in ids if i.startswith("map")]
    assert len(chart_ids) == 10  # ceil(0.10 * 100)
    assert len(map_ids) == 1  # ceil(0.10 * 1)
    assert sample_for_review(manifest, 0.10, seed=4) == ids
    assert sample_for_review(manifest, 0.10, seed=5) != ids


def reference_stats(manifest):
    """`Manifest.stats` as it was before it grouped the records in one pass."""
    out = {}
    for scenario in SCENARIOS:
        recs = [r for r in manifest.records if r.scenario == scenario]
        if recs:
            out[scenario] = {"records": len(recs), "images": len({r.image_ref for r in recs})}
    return out


def reference_sample_for_review(manifest, fraction, seed):
    """`sample_for_review` as it was before it grouped the records in one pass."""
    chosen = []
    for scenario in SCENARIOS:
        ids = sorted(r.id for r in manifest.records if r.scenario == scenario)
        if ids:
            rng = Random(derive_seed(seed, "review", scenario))
            chosen.extend(rng.sample(ids, math.ceil(fraction * len(ids))))
    return chosen


def test_one_pass_stats_and_review_sample_match_reference():
    rng = Random(3)
    records = [make_record(i, scenario=scenario)
               for scenario in ("puzzle", "chart", "map", "layout", "table")
               for i in range(rng.randint(1, 40))]
    # Several questions per image, and records out of scenario order.
    records += [dataclasses.replace(r, id=r.id.replace("-q00", "-q01")) for r in records[::3]]
    rng.shuffle(records)
    manifest = Manifest(records=records)
    assert list(manifest.stats().items()) == list(reference_stats(manifest).items())
    for fraction, seed in ((0.1, 0), (0.35, 4), (1.0, 9)):
        assert (sample_for_review(manifest, fraction, seed)
                == reference_sample_for_review(manifest, fraction, seed))


def test_empty_manifest_file_is_schema_error():
    from absynth.records import SchemaMismatch
    with pytest.raises(SchemaMismatch):
        load_manifest(b"")
    with pytest.raises(SchemaMismatch):
        load_manifest(b'{"not": "a header"}\n')


_DROP = object()


def _record_line(**changes):
    """A manifest line for make_record(1) with fields replaced, or removed
    where the new value is _DROP."""
    row = json.loads(record_to_json(make_record(1)))
    row.update(changes)
    return json.dumps({k: v for k, v in row.items() if v is not _DROP})


def _broken(problem):
    """The text, as a pattern, of make_record(1) breaking one record rule."""
    return re.escape(f"record chart-00001-q00: {[problem]}") + "$"


@pytest.mark.parametrize("line, reason", [
    ("[1, 2]", "not a JSON object$"),
    (_record_line(id=_DROP), "missing field 'id'"),
    (_record_line(alternates=5), _broken("alternates must be a list, not int")),
    (_record_line(provenance={"seed": "x"}),
     _broken("provenance seed must be an integer, not str")),
    ('{"id": ', "invalid JSON"),
    (_record_line(provenance={"generator": "chart-gen", "seed": 1.9}),
     _broken("provenance seed must be an integer, not float")),
    (_record_line(provenance={"generator": "chart-gen", "seed": True}),
     _broken("provenance seed must be an integer, not bool")),
    (_record_line(alternates="ab"), _broken("alternates must be a list, not str")),
    (_record_line(alternates={"x": 1}), _broken("alternates must be a list, not dict")),
    (_record_line(alternates=None), _broken("alternates must be a list, not NoneType")),
    (_record_line(provenance=0), r"malformed record \(provenance must be an object, not int\)"),
    (_record_line(provenance=5), r"malformed record \(provenance must be an object, not int\)"),
    (_record_line(provenance=False),
     r"malformed record \(provenance must be an object, not bool\)"),
    (_record_line(provenance=""), r"malformed record \(provenance must be an object, not str\)"),
    (_record_line(provenance="x"), r"malformed record \(provenance must be an object, not str\)"),
    (_record_line(provenance=[]), r"malformed record \(provenance must be an object, not list\)"),
    (_record_line(provenance=[1]),
     r"malformed record \(provenance must be an object, not list\)"),
    (_record_line(provenance=None),
     r"malformed record \(provenance must be an object, not NoneType\)"),
], ids=["not-an-object", "no-id", "alternates-not-a-list", "seed-not-an-int", "bad-json",
        "seed-a-float", "seed-a-bool", "alternates-a-string", "alternates-an-object",
        "alternates-null", "provenance-zero", "provenance-an-int", "provenance-false",
        "provenance-empty-string", "provenance-a-string", "provenance-empty-list",
        "provenance-a-list", "provenance-null"])
def test_malformed_manifest_line_names_its_line_number(line, reason):
    good = record_to_json(make_record(0))
    header = dump_manifest(Manifest()).decode().strip()
    data = f"{header}\n{good}\n\n{line}\n"
    with pytest.raises(SchemaMismatch, match=f"^manifest line 4: {reason}"):
        load_manifest(data)


def test_manifest_line_without_alternates_has_none():
    assert record_from_json(json.loads(_record_line(alternates=_DROP))).alternates == ()


def test_manifest_line_without_provenance_has_the_default():
    row = json.loads(_record_line(provenance=_DROP))
    assert record_from_json(row).provenance == Provenance("unknown", 0)


def test_manifest_schema_version_is_a_constant():
    assert [f.name for f in dataclasses.fields(Manifest)] == ["records"]
    header = json.loads(dump_manifest(Manifest()).decode().splitlines()[0])
    assert header == {"kind": "manifest-header", "schema_version": MANIFEST_SCHEMA_VERSION}


def test_manifest_lines_end_at_newline_only():
    # JSON leaves U+0085, U+2028 and U+2029 unescaped inside strings.
    record = make_record(1, question="Which\x85 line\u2028 is\u2029 this?")
    data = dump_manifest(Manifest(records=[record]))
    assert load_manifest(data).records == [record]
    crlf = data.replace(b"\n", b"\r\n")
    assert load_manifest(crlf).records == [record]
    with pytest.raises(SchemaMismatch, match="^manifest line 3: invalid JSON"):
        load_manifest(crlf + b'{"id": \r\n')


def test_malformed_manifest_header_is_schema_error():
    with pytest.raises(SchemaMismatch, match="^manifest line 2: invalid JSON"):
        load_manifest('\n{"kind": \n')
    with pytest.raises(SchemaMismatch, match="^manifest line 1: not a JSON object$"):
        load_manifest("[1, 2]\n")
    with pytest.raises(SchemaMismatch, match="^manifest line 1: missing manifest header line$"):
        load_manifest('{"kind": "manifest"}\n')
    with pytest.raises(SchemaMismatch,
                       match="^manifest line 3: schema_version '2', expected '1'$"):
        load_manifest('\n \n{"kind": "manifest-header", "schema_version": "2"}\n')
    with pytest.raises(SchemaMismatch, match="^empty manifest file$"):
        load_manifest("\n\n")


def test_dump_names_the_record_whose_text_cannot_be_encoded():
    record = InstructionRecord("a", "chart", "x.svg", "Q\ud800?", "1", "numeric", "ocr")
    message = "record a: ['question cannot be encoded as UTF-8 (surrogates not allowed)']"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        dump_manifest(Manifest(records=[make_record(0), record]))
    # The first such field in field order is named; an alternate or the
    # generator is one too.
    record = make_record(0, answer="Ok", kind="phrase", alternates=("ok", "\ud800"),
                         question="\udbff?", rationale="r\udc00")
    record.image_ref, record.provenance = "x\udfff.svg", Provenance("\udc80", 0)
    for name, mended in [("image_ref", "x.svg"), ("question", "Q?"), ("alternates", ()),
                         ("rationale", "r"), ("provenance", Provenance("chart-gen", 0))]:
        with pytest.raises(ValueError, match=fr"^record {record.id}: \['{name} cannot"):
            dump_manifest(Manifest(records=[record]))
        setattr(record, name, mended)
    assert load_manifest(dump_manifest(Manifest(records=[record]))).records == [record]


def test_vote_select_numeric_kind_strips_units():
    assert vote_select(["30 units", "$30", "29"], kind="numeric") == ("30 units", 2)
