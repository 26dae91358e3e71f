"""Metric implementations against independent oracles, plus aggregation."""

import json
import re
from functools import lru_cache
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from absynth.records import InstructionRecord, Manifest, Provenance, canonicalize, parse_number
from absynth.scoring import (
    NUMERIC_TOLERANCE, _boundary_find,
    aggregate, dataset_stats, extract_landmarks, lcs_length,
    load_predictions, render_report_text, score_landmarks, score_numeric,
    score_phrase, score_sentence, tokenize,
)
from tests_helpers import dump_predictions


def lcs_oracle(a, b):
    """Independent LCS: plain memoized recursion, no DP table sharing."""
    a, b = tuple(a), tuple(b)

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + go(i + 1, j + 1)
        return max(go(i + 1, j), go(i, j + 1))

    return go(0, 0)


# The five scoring rules as they were when each still had a branch for an
# edge case that the general rule covers (a zero gold, an exact phrase, an
# empty token list, an empty LCS side), kept verbatim as the references that
# the one-rule versions must equal.


def reference_lcs_length(a: list, b: list) -> int:
    if not a or not b:
        return 0
    masks: dict = {}
    for j, y in enumerate(b):
        masks[y] = masks.get(y, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    for x in a:
        u = v & masks.get(x, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def reference_score_numeric(pred, gold, alternates=(), tolerant=False):
    p = parse_number(pred)
    if p is None:
        return "unparsable"
    for form in (gold, *alternates):
        g = parse_number(form)
        if g is None:
            continue
        if tolerant:
            if g == 0:
                if p == 0:
                    return "correct"
            elif abs(p - g) <= NUMERIC_TOLERANCE * abs(g):
                return "correct"
        elif p == g:
            return "correct"
    return "incorrect"


def reference_score_phrase(pred, gold, alternates=()):
    canon_pred = canonicalize(pred)
    for form in (gold, *alternates):
        canon_gold = canonicalize(form)
        if not canon_gold:
            continue
        if canon_pred == canon_gold or _boundary_find(canon_pred, canon_gold) >= 0:
            return True
    return False


def reference_score_sentence(pred, gold):
    pred_tokens = tokenize(pred)
    gold_tokens = tokenize(gold)
    if not pred_tokens or not gold_tokens:
        return 0.0
    lcs = reference_lcs_length(pred_tokens, gold_tokens)
    if lcs == 0:
        return 0.0
    precision = lcs / len(pred_tokens)
    recall = lcs / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


INFINITE = "9" * 400  # parses to float("inf")
NUMBER_TEXTS = ["0", "-0", "0.0", "-0.0", "0.000", "00", "100", "105", "95", "105.01", "94.99",
                "-100", "-105", "1,000", "1,050", "0.001", "-0.001", "1e3", "4:10", "16:10 PM",
                "7 units", "$30", "", " ", "none", "-", INFINITE, "-" + INFINITE]
PHRASE_TEXTS = ["", " ", "Yes", "yes.", "no", "C", "Cat", "option C", "4:10 PM", "16:10",
                "4:10", "12:00 am", "0:00", "organization chart", "An Organization  Chart",
                "10", "105", "a-b", "é", "İ", "ß", ".", "the answer is c."]
SENTENCE_TEXTS = ["", " ", "...", "!? -", "the cat sat", "The cat ran.", "cat", "a b c",
                  "c b a", "4:10 pm", "16 10", "Sat, the cat."]


@pytest.mark.parametrize("pred, gold, alternates, tolerant, verdict", [
    ("0", "0", (), True, "correct"),
    ("-0", "0", (), True, "correct"),
    ("0.0", "-0.0", (), True, "correct"),
    ("0.001", "0", (), True, "incorrect"),
    ("-0.001", "-0", (), True, "incorrect"),
    ("none", "0", (), True, "unparsable"),
    ("5", "0", (INFINITE,), True, "correct"),
    ("5", "0", (INFINITE,), False, "incorrect"),
    (INFINITE, "100", (), True, "incorrect"),
    (INFINITE, INFINITE, (), True, "incorrect"),
    (INFINITE, INFINITE, (), False, "correct"),
    ("at 4:10", "10", (), True, "correct"),
    ("1,050", "1,000", (), True, "correct"),
], ids=["zero", "negative-zero", "zero-point-zero", "near-zero", "near-negative-zero",
        "no-number", "infinite-alternate", "infinite-alternate-strict", "infinite-prediction",
        "infinite-both", "infinite-both-strict", "clock-time", "thousands"])
def test_numeric_edge_cases_match_the_reference(pred, gold, alternates, tolerant, verdict):
    assert score_numeric(pred, gold, alternates, tolerant) == verdict
    assert reference_score_numeric(pred, gold, alternates, tolerant) == verdict


def test_one_rule_scores_equal_the_references_on_seeded_cases():
    rng = Random(2525)
    words = ["the", "cat", "sat", "ran", "a", "b"]
    for _ in range(20000):
        pred = rng.choice(NUMBER_TEXTS)
        if rng.random() < 0.3:
            pred = f"{rng.uniform(-200, 200):.{rng.randint(0, 3)}f}"
        gold = rng.choice(NUMBER_TEXTS)
        alternates = tuple(rng.sample(NUMBER_TEXTS, rng.randint(0, 2)))
        for tolerant in (False, True):
            assert (score_numeric(pred, gold, alternates, tolerant)
                    == reference_score_numeric(pred, gold, alternates, tolerant)), (
                pred, gold, alternates, tolerant)

        phrase = " ".join(rng.sample(PHRASE_TEXTS, rng.randint(0, 3)))
        gold = rng.choice([phrase, phrase.upper(), *PHRASE_TEXTS])
        alternates = tuple(rng.sample(PHRASE_TEXTS, rng.randint(0, 2)))
        assert (score_phrase(phrase, gold, alternates)
                == reference_score_phrase(phrase, gold, alternates)), (phrase, gold, alternates)

        pred = rng.choice(SENTENCE_TEXTS + [" ".join(rng.choices(words, k=rng.randint(0, 6)))])
        gold = rng.choice(SENTENCE_TEXTS + [" ".join(rng.choices(words, k=rng.randint(0, 6)))])
        assert score_sentence(pred, gold) == reference_score_sentence(pred, gold), (pred, gold)

        a = rng.choices(words, k=rng.randint(0, 8))
        b = rng.choices(words, k=rng.randint(0, 8))
        assert lcs_length(a, b) == reference_lcs_length(a, b), (a, b)


# -- numeric ----------------------------------------------------------------


def test_tolerant_examples():
    assert score_numeric("about 104", "100", tolerant=True) == "correct"
    assert score_numeric("106", "100", tolerant=True) == "incorrect"


def test_tolerant_boundary_inclusive():
    assert score_numeric("105", "100", tolerant=True) == "correct"
    assert score_numeric("95", "100", tolerant=True) == "correct"
    assert score_numeric("105.01", "100", tolerant=True) == "incorrect"
    assert score_numeric("94.99", "100", tolerant=True) == "incorrect"


def test_zero_gold_requires_zero():
    assert score_numeric("0", "0", tolerant=True) == "correct"
    assert score_numeric("0.1", "0", tolerant=True) == "incorrect"


def test_strict_equality():
    assert score_numeric("4.0", "4", tolerant=False) == "correct"
    assert score_numeric("4.2", "4", tolerant=False) == "incorrect"


def test_unparsable():
    assert score_numeric("no idea", "4") == "unparsable"


def test_numeric_alternates():
    assert score_numeric("7", "6", alternates=("7",), tolerant=False) == "correct"


def test_extracts_last_number():
    assert score_numeric("40 - 10 = 30", "30", tolerant=True) == "correct"


@given(st.floats(1, 1e6), st.floats(-0.2, 0.2), st.floats(-0.2, 0.2))
def test_tolerance_symmetric_and_monotone(g, e1, e2):
    p1, p2 = g * (1 + e1), g * (1 + e2)
    boundary = NUMERIC_TOLERANCE * g
    # str() round-trips floats exactly; skip knife-edge cases where a one-ulp
    # difference decides the verdict.
    if any(abs(abs(p - g) - boundary) < 1e-9 * g for p in (p1, p2, 2 * g - p1)):
        return
    r1 = score_numeric(str(p1), str(g), tolerant=True)
    r2 = score_numeric(str(p2), str(g), tolerant=True)
    if abs(p1 - g) <= abs(p2 - g) and r2 == "correct":
        assert r1 == "correct"
    mirrored = score_numeric(str(2 * g - p1), str(g), tolerant=True)
    assert mirrored == r1


# -- phrase -----------------------------------------------------------------


def test_phrase_containment():
    assert score_phrase("It is an organization chart.", "organization chart")
    assert not score_phrase("No", "Yes")
    assert score_phrase("16:10", "4:10", alternates=("16:10",))


def test_phrase_token_boundary():
    assert not score_phrase("105", "10")
    assert score_phrase("answer: 10.", "10")
    assert not score_phrase("option Cat", "C")
    assert score_phrase("The answer is C.", "C")


def regex_boundary_find(haystack, needle):
    """The boundary search as a per-needle regex, the reference for
    _boundary_find."""
    m = re.search(r"(?<![a-z0-9])" + re.escape(needle) + r"(?![a-z0-9])", haystack)
    return m.start() if m else -1


def test_boundary_find_matches_regex_reference():
    rng = Random(4111)
    alphabet = ["a", "a", "1", " ", " ", ".", "-", "(", "é", "ß", "İ", "A", "z"]
    cases = [("", ""), ("a", ""), ("a b", ""), ("ab", ""), (" ", ""), ("aaa", "aa"),
             ("aaa aa", "aa"), ("aa aaa", "aa"), ("1a1 a", "a"), ("ßa ß", "ß")]
    for _ in range(20000):
        haystack = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 16)))
        if haystack and rng.random() < 0.5:
            start = rng.randrange(len(haystack))
            needle = haystack[start:start + rng.randint(0, 4)]
        else:
            needle = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 3)))
        cases.append((haystack, needle))
    for haystack, needle in cases:
        assert _boundary_find(haystack, needle) == regex_boundary_find(haystack, needle), (
            haystack, needle)


# -- sentence ---------------------------------------------------------------


def test_rouge_identical():
    assert score_sentence("The cat sat.", "the cat sat") == pytest.approx(1.0)


def test_rouge_disjoint():
    assert score_sentence("alpha beta", "gamma delta") == 0.0


def test_rouge_partial_case():
    # LCS("the cat ran", "the cat sat") = 2; P = R = 2/3; F1 = 2/3.
    assert score_sentence("the cat ran", "the cat sat") == pytest.approx(2 / 3)


def test_rouge_empty_pred():
    assert score_sentence("", "something") == 0.0


def test_lcs_matches_oracle_on_1000_random_cases():
    rng = Random(977)
    alphabet = ["a", "b", "c", "d", "e", "f", "g", "h"]
    for _ in range(1000):
        a = [rng.choice(alphabet) for _ in range(rng.randint(0, 12))]
        b = [rng.choice(alphabet) for _ in range(rng.randint(0, 12))]
        assert lcs_length(a, b) == lcs_oracle(a, b)
    # Long sides put the bit vector past one and two 64-bit words.
    for _ in range(40):
        a = [rng.choice(alphabet[:4]) for _ in range(rng.randint(0, 150))]
        b = [rng.choice(alphabet[:4]) for _ in range(rng.randint(60, 150))]
        assert lcs_length(a, b) == lcs_oracle(a, b)
        assert lcs_length(b, a) == lcs_oracle(a, b)


def test_rouge_matches_oracle_f1_on_random_sentences():
    rng = Random(31)
    words = ["sun", "moon", "star", "sky", "sea", "hill", "tree", "bird"]
    for _ in range(300):
        pred = " ".join(rng.choice(words) for _ in range(rng.randint(1, 10)))
        gold = " ".join(rng.choice(words) for _ in range(rng.randint(1, 10)))
        lcs = lcs_oracle(tokenize(pred), tokenize(gold))
        if lcs == 0:
            expected = 0.0
        else:
            p = lcs / len(tokenize(pred))
            r = lcs / len(tokenize(gold))
            expected = 2 * p * r / (p + r)
        assert score_sentence(pred, gold) == pytest.approx(expected)


# -- landmarks --------------------------------------------------------------

GOLD = ["Oak", "Pine", "Elm", "Maple"]


def test_lcr_exact_sequence():
    assert score_landmarks("Oak, Pine, Elm, Maple", GOLD) == 1.0


def test_lcr_missing_one_is_075():
    # Extracted sequence [Oak, Elm, Maple]: LCS with gold = 3, LCR = 0.75.
    pred = "Start at Oak, continue to Elm and finish at Maple."
    assert score_landmarks(pred, GOLD) == 0.75


def test_lcr_reversed_is_025():
    pred = "Maple then Elm then Pine then Oak"
    assert score_landmarks(pred, GOLD) == 0.25


def test_lcr_no_names_is_zero():
    assert score_landmarks("I cannot find a route.", GOLD) == 0.0


def test_lcr_word_boundaries():
    assert extract_landmarks("Oakland has no landmarks", GOLD) == []
    assert extract_landmarks("the Oak stands", GOLD) == ["Oak"]


def test_lcr_first_occurrence_order():
    assert extract_landmarks("Elm before Oak and Elm again", GOLD) == ["Elm", "Oak"]


def test_lcr_against_lcs_oracle():
    rng = Random(11)
    for _ in range(500):
        perm = rng.sample(GOLD, rng.randint(0, 4))
        pred = " ".join(perm) if perm else "nothing"
        expected = lcs_oracle(perm, GOLD) / len(GOLD)
        assert score_landmarks(pred, GOLD) == pytest.approx(expected)


# -- aggregation ------------------------------------------------------------


def record(rid, scenario, kind, qtype, answer, alternates=(), rationale="r"):
    return InstructionRecord(
        id=rid, scenario=scenario, image_ref=f"images/{scenario}/{rid}.svg",
        question=f"q-{rid}", answer=answer, answer_kind=kind, question_type=qtype,
        alternates=tuple(alternates), rationale=rationale,
        provenance=Provenance("chart-gen", 0),
    )


def fixture_manifest():
    return Manifest(records=[
        record("chart-1", "chart", "numeric", "extraction", "100"),
        record("chart-2", "chart", "numeric", "math", "100"),
        record("map-1", "map", "landmark_sequence", "navigation", "Oak, Pine, Elm, Maple"),
        record("map-2", "map", "landmark_sequence", "navigation", "Oak, Pine, Elm, Maple"),
        record("dash-1", "dashboard", "phrase", "reading", "8:10", alternates=("20:10",)),
        record("flow-1", "flowchart", "numeric", "structure_count", "4"),
        record("flow-2", "flowchart", "numeric", "structure_count", "4"),
        record("puzzle-1", "puzzle", "choice", "induction", "C"),
        record("layout-1", "layout", "phrase", "largest_room", "Bedroom 1",
               alternates=("Bedroom 2",)),
        record("chart-3", "chart", "sentence", "caption", "the cat sat"),
        record("graph-1", "relation_graph", "phrase", "existence", "Yes"),
        record("table-1", "table", "numeric", "extraction", "0"),
    ])


FIXTURE_PREDICTIONS = {
    "chart-1": "It looks like about 104",
    "chart-2": "106",
    "map-1": "Start at Oak, continue to Elm and finish at Maple.",
    "map-2": "Maple then Elm then Pine then Oak",
    "dash-1": "The clock shows 8:10.",
    "flow-1": "4",
    "flow-2": "no idea",
    "puzzle-1": "The answer is C.",
    "layout-1": "bedroom 2",
    "chart-3": "the cat ran",
    # graph-1 intentionally missing
    "table-1": "0",
}


def test_hand_computed_fixture_report():
    report = aggregate(fixture_manifest(), FIXTURE_PREDICTIONS)
    counts = report.total.counts
    assert counts == {"gold": 12, "scored": 10, "missing": 1, "unparsable": 1}

    s = report.per_scenario
    assert s["chart"].accuracy == pytest.approx(50.0)  # 104 in, 106 out
    assert s["chart"].rouge_mean == pytest.approx(2 / 3)
    assert s["map"].accuracy == pytest.approx(50.0)  # (0.75 + 0.25) / 2
    assert s["map"].lcr_mean_pct == pytest.approx(50.0)
    assert s["dashboard"].accuracy == pytest.approx(100.0)
    assert s["flowchart"].accuracy == pytest.approx(50.0)
    assert s["flowchart"].unparsable == 1
    assert s["puzzle"].accuracy == pytest.approx(100.0)
    assert s["layout"].accuracy == pytest.approx(100.0)
    assert s["relation_graph"].accuracy == pytest.approx(0.0)
    assert s["relation_graph"].missing == 1
    assert s["table"].accuracy == pytest.approx(100.0)

    # Points: chart 1, map 1, dashboard 1, flowchart 1, puzzle 1, layout 1,
    # relation_graph 0, table 1 = 7 over 11 non-sentence records.
    assert report.total.accuracy == pytest.approx(100.0 * 7.0 / 11.0)
    assert report.total.rouge_mean == pytest.approx(2 / 3)
    assert report.total.lcr_mean_pct == pytest.approx(50.0)

    per_type = {qt: 100.0 * pts / n for qt, (pts, n) in report.per_question_type.items()}
    assert per_type["extraction"] == pytest.approx(100.0)
    assert per_type["math"] == pytest.approx(0.0)
    assert per_type["navigation"] == pytest.approx(50.0)
    assert per_type["structure_count"] == pytest.approx(50.0)


def test_aggregate_permutation_invariant():
    manifest = fixture_manifest()
    forward = aggregate(manifest, dict(FIXTURE_PREDICTIONS))
    shuffled = dict(reversed(list(FIXTURE_PREDICTIONS.items())))
    assert aggregate(manifest, shuffled).to_json() == forward.to_json()


def test_empty_predictions_all_missing():
    manifest = fixture_manifest()
    report = aggregate(manifest, {})
    assert report.total.missing == 12
    assert report.total.accuracy == pytest.approx(0.0)
    for s in report.per_scenario.values():
        assert s.accuracy in (0.0, None)


def test_all_correct_is_100():
    manifest = Manifest(records=[
        record("a", "chart", "numeric", "extraction", "10"),
        record("b", "chart", "numeric", "extraction", "20"),
    ])
    report = aggregate(manifest, {"a": "10", "b": "20"})
    assert report.per_scenario["chart"].accuracy == pytest.approx(100.0)


def test_prediction_file_round_trip():
    preds = [("a", "answer one"), ("b", "twoé")]
    data = dump_predictions(preds)
    assert load_predictions(data) == {"a": "answer one", "b": "twoé"}


def test_prediction_lines_end_at_newline_only():
    # A model response may hold characters that str.splitlines breaks at.
    responses = {"a": "one\u2028two", "b": "x\x85y\u2029z", "c": "\x1c"}
    data = dump_predictions(responses.items())
    assert load_predictions(data) == responses
    assert load_predictions(data.replace(b"\n", b"\r\n")) == responses


@pytest.mark.parametrize("response, json_type", [
    ("null", "null"), ("true", "a boolean"), ("false", "a boolean"), ("[1]", "an array"),
    ('{"x": 1}', "an object"),
], ids=["null", "true", "false", "array", "object"])
def test_prediction_response_of_another_json_type_is_refused(response, json_type):
    data = '{"id": "a", "response": "1"}\n\n{"id": "b", "response": ' + response + "}\n"
    message = f"prediction line 3: response must be a string or a number, not {json_type}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_predictions(data)


@pytest.mark.parametrize("record_id, json_type", [
    ("null", "null"), ("true", "a boolean"), ("7", "an integer"), ("7.5", "a number"),
    ('["a"]', "an array"), ('{"a": 1}', "an object"),
], ids=["null", "true", "integer", "float", "array", "object"])
def test_prediction_id_of_another_json_type_is_refused(record_id, json_type):
    data = '{"id": "a", "response": "1"}\n\n{"id": ' + record_id + ', "response": "1"}\n'
    message = f"prediction line 3: id must be a string, not {json_type}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_predictions(data)


@pytest.mark.parametrize("response, text", [
    ('"4:10 PM"', "4:10 PM"), ("42", "42"), ("-1.5", "-1.5"), ("1e3", "1000.0"),
    ("1e65", "1" + "0" * 65), ("1E16", "10000000000000000"), ("1.5e-07", "0.00000015"),
    ("-2.5e20", "-250000000000000000000"), ("12345678901234567890", "12345678901234567890"),
    ("1e400", "inf"), ("NaN", "nan"),
], ids=["string", "integer", "float", "exponent", "exponent-65", "exponent-16",
        "exponent-negative", "exponent-negative-number", "long-integer", "infinity", "nan"])
def test_prediction_response_number_is_read_as_its_text(response, text):
    """A float whose repr has an exponent is written out with the same
    digits, so that parse_number reads the number and not its exponent."""
    assert load_predictions('{"id": "a", "response": ' + response + "}") == {"a": text}


def test_a_number_in_exponent_form_scores_as_the_number():
    manifest = Manifest(records=[record("a", "chart", "numeric", "extraction", "65"),
                                 record("b", "chart", "numeric", "extraction", "-7"),
                                 record("c", "chart", "numeric", "extraction", "400")])
    predictions = load_predictions('{"id": "a", "response": 1e65}\n'
                                   '{"id": "b", "response": 1.5e-07}\n'
                                   '{"id": "c", "response": 1e400}\n')
    chart = aggregate(manifest, predictions).per_scenario["chart"]
    assert (chart.accuracy, chart.scored, chart.unparsable) == (0.0, 2, 1)


def test_report_text_renders():
    report = aggregate(fixture_manifest(), FIXTURE_PREDICTIONS)
    txt = render_report_text(report)
    assert "chart" in txt and "overall accuracy" in txt
    parsed = json.loads(report.to_json())
    assert parsed["counts"]["gold"] == 12


def test_dataset_stats_recounts():
    manifest = fixture_manifest()
    stats = dataset_stats(manifest)
    assert stats["records"] == 12
    assert stats["per_scenario"]["chart"]["records"] == 3
    assert stats["per_question_type"]["extraction"] == 2
    assert stats["per_split"] == {"test": 12}
