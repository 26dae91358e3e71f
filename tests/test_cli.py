"""CLI surface: gen/eval/stats/gallery commands and their files."""

import argparse
import dataclasses
import html
import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from absynth import cli, pipeline
from absynth.bridge import BackendConfig
from absynth.cli import main
from absynth.gate import GateConfig
from absynth.records import (
    InstructionRecord, Manifest, Provenance, dump_manifest, load_manifest, record_to_json,
)
from tests_helpers import dump_predictions


def run(argv):
    return main([str(a) for a in argv])


def gen(tmp_path, *extra):
    out = tmp_path / "data"
    code = run(["gen", "--scenario", "chart", "--scenario", "map", "--count", 3,
                "--seed", 9, "--out", out, *extra])
    assert code == 0
    return out


def test_gen_writes_manifest_images_gate_report(tmp_path, capsys):
    out = gen(tmp_path)
    manifest = load_manifest((out / "manifest.jsonl").read_bytes())
    assert manifest.stats()["chart"]["images"] == 3
    assert manifest.stats()["map"]["images"] == 3
    assert (out / "gate_report.json").exists()
    for record in manifest.records:
        assert (out / record.image_ref).exists()
    printed = capsys.readouterr().out
    assert "chart" in printed and "accepted" in printed


def test_gen_twice_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert run(["gen", "--all", "--count", 2, "--seed", 4, "--out", out]) == 0
    assert (out_a / "manifest.jsonl").read_bytes() == (out_b / "manifest.jsonl").read_bytes()
    assert (out_a / "gate_report.json").read_bytes() == (out_b / "gate_report.json").read_bytes()
    images_a = sorted((out_a / "images").rglob("*.svg"))
    images_b = sorted((out_b / "images").rglob("*.svg"))
    assert [p.name for p in images_a] == [p.name for p in images_b]
    for pa, pb in zip(images_a, images_b):
        assert pa.read_bytes() == pb.read_bytes()


def test_jobs_1_writes_the_same_bytes_as_no_jobs_flag(tmp_path):
    """bench/run.py passes --jobs 1 to every gen run, so the flag must stay
    accepted and change no output byte."""
    with_flag = gen(tmp_path / "with", "--jobs", 1)
    without = gen(tmp_path / "without")
    names = sorted(p.relative_to(without).as_posix() for p in without.rglob("*") if p.is_file())
    assert names == sorted(p.relative_to(with_flag).as_posix()
                           for p in with_flag.rglob("*") if p.is_file())
    for name in names:
        assert (with_flag / name).read_bytes() == (without / name).read_bytes(), name


@pytest.mark.parametrize("jobs", [0, 2])
def test_jobs_other_than_1_is_one_line_error(tmp_path, capsys, jobs):
    out = tmp_path / "out"
    assert run(["gen", "--all", "--count", 1, "--jobs", jobs, "--out", out]) == 1
    assert one_line_error(capsys) == f"error: --jobs must be 1, not {jobs}: gen runs on one thread"
    assert not out.exists()


def test_gen_prints_scenarios_in_the_order_named(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out, first, second in ((out_a, "table", "chart"), (out_b, "chart", "table")):
        capsys.readouterr()
        assert run(["gen", "--scenario", first, "--scenario", second, "--count", 2,
                    "--seed", 4, "--out", out]) == 0
        printed = [ln.split()[0] for ln in capsys.readouterr().out.splitlines()]
        assert printed[:2] == [first, second]
    for name in ("manifest.jsonl", "gate_report.json", "review_sample.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_dry_run_writes_nothing(tmp_path, capsys):
    out = tmp_path / "never"
    assert run(["gen", "--all", "--count", 5, "--out", out, "--dry-run"]) == 0
    assert not out.exists()
    assert "dry run" in capsys.readouterr().out


def test_config_file_counts(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"counts": {"chart": 2, "table": 1},
                               "scenarios": ["chart", "table"], "seed": 3}))
    out = tmp_path / "out"
    assert run(["gen", "--config", cfg, "--out", out]) == 0
    manifest = load_manifest((out / "manifest.jsonl").read_bytes())
    assert manifest.stats()["chart"]["images"] == 2
    assert manifest.stats()["table"]["images"] == 1


def test_eval_perfect_predictions(tmp_path, capsys):
    out = gen(tmp_path)
    manifest = load_manifest((out / "manifest.jsonl").read_bytes())
    preds = [(r.id, r.answer) for r in manifest.records]
    pred_path = tmp_path / "preds.jsonl"
    pred_path.write_bytes(dump_predictions(preds))
    assert run(["eval", out / "manifest.jsonl", pred_path, "--out", tmp_path]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["counts"]["missing"] == 0
    assert report["overall_accuracy"] == 100.0
    assert report["per_scenario"]["map"]["lcr_mean_pct"] == 100.0
    assert (tmp_path / "report.txt").exists()


def test_eval_max_missing_exit_code(tmp_path):
    out = gen(tmp_path)
    pred_path = tmp_path / "empty.jsonl"
    pred_path.write_text("")
    assert run(["eval", out / "manifest.jsonl", pred_path, "--out", tmp_path,
                "--max-missing", 0]) == 2


def test_negative_max_missing_is_one_line_error(tmp_path, capsys):
    """Every eval would fail a negative bound, so it is refused before any
    file is read."""
    assert run(["eval", tmp_path / "nope.jsonl", tmp_path / "nope.jsonl",
                "--out", tmp_path, "--max-missing", -1]) == 1
    assert one_line_error(capsys) == "error: --max-missing must be >= 0, not -1"


def test_eval_missing_file_is_error(tmp_path, capsys):
    out = gen(tmp_path)
    assert run(["eval", out / "manifest.jsonl", tmp_path / "nope.jsonl"]) == 1
    assert "error" in capsys.readouterr().err


def test_eval_schema_mismatch(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"kind": "manifest-header", "schema_version": "99"}\n')
    preds = tmp_path / "p.jsonl"
    preds.write_text("")
    assert run(["eval", bad, preds]) == 1
    assert "schema_version" in capsys.readouterr().err


def test_stats_counts_match_config(tmp_path):
    out = gen(tmp_path)
    assert run(["stats", out / "manifest.jsonl", "--out", tmp_path]) == 0
    stats = json.loads((tmp_path / "stats.json").read_text())
    assert stats["per_scenario"]["chart"]["images"] == 3
    assert stats["per_scenario"]["map"]["images"] == 3
    assert (tmp_path / "stats.txt").exists()


def test_gallery_lists_every_image(tmp_path):
    out = gen(tmp_path)
    assert run(["gallery", out / "manifest.jsonl"]) == 0
    html = (out / "gallery.html").read_text()
    manifest = load_manifest((out / "manifest.jsonl").read_bytes())
    for record in manifest.records:
        assert record.image_ref in html


def image_srcs(page) -> list[str]:
    return [html.unescape(src) for src in re.findall(r'<img src="([^"]*)"', page.read_text())]


def test_gallery_beside_the_manifest_links_each_image_ref(tmp_path):
    out = gen(tmp_path)
    assert run(["gallery", out / "manifest.jsonl"]) == 0
    manifest = load_manifest((out / "manifest.jsonl").read_bytes())
    assert image_srcs(out / "gallery.html") == sorted({r.image_ref for r in manifest.records})


def test_gallery_out_elsewhere_links_every_image(tmp_path):
    """A page two directories away from the manifest, in a directory that
    does not exist yet, still shows every image."""
    out = gen(tmp_path)
    page = tmp_path / "site" / "pages" / "g.html"
    assert run(["gallery", out / "manifest.jsonl", "--out", page]) == 0
    manifest = load_manifest((out / "manifest.jsonl").read_bytes())
    srcs = image_srcs(page)
    assert len(srcs) == len({r.image_ref for r in manifest.records}) > 0
    assert all(src.startswith("../../") for src in srcs)
    assert all((page.parent / src).resolve().is_file() for src in srcs)


def test_gallery_empty_manifest_is_valid_page(tmp_path):
    manifest_path = tmp_path / "m.jsonl"
    manifest_path.write_text('{"kind": "manifest-header", "schema_version": "1"}\n')
    assert run(["gallery", manifest_path, "--out", tmp_path / "g.html"]) == 0
    html = (tmp_path / "g.html").read_text()
    assert "<html" in html and "0 images" in html


def test_gen_with_offline_backend_file(tmp_path):
    backend = tmp_path / "backend.json"
    backend.write_text(json.dumps({"endpoint": "", "model": "offline"}))
    out = tmp_path / "with-llm"
    assert run(["gen", "--scenario", "chart", "--count", 2, "--seed", 1,
                "--out", out, "--backend", backend]) == 0
    manifest = load_manifest((out / "manifest.jsonl").read_bytes())
    llm = [r for r in manifest.records if r.question_type == "llm_qa"]
    assert llm and all(r.provenance.generator == "llm-bridge" for r in llm)


def test_gen_summary_counts_images_not_records(tmp_path, monkeypatch, capsys):
    from absynth import pipeline
    from absynth.records import Verdict
    real = pipeline.verify_record

    def fail_one(record, oracle):
        if record.id == "chart-00001-q02":
            return Verdict(False, "forced mismatch")
        return real(record, oracle)

    monkeypatch.setattr(pipeline, "verify_record", fail_one)
    out = tmp_path / "out"
    assert run(["gen", "--scenario", "chart", "--count", 2, "--seed", 1, "--out", out]) == 0
    line = next(ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("chart"))
    assert "accepted    2" in line
    assert "rejected   0" in line
    report = json.loads((out / "gate_report.json").read_text())
    assert report["outcomes"]["chart-00001-q02"] == {
        "accepted": False, "stage": "accuracy", "reason": "forced mismatch"}


def one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1, err
    return lines[0]


@pytest.mark.parametrize("config, key", [
    ({"sead": 3}, "'sead'"),
    ({"gate": {"max_retry": 2}}, "'gate.max_retry'"),
    ({"backend": {"modle": "offline"}}, "'backend.modle'"),
    # Feasibility is one build, so the retry budget is no key any more.
    ({"gate": {"max_retries": 3}}, "'gate.max_retries'"),
    # gen runs on one thread, so the worker count is no key any more.
    ({"jobs": 1}, "'jobs'"),
])
def test_unknown_run_config_key_is_one_line_error(tmp_path, capsys, config, key):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    assert run(["gen", "--config", cfg, "--out", tmp_path / "out", "--dry-run"]) == 1
    assert one_line_error(capsys) == f"error: unknown run-config key {key}"


@pytest.mark.parametrize("config, message", [
    ([1, 2], "run-config file must be a JSON object"),
    ({"gate": 3}, "run-config gate must be a JSON object"),
])
def test_run_config_sections_must_be_objects(tmp_path, capsys, config, message):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    assert run(["gen", "--config", cfg, "--dry-run"]) == 1
    assert one_line_error(capsys) == f"error: {message}"


def test_unknown_backend_file_key_is_one_line_error(tmp_path, capsys):
    backend = tmp_path / "backend.json"
    backend.write_text(json.dumps({"modle": "offline"}))
    assert run(["gen", "--backend", backend, "--dry-run"]) == 1
    assert one_line_error(capsys) == "error: unknown backend-config key 'modle'"


@pytest.mark.parametrize("flag, source", [("--config", "run-config"),
                                          ("--backend", "backend-config")])
@pytest.mark.parametrize("content, problem", [
    (b"{bad}", "invalid JSON (Expecting property name enclosed in double quotes: "
               "line 1 column 2)"),
    (b'{"model": "\xff"}', "not UTF-8 (invalid start byte)"),
], ids=["invalid-json", "not-utf8"])
def test_unreadable_config_file_error_names_the_file(tmp_path, capsys, flag, source,
                                                     content, problem):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert run(["gen", flag, path, "--out", tmp_path / "out", "--dry-run"]) == 1
    assert one_line_error(capsys) == f"error: {source} file {path}: {problem}"


@pytest.mark.parametrize("flag, source", [("--config", "run-config"),
                                          ("--backend", "backend-config")])
def test_missing_config_file_is_worded_like_any_missing_input(tmp_path, capsys, flag, source):
    """As a missing manifest or prediction file is, with no errno or quotes."""
    path = tmp_path / "missing.json"
    assert run(["gen", flag, path, "--out", tmp_path / "out", "--dry-run"]) == 1
    assert one_line_error(capsys) == f"error: {source} file not found: {path}"


def test_run_config_file_values_still_apply(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": 3, "out": str(tmp_path / "o"),
                               "default_count": 4, "gate": {"min_vote_support": 1}}))
    assert run(["gen", "--config", cfg, "--dry-run"]) == 0
    printed = capsys.readouterr().out
    assert f"seed 3, out {str(tmp_path / 'o')!r}, images" in printed
    assert "'chart': 4" in printed


@pytest.mark.parametrize("seed", ["18446744073709551617", "18446744073709551616", "-1"])
def test_seed_outside_64_bits_is_one_line_error(tmp_path, capsys, seed):
    assert run(["gen", "--seed", seed, "--out", tmp_path / "out", "--dry-run"]) == 1
    assert "seed" in one_line_error(capsys)


def test_largest_64_bit_seed_accepted(tmp_path):
    assert run(["gen", "--seed", 2**64 - 1, "--out", tmp_path / "out", "--dry-run"]) == 0


@pytest.mark.parametrize("line, reason", [
    ('{"id": "x"}', "'response'"),
    ('{"response": "4"}', "'id'"),
    ('["x", "4"]', "object"),
    ('{"id": "x", "response": ', "invalid JSON"),
    ('{"id": "x", "response": null}', "response must be a string or a number, not null"),
    ('{"id": null, "response": "4"}', "id must be a string, not null"),
])
def test_bad_prediction_line_is_one_line_error_with_line_number(tmp_path, capsys, line, reason):
    out = gen(tmp_path)
    capsys.readouterr()
    preds = tmp_path / "p.jsonl"
    preds.write_text('{"id": "a", "response": "1"}\n\n' + line + "\n")
    assert run(["eval", out / "manifest.jsonl", preds, "--out", tmp_path]) == 1
    message = one_line_error(capsys)
    assert message.startswith("error: prediction line 3: ")
    assert reason in message


@pytest.mark.parametrize("command", ["eval", "stats", "gallery"])
def test_malformed_manifest_line_is_one_line_error(tmp_path, capsys, command):
    out = gen(tmp_path)
    capsys.readouterr()
    manifest = out / "manifest.jsonl"
    with manifest.open("a") as fh:
        fh.write("[1, 2]\n")
    line_number = len(manifest.read_text().splitlines())
    preds = tmp_path / "p.jsonl"
    preds.write_text("")
    argv = {"eval": [manifest, preds, "--out", tmp_path], "stats": [manifest, "--out", tmp_path],
            "gallery": [manifest, "--out", tmp_path / "g"]}[command]
    assert run([command, *argv]) == 1
    assert one_line_error(capsys).startswith(f"error: manifest line {line_number}: ")


# A JSON array nested deeper than the JSON scanner follows on any supported
# Python: past its limit the scanner raises RecursionError, not a decode error.
DEEP = "[" * 100_000 + "]" * 100_000


def test_deeply_nested_prediction_line_is_one_line_error(tmp_path, capsys):
    out = gen(tmp_path)
    capsys.readouterr()
    preds = tmp_path / "p.jsonl"
    preds.write_text('{"id": "a", "response": "1"}\n{"id": "b", "response": ' + DEEP + "}\n")
    assert run(["eval", out / "manifest.jsonl", preds, "--out", tmp_path]) == 1
    assert one_line_error(capsys) == "error: prediction line 2: JSON nested too deeply"


def test_deeply_nested_manifest_line_is_one_line_error(tmp_path, capsys):
    out = gen(tmp_path)
    capsys.readouterr()
    manifest = out / "manifest.jsonl"
    with manifest.open("a") as fh:
        fh.write('{"id": ' + DEEP + "}\n")
    line_number = len(manifest.read_text().splitlines())
    assert run(["stats", manifest, "--out", tmp_path]) == 1
    assert one_line_error(capsys) == f"error: manifest line {line_number}: JSON nested too deeply"


@pytest.mark.parametrize("flag, source", [("--config", "run-config"),
                                          ("--backend", "backend-config")])
def test_deeply_nested_config_file_is_one_line_error(tmp_path, capsys, flag, source):
    path = tmp_path / "deep.json"
    path.write_text('{"counts": ' + DEEP + "}")
    assert run(["gen", flag, path, "--out", tmp_path / "out", "--dry-run"]) == 1
    assert one_line_error(capsys) == f"error: {source} file {path}: JSON nested too deeply"


# A JSON integer of more digits than int() converts (4300 by default): the
# scanner's int() raises a plain ValueError, not a decode error.
LONG_INT = "1" * 5000


def long_int_problem() -> str:
    with pytest.raises(ValueError) as err:
        int(LONG_INT)
    return f"invalid JSON ({err.value})"


def test_over_long_integer_prediction_line_is_one_line_error(tmp_path, capsys):
    out = gen(tmp_path)
    capsys.readouterr()
    preds = tmp_path / "p.jsonl"
    preds.write_text('{"id": "a", "response": ' + LONG_INT + "}\n")
    assert run(["eval", out / "manifest.jsonl", preds, "--out", tmp_path]) == 1
    assert one_line_error(capsys) == f"error: prediction line 1: {long_int_problem()}"


def test_over_long_integer_manifest_line_is_one_line_error(tmp_path, capsys):
    """A seed of 5000 digits is more than the record pattern's 20, so the
    line goes to the JSON scanner, which cannot convert it."""
    out = gen(tmp_path)
    capsys.readouterr()
    manifest = out / "manifest.jsonl"
    header, first, *rest = manifest.read_text(encoding="utf-8").split("\n")
    first = re.sub(r'"seed": [0-9]+', f'"seed": {LONG_INT}', first)
    manifest.write_text("\n".join([header, first, *rest]), encoding="utf-8")
    assert run(["stats", manifest, "--out", tmp_path]) == 1
    assert one_line_error(capsys) == f"error: manifest line 2: {long_int_problem()}"


@pytest.mark.parametrize("flag, source, key", [("--config", "run-config", "seed"),
                                               ("--backend", "backend-config", "max_parallel")])
def test_over_long_integer_config_file_is_one_line_error(tmp_path, capsys, flag, source, key):
    path = tmp_path / "long.json"
    path.write_text(f'{{"{key}": {LONG_INT}}}')
    assert run(["gen", flag, path, "--out", tmp_path / "out", "--dry-run"]) == 1
    assert one_line_error(capsys) == f"error: {source} file {path}: {long_int_problem()}"


def test_gen_validates_the_manifest_once(tmp_path, monkeypatch):
    calls = []
    real = Manifest.validate
    monkeypatch.setattr(Manifest, "validate", lambda self: calls.append(1) or real(self))
    gen(tmp_path)
    assert len(calls) == 1


@pytest.mark.parametrize("field, value, problem", [
    ("answer", 5, "answer must be a string, not int"),
    ("question", None, "question must be a string, not NoneType"),
    ("alternates", [3], "alternates must all be strings"),
    ("difficulty", "hard", "difficulty must be an integer, not str"),
    ("difficulty", True, "difficulty must be an integer, not bool"),
    ("id", ["a"], "id must be a string, not list"),
    ("question_type", ["math"], "question_type must be a string, not list"),
    ("image_ref", 5, "image_ref must be a string, not int"),
    ("provenance", {"generator": 7, "seed": 3}, "provenance generator must be a string, not int"),
    ("scenario", ["chart"], "unknown scenario ['chart']"),
    ("scenario", {"chart": 1}, "unknown scenario {'chart': 1}"),
    ("answer_kind", ["numeric"], "unknown answer_kind ['numeric']"),
    ("answer_kind", {"numeric": 1}, "unknown answer_kind {'numeric': 1}"),
    ("split", ["test"], "bad split ['test']"),
    ("split", {"test": 1}, "bad split {'test': 1}"),
])
def test_wrongly_typed_manifest_value_is_one_line_error(tmp_path, capsys, field, value, problem):
    out = gen(tmp_path)
    capsys.readouterr()
    manifest = out / "manifest.jsonl"
    lines = manifest.read_text().splitlines()
    # A numeric record, so a non-string answer would reach parse_number.
    n, record = next((n, r) for n, r in enumerate(map(json.loads, lines[1:]), start=1)
                     if r["answer_kind"] == "numeric")
    record[field] = value
    lines[n] = json.dumps(record)
    manifest.write_text("\n".join(lines) + "\n")
    preds = tmp_path / "p.jsonl"
    preds.write_text("")
    assert run(["eval", manifest, preds, "--out", tmp_path]) == 1
    message = one_line_error(capsys)
    assert message.startswith(f"error: manifest line {n + 1}: record {record['id']}: ")
    assert problem in message


def test_bad_backend_value_fails_the_dry_run(tmp_path, capsys):
    """NaN and infinity are no JSON numbers, so a temperature of either would
    make every request body invalid JSON."""
    backend = tmp_path / "f.json"
    for value, message in [
        ({"max_parallel": 0}, "max_parallel must be >= 1"),
        ({"temperature": float("nan")}, "temperature must be a finite number >= 0"),
        ({"temperature": float("inf")}, "temperature must be a finite number >= 0"),
        ({"temperature": -3.0}, "temperature must be a finite number >= 0"),
        ({"retry_budget": 9}, "retry_budget must be in [0, 8]"),
    ]:
        backend.write_text(json.dumps(value))
        assert run(["gen", "--dry-run", "--backend", backend]) == 1
        assert one_line_error(capsys) == f"error: {message}"


@pytest.mark.parametrize("flag, config, message", [
    ("--config", {"gate": {"min_vote_support": "3"}},
     "run-config key 'gate.min_vote_support' must be an integer, not a string"),
    ("--backend", {"max_parallel": "2"},
     "backend-config key 'max_parallel' must be an integer, not a string"),
    ("--config", {"gate": {"min_font_px": "8"}},
     "run-config key 'gate.min_font_px' must be a number, not a string"),
    ("--config", {"seed": True}, "run-config key 'seed' must be an integer, not a boolean"),
    ("--config", {"seed": 1.9}, "run-config key 'seed' must be an integer, not a number"),
    ("--config", {"counts": {"chart": 2.5}},
     "run-config key 'counts.chart' must be an integer, not a number"),
], ids=["gate.min_vote_support", "backend.max_parallel", "gate.min_font_px", "seed-true",
        "seed-float", "counts.chart"])
def test_wrongly_typed_config_value_is_one_line_error(tmp_path, capsys, flag, config, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run(["gen", flag, path, "--out", tmp_path / "out", "--dry-run"]) == 1
    assert one_line_error(capsys) == f"error: {message}"


@pytest.mark.parametrize("config, message", [
    ({"questions_per_image": -2}, "questions_per_image must be >= 1"),
    ({"questions_per_image": 0}, "questions_per_image must be >= 1"),
    ({"gate": {"min_font_px": float("nan")}}, "min_font_px must be a finite number >= 0"),
    ({"gate": {"min_font_px": -1}}, "min_font_px must be a finite number >= 0"),
    ({"gate": {"min_font_px": float("inf")}}, "min_font_px must be a finite number >= 0"),
    ({"gate": {"min_vote_support": 4}}, "min_vote_support must be in [1, 3]"),
    ({"counts": {"chart": 10**30}}, f"count {10**30} for 'chart' above 100000, "
                                    "the most that five-digit image ids can number"),
], ids=["questions_per_image-negative", "questions_per_image-zero", "min_font_px-nan",
        "min_font_px-negative", "min_font_px-inf", "min_vote_support-above-votes",
        "count-above-five-digit-ids"])
def test_bad_run_config_value_fails_the_dry_run(tmp_path, capsys, config, message):
    """A value that would drop records, or switch a gate off, without saying
    so is refused before any image is made."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    argv = ["gen", "--config", cfg, "--scenario", "chart", "--count", 2,
            "--out", tmp_path / "out", "--dry-run"]
    assert run(argv) == 1
    assert one_line_error(capsys) == f"error: {message}"


def test_config_values_of_their_json_type_are_accepted(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"train_fraction": 0, "gate": {"min_font_px": 8},
                               "backend": {"request_log": None, "temperature": 1}}))
    assert run(["gen", "--config", cfg, "--dry-run"]) == 0
    assert "dry run" in capsys.readouterr().out


def test_repeated_scenario_fails_the_dry_run(tmp_path, capsys):
    argv = ["gen", "--scenario", "chart", "--scenario", "chart", "--count", "1",
            "--out", tmp_path / "out", "--dry-run"]
    assert run(argv) == 1
    assert one_line_error(capsys) == "error: scenario 'chart' given twice"


def test_misspelt_counts_key_fails_the_dry_run(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"scenarios": ["chart"], "counts": {"chrat": 3},
                               "default_count": 1}))
    assert run(["gen", "--config", cfg, "--out", tmp_path / "out", "--dry-run"]) == 1
    assert one_line_error(capsys) == "error: unknown scenario 'chrat' in counts"


def test_gen_out_an_existing_file_is_one_line_error(tmp_path, capsys, monkeypatch):
    calls = []
    generate_image = pipeline.generate_image
    monkeypatch.setattr(pipeline, "generate_image",
                        lambda *args: calls.append(args) or generate_image(*args))
    taken = tmp_path / "taken"
    taken.write_text("")
    assert run(["gen", "--scenario", "chart", "--count", 3, "--out", taken]) == 1
    message = one_line_error(capsys)
    assert message.startswith("error: ") and "File exists" in message
    assert taken.read_text() == ""
    assert calls == []


@pytest.mark.parametrize("argv", [
    ["stats", "{dir}"],
    ["gallery", "{dir}"],
    ["eval", "{dir}", "{empty}"],
    ["eval", "{manifest}", "{dir}"],
    ["gen", "--config", "{dir}", "--dry-run"],
    ["gen", "--backend", "{dir}", "--dry-run"],
], ids=["stats", "gallery", "eval-gold", "eval-predictions", "gen-config", "gen-backend"])
def test_directory_given_as_a_file_is_one_line_error(tmp_path, capsys, argv):
    paths = {"dir": tmp_path / "a-directory", "empty": tmp_path / "p.jsonl",
             "manifest": tmp_path / "m.jsonl"}
    paths["dir"].mkdir()
    paths["empty"].write_text("")
    paths["manifest"].write_text('{"kind": "manifest-header", "schema_version": "1"}\n')
    assert run([arg.format(**paths) for arg in argv]) == 1
    message = one_line_error(capsys)
    assert message.startswith("error: ") and "Is a directory" in message


def test_main_builds_its_parser_once(monkeypatch):
    """Two main calls in one process build one parser (the main parser and
    its four command parsers); the cache is cleared first, so the order the
    tests run in cannot hide a rebuild."""
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *args, **kw: built.append(self) or init(self, *args, **kw))
    cli.build_parser.cache_clear()
    try:
        for _ in range(2):
            assert run(["gen", "--scenario", "map", "--count", 1, "--dry-run"]) == 0
    finally:
        cli.build_parser.cache_clear()
    assert len(built) == 5


def test_config_type_hints_are_resolved_once_per_class(tmp_path, monkeypatch):
    resolved = []
    get_type_hints = cli.get_type_hints
    monkeypatch.setattr(cli, "get_type_hints",
                        lambda cls: resolved.append(cls.__name__) or get_type_hints(cls))
    cli._type_hints.cache_clear()
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"gate": {"min_font_px": 8}, "backend": {"model": "offline"}}))
    try:
        for _ in range(2):
            assert run(["gen", "--config", cfg, "--dry-run"]) == 0
    finally:
        cli._type_hints.cache_clear()
    assert sorted(resolved) == ["BackendConfig", "GateConfig", "RunConfig"]


def outcome(argv, capsys, out) -> tuple:
    """Exit code (a usage error's SystemExit code too), stdout, stderr and
    the bytes of every file under `out`, after one main call."""
    try:
        code = main(argv)
    except SystemExit as exit_:
        code = exit_.code
    printed = capsys.readouterr()
    files = {p.relative_to(out).as_posix(): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()}
    return code, printed.out, printed.err, files


def test_successive_main_calls_are_independent(tmp_path, capsys, monkeypatch):
    """Each command run on the shared parser gives what a fresh parser gives:
    no --scenario list, --max-missing or usage error carries over."""
    commands = [
        ["gen", "--scenario", "map", "--count", "2", "--out", "a"],
        ["gen", "--scenario", "chart", "--scenario", "table", "--count", "1", "--out", "b"],
        ["eval", "a/manifest.jsonl", "empty.jsonl", "--out", "e1", "--max-missing", "0"],
        ["gen", "--scenario", "nope"],
        ["eval", "a/manifest.jsonl", "empty.jsonl", "--out", "e2"],
        ["gen", "--count", "1", "--out", "c"],
    ]
    outcomes = {}
    for fresh in (False, True):
        root = tmp_path / ("fresh" if fresh else "shared")
        root.mkdir()
        (root / "empty.jsonl").write_text("")
        monkeypatch.chdir(root)
        cli.build_parser.cache_clear()
        results = []
        for argv in commands:
            if fresh:
                cli.build_parser.cache_clear()
            results.append(outcome(argv, capsys, root))
        outcomes[fresh] = results
    cli.build_parser.cache_clear()
    assert [r[0] for r in outcomes[False]] == [0, 0, 2, 2, 0, 0]
    assert [line.split()[0] for line in outcomes[False][1][1].splitlines()] == \
        ["chart", "table", "wrote"]
    assert outcomes[False] == outcomes[True]


# ROADMAP item 21: every input reader survives any bytes. One command reads
# one drawn file, in process, and must exit 0 or 1 with stderr empty or one
# line that starts "error:". stdout is strict UTF-8 and stderr UTF-8 with
# backslashreplace, as the interpreter sets them up for a UTF-8 terminal, so
# text that a stream cannot encode fails here as it would there.
GOLD_RECORD = InstructionRecord("chart-00000-q00", "chart", "images/chart/chart-00000.svg",
                                "What is 'B'?", "30", "numeric", "ocr",
                                provenance=Provenance("chart-gen", 7))
GOLD = dump_manifest(Manifest(records=[GOLD_RECORD]))
JSON_KEYS = sorted({f.name for cls in (InstructionRecord, Provenance, pipeline.RunConfig,
                                       GateConfig, BackendConfig)
                    for f in dataclasses.fields(cls)}
                   | {"kind", "schema_version", "response", "out"})
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(JSON_KEYS) | st.text(max_size=4), inner, max_size=4),
    max_leaves=8)


def json_file(first: bytes, row: dict):
    """A file of `first` and one drawn JSON text: any value, or `row` with
    some of its keys set to drawn values."""
    overrides = st.dictionaries(st.sampled_from(sorted(row)), JSON_VALUES, max_size=3)
    values = JSON_VALUES | overrides.map(lambda changed: {**row, **changed})
    return values.map(lambda value: first + json.dumps(value).encode("utf-8") + b"\n")


# Each input: the argv that reads it, and its drawn JSON content.
INPUTS = {
    "manifest": (["stats", "{input}", "--out", "{out}"],
                 json_file(GOLD.split(b"\n")[0] + b"\n",
                           json.loads(record_to_json(GOLD_RECORD)))),
    "predictions": (["eval", "{gold}", "{input}", "--out", "{out}"],
                    json_file(b'{"id": "x", "response": "1"}\n',
                              {"id": GOLD_RECORD.id, "response": "30"})),
    "run-config": (["gen", "--config", "{input}", "--dry-run", "--out", "{out}"],
                   json_file(b"", {"scenarios": ["chart"], "counts": {"chart": 2},
                                    "default_count": 1, "seed": 3, "out": "out",
                                    "gate": {"min_font_px": 8.0}, "questions_per_image": 5,
                                    "train_fraction": 0.5, "backend": None})),
    "backend-config": (["gen", "--backend", "{input}", "--dry-run", "--out", "{out}"],
                       json_file(b"", {"endpoint": "", "model": "offline", "temperature": 0.7,
                                       "max_parallel": 2, "retry_budget": 2,
                                       "credential_env": "KEY", "request_log": None})),
}


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    (root / "gold.jsonl").write_bytes(GOLD)
    return root


@pytest.mark.parametrize("name", sorted(INPUTS))
@pytest.mark.parametrize("content", ["bytes", "json"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_any_input_gives_exit_0_or_1_and_at_most_one_error_line(input_dir, name, content, data):
    argv, json_files = INPUTS[name]
    drawn = data.draw(st.binary(max_size=64) if content == "bytes" else json_files)
    (input_dir / "input").write_bytes(drawn)
    paths = {key: str(input_dir / key) for key in ("input", "out")}
    argv = [arg.format(gold=input_dir / "gold.jsonl", **paths) for arg in argv]
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    out.flush()
    err.flush()
    printed = err.buffer.getvalue().decode("utf-8")
    assert code in (0, 1), printed
    assert printed == "" or (printed.startswith("error: ") and printed.count("\n") == 1
                             and printed.endswith("\n")), printed
    assert (printed == "") == (code == 0)
