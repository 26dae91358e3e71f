"""LLM bridge: the QA prompt, contracts, retries, fallback, self-consistency."""

import http.client
import json
import threading
import time
import urllib.request
from hashlib import sha256

import pytest

from absynth import bridge
from absynth.bridge import (
    BackendConfig, BackendUnavailable, ContractViolation, offline_transport, parse_output,
    propose_qa, self_consistent_answer,
)
from absynth.cli import main
from absynth.pipeline import RunConfig, generate_dataset
from absynth.records import dump_manifest, load_manifest


def test_templates_render_and_demand_contract():
    sent = []

    def recording(payload):
        sent.append(payload)
        return "question: q\nanswer: a"

    propose_qa("Digital Forensics Unit", transport=recording)
    [payload] = sent
    assert payload["stage"] == "qa"
    assert payload["context"] == {"topic": "Digital Forensics Unit"}
    assert "Digital Forensics Unit" in payload["prompt"]
    assert "Output format" in payload["prompt"]


def test_offline_fallback_is_deterministic_and_networkless():
    first = propose_qa("Regional Hospital", request_id=7)
    second = propose_qa("Regional Hospital", request_id=7)
    assert first == second


def test_offline_qa_stage():
    pairs = propose_qa("City Public Library")
    assert pairs and all({"question", "answer"} <= set(p) for p in pairs)


def test_malformed_reply_reprompts_once_then_raises():
    calls = []

    def broken(payload):
        calls.append(payload["prompt"])
        return "complete nonsense"

    with pytest.raises(ContractViolation) as err:
        propose_qa("x", transport=broken)
    assert len(calls) == 2
    assert "could not be parsed" in calls[1]
    assert err.value.raw == "complete nonsense"


def test_malformed_then_fixed_reply_succeeds():
    replies = iter(["garbage", "question: Fixed?\nanswer: yes"])
    sent = []

    def flaky(payload):
        sent.append(payload["request_id"])
        return next(replies)

    pairs = propose_qa("x", transport=flaky, request_id=5)
    assert pairs == [{"question": "Fixed?", "answer": "yes"}]
    assert sent == [5, 1_000_005]


def test_backend_retries_with_backoff(monkeypatch):
    sleeps = []
    monkeypatch.setattr(bridge, "_sleep", sleeps.append)
    attempts = []

    def down(payload):
        attempts.append(1)
        raise BackendUnavailable("boom")

    config = BackendConfig(retry_budget=2)
    with pytest.raises(BackendUnavailable, match="after 3 attempts"):
        propose_qa("x", config=config, transport=down)
    assert len(attempts) == 3
    assert sleeps == [0.2, 0.4]


def test_parse_output_answer_stage():
    assert parse_output("answer", "thinking...\nanswer: 42") == "42"
    with pytest.raises(ContractViolation):
        parse_output("answer", "no answer here")
    with pytest.raises(ContractViolation, match=r"^reply cannot be encoded as UTF-8 \(surro"):
        parse_output("answer", "answer: 4\ud8002")
    assert parse_output("answer", "answer: \U0001f600") == "\U0001f600"
    # Replies split into lines at "\n" only, not at the other Unicode breaks.
    assert parse_output("answer", "answer: 4\u20282") == "4\u20282"
    assert parse_output("qa", "question: a\x85b?\nanswer: c") == [
        {"question": "a\x85b?", "answer": "c"}]
    # A line whose value is empty is no pair: no answer, no QA pair.
    with pytest.raises(ContractViolation, match="missing 'answer:' line"):
        parse_output("answer", "answer:")
    assert parse_output("answer", "answer: \nanswer: 7") == "7"
    with pytest.raises(ContractViolation, match="no question/answer pairs"):
        parse_output("qa", "question: \nanswer: x")


def test_self_consistent_answer_votes():
    replies = iter(["answer: 30", "answer: 30", "answer: 29"])
    lock = threading.Lock()

    def fake(payload):
        with lock:
            return next(replies)

    config = BackendConfig(max_parallel=1)
    answer, support = self_consistent_answer("total?", {}, 3, config, fake)
    assert (answer, support) == ("30", 2)


def test_self_consistent_unanimous():
    def fake(payload):
        return "answer: yes"

    answer, support = self_consistent_answer("q", {}, 5, BackendConfig(), fake)
    assert (answer, support) == ("yes", 5)


def test_all_distinct_support_one():
    def fake(payload):
        return f"answer: v{payload['request_id']}"

    answer, support = self_consistent_answer("q", {}, 3, BackendConfig(), fake)
    assert support == 1
    assert answer == "v0"  # deterministic despite any completion order


def test_a_reply_without_an_answer_line_casts_no_vote():
    def fake(payload):
        return "garbage" if payload["request_id"] == 1 else "answer: x"

    assert self_consistent_answer("q", {}, 3, BackendConfig(), fake) == ("x", 2)


def test_no_parsable_reply_raises_contract_violation():
    def fake(payload):
        return f"garbage {payload['request_id']}"

    with pytest.raises(ContractViolation, match="none of 3 replies") as err:
        self_consistent_answer("q", {}, 3, BackendConfig(), fake)
    assert err.value.raw == "garbage 0\n\ngarbage 1\n\ngarbage 2"


def test_self_consistency_asks_for_at_least_three_votes():
    with pytest.raises(ValueError, match="n >= 3"):
        self_consistent_answer("q", {}, 2, BackendConfig(), lambda payload: "answer: x")


def test_parallelism_never_exceeds_configured_bound():
    active = 0
    peak = 0
    lock = threading.Lock()

    def slow(payload):
        nonlocal active, peak
        with lock:
            active += 1
            peak = max(peak, active)
        time.sleep(0.02)
        with lock:
            active -= 1
        return f"answer: {payload['request_id']}"

    config = BackendConfig(max_parallel=2)
    self_consistent_answer("q", {}, 8, config, slow)
    assert peak <= 2


def test_request_log_written(tmp_path):
    log = tmp_path / "requests.jsonl"
    config = BackendConfig(request_log=str(log))
    propose_qa("x", config=config)
    propose_qa("y", config=config)
    # Appended as bytes, so each line ends in "\n" on every platform.
    data = log.read_bytes()
    assert b"\r" not in data and data.endswith(b"\n")
    assert [json.loads(line) for line in data.split(b"\n")[:-1]] == [
        {"stage": "qa", "attempt": 0, "ok": True}] * 2


def test_offline_transport_never_needs_network():
    # The offline transport is pure computation; calling it many times with
    # the same payload yields identical bytes.
    send = offline_transport()
    payload = {"stage": "qa", "prompt": "p", "context": {"topic": "t"}, "request_id": 1}
    assert send(payload) == send(payload)


# What an offline-backend run sends, pinned: sha256 over each payload's
# sorted-key JSON, sorted and joined with "\n", and the manifest's dump.
# The offline transport seeds its replies from a digest of the prompt, so a
# changed prompt, context or request id shows in both.
BACKEND_PAYLOADS = 96
BACKEND_PAYLOAD_DIGEST = "41514fb5802a151dd37ae2db7d7b909cce4341183c68b3b0e420a96ad1e5038c"
BACKEND_MANIFEST_DIGEST = "064a66341b3f1e2b4095d49216c70c015913906183a19a588905ee554f746e38"


def test_offline_backend_run_sends_pinned_payloads(monkeypatch):
    sent = []
    lock = threading.Lock()  # answer calls run in a thread pool
    inner = offline_transport()

    def recording(payload):
        with lock:
            sent.append(json.dumps(payload, sort_keys=True, ensure_ascii=False))
        return inner(payload)

    monkeypatch.setattr(bridge, "default_transport", lambda config: recording)
    manifest, _, _ = generate_dataset(RunConfig(default_count=3, seed=1,
                                                backend=BackendConfig()))
    assert len(sent) == BACKEND_PAYLOADS
    assert sha256("\n".join(sorted(sent)).encode()).hexdigest() == BACKEND_PAYLOAD_DIGEST
    assert sha256(dump_manifest(manifest)).hexdigest() == BACKEND_MANIFEST_DIGEST


class FakeResponse:
    """What urllib.request.urlopen returns, holding a fixed body."""

    def __init__(self, body: bytes):
        self.body = body

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def read(self):
        return self.body


def completion(content) -> bytes:
    return json.dumps({"choices": [{"message": {"content": content}}]}).encode()


def fake_urlopen(reply):
    """An urlopen that counts its calls and returns or raises `reply`."""
    calls = []

    def urlopen(request, timeout):
        calls.append(json.loads(request.data))
        if isinstance(reply, BaseException):
            raise reply
        return FakeResponse(reply)

    return urlopen, calls


HTTP_CONFIG = BackendConfig(endpoint="http://localhost:9/v1/chat/completions", model="m",
                            temperature=0.5)


def test_http_transport_reads_chat_completion(monkeypatch):
    urlopen, calls = fake_urlopen(completion("question: q\nanswer: a"))
    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    assert bridge.http_transport(HTTP_CONFIG)({"prompt": "p"}) == "question: q\nanswer: a"
    assert calls == [{"model": "m", "messages": [{"role": "user", "content": "p"}],
                      "temperature": 0.5}]


@pytest.mark.parametrize("reply", [
    completion(None), completion(5), b"not json", b"\xff\xfe",
    ConnectionResetError(104, "Connection reset by peer"),
    http.client.IncompleteRead(b"{"), http.client.BadStatusLine("HTTP/1.1 ???"),
], ids=["content-null", "content-number", "not-json", "not-utf8", "connection-reset",
        "incomplete-read", "bad-status-line"])
def test_broken_http_reply_retries_then_costs_only_the_llm_record(
        reply, monkeypatch, tmp_path, capsys):
    urlopen, calls = fake_urlopen(reply)
    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    sleeps = []
    monkeypatch.setattr(bridge, "_sleep", sleeps.append)
    log = tmp_path / "requests.jsonl"
    backend = tmp_path / "backend.json"
    backend.write_text(json.dumps({"endpoint": HTTP_CONFIG.endpoint, "retry_budget": 2,
                                   "request_log": str(log)}))
    out = tmp_path / "out"
    assert main(["gen", "--scenario", "chart", "--count", "1", "--seed", "1",
                 "--out", str(out), "--backend", str(backend)]) == 0
    assert "error" not in capsys.readouterr().err
    assert len(calls) == 3 and sleeps == [0.2, 0.4]
    entries = [json.loads(line) for line in log.read_text().splitlines()]
    assert [(e["stage"], e["attempt"], e["ok"]) for e in entries] == [
        ("qa", 0, False), ("qa", 1, False), ("qa", 2, False)]
    records = load_manifest((out / "manifest.jsonl").read_bytes()).records
    assert records and not [r for r in records if r.question_type == "llm_qa"]


@pytest.mark.parametrize("stage", ["qa", "answer", None], ids=["qa", "answer", "neither"])
def test_a_surrogate_reply_costs_only_the_llm_record(stage, monkeypatch, tmp_path, capsys):
    inner = offline_transport()

    def send(payload):
        text = inner(payload)
        return text + "\ud800" if payload["stage"] == stage else text

    monkeypatch.setattr(bridge, "default_transport", lambda config: send)
    backend = tmp_path / "backend.json"
    backend.write_text(json.dumps({"endpoint": ""}))
    out = tmp_path / "out"
    assert main(["gen", "--scenario", "chart", "--count", "1", "--seed", "1",
                 "--out", str(out), "--backend", str(backend)]) == 0
    assert "error" not in capsys.readouterr().err
    records = load_manifest((out / "manifest.jsonl").read_bytes()).records
    llm = [r.id for r in records if r.question_type == "llm_qa"]
    assert records and llm == ([] if stage else ["chart-00000-qllm"])


@pytest.mark.parametrize("stage, reply", [("qa", "question: \nanswer: x"), ("answer", "answer:")],
                         ids=["empty-question", "empty-answer"])
def test_an_empty_reply_value_costs_only_the_llm_record(stage, reply, monkeypatch, tmp_path,
                                                        capsys):
    inner = offline_transport()

    def send(payload):
        return reply if payload["stage"] == stage else inner(payload)

    backend = tmp_path / "backend.json"
    backend.write_text(json.dumps({"endpoint": ""}))

    def gen(out, transport):
        monkeypatch.setattr(bridge, "default_transport", lambda config: transport)
        assert main(["gen", "--scenario", "chart", "--count", "2", "--seed", "1",
                     "--out", str(out), "--backend", str(backend)]) == 0
        assert "error" not in capsys.readouterr().err
        return load_manifest((out / "manifest.jsonl").read_bytes()).records

    full = gen(tmp_path / "offline", inner)
    kept = gen(tmp_path / "empty", send)
    assert [r.id for r in full if r.question_type == "llm_qa"] == [
        "chart-00000-qllm", "chart-00001-qllm"]
    assert kept == [r for r in full if r.question_type != "llm_qa"]
