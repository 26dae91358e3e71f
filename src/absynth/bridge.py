"""Optional LLM stages that `gen` uses: QA proposal and answer voting.

Everything network-related lives in this module and behind an injectable
transport, so the rest of the pipeline stays bit-reproducible. The default
offline transport never touches the network: it derives its replies from a
digest of the request and emits them in the same line-delimited key/value
contract a real backend is asked to follow.

A malformed QA proposal triggers exactly one reprompt carrying the parse
error; a second failure surfaces as ContractViolation with the raw text
retained. A reply holding text that UTF-8 cannot encode breaks the contract
too, since no manifest line could hold it. An answer reply without an
`answer:` line casts no vote, and the vote runs over the replies that
parse; only when none parses does it raise ContractViolation. Transport
failures, and HTTP replies that are cut off, are not JSON or carry no
string content, raise BackendUnavailable and retry with exponential backoff
up to the configured budget. Concurrency is bounded by max_parallel, and
votes are counted in request-id order, whatever order the replies arrive
in.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass
from typing import Any, Callable

from .records import vote_select
from .seeds import stable_digest

_sleep = time.sleep  # patchable in tests


class BackendUnavailable(RuntimeError):
    pass


class ContractViolation(ValueError):
    def __init__(self, message: str, raw: str):
        super().__init__(message)
        self.raw = raw


# The QA proposal prompt; `{topic}` is its one placeholder. The offline
# transport seeds its replies from the prompt text, so any edit here changes
# the records of an offline-backend run.
QA_PROMPT = (
    "Generate correct, high-quality question-answer pairs about the data and "
    "the rendered figure for {topic}. Consider the data and the drawing "
    "together to get each answer; answers should be a single word or phrase "
    "when possible.\n\nOutput format:\n"
    "question: <text>\nanswer: <text>\n(repeat the pair for each question)"
)


@dataclass(frozen=True)
class BackendConfig:
    endpoint: str = ""  # empty -> offline fallback
    model: str = "offline"
    temperature: float = 0.7
    max_parallel: int = 2
    retry_budget: int = 2
    credential_env: str = "ABSYNTH_API_KEY"
    request_log: str | None = None

    def __post_init__(self) -> None:
        if self.max_parallel < 1:
            raise ValueError("max_parallel must be >= 1")
        # The backoff doubles per attempt, so 8 retries already wait 51 s in all.
        if not (0 <= self.retry_budget <= 8):
            raise ValueError("retry_budget must be in [0, 8]")
        # Written so that NaN fails too; NaN and infinity are not JSON numbers.
        if not (0 <= self.temperature < math.inf):
            raise ValueError("temperature must be a finite number >= 0")


Transport = Callable[[dict], str]


def http_transport(config: BackendConfig) -> Transport:
    """POST chat-completion requests to the configured endpoint. The HTTP
    client is imported here, so only a run with a backend loads it."""
    import http.client
    import urllib.request

    def send(payload: dict) -> str:
        body = json.dumps({
            "model": config.model,
            "messages": [{"role": "user", "content": payload["prompt"]}],
            "temperature": config.temperature,
        }).encode("utf-8")
        request = urllib.request.Request(config.endpoint, data=body, method="POST")
        request.add_header("Content-Type", "application/json")
        credential = os.environ.get(config.credential_env, "")
        if credential:
            request.add_header("Authorization", f"Bearer {credential}")
        try:
            with urllib.request.urlopen(request, timeout=60) as response:
                reply = json.loads(response.read().decode("utf-8"))
        except (OSError, http.client.HTTPException, ValueError) as err:
            # OSError covers URLError, timeouts and dropped connections;
            # ValueError covers a body that is not UTF-8 JSON.
            raise BackendUnavailable(str(err)) from err
        try:
            content = reply["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as err:
            raise BackendUnavailable(f"malformed completion body: {err}") from err
        if not isinstance(content, str):
            raise BackendUnavailable(f"completion content is {type(content).__name__}, "
                                     "not a string")
        return content

    return send


def offline_transport() -> Transport:
    """Deterministic no-network fallback, seeded by a digest of the request."""

    def send(payload: dict) -> str:
        stage = payload.get("stage")
        context = payload.get("context", {})
        seed = stable_digest({"prompt": payload.get("prompt", ""),
                              "request_id": payload.get("request_id", 0)})
        if stage == "qa":
            topic = context.get("topic", "the figure")
            return (f"question: What is the subject of this figure?\n"
                    f"answer: {topic}\n"
                    f"question: How many nodes are shown?\n"
                    f"answer: {3 + seed % 5}")
        if stage == "answer":
            question = str(context.get("question", "")).lower()
            if "subject" in question or "title" in question:
                return f"answer: {context.get('topic', 'unknown')}"
            if "how many" in question:
                return f"answer: {3 + seed % 5}"
            return "answer: unknown"
        raise ContractViolation(f"unknown stage {stage!r}", raw="")

    return send


# ---------------------------------------------------------------------------
# Contract parsing


def _kv_lines(text: str) -> list[tuple[str, str]]:
    """The (key, value) pair of each "key: value" line. A line whose value is
    empty is no pair, so an empty answer casts no vote and an empty question
    or answer makes no QA pair."""
    pairs = []
    for line in text.split("\n"):
        key, sep, value = line.partition(":")
        value = value.strip()
        if sep and value:
            pairs.append((key.strip().lower(), value))
    return pairs


def parse_output(stage: str, text: str) -> Any:
    """The question/answer pairs of a "qa" reply or the answer of an
    "answer" reply. A reply that breaks the contract raises
    ContractViolation: one without what its stage asks for, and one that
    UTF-8 cannot encode (a lone surrogate), since no manifest line can hold
    its text."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as err:
        raise ContractViolation(f"reply cannot be encoded as UTF-8 ({err.reason})",
                                raw=text) from None
    pairs = _kv_lines(text)
    if stage == "qa":
        out = []
        question = None
        for key, value in pairs:
            if key == "question":
                question = value
            elif key == "answer" and question is not None:
                out.append({"question": question, "answer": value})
                question = None
        if not out:
            raise ContractViolation("no question/answer pairs found", raw=text)
        return out
    if stage == "answer":
        for key, value in pairs:
            if key == "answer":
                return value
        raise ContractViolation("missing 'answer:' line", raw=text)
    raise ValueError(f"unknown stage {stage!r}")


# ---------------------------------------------------------------------------
# Operations


def _log_request(config: BackendConfig, entry: dict) -> None:
    if not config.request_log:
        return
    with open(config.request_log, "ab") as fh:
        fh.write((json.dumps(entry, ensure_ascii=False) + "\n").encode("utf-8"))


def _call_with_retries(transport: Transport, payload: dict, config: BackendConfig) -> str:
    last: Exception | None = None
    for attempt in range(config.retry_budget + 1):
        try:
            text = transport(payload)
            _log_request(config, {"stage": payload.get("stage"), "attempt": attempt,
                                  "ok": True})
            return text
        except BackendUnavailable as err:
            last = err
            _log_request(config, {"stage": payload.get("stage"), "attempt": attempt,
                                  "ok": False, "error": str(err)})
            if attempt < config.retry_budget:
                _sleep(0.2 * 2 ** attempt)
    raise BackendUnavailable(f"backend unavailable after {config.retry_budget + 1} "
                             f"attempts: {last}")


def default_transport(config: BackendConfig) -> Transport:
    return http_transport(config) if config.endpoint else offline_transport()


def propose_qa(
    topic: str,
    config: BackendConfig | None = None,
    transport: Transport | None = None,
    request_id: int = 0,
) -> list[dict[str, str]]:
    """Ask the backend for question/answer pairs about `topic`.

    A parse failure triggers exactly one reprompt with the parse error
    appended; a second failure raises ContractViolation (raw text retained).
    """
    config = config or BackendConfig()
    transport = transport or default_transport(config)
    prompt = QA_PROMPT.format(topic=topic)
    payload = {"stage": "qa", "prompt": prompt, "context": {"topic": topic},
               "request_id": request_id}
    text = _call_with_retries(transport, payload, config)
    try:
        return parse_output("qa", text)
    except ContractViolation as err:
        retry_payload = dict(payload)
        retry_payload["prompt"] = (
            f"{prompt}\n\nYour previous reply could not be parsed "
            f"({err}). Reply again, following the output format exactly."
        )
        retry_payload["request_id"] = request_id + 1_000_000
        text = _call_with_retries(transport, retry_payload, config)
        return parse_output("qa", text)


def self_consistent_answer(
    question: str,
    context: dict[str, Any],
    n: int = 3,
    config: BackendConfig | None = None,
    transport: Transport | None = None,
) -> tuple[str, int]:
    """n independent completions, canonicalized and voted; returns the modal
    answer and its support count for gate thresholding. A completion that
    breaks the `answer:` contract casts no vote; if none keeps it, this
    raises ContractViolation."""
    if n < 3:
        raise ValueError("self-consistency needs n >= 3")
    config = config or BackendConfig()
    transport = transport or default_transport(config)
    prompt = (
        f"Context: {json.dumps(context, sort_keys=True, ensure_ascii=False)}\n"
        f"Question: {question}\n"
        "Think it through, then reply with one line in the form 'answer: <text>'."
    )

    def one(request_id: int) -> str:
        payload = {"stage": "answer", "prompt": prompt, "context": dict(context, question=question),
                   "request_id": request_id}
        return _call_with_retries(transport, payload, config)

    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=config.max_parallel) as pool:
        texts = list(pool.map(one, range(n)))  # in request-id order
    votes = []
    for text in texts:
        try:
            votes.append(parse_output("answer", text))
        except ContractViolation:
            continue
    if not votes:
        raise ContractViolation(f"none of {n} replies has an 'answer:' line",
                                raw="\n\n".join(texts))
    return vote_select(votes)
