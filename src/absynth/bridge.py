"""Optional LLM stages: idea proposal, simulated data, titles, and Q&A.

Everything network-related lives in this module and behind an injectable
transport, so the rest of the pipeline stays bit-reproducible. The default
offline transport never touches the network: it derives outputs from the
built-in samplers, keyed by a digest of the request, and emits them in the
same line-delimited key/value contract a real backend is asked to follow.

A malformed completion triggers exactly one reprompt carrying the parse
error; a second failure surfaces as ContractViolation with the raw text
retained. Transport failures retry with exponential backoff up to the
configured budget. Concurrency is bounded by max_parallel, and noisy
response ordering is restored by request id before any voting.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Any, Callable

from .diagrams import TreeNode, TreeSpec, sample_tree_spec, tree_nodes
from .records import vote_select
from .seeds import derive_seed, stable_digest

_sleep = time.sleep  # patchable in tests


class BackendUnavailable(RuntimeError):
    pass


class ContractViolation(ValueError):
    def __init__(self, message: str, raw: str):
        super().__init__(message)
        self.raw = raw


@dataclass(frozen=True)
class PromptTemplate:
    stage: str
    body: str
    output_contract: str

    def render(self, context: dict[str, Any]) -> str:
        try:
            prompt = self.body.format(**context)
        except KeyError as err:
            raise ValueError(f"unbound placeholder {err} for stage {self.stage!r}") from err
        return f"{prompt}\n\nOutput format:\n{self.output_contract}"


TEMPLATES: dict[str, PromptTemplate] = {
    "idea": PromptTemplate(
        "idea",
        "Propose one creative visual idea for an abstract {scenario} image used in "
        "daily work or life. Describe the scene in one sentence; it must be drawable "
        "with simple lines and geometric elements.",
        "idea: <one sentence>",
    ),
    "data": PromptTemplate(
        "data",
        "Generate data related to {topic}.\n"
        "Requirements:\n"
        "- The data describes a tree-like structure of {topic}.\n"
        "- Increase the depth when possible, but keep at most 3 nodes per layer.\n"
        "- The total number of nodes must not exceed 8.\n"
        "- Assign every node a color from this palette: cyan, yellow, pink, olive, "
        "orange, green, teal, gray.",
        "node: <label> | parent: <parent label or -> | color: <palette color>\n"
        "(one line per node, root first, parent '-' for the root)",
    ),
    "title": PromptTemplate(
        "title",
        "Generate a title for the data about {topic}. The title must be brief and "
        "describe the general content.",
        "title: <brief title>",
    ),
    "qa": PromptTemplate(
        "qa",
        "Generate correct, high-quality question-answer pairs about the data and "
        "the rendered figure for {topic}. Consider the data and the drawing "
        "together to get each answer; answers should be a single word or phrase "
        "when possible.",
        "question: <text>\nanswer: <text>\n(repeat the pair for each question)",
    ),
}


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
        if self.retry_budget < 0:
            raise ValueError("retry_budget must be >= 0")


Transport = Callable[[dict], str]


def http_transport(config: BackendConfig) -> Transport:
    """POST chat-completion requests to the configured endpoint. The HTTP
    client is imported here, so only a run with a backend loads it."""
    import urllib.error
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
        except (urllib.error.URLError, TimeoutError, json.JSONDecodeError) as err:
            raise BackendUnavailable(str(err)) from err
        try:
            return reply["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as err:
            raise BackendUnavailable(f"malformed completion body: {err}") from err

    return send


def offline_transport(_config: BackendConfig | None = None) -> Transport:
    """Deterministic no-network fallback driven by the built-in samplers."""

    def send(payload: dict) -> str:
        stage = payload.get("stage")
        context = payload.get("context", {})
        seed = stable_digest({"prompt": payload.get("prompt", ""),
                              "request_id": payload.get("request_id", 0)})
        if stage == "idea":
            scenario = context.get("scenario", "chart")
            return f"idea: a clean {scenario} about a daily scenario, drawn with flat shapes"
        if stage == "data":
            topic = context.get("topic", "Organization")
            spec = sample_tree_spec(derive_seed(seed, "offline-data"), topic)
            return serialize_tree(spec)
        if stage == "title":
            return f"title: {context.get('topic', 'Untitled data')}"
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
    pairs = []
    for line in text.splitlines():
        line = line.strip()
        if not line or ":" not in line:
            continue
        key, value = line.split(":", 1)
        pairs.append((key.strip().lower(), value.strip()))
    return pairs


def serialize_tree(spec: TreeSpec) -> str:
    lines = []
    parents: dict[str, str] = {}
    for node in tree_nodes(spec.root):
        for child in node.children:
            parents[child.label] = node.label
    for node in tree_nodes(spec.root):
        parent = parents.get(node.label, "-")
        color = spec.node_colors[node.label]
        lines.append(f"node: {node.label} | parent: {parent} | color: {color}")
    return "\n".join(lines)


def parse_tree(text: str) -> TreeSpec:
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line.lower().startswith("node:"):
            continue
        fields = {}
        for part in line.split("|"):
            if ":" not in part:
                raise ContractViolation(f"malformed node line {line!r}", raw=text)
            key, value = part.split(":", 1)
            fields[key.strip().lower()] = value.strip()
        if "node" not in fields or "parent" not in fields or "color" not in fields:
            raise ContractViolation(f"node line missing fields: {line!r}", raw=text)
        rows.append(fields)
    if not rows:
        raise ContractViolation("no node lines found", raw=text)
    children: dict[str, list[str]] = {}
    colors: dict[str, str] = {}
    root_label = None
    for row in rows:
        label = row["node"]
        colors[label] = row["color"]
        parent = row["parent"]
        if parent in ("-", ""):
            if root_label is not None:
                raise ContractViolation("multiple roots", raw=text)
            root_label = label
        else:
            children.setdefault(parent, []).append(label)

    if root_label is None:
        raise ContractViolation("no root node (parent '-')", raw=text)

    def build(label: str) -> TreeNode:
        return TreeNode(label, tuple(build(c) for c in children.get(label, [])))

    try:
        return TreeSpec(build(root_label), colors)
    except ValueError as err:
        raise ContractViolation(f"tree violates constraints: {err}", raw=text) from err


def parse_output(stage: str, text: str) -> Any:
    if stage == "data":
        return parse_tree(text)
    pairs = _kv_lines(text)
    if stage in ("idea", "title"):
        for key, value in pairs:
            if key == stage and value:
                return value
        raise ContractViolation(f"missing '{stage}:' line", raw=text)
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
    with open(config.request_log, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, ensure_ascii=False) + "\n")


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
    return http_transport(config) if config.endpoint else offline_transport(config)


def propose(
    stage: str,
    context: dict[str, Any],
    config: BackendConfig | None = None,
    transport: Transport | None = None,
    request_id: int = 0,
) -> Any:
    """Render the stage template, call the backend, and parse the reply.

    A parse failure triggers exactly one reprompt with the parse error
    appended; a second failure raises ContractViolation (raw text retained).
    """
    config = config or BackendConfig()
    if stage not in TEMPLATES:
        raise ValueError(f"no template for stage {stage!r}")
    transport = transport or default_transport(config)
    prompt = TEMPLATES[stage].render(context)
    payload = {"stage": stage, "prompt": prompt, "context": context,
               "request_id": request_id}
    text = _call_with_retries(transport, payload, config)
    try:
        return parse_output(stage, text)
    except ContractViolation as err:
        retry_payload = dict(payload)
        retry_payload["prompt"] = (
            f"{prompt}\n\nYour previous reply could not be parsed "
            f"({err}). Reply again, following the output format exactly."
        )
        retry_payload["request_id"] = request_id + 1_000_000
        text = _call_with_retries(transport, retry_payload, config)
        return parse_output(stage, text)


def self_consistent_answer(
    question: str,
    context: dict[str, Any],
    n: int = 3,
    config: BackendConfig | None = None,
    transport: Transport | None = None,
    kind: str = "phrase",
) -> tuple[str, int]:
    """n independent completions, canonicalized and voted; returns the modal
    answer and its support count for gate thresholding."""
    if n < 3:
        raise ValueError("self-consistency needs n >= 3")
    config = config or BackendConfig()
    transport = transport or default_transport(config)
    prompt = (
        f"Context: {json.dumps(context, sort_keys=True, ensure_ascii=False)}\n"
        f"Question: {question}\n"
        "Think it through, then reply with one line in the form 'answer: <text>'."
    )

    def one(request_id: int) -> tuple[int, str]:
        payload = {"stage": "answer", "prompt": prompt, "context": dict(context, question=question),
                   "request_id": request_id}
        text = _call_with_retries(transport, payload, config)
        return request_id, parse_output("answer", text)

    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=config.max_parallel) as pool:
        results = list(pool.map(one, range(n)))
    results.sort()  # deterministic order by request id before voting
    return vote_select([answer for _, answer in results], kind=kind)
