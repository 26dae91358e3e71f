"""In-memory span tracing installed from outside the program.

`install(tracer)` wraps the public entry points of each absynth module and
rebinds every reference the package holds to them (module globals, the
scenario table in `pipeline`, the oracle registry in `records`), so calls
made inside the program are traced without touching its source. A span is
(name, start, end, parent); the parent is the span open on the same thread,
or, for a worker thread, the span open on the main thread.

`self_times` splits wall time between spans: at each instant, the time goes
to the innermost open spans, shared equally when worker threads overlap. With
one thread this is a span's duration minus its children's, and the self
times of all spans add up to the time covered by the outermost spans.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import sys
import threading
from collections import Counter
from time import perf_counter_ns
from typing import Any, Callable

# The layers, named after the modules whose entry points are wrapped; a
# span's layer is the part of its name before the first dot.
LAYERS = ("cli", "pipeline", "charts", "maps", "gauges", "diagrams", "puzzles",
          "scene", "gate", "records", "seeds", "scoring")
GENERATORS = ("charts", "maps", "gauges", "diagrams", "puzzles")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent span or None]
        self.tallies: Counter = Counter()
        self._tally_lock = threading.Lock()  # pipeline workers add concurrently
        self._local = threading.local()
        self._main_stack = self._stack()

    def add(self, key: str, value: float) -> None:
        with self._tally_lock:
            self.tallies[key] += value

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str | Callable[..., str],
             tally: Callable[[Callable, tuple, Any], None] | None = None) -> Callable:
        spans, main_stack = self.spans, self._main_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else None)
            span = [name if isinstance(name, str) else name(*args), perf_counter_ns(), 0, parent]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
                spans.append(span)
            if tally is not None:
                tally(self.add, args, result)
            return result

        return traced


# ---------------------------------------------------------------------------
# Installing the wrappers


def _count(key: str, value: Callable[[tuple, Any], float]):
    def tally(add: Callable, args: tuple, result: Any) -> None:
        add(key, value(args, result))
    return tally


def _tallies(*fns):
    def tally(add: Callable, args: tuple, result: Any) -> None:
        for fn in fns:
            fn(add, args, result)
    return tally


def _cpu_timed(fn: Callable, add: Callable) -> Callable:
    """Adds the process CPU time (children included) and wall time of each
    call to the tallies, for `pipeline.cpu_util`."""
    @functools.wraps(fn)
    def timed(*args, **kwargs):
        t0, c0 = perf_counter_ns(), os.times()
        try:
            return fn(*args, **kwargs)
        finally:
            c1 = os.times()
            add("pipeline.cpu_s", sum(c1[:4]) - sum(c0[:4]))
            add("pipeline.cpu_wall_s", (perf_counter_ns() - t0) / 1e9)
    return timed


def _targets() -> list[tuple[Any, str, Any, Callable | None]]:
    """(owner, attribute, span name, tally) for every traced entry point."""
    from absynth import (
        charts, cli, diagrams, gate, gauges, maps, pipeline, puzzles, records, scene,
        scoring, seeds,
    )
    verified = _count("records.verify_record.ok", lambda a, r: int(r.ok))
    feasible = _tallies(
        _count("gate.feasibility.attempts", lambda a, r: r.attempts),
        _count("gate.feasibility.accepted", lambda a, r: int(r.accepted)))
    passed = _count("gate.aesthetics.passed", lambda a, r: int(r.passed))
    dumped = _count("records.dump_manifest.records", lambda a, r: len(a[0].records))
    loaded = _count("records.load_manifest.records", lambda a, r: len(r.records))
    lines = _count("scoring.load_predictions.lines", lambda a, r: len(r))
    aggregated = _count("scoring.aggregate.records", lambda a, r: len(a[0].records))
    svg_bytes = _count("scene.render_svg.bytes", lambda a, r: len(r))
    return [
        (cli, "main", "cli.main", None),
        (pipeline, "generate_dataset", "pipeline.generate_dataset", None),
        (pipeline, "generate_image", "pipeline.generate_image", None),
        (pipeline, "write_outputs", "pipeline.write_outputs", None),
        (charts, "sample_chart_spec", "charts.sample", None),
        (charts, "build_chart_scene", "charts.build", None),
        (charts, "chart_questions", "charts.questions", None),
        (maps, "generate_map", "maps.sample", None),
        (maps, "build_map_scene", "maps.build", None),
        (maps, "map_questions", "maps.questions", None),
        (gauges, "sample_dial_spec", "gauges.sample", None),
        (gauges, "build_dial_scene", "gauges.build", None),
        (gauges, "dial_questions", "gauges.questions", None),
        (diagrams, "sample_flow_spec", "diagrams.sample", None),
        (diagrams, "sample_relation_graph", "diagrams.sample", None),
        (diagrams, "layout_hierarchy", "diagrams.build", None),
        (diagrams, "diagram_questions", "diagrams.questions", None),
        (puzzles, "sample_puzzle", "puzzles.sample", None),
        (puzzles, "sample_floorplan", "puzzles.sample", None),
        (puzzles, "build_puzzle_scene", "puzzles.build", None),
        (puzzles, "build_floorplan_scene", "puzzles.build", None),
        (puzzles, "puzzle_questions", "puzzles.questions", None),
        (puzzles, "layout_questions", "puzzles.questions", None),
        (scene, "render_svg", "scene.render_svg", svg_bytes),
        (scene, "validate_scene", "scene.validate_scene", None),
        (gate, "feasibility_gate", "gate.feasibility", feasible),
        (gate, "aesthetics_gate", "gate.aesthetics", passed),
        (gate.GateReport, "to_json", "gate.report", None),
        (records, "verify_record", "records.verify_record", verified),
        (records, "dump_manifest", "records.dump_manifest", dumped),
        (records, "load_manifest", "records.load_manifest", loaded),
        (records, "sample_for_review", "records.sample_for_review", None),
        (records.Manifest, "stats", "records.stats", None),
        (records.Manifest, "validate", "records.validate", None),
        (seeds, "stable_digest", "seeds.stable_digest", None),
        (scoring, "load_predictions", "scoring.load_predictions", lines),
        (scoring, "score_record", lambda record, raw: f"scoring.score_record.{record.answer_kind}",
         None),
        (scoring, "aggregate", "scoring.aggregate", aggregated),
        (scoring, "render_report_text", "scoring.report", None),
        (scoring.ScoreReport, "to_json", "scoring.report", None),
    ] + [(spec, "to_dict", f"{spec.__module__.rsplit('.', 1)[1]}.to_dict", None)
         for spec in (charts.ChartSpec, maps.RoadMapSpec, gauges.DialSpec, diagrams.TreeSpec,
                      diagrams.FlowSpec, puzzles.PatternRule, puzzles.DiffPairSpec,
                      puzzles.FloorPlanSpec)]


def _rebind(original: Callable, replacement: Callable, undo: list) -> None:
    """Point every reference the package holds to `original` at `replacement`."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "absynth" and not mod_name.startswith("absynth."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                undo.append((setattr, module, attr, value))
                setattr(module, attr, replacement)
            elif isinstance(value, dict):
                for key, entry in list(value.items()):
                    if entry is original:
                        undo.append((dict.__setitem__, value, key, entry))
                        value[key] = replacement
                    elif dataclasses.is_dataclass(entry) and not isinstance(entry, type):
                        hits = {f.name: replacement for f in dataclasses.fields(entry)
                                if getattr(entry, f.name) is original}
                        if hits:
                            undo.append((dict.__setitem__, value, key, entry))
                            value[key] = dataclasses.replace(entry, **hits)


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced entry point; returns a function that undoes it."""
    undo: list = []
    for owner, attr, name, tally in _targets():
        original = vars(owner)[attr]
        wrapped = tracer.wrap(original, name, tally)
        if attr == "generate_dataset":
            wrapped = _cpu_timed(wrapped, tracer.add)
        if isinstance(owner, type):
            undo.append((setattr, owner, attr, original))
            setattr(owner, attr, wrapped)
        else:
            _rebind(original, wrapped, undo)

    def uninstall() -> None:
        for setter, target, key, value in reversed(undo):
            setter(target, key, value)
    return uninstall


# ---------------------------------------------------------------------------
# Deriving self times


def self_times(spans: list[list]) -> dict[int, float]:
    """Self time in ns of each span, keyed by id(span)."""
    events = []
    for span in spans:
        if span[2] > span[1]:  # a span with no duration has no time to give
            events.append((span[1], 1, span))
            events.append((span[2], 0, span))
    events.sort(key=lambda e: (e[0], e[1]))  # at equal times, close before open
    open_children: Counter = Counter()
    open_spans: set[int] = set()
    leaves: dict[int, list] = {}
    out: dict[int, float] = {id(s): 0.0 for s in spans}
    last = None
    for t, is_start, span in events:
        if leaves and last is not None and t > last:
            share = (t - last) / len(leaves)
            for key in leaves:
                out[key] += share
        last = t
        parent = span[3]
        pkey = id(parent) if parent is not None and id(parent) in open_spans else None
        if is_start:
            open_spans.add(id(span))
            leaves[id(span)] = span
            if pkey is not None:
                open_children[pkey] += 1
                leaves.pop(pkey, None)
        else:
            open_spans.discard(id(span))
            leaves.pop(id(span), None)
            if pkey is not None:
                open_children[pkey] -= 1
                if open_children[pkey] == 0:
                    leaves[pkey] = parent
    return out


# ---------------------------------------------------------------------------
# Per-layer metrics


def layer_metrics(tracer: Tracer, wall_s: float, jobs: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the spans and tallies of one traced pass whose
    timed operations took `wall_s` seconds in all."""
    spans, tallies = tracer.spans, tracer.tallies
    self_ns = self_times(spans)
    total: Counter = Counter()
    own: Counter = Counter()
    calls: Counter = Counter()
    for span in spans:
        total[span[0]] += span[2] - span[1]
        own[span[0]] += self_ns[id(span)]
        calls[span[0]] += 1

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    images = calls["pipeline.generate_image"]
    durations = sorted(s[2] - s[1] for s in spans if s[0] == "pipeline.generate_image")
    out: dict[str, tuple[float, str]] = {
        "records.verify_record.us_per_image":
            (ratio(total["records.verify_record"], images) / 1e3, "us"),
        "records.verify_record.ok_ratio":
            (ratio(tallies["records.verify_record.ok"], calls["records.verify_record"]), "ratio"),
        "records.accuracy_drop_ratio":
            (ratio(calls["records.verify_record"] - tallies["records.verify_record.ok"],
                   calls["records.verify_record"]), "ratio"),
    }
    for gen in GENERATORS:
        gen_images = calls[f"{gen}.sample"]
        out[f"{gen}.questions.calls_per_image"] = (
            ratio(calls[f"{gen}.questions"], gen_images), "count")
        for step in ("sample", "build", "questions"):
            out[f"{gen}.{step}.us"] = (ratio(total[f"{gen}.{step}"], gen_images) / 1e3, "us")
    to_dict_ns = sum(total[f"{gen}.to_dict"] for gen in GENERATORS)
    feasibility = calls["gate.feasibility"]
    aesthetics = calls["gate.aesthetics"]
    report_ns = total["scoring.report"]
    out.update({
        "gen.to_dict.us_per_image": (ratio(to_dict_ns, images) / 1e3, "us"),
        "seeds.stable_digest.us_per_image": (ratio(total["seeds.stable_digest"], images) / 1e3,
                                             "us"),
        "seeds.stable_digest.calls_per_image": (ratio(calls["seeds.stable_digest"], images),
                                                "count"),
        "scene.render_svg.us": (ratio(total["scene.render_svg"], calls["scene.render_svg"]) / 1e3,
                                "us"),
        "scene.validate_scene.us": (ratio(total["scene.validate_scene"],
                                          calls["scene.validate_scene"]) / 1e3, "us"),
        "scene.validate_scene.calls_per_image": (ratio(calls["scene.validate_scene"], images),
                                                 "count"),
        "scene.svg_bytes_per_image": (ratio(tallies["scene.render_svg.bytes"],
                                            calls["scene.render_svg"]), "bytes"),
        "gate.feasibility.self_us": (ratio(own["gate.feasibility"], feasibility) / 1e3, "us"),
        "gate.feasibility.attempts_per_image": (ratio(tallies["gate.feasibility.attempts"],
                                                      feasibility), "count"),
        "gate.feasibility.reject_ratio": (ratio(feasibility - tallies["gate.feasibility.accepted"],
                                                feasibility), "ratio"),
        "gate.aesthetics.us": (ratio(total["gate.aesthetics"], aesthetics) / 1e3, "us"),
        "gate.aesthetics.reject_ratio": (ratio(aesthetics - tallies["gate.aesthetics.passed"],
                                               aesthetics), "ratio"),
        "gate.accept_ratio": (ratio(tallies["gate.aesthetics.passed"], feasibility), "ratio"),
        "pipeline.generate_image.p50_us": (_percentile(durations, 0.50) / 1e3, "us"),
        "pipeline.generate_image.p99_us": (_percentile(durations, 0.99) / 1e3, "us"),
        "pipeline.generate_image.samples": (len(durations), "count"),
        "pipeline.assemble.ms": (ratio(own["pipeline.generate_dataset"],
                                       calls["pipeline.generate_dataset"]) / 1e6, "ms"),
        "pipeline.write_outputs.ms": (ratio(total["pipeline.write_outputs"],
                                            calls["pipeline.write_outputs"]) / 1e6, "ms"),
        "pipeline.cpu_util": (ratio(tallies["pipeline.cpu_s"],
                                    tallies["pipeline.cpu_wall_s"] * jobs), "ratio"),
        "records.dump_manifest.us_per_record": (
            ratio(total["records.dump_manifest"], tallies["records.dump_manifest.records"]) / 1e3,
            "us"),
        "records.load_manifest.us_per_record": (
            ratio(total["records.load_manifest"], tallies["records.load_manifest.records"]) / 1e3,
            "us"),
        "scoring.load_predictions.us_per_line": (
            ratio(total["scoring.load_predictions"], tallies["scoring.load_predictions.lines"])
            / 1e3, "us"),
        "scoring.aggregate.us_per_record": (
            ratio(own["scoring.aggregate"], tallies["scoring.aggregate.records"]) / 1e3, "us"),
        "scoring.report.ms": (ratio(report_ns, calls["scoring.aggregate"]) / 1e6, "ms"),
        "cli.overhead.ms": (ratio(own["cli.main"], calls["cli.main"]) / 1e6, "ms"),
    })
    for kind in ("numeric", "phrase", "choice", "sentence", "landmark_sequence"):
        name = f"scoring.score_record.{kind}"
        out[f"{name}.us"] = (ratio(total[name], calls[name]) / 1e3, "us")
    self_sum = 0.0
    for layer in LAYERS:
        layer_ns = sum(v for k, v in own.items() if k.split(".", 1)[0] == layer)
        self_sum += layer_ns
        out[f"layer.{layer}.self_ms"] = (layer_ns / 1e6, "ms")
    out["trace.wall_ms"] = (wall_s * 1e3, "ms")
    out["trace.self_sum_ratio"] = (ratio(self_sum / 1e9, wall_s), "ratio")
    out["trace.spans"] = (len(spans), "count")
    return out


def _percentile(sorted_values: list, q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


# Which end-to-end metric each per-layer metric should move, on which
# workload; the first matching name prefix (or suffix, for `*`) applies.
MOVES = (
    ("*.questions.calls_per_image", "gen_img_per_s on gen_text; no change on gen_geometry"),
    ("records.verify_record.", "gen_img_per_s on gen_text; no change on gen_geometry"),
    ("records.accuracy_drop_ratio", "waste ratios on every gen workload"),
    ("charts.", "gen_img_per_s on gen_text only"),
    ("diagrams.", "gen_img_per_s on gen_text only"),
    ("maps.", "gen_img_per_s on gen_geometry only"),
    ("gauges.", "gen_img_per_s on gen_geometry only"),
    ("puzzles.", "gen_img_per_s on gen_text (layout) and gen_geometry (puzzle)"),
    ("gen.to_dict.", "gen_img_per_s on gen_text (the asdict hot spot)"),
    ("seeds.", "gen_img_per_s on gen_text (the asdict hot spot)"),
    ("scene.svg_bytes_per_image", "must not move"),
    ("scene.", "gen_img_per_s on both gen workloads, the larger share on gen_geometry"),
    ("gate.aesthetics.us", "gen_img_per_s on gen_text"),
    ("gate.", "waste ratios on every gen workload"),
    ("pipeline.cpu_util", "gen_img_per_s on gen_parallel only"),
    ("pipeline.", "gen_img_per_s and peak_rss_mb on every gen workload"),
    ("records.dump_manifest.", "manifest_dump_records_per_s on eval_roundtrip, a small share "
                               "of gen_img_per_s"),
    ("records.load_manifest.", "manifest_load_records_per_s and eval_records_per_s"),
    ("scoring.", "eval_records_per_s on eval_roundtrip only"),
    ("cli.", "the workload's headline metric"),
    ("layer.", "self time of the layer; these sum to trace.wall_ms"),
    ("trace.", "tracing itself: coverage and overhead against the untraced pass"),
)


def moves(metric: str) -> str:
    for pattern, target in MOVES:
        if pattern.startswith("*") and metric.endswith(pattern[1:]) or metric.startswith(pattern):
            return target
    return ""
