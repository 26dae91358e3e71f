"""absynth benchmark: `gen` and `eval` throughput, manifest dump/load speed,
set-up time and peak memory, with output checks and a traced per-layer
breakdown.

    python3 bench/run.py --workload gen_text --seed 1 --seconds 20 --trace 0

Workloads (all driven in-process through `absynth.cli.main` and the public
`records` functions, writing under `.bench_work/` in the checkout):

- gen_text: `gen` over the question- and oracle-heavy scenarios at --jobs 1.
- gen_geometry: `gen` over the sample/build/render-heavy scenarios at --jobs 1.
- gen_parallel: `gen` over all eight scenarios at --jobs min(2, nproc), the
  only workload that runs the pipeline's worker pool. BENCHMARK.json leaves
  it out: on a shared 2-vCPU host the run-to-run spread of its gen_img_per_s
  over ten seeds (0.254) exceeded the 0.25 bound. Run it by hand.
- eval_roundtrip: a seeded synthetic gold manifest of about 30k records and a
  model-like prediction file, split into shards of about 2k records, each
  scored by `eval` and pushed through `dump_manifest`/`load_manifest`.

A gen workload runs several small `gen` commands, each with its own seed
derived from --seed, so that a run covers a few hundred distinct images while
each command stays short.

Every workload reports every end-to-end metric: a gen workload also scores,
dumps and loads the manifest it generated, and eval_roundtrip also times a
small `gen` over all scenarios. The operations are interleaved so that each
gets its share of --seconds and all of them sample the whole run.

Every timed call is bracketed by a short calibration kernel, and its time is
rescaled to the reference host speed (see calibration.py): on a shared host
other tenants slow everything down by up to about 2x, for stretches of seconds
to minutes, and the rescaled time cancels that where the raw one follows it.
A throughput metric is the work on all of an operation's inputs (gen commands
or shards) over the sum of each input's median rescaled time. Set-up time
(setup_s) is the median rescaled interpreter start + `import absynth`,
repeated through the run, plus the median rescaled time of three input
builds. The report line also gives the raw wall-time rates: the fastest, the
median, the quartiles and every repetition.

--trace 0 prints the end-to-end metrics; --trace 1 runs half the time
untraced and half with spans around every module entry point (see
spans.py) and prints the per-layer metrics and the tracing overhead. Before
the result line, a report line gives the environment, each output check, the
waste and accounting counts, the output digests and the timings. The last
line is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

DEFAULT_SEED = 1
SETUP_BUILDS = 3  # input builds, median of this many
MIN_REPS = 3  # repetitions of each timed operation, whatever the time share
ALL_SCENARIOS = ("chart", "table", "map", "dashboard", "flowchart", "relation_graph",
                 "puzzle", "layout")


@dataclass(frozen=True)
class Workload:
    name: str
    scenarios: tuple[str, ...]
    count: int  # images per scenario in one `gen`
    gens: int  # distinct `gen` commands, each with its own seed
    jobs: int
    shares: dict  # phase -> share of --seconds
    synthetic_images: int = 0  # per scenario in a synthetic gold manifest; 0: use gen's
    shards: int = 0  # the synthetic gold manifest is split into this many


_GEN_SHARES = {"gen": 0.6, "eval": 0.1, "dump": 0.1, "load": 0.1, "start": 0.1}
WORKLOADS = {w.name: w for w in (
    Workload("gen_text", ("chart", "table", "flowchart", "relation_graph", "layout"),
             count=10, gens=12, jobs=1, shares=_GEN_SHARES),
    Workload("gen_geometry", ("map", "dashboard", "puzzle"), count=20, gens=12, jobs=1,
             shares=_GEN_SHARES),
    Workload("gen_parallel", ALL_SCENARIOS, count=5, gens=8,
             jobs=min(2, os.cpu_count() or 1), shares=_GEN_SHARES),
    Workload("eval_roundtrip", ALL_SCENARIOS, count=5, gens=5, jobs=1,
             shares={"eval": 0.35, "dump": 0.15, "load": 0.15, "gen": 0.25, "start": 0.1},
             synthetic_images=1000, shards=15),
)}
HEADLINE = {"gen": "gen_img_per_s", "eval": "eval_records_per_s",
            "dump": "manifest_dump_records_per_s", "load": "manifest_load_records_per_s"}
UNITS = {"gen_img_per_s": "images/s", "eval_records_per_s": "records/s",
         "manifest_dump_records_per_s": "records/s",
         "manifest_load_records_per_s": "records/s"}


def digest_tree(out: Path) -> str:
    """sha256 over manifest.jsonl, every SVG in sorted path order, and
    gate_report.json."""
    h = hashlib.sha256()
    svgs = sorted(p.relative_to(out).as_posix() for p in out.glob("images/*/*.svg"))
    for rel in ["manifest.jsonl", *svgs, "gate_report.json"]:
        h.update(rel.encode() + b"\0" + (out / rel).read_bytes() + b"\0")
    return h.hexdigest()


@dataclass
class Shard:
    """One gold manifest with its prediction file: for a gen workload, the
    manifest one `gen` command wrote; for eval_roundtrip, a slice of the
    synthetic one."""
    gold_bytes: bytes
    manifest: object  # records.Manifest
    gold_path: Path
    pred_path: Path
    missing: int  # ids left out of the predictions
    report_digest: str = ""


class Bench:
    """One run of one workload: inputs, checks and timed operations."""

    def __init__(self, wl: Workload, seed: int, work: Path) -> None:
        self.wl, self.seed, self.work = wl, seed, work
        self.checks: dict[str, bool] = {}
        self.notes: dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.timed_s = 0.0  # summed wall time of the timed calls
        self.turn = {"gen": 0, "eval": 0, "dump": 0, "load": 0}  # next input of each
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
        self.devnull = open(os.devnull, "w")

    def close(self) -> None:
        self.devnull.close()

    def check(self, name: str, ok: bool, detail: object = None) -> bool:
        self.checks[name] = self.checks.get(name, True) and bool(ok)
        if not ok:
            print(f"check failed: {name}: {detail}", file=sys.stderr)
        return bool(ok)

    # -- set-up -------------------------------------------------------------

    def build_inputs(self) -> None:
        """The workload's inputs: the `gen` command lines, one per derived
        seed, and for eval_roundtrip the gold manifests and prediction files."""
        scenario_args = [a for s in self.wl.scenarios for a in ("--scenario", s)]
        self.gen_argvs = [["gen", *scenario_args, "--count", str(self.wl.count),
                           "--seed", str(self.seed * 100 + k)] for k in range(self.wl.gens)]
        if self.wl.synthetic_images:
            dicts = inputs.gold_record_dicts(self.seed, self.wl.synthetic_images)
            self.make_shards([dicts[i::self.wl.shards] for i in range(self.wl.shards)])

    def make_shards(self, parts: list[list[dict]]) -> None:
        from absynth.records import InstructionRecord, Manifest, Provenance
        self.shards = []
        self.per_kind: dict[str, int] = {}
        for i, part in enumerate(parts):
            for d in part:
                self.per_kind[d["answer_kind"]] = self.per_kind.get(d["answer_kind"], 0) + 1
            gold_bytes = inputs.manifest_bytes(part)
            manifest = Manifest([
                InstructionRecord(**{**d, "alternates": tuple(d["alternates"]),
                                     "provenance": Provenance(**d["provenance"])})
                for d in part])
            pred_bytes, missing = inputs.prediction_bytes(part, f"{self.seed}-{i}")
            gold_path, pred_path = self.work / f"gold-{i}.jsonl", self.work / f"pred-{i}.jsonl"
            gold_path.write_bytes(gold_bytes)
            pred_path.write_bytes(pred_bytes)
            self.shards.append(Shard(gold_bytes, manifest, gold_path, pred_path, missing))

    def measure_builds(self) -> float:
        """Builds the inputs several times; returns the median rescaled build
        time."""
        builds, rescaled = [], []
        after = calibration.measure()
        for _ in range(SETUP_BUILDS):
            before = after
            t0 = perf_counter()
            self.build_inputs()
            builds.append(perf_counter() - t0)
            after = calibration.measure()
            rescaled.append(calibration.normalize(builds[-1], before, after))
        self.notes["build_inputs_s"] = {"raw": builds, "rescaled": rescaled}
        return statistics.median(rescaled)

    # -- reference run and output checks --------------------------------------

    def prepare(self, pins: dict) -> None:
        """Untimed warm-up of every operation, which also fixes the reference
        outputs that each timed repetition must reproduce."""
        from absynth import records
        self.gen_digests, parts = [], []
        per_scenario: dict[str, dict[str, int]] = {}
        waste = {"candidates": 0, "accepted": 0, "rejected_by_stage": {},
                 "records_dropped_by_accuracy": 0}
        for k, argv in enumerate(self.gen_argvs):
            ref = self.work / f"reference-{k}"
            self.run_cli(argv + ["--jobs", "1", "--out", str(ref)])
            self.gen_digests.append(digest_tree(ref))
            text = (ref / "manifest.jsonl").read_text(encoding="utf-8")
            written = records.load_manifest(text)
            self.check("every manifest image_ref exists",
                       all((ref / r).is_file() for r in {r.image_ref for r in written.records}))
            self.count_accepted(ref)
            self.add_scenario_counts(ref, per_scenario)
            self.add_waste(ref, waste)
            parts.append([json.loads(line) for line in text.splitlines()[1:]])
        self.gen_digest = hashlib.sha256("".join(self.gen_digests).encode()).hexdigest()
        self.notes["per_scenario"] = dict(sorted(per_scenario.items()))
        self.notes["waste"] = waste
        if not self.wl.synthetic_images:
            self.make_shards(parts)
        for i, shard in enumerate(self.shards):
            once = records.dump_manifest(shard.manifest)
            self.check("dump_manifest matches the documented line format",
                       once == shard.gold_bytes)
            loaded = records.load_manifest(once)
            self.check("gold manifest loads to the records it was built from",
                       loaded.records == shard.manifest.records)
            self.check("dump(load(dump(m))) == dump(m)", records.dump_manifest(loaded) == once)
            shard.report_digest, _ = self.eval_once(shard, self.work / f"eval-reference-{i}")
        self.report_digest = hashlib.sha256(
            "".join(s.report_digest for s in self.shards).encode()).hexdigest()
        self.notes.update({
            "gen_digest": self.gen_digest, "report_digest": self.report_digest,
            "gold_records": sum(len(s.manifest.records) for s in self.shards),
            "gold_shards": len(self.shards),
            "gold_records_per_answer_kind": dict(sorted(self.per_kind.items())),
            "predictions_missing": sum(s.missing for s in self.shards)})
        if self.seed == DEFAULT_SEED:
            pin = pins.get(self.wl.name, {"gen": None, "report": None})
            self.check("gen digest equals the pin", self.gen_digest == pin["gen"],
                       f"{self.gen_digest} != {pin['gen']}")
            self.check("report.json digest equals the pin", self.report_digest == pin["report"],
                       f"{self.report_digest} != {pin['report']}")

    def run_cli(self, argv: list[str]) -> float:
        """Runs one absynth command; returns its wall time in seconds."""
        from absynth import cli
        with contextlib.redirect_stdout(self.devnull):
            t0 = perf_counter()
            code = cli.main(argv)
            elapsed = perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"absynth {argv[0]} exited with {code}")
        return elapsed

    def count_accepted(self, out: Path) -> int:
        """Accepted images, counted from the gate outcomes and checked against
        the SVG files written."""
        outcomes = json.loads((out / "gate_report.json").read_text())["outcomes"]
        accepted = sorted(cid for cid, o in outcomes.items() if o["accepted"])
        svgs = sorted(p.stem for p in out.glob("images/*/*.svg"))
        self.check("accepted images == SVG files written", accepted == svgs,
                   f"{len(accepted)} accepted, {len(svgs)} SVGs")
        return len(accepted)

    @staticmethod
    def add_scenario_counts(out: Path, counts: dict) -> None:
        for p in out.glob("images/*/*.svg"):
            counts.setdefault(p.parent.name, {"images": 0, "records": 0})["images"] += 1
        for line in (out / "manifest.jsonl").read_text().splitlines()[1:]:
            scenario = json.loads(line)["scenario"]
            counts.setdefault(scenario, {"images": 0, "records": 0})["records"] += 1

    @staticmethod
    def add_waste(out: Path, waste: dict) -> None:
        """Adds gate candidates, rejections by stage, and records dropped by
        the accuracy gate, from gate_report.json."""
        outcomes = json.loads((out / "gate_report.json").read_text())["outcomes"]
        stages = waste["rejected_by_stage"]
        for cid, o in outcomes.items():
            if o["accepted"]:
                waste["candidates"] += 1
                waste["accepted"] += 1
            elif o["stage"] == "accuracy":  # a record, not an image
                waste["records_dropped_by_accuracy"] += 1
            else:
                waste["candidates"] += 1
                stages[o["stage"]] = stages.get(o["stage"], 0) + 1

    def eval_once(self, shard: Shard, out: Path) -> tuple[str, float]:
        """Runs `eval` on one shard; returns the report.json digest and the
        wall time."""
        elapsed = self.run_cli(
            ["eval", str(shard.gold_path), str(shard.pred_path), "--out", str(out)])
        report = (out / "report.json").read_bytes()
        counts = json.loads(report)["counts"]
        self.check("scored + missing + unparsable == gold",
                   counts["scored"] + counts["missing"] + counts["unparsable"]
                   == counts["gold"] == len(shard.manifest.records), counts)
        self.check("missing == ids left out of the predictions",
                   counts["missing"] == shard.missing, (counts["missing"], shard.missing))
        return hashlib.sha256(report).hexdigest(), elapsed

    # -- timed operations -----------------------------------------------------
    # Each runs on the next of its inputs in turn and returns (input, units
    # done, seconds), or None if it failed. run_phases adds the rescaled
    # seconds.

    def next_input(self, phase: str, count: int) -> int:
        i = self.turn[phase]
        self.turn[phase] = (i + 1) % count
        return i

    def fresh_dir(self, name: str) -> Path:
        """An empty output directory. The previous one is deleted and the
        file system synced first, so that the deferred work of deleting it
        does not land inside the next timed call."""
        out = self.work / name
        shutil.rmtree(out, ignore_errors=True)
        os.sync()
        return out

    @staticmethod
    def settle() -> None:
        """Collects garbage left by the previous repetition, so each timed
        call starts from the same collector state."""
        gc.collect()

    def op_start(self) -> tuple[int, int, float]:
        """Interpreter start + `import absynth` in a fresh process, the first
        part of set-up. It is repeated through the run, like the other
        operations, so that its median samples the whole run."""
        t0 = perf_counter()
        # No timeout: with one, the wait polls in steps of up to 50 ms.
        subprocess.run([sys.executable, "-c", "import absynth"], env=self.env, cwd=ROOT,
                       check=True)
        return 0, 1, perf_counter() - t0

    def op_gen(self) -> tuple[int, int, float] | None:
        k = self.next_input("gen", len(self.gen_argvs))
        out = self.fresh_dir("gen")
        slots = len(self.wl.scenarios) * self.wl.count
        self.attempted += slots
        self.settle()
        try:
            elapsed = self.run_cli(
                self.gen_argvs[k] + ["--jobs", str(self.wl.jobs), "--out", str(out)])
            self.timed_s += elapsed
            accepted = self.count_accepted(out)
            ok = self.check("gen output identical across repetitions and to --jobs 1",
                            digest_tree(out) == self.gen_digests[k])
        except Exception:
            traceback.print_exc()
            ok = False
        if not ok:
            self.failed += slots
            return None
        return k, accepted, elapsed

    def op_eval(self) -> tuple[int, int, float] | None:
        k = self.next_input("eval", len(self.shards))
        shard = self.shards[k]
        lines = len(shard.manifest.records) - shard.missing
        self.attempted += lines
        out = self.fresh_dir("eval")
        self.settle()
        try:
            digest, elapsed = self.eval_once(shard, out)
            self.timed_s += elapsed
            ok = self.check("report.json identical across repetitions",
                            digest == shard.report_digest)
        except Exception:
            traceback.print_exc()
            ok = False
        if not ok:
            self.failed += lines
            return None
        return k, len(shard.manifest.records), elapsed

    def op_dump(self) -> tuple[int, int, float] | None:
        from absynth import records
        k = self.next_input("dump", len(self.shards))
        shard = self.shards[k]
        self.settle()
        try:
            t0 = perf_counter()
            data = records.dump_manifest(shard.manifest)
            elapsed = perf_counter() - t0
        except Exception:
            traceback.print_exc()
            data = None
        self.timed_s += elapsed if data is not None else 0.0
        if not self.check("dump_manifest output identical across repetitions",
                          data == shard.gold_bytes):
            return None
        return k, len(shard.manifest.records), elapsed

    def op_load(self) -> tuple[int, int, float] | None:
        from absynth import records
        k = self.next_input("load", len(self.shards))
        shard = self.shards[k]
        self.settle()
        try:
            t0 = perf_counter()
            manifest = records.load_manifest(shard.gold_bytes)
            elapsed = perf_counter() - t0
        except Exception:
            traceback.print_exc()
            manifest = None
        self.timed_s += elapsed if manifest is not None else 0.0
        if not self.check("load_manifest reads back every record",
                          manifest is not None and manifest.records == shard.manifest.records):
            return None
        return k, len(manifest.records), elapsed

    def run_phases(self, seconds: float) -> dict[str, list]:
        """Runs the operations for `seconds`, interleaved so that each gets
        its share of the time and every one samples the whole window; returns
        the result of each repetition, by phase: (input, units, seconds,
        rescaled seconds), or None. Each call is timed between two runs of
        the calibration kernel, which are shared with its neighbours."""
        ops = {"gen": self.op_gen, "eval": self.op_eval, "dump": self.op_dump,
               "load": self.op_load, "start": self.op_start}
        shares = self.wl.shares
        results: dict[str, list] = {phase: [] for phase in shares}
        spent = dict.fromkeys(shares, 0.0)
        deadline = perf_counter() + seconds
        after = calibration.measure()
        while perf_counter() < deadline or min(map(len, results.values())) < MIN_REPS:
            phase = min(shares, key=lambda p: (len(results[p]) >= MIN_REPS,
                                               spent[p] / shares[p]))
            before = after
            t0 = perf_counter()
            done = ops[phase]()
            after = calibration.measure()
            spent[phase] += perf_counter() - t0
            results[phase].append(
                None if done is None else (*done, calibration.normalize(done[2], before, after)))
        return results


def summarize(results: dict[str, list]) -> dict:
    """Per phase: the rate (all inputs' units over the sum of each input's
    median rescaled time), and from the raw wall times the fastest rate (the
    same sum over each input's fastest time), the median and quartiles of the
    per-repetition rates, and every rate. Interpreter starts are summarized
    as times, in `start_s`."""
    starts = results.pop("start")
    out: dict = {"start_s": {"median": statistics.median(r[3] for r in starts),
                             "raw_median": statistics.median(r[2] for r in starts),
                             "raw": sorted(r[2] for r in starts)}}
    for phase, samples in results.items():
        by_input: dict[int, tuple[int, list[float], list[float]]] = {}
        for k, units, elapsed, rescaled in filter(None, samples):
            entry = by_input.setdefault(k, (units, [], []))
            entry[1].append(elapsed)
            entry[2].append(rescaled)
        units = sum(u for u, _, _ in by_input.values())
        rate = units / sum(statistics.median(r) for _, _, r in by_input.values()) if units else 0.0
        fastest = units / sum(min(e) for _, e, _ in by_input.values()) if units else 0.0
        rates = sorted(u / e for u, es, _ in by_input.values() for e in es) or [0.0]
        q = statistics.quantiles(rates, n=4) if len(rates) > 1 else rates * 3
        out[HEADLINE[phase]] = {"rate": rate, "raw_fastest": fastest,
                                "raw_median": statistics.median(rates), "raw_p25": q[0],
                                "raw_p75": q[2], "samples": len(samples),
                                "inputs": len(by_input), "raw_rates": rates}
    return out


def environment(wl: Workload, seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():  # a plain source tree has no commit
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_commit": commit, "seed": seed, "default_seed": DEFAULT_SEED,
            "scenarios": list(wl.scenarios), "images_per_scenario_per_gen": wl.count,
            "gen_seeds": [seed * 100 + k for k in range(wl.gens)], "jobs": wl.jobs}


def run(wl: Workload, seed: int, seconds: float, traced: bool) -> dict:
    pins = json.loads((HERE / "pins.json").read_text())
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=ROOT / ".bench_work"))
    bench = Bench(wl, seed, work)
    try:
        build_s = bench.measure_builds()
        bench.prepare(pins)
        # The benchmark's own inputs live for the whole run; freeze them so
        # that they do not add to the program's garbage collections.
        gc.collect()
        gc.freeze()
        metrics: dict[str, dict] = {}
        report: dict = {"workload": wl.name, "environment": environment(wl, seed)}
        if not traced:
            summary = summarize(bench.run_phases(seconds))
            for name, unit in UNITS.items():
                metrics[name] = {"value": summary[name]["rate"], "unit": unit}
            metrics["setup_s"] = {"value": summary["start_s"]["median"] + build_s, "unit": "s"}
            metrics["peak_rss_mb"] = {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"}
        else:
            base = summarize(bench.run_phases(seconds / 2))
            tracer = spans.Tracer()
            uninstall = spans.install(tracer)
            bench.timed_s = 0.0
            try:
                with_spans = summarize(bench.run_phases(seconds / 2))
            finally:
                uninstall()
            summary = {"untraced": base, "traced": with_spans}
            for name, (value, unit) in spans.layer_metrics(tracer, bench.timed_s,
                                                           wl.jobs).items():
                metrics[name] = {"value": value, "unit": unit}
            for phase, headline in HEADLINE.items():
                b, t = base[headline]["rate"], with_spans[headline]["rate"]
                metrics[f"trace.overhead.{phase}_pct"] = {
                    "value": 100.0 * (b - t) / b if b else 0.0, "unit": "%"}
            report["moves"] = {name: spans.moves(name) for name in metrics}
        report.update(bench.notes)
        report["timings"] = summary
        report["checks"] = bench.checks
        report["ops_total"], report["ops_failed"] = bench.attempted, bench.failed
        print(json.dumps({"report": report}, sort_keys=True))
        return {"correct": all(bench.checks.values()) and bench.failed == 0,
                "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}
    finally:
        bench.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while other runs use it
            (ROOT / ".bench_work").rmdir()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "absynth" / "__init__.py").is_file():
        print(f"error: absynth sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import absynth  # noqa: F401  (so the timed input builds do not pay for it)
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
