"""Command-line entry point: gen, eval, stats, gallery.

All commands are deterministic for a fixed --seed and config; `gen` prints
per-scenario accepted/rejected counts, `eval` writes report.json/report.txt,
`stats` writes stats.json/stats.txt, and `gallery` emits a static HTML page
referencing images relatively. Bad input, and a path that cannot be read
or written, give one `error:` line on stderr and exit code 1.

Only `records`, which the parser and every command need, is imported at the
top; each command imports its own modules when it runs, so `eval` and
`stats` never load the generators and `gen` never loads the scorer.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, is_dataclass
from functools import cache
from types import UnionType
from typing import TYPE_CHECKING, get_args, get_origin, get_type_hints

from .records import JSON_TYPE_NAMES, SCENARIOS, SchemaMismatch, load_manifest, write_files

if TYPE_CHECKING:
    from .pipeline import RunConfig


def _read_json(path: str, source: str):
    """The JSON value in the file at `path`, read by `_read_input`. A file that
    is not UTF-8, not JSON, holding an integer of more digits than int()
    converts, or nested deeper than the JSON scanner can follow raises
    ValueError("<source> file <path>: ...")."""
    data = _read_input(path, f"{source} file")
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as err:
        raise ValueError(f"{source} file {path}: not UTF-8 ({err.reason})") from None
    except json.JSONDecodeError as err:
        raise ValueError(f"{source} file {path}: invalid JSON "
                         f"({err.msg}: line {err.lineno} column {err.colno})") from None
    except ValueError as err:  # an integer longer than int() converts
        raise ValueError(f"{source} file {path}: invalid JSON ({err})") from None
    except RecursionError:
        raise ValueError(f"{source} file {path}: JSON nested too deeply") from None


def _checked_keys(data: dict, known, source: str, section: str = "") -> dict:
    """`data`, after checking that it is a JSON object with only `known` keys."""
    if not isinstance(data, dict):
        raise ValueError(f"{source} {section or 'file'} must be a JSON object")
    for key in data:
        if key not in known:
            path = f"{section}.{key}" if section else key
            raise ValueError(f"unknown {source} key {path!r}")
    return data


def _typed(value, hint, source: str, path: str):
    """`value` as a `hint`, after checking that it has that type's JSON type:
    bool is not a number, an integer is accepted as a float, `X | None` also
    takes null, and a config dataclass takes an object of its fields."""
    args = get_args(hint)
    if get_origin(hint) is UnionType:
        if value is None:
            return None
        hint, = (a for a in args if a is not type(None))
    if is_dataclass(hint):
        return hint(**_typed_fields(hint, value, source, path))
    origin = get_origin(hint) or hint
    if origin is tuple and type(value) is list:
        return tuple(_typed(v, args[0], source, f"{path}[{i}]") for i, v in enumerate(value))
    if origin is dict and type(value) is dict:
        return {k: _typed(v, args[1], source, f"{path}.{k}") for k, v in value.items()}
    if type(value) is origin or (origin is float and type(value) is int):
        return value
    raise ValueError(f"{source} key {path!r} must be {JSON_TYPE_NAMES[origin]}, "
                     f"not {JSON_TYPE_NAMES[type(value)]}")


@cache
def _type_hints(cls) -> dict:
    """`get_type_hints(cls)`, resolved once per config class."""
    return get_type_hints(cls)


def _typed_fields(cls, data, source: str, section: str = "", renamed=None) -> dict:
    """Keyword arguments for `cls` from the JSON object `data`, whose keys
    are field names (or keys of `renamed`, which maps a key to its field)."""
    hints = _type_hints(cls)
    known = {f.name: f.name for f in fields(cls)}
    for key, name in (renamed or {}).items():
        known[key] = known.pop(name)
    kwargs = {}
    for key, value in _checked_keys(data, known, source, section).items():
        name = known[key]
        kwargs[name] = _typed(value, hints[name], source, f"{section}.{key}" if section else key)
    return kwargs


def _load_run_config(args: argparse.Namespace) -> RunConfig:
    from .bridge import BackendConfig
    from .pipeline import RunConfig
    if args.jobs not in (None, 1):
        raise ValueError(f"--jobs must be 1, not {args.jobs}: gen runs on one thread")
    file_cfg = _read_json(args.config, "run-config") if args.config else {}
    kwargs = _typed_fields(RunConfig, file_cfg, "run-config", renamed={"out": "out_dir"})
    if args.all:
        kwargs["scenarios"] = SCENARIOS
    elif args.scenario:
        kwargs["scenarios"] = tuple(args.scenario)
    if args.backend:
        backend = _read_json(args.backend, "backend-config")
        kwargs["backend"] = _typed(backend, BackendConfig, "backend-config", "")
    flags = {"default_count": args.count, "seed": args.seed, "out_dir": args.out}
    kwargs.update((name, value) for name, value in flags.items() if value is not None)
    return RunConfig(**kwargs)


def cmd_gen(args: argparse.Namespace) -> int:
    from .pipeline import generate_dataset, image_id_for, write_outputs
    config = _load_run_config(args)
    if args.dry_run:
        plan = {s: config.count_for(s) for s in config.scenarios}
        print(f"dry run: seed {config.seed}, out {config.out_dir!r}, "
              f"images per scenario {plan}")
        return 0
    os.makedirs(config.out_dir, exist_ok=True)  # an unusable --out fails before any image
    manifest, report, images = generate_dataset(config)
    paths = write_outputs(config, manifest, report, images)
    stats = manifest.stats()
    for scenario in config.scenarios:
        count = config.count_for(scenario)
        rejected = sum(report.outcomes[image_id_for(scenario, index)] is not None
                       for index in range(count))
        records = stats.get(scenario, {}).get("records", 0)
        print(f"{scenario:<16} images accepted {count - rejected:>4}  rejected {rejected:>3}  "
              f"records {records:>5}")
    print(f"wrote {paths['manifest']} ({len(manifest.records)} records) and "
          f"{len(images)} images")
    return 0


def _read_input(path: str, what: str) -> bytes:
    """The bytes of an input file, or FileNotFoundError("<what> not found:
    <path>") when there is none."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        raise FileNotFoundError(f"{what} not found: {path}") from None


def _write_report(out_dir: str, stem: str, body: str, text: str) -> None:
    """Write `<stem>.json` (the JSON `body` and a newline) and `<stem>.txt`
    into `out_dir` through records.write_files, then print the text and
    where the JSON went."""
    write_files(out_dir, {f"{stem}.json": (body + "\n").encode("utf-8"),
                          f"{stem}.txt": text.encode("utf-8")})
    print(text, end="")
    print(f"wrote {os.path.join(out_dir, f'{stem}.json')}")


def cmd_eval(args: argparse.Namespace) -> int:
    if args.max_missing is not None and args.max_missing < 0:
        raise ValueError(f"--max-missing must be >= 0, not {args.max_missing}")
    from .scoring import aggregate, load_predictions, render_report_text
    manifest = load_manifest(_read_input(args.gold, "manifest"))
    predictions = load_predictions(_read_input(args.predictions, "prediction file"))
    report = aggregate(manifest, predictions)
    out_dir = args.out or os.path.dirname(os.path.abspath(args.predictions))
    _write_report(out_dir, "report", report.to_json(), render_report_text(report))
    missing = report.total.missing
    if args.max_missing is not None and missing > args.max_missing:
        print(f"error: {missing} predictions missing exceeds --max-missing "
              f"{args.max_missing}", file=sys.stderr)
        return 2
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    from .scoring import dataset_stats
    manifest = load_manifest(_read_input(args.manifest, "manifest"))
    stats = dataset_stats(manifest)
    lines = [f"records {stats['records']}  images {stats['images']}"]
    for scenario, counts in stats["per_scenario"].items():
        lines.append(f"  {scenario:<16} images {counts['images']:>5}  "
                     f"records {counts['records']:>6}")
    out_dir = args.out or os.path.dirname(os.path.abspath(args.manifest))
    _write_report(out_dir, "stats", json.dumps(stats, indent=2, sort_keys=True),
                  "\n".join(lines) + "\n")
    return 0


def cmd_gallery(args: argparse.Namespace) -> int:
    from .gallery import render_gallery
    manifest = load_manifest(_read_input(args.manifest, "manifest"))
    manifest_dir = os.path.dirname(os.path.abspath(args.manifest))
    out_path = args.out or os.path.join(manifest_dir, "gallery.html")
    page_dir, page_name = os.path.split(os.path.abspath(out_path))
    page = render_gallery(manifest, os.path.relpath(manifest_dir, page_dir))
    write_files(page_dir, {page_name: page.encode("utf-8")})
    print(f"wrote {out_path}")
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The `absynth` parser, built on the first call and shared after it:
    parsing leaves it unchanged, and each parse starts a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="absynth",
        description="Generate abstract-image instruction datasets and score predictions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate images, records, and gate report")
    gen.add_argument("--scenario", action="append", choices=SCENARIOS,
                     help="scenario to generate (repeatable)")
    gen.add_argument("--all", action="store_true", help="generate every scenario")
    gen.add_argument("--count", type=int, default=None,
                     help="images per scenario (default 10)")
    gen.add_argument("--seed", type=int, default=None, help="master seed (default 0)")
    gen.add_argument("--out", default=None, help="output directory (default ./out)")
    gen.add_argument("--jobs", type=int, default=None,
                     help="accepts only 1: gen runs on one thread; kept for bench/run.py "
                          "until ROADMAP item 9(e) drops it")
    gen.add_argument("--config", default=None, help="JSON run-config file")
    gen.add_argument("--backend", default=None, help="JSON backend-config file")
    gen.add_argument("--dry-run", action="store_true",
                     help="validate configuration without writing")
    gen.set_defaults(func=cmd_gen)

    ev = sub.add_parser("eval", help="score a prediction file against a gold manifest")
    ev.add_argument("gold", help="gold manifest (.jsonl)")
    ev.add_argument("predictions", help="prediction file (.jsonl with id/response)")
    ev.add_argument("--out", default=None, help="directory for report files")
    ev.add_argument("--max-missing", type=int, default=None,
                    help="exit nonzero when more predictions are missing")
    ev.set_defaults(func=cmd_eval)

    st = sub.add_parser("stats", help="dataset statistics for a manifest")
    st.add_argument("manifest")
    st.add_argument("--out", default=None)
    st.set_defaults(func=cmd_stats)

    ga = sub.add_parser("gallery", help="emit a static HTML gallery")
    ga.add_argument("manifest")
    ga.add_argument("--out", default=None, help="output HTML path")
    ga.set_defaults(func=cmd_gallery)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, SchemaMismatch, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
