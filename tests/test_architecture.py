"""Package-level contracts that cut across modules."""

import ast
import dataclasses
import importlib
import inspect
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import pytest

from absynth.bridge import BackendConfig
from absynth.charts import ChartSpec, Series, SeriesPoint
from absynth.diagrams import FlowNode, FlowSpec, TreeNode, TreeSpec
from absynth.gate import LLM_ANSWER_VOTES, GateConfig
from absynth.gauges import FAMILIES, DialSpec
from absynth.keywords import BUILTIN_TOPICS
from absynth.maps import RoadMapSpec
from absynth.pipeline import MAX_COUNT, SCENARIO_SOURCES, RunConfig
from absynth.puzzles import PanelItem, PanelSpec
from absynth.records import (
    InstructionRecord, Manifest, Provenance, QuestionDraft, dump_manifest, sample_for_review,
)
from absynth.scene import Canvas, StyleSpec
from tests_helpers import SRC_DIR


def test_network_access_confined_to_bridge():
    """Only the bridge module may import network machinery."""
    offenders = []
    for path in sorted(SRC_DIR.glob("*.py")):
        if path.name == "bridge.py":
            continue
        source = path.read_text(encoding="utf-8")
        for needle in ("urllib", "socket", "http.client", "requests"):
            if needle in source:
                offenders.append((path.name, needle))
    assert not offenders


# Each statement runs in turn in one fresh interpreter; the probe prints, for
# each, the modules it newly loaded. Diffing matters: `site` may already have
# loaded some standard modules (urllib.parse, threading) before any import.
_PROBE = """
import json, sys
loaded = []
for statement in sys.argv[1:]:
    before = set(sys.modules)
    exec(statement, {})
    loaded.append(sorted(set(sys.modules) - before))
print(json.dumps(loaded))
"""
NETWORK_MODULES = ("urllib.request", "http.client", "socket", "ssl", "email", "xml.sax",
                   "concurrent.futures")
GENERATOR_MODULES = tuple(f"absynth.{name}" for name in
                          ("charts", "maps", "gauges", "diagrams", "puzzles"))
GEN_ONLY_MODULES = ("absynth.pipeline", *GENERATOR_MODULES, "absynth.bridge")


def modules_loaded_by(*statements, cwd):
    """The modules each statement newly loads, run in order in a fresh
    interpreter that imports absynth from the source tree."""
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR.parent))
    done = subprocess.run([sys.executable, "-c", _PROBE, *statements], env=env, cwd=cwd,
                          capture_output=True, text=True, check=True)
    return [set(names) for names in json.loads(done.stdout.splitlines()[-1])]


def among(loaded, wanted):
    return sorted(m for m in loaded for w in wanted if m == w or m.startswith(w + "."))


def test_import_loads_no_network_stack_and_commands_load_only_their_modules(tmp_path):
    """Run-time twin of the source scan above: it catches a network module
    pulled in through a standard-library import, which the scan cannot see."""
    package, bridged, pipeline, transport = modules_loaded_by(
        "import absynth", "import absynth.bridge", "import absynth.pipeline",
        "from absynth import bridge; bridge.http_transport("
        "bridge.BackendConfig(endpoint='http://localhost:8000/v1/chat/completions'))",
        cwd=tmp_path)
    assert among(package, ["absynth"]) == ["absynth"]  # and no absynth.* module
    assert among(bridged, GEN_ONLY_MODULES) == ["absynth.bridge"]
    assert among(pipeline, GENERATOR_MODULES) == []
    assert among(package, NETWORK_MODULES) == []
    assert among(package | bridged | pipeline, NETWORK_MODULES) == []
    assert "urllib.request" in transport  # the deferred import still works

    from test_records import make_record
    gold, preds = tmp_path / "gold.jsonl", tmp_path / "preds.jsonl"
    records = [make_record(i) for i in range(4)]
    gold.write_bytes(dump_manifest(Manifest(records=records)))
    preds.write_text("".join(json.dumps({"id": r.id, "response": r.answer}) + "\n"
                             for r in records))
    cli, evaluated = modules_loaded_by(
        "import absynth.cli",
        f"from absynth import cli; assert cli.main(['eval', {str(gold)!r}, {str(preds)!r},"
        f" '--out', {str(tmp_path)!r}]) == 0",
        cwd=tmp_path)
    assert among(cli | evaluated, GEN_ONLY_MODULES) == []
    assert "absynth.scoring" in evaluated
    assert (tmp_path / "report.json").exists()


@pytest.mark.parametrize("scenarios, generators", [
    (["--scenario", "chart"], ["absynth.charts"]),
    (["--scenario", "map"], ["absynth.maps"]),
    (["--scenario", "relation_graph"], ["absynth.diagrams"]),
    (["--all"], sorted(GENERATOR_MODULES)),
], ids=["chart", "map", "relation_graph", "all"])
def test_gen_loads_only_the_generators_of_its_scenarios(tmp_path, scenarios, generators):
    argv = ["gen", *scenarios, "--count", "1", "--out", str(tmp_path / "out")]
    [loaded] = modules_loaded_by(
        f"from absynth import cli; assert cli.main({argv!r}) == 0", cwd=tmp_path)
    assert among(loaded, GENERATOR_MODULES) == generators
    assert among(loaded, NETWORK_MODULES) == []
    assert (tmp_path / "out" / "manifest.jsonl").exists()


PACKAGE_EXPORTS = [("InstructionRecord", "records"), ("Manifest", "records"),
                   ("QuestionDraft", "records"), ("Canvas", "scene"), ("Primitive", "scene"),
                   ("SceneGraph", "scene"), ("StyleSpec", "scene"), ("render_svg", "scene")]


@pytest.mark.parametrize("name, module", PACKAGE_EXPORTS, ids=[n for n, _ in PACKAGE_EXPORTS])
def test_package_exports_are_their_modules_names(name, module):
    """`import absynth` loads no submodule; each name it exports is read
    from its module on first use, and is that module's object."""
    import absynth
    namespace = {}
    exec(f"from absynth import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"absynth.{module}"), name)
    assert getattr(absynth, name) is namespace[name]
    assert name in dir(absynth)


def test_unknown_package_name_is_an_attribute_error():
    import absynth
    with pytest.raises(AttributeError, match="^module 'absynth' has no attribute 'Nope'$"):
        absynth.Nope
    with pytest.raises(ImportError):
        exec("from absynth import Nope", {})


def test_keyword_library_ships_150_topics():
    assert len(BUILTIN_TOPICS) == 150
    domains = {t.domain for t in BUILTIN_TOPICS}
    assert domains == {"economics", "technology", "society"}
    texts = {t.text for t in BUILTIN_TOPICS}
    assert {"GDP", "energy consumption", "employment rate"} <= texts
    for t in BUILTIN_TOPICS:
        assert len(t.text.split()) <= 8


def test_review_sample_fraction_matches_config_default():
    """The review fraction has one home, GateConfig: `sample_for_review`
    takes it with no default of its own."""
    from test_records import make_record
    fraction = GateConfig().review_fraction
    params = inspect.signature(sample_for_review).parameters
    assert all(params[name].default is inspect.Parameter.empty for name in ("fraction", "seed"))
    manifest = Manifest(records=[make_record(i) for i in range(40)])
    ids = sample_for_review(manifest, fraction, seed=1)
    assert len(ids) == math.ceil(fraction * 40)


# Modules below the scenario table: they must not reach up to it, so no
# registry filled by import side effects can grow back.
LOWER_LAYERS = ("records", "scene", "gate", "seeds", "palette", "bridge")
UPPER_LAYERS = {"pipeline", "charts", "maps", "gauges", "diagrams", "puzzles"}


def imported_names(tree):
    """Absolute names of the modules and names a module imports, at any
    depth: an import inside a function body counts as well."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "absynth" + ("." + base if base else "")
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_lower_layers_do_not_import_scenario_modules():
    offenders = []
    for name in LOWER_LAYERS:
        tree = ast.parse((SRC_DIR / f"{name}.py").read_text(encoding="utf-8"))
        for imported in sorted(imported_names(tree)):
            parts = imported.split(".")
            if parts[0] == "absynth" and UPPER_LAYERS & set(parts[1:2]):
                offenders.append((name, imported))
    assert not offenders


def name_uses(tree, name):
    """Line numbers where a module imports `name` or names it, bare or as an
    attribute."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            lines.extend(node.lineno for alias in node.names if alias.name == name)
        elif isinstance(node, ast.Attribute) and node.attr == name:
            lines.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id == name:
            lines.append(node.lineno)
    return lines


def test_no_module_uses_dataclasses_asdict():
    """Spec digests go through seeds.fields_of and manifest lines through
    records.record_to_json; asdict deep-copies every leaf and was the top
    self-time entry of `gen`."""
    offenders = []
    for path in sorted(SRC_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders.extend((path.name, line) for line in name_uses(tree, "asdict"))
    assert not offenders


def test_no_rng_is_seeded_by_the_os():
    """Every Random in the package takes a seed: an argument-less Random()
    seeds itself from the OS, so what it draws cannot be replayed, and it
    costs about twice a seeded one."""
    offenders = []
    for path in sorted(SRC_DIR.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and not node.args and not node.keywords
                    and "Random" in (getattr(node.func, "id", None),
                                     getattr(node.func, "attr", None))):
                offenders.append((path.name, node.lineno))
    assert not offenders


def test_text_width_has_one_formula():
    """Every text-width estimate goes through scene.text_width, so the layout
    checks of the generators and the scene's own boxes cannot disagree."""
    offenders = []
    for path in sorted(SRC_DIR.glob("*.py")):
        if path.name != "scene.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            offenders.extend((path.name, line) for line in name_uses(tree, "TEXT_WIDTH_FACTOR"))
    assert not offenders


def enclosing_functions(tree, matches):
    """For each node that `matches`, the name of the innermost function
    around it, or None at module level."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if matches(node):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


def is_room_edge_tolerance(node):
    return isinstance(node, ast.Constant) and node.value == 1e-6


def divides_by_scale_span(node):
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and ast.unparse(node.right) == "hi - lo")


@pytest.mark.parametrize("module, matches, home", [
    ("puzzles", is_room_edge_tolerance, "_wall"),
    ("gauges", divides_by_scale_span, "_scale_frac"),
], ids=["room-wall", "scale-fraction"])
def test_generator_rule_has_one_home(module, matches, home):
    """Where two rooms touch and where a value sits on a dial's scale are
    each written once, so the door, adjacency, needle, column and tick code
    cannot drift apart, and a scene reader has one rule to invert."""
    tree = ast.parse((SRC_DIR / f"{module}.py").read_text(encoding="utf-8"))
    assert enclosing_functions(tree, matches) == [home]


def calls_to_dict(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "to_dict")


def test_specs_are_encoded_only_for_the_question_seed():
    """Encoding a spec costs about as much as the rest of a questions call,
    so it happens in one place, which keeps the digest on the spec for the
    drafting call and the oracle call."""
    found = [(path.stem, owner) for path in sorted(SRC_DIR.glob("*.py"))
             for owner in enclosing_functions(
                 ast.parse(path.read_text(encoding="utf-8")), calls_to_dict)]
    assert found == [("seeds", "question_seed")]


# Each spec class keeps its own `to_dict` (bench/spans.py times each one by
# name); the JSON encoder walks what it returns in one pass, so the Python
# pre-pass that built a JSON-ready copy of the tree stays out.
SPEC_CLASSES = {"ChartSpec", "RoadMapSpec", "DialSpec", "TreeSpec", "FlowSpec", "PatternRule",
                "DiffPairSpec", "FloorPlanSpec"}


def test_specs_are_encoded_in_one_pass():
    owners, offenders = set(), []
    for path in sorted(SRC_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owners |= {cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   and functions(cls, "to_dict")}
        offenders += [(path.name, line, name) for name in ("plain", "_LEAVES")
                      for line in [*name_uses(tree, name),
                                   *(f.lineno for f in functions(tree, name))]]
    assert owners == SPEC_CLASSES
    assert not offenders


def module_dicts(tree):
    """(name, constant keys) of each dict literal a module assigns at top level."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Dict):
            target = node.targets[0] if isinstance(node, ast.Assign) else node.target
            keys = {k.value for k in node.value.keys if isinstance(k, ast.Constant)}
            found.append((target.id, keys))
    return found


def test_each_dial_family_is_described_once():
    """A family's canvas, font, builder, scale, arc or column, unit and
    reading question sit in its one row of the family table, so no registry
    keyed by family names can drift from it."""
    tree = ast.parse((SRC_DIR / "gauges.py").read_text(encoding="utf-8"))
    keyed = [name for name, keys in module_dicts(tree) if keys & set(FAMILIES)]
    assert keyed == ["_ROWS"]


def test_dial_spec_holds_only_what_was_sampled():
    """The scale and geometry come from the family's row, so a spec cannot
    carry a copy that contradicts its family."""
    names = [f.name for f in dataclasses.fields(DialSpec)]
    assert names == ["family", "reading", "offset", "exercise_hours"]


def test_road_map_spec_holds_its_cells_and_names():
    """The start, the end, the turns, the intersections and the landmark
    sequence are read off `route` where they are asked, so the spec holds no
    copy of them that could disagree with the route."""
    names = [f.name for f in dataclasses.fields(RoadMapSpec)]
    assert names == ["network", "obstacles", "route", "landmark_names", "difficulty"]
    found = [(path.name, number, name)
             for path in sorted(SRC_DIR.glob("*.py"))
             for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             for name in ("PathTrace", "_DIR_ORDER") if name in line]
    assert not found


def test_each_unit_class_is_described_once():
    """A unit class's value range and axis suffix are one row of
    keywords.UNIT_CLASSES, not two dicts over the same keys."""
    offenders = []
    for path in sorted(SRC_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders.extend((path.name, line) for name in ("UNIT_RANGES", "UNIT_SUFFIX")
                         for line in name_uses(tree, name))
    assert not offenders


RE_FUNCTIONS = {"search", "match", "fullmatch", "findall", "finditer", "sub", "split",
                "escape", "compile"}


def re_calls_in_functions(tree):
    """Line numbers where a function body calls a module-level `re`
    function; patterns compiled at module level are not counted."""
    lines = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for node in ast.walk(func):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "re"
                    and node.func.attr in RE_FUNCTIONS):
                lines.append(node.lineno)
    return sorted(set(lines))


def test_scoring_and_records_compile_patterns_once():
    """A pattern built per call has to be compiled again whenever re's
    512-entry cache misses, which it does for per-needle patterns on a
    large manifest; scoring and records compile their patterns at import."""
    offenders = []
    for name in ("scoring", "records"):
        tree = ast.parse((SRC_DIR / f"{name}.py").read_text(encoding="utf-8"))
        offenders.extend((name, line) for line in re_calls_in_functions(tree))
    assert not offenders


def functions(tree, *names):
    return [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name in names]


def json_calls(tree, attr, skip=()):
    """Line numbers where `tree` calls `json.<attr>`, outside the bodies of
    the functions named in `skip`."""
    skipped = {id(node) for func in functions(tree, *skip) for node in ast.walk(func)}
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
        and node.func.attr == attr and id(node) not in skipped)


def splits_at_newlines(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "split"
            and [ast.unparse(arg) for arg in node.args] == [repr("\n")])


def json_type_tables(tree):
    """Line numbers of the top-level dicts that word a JSON type, as
    "an object"."""
    return [node.lineno for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Dict)
            and any(isinstance(v, ast.Constant) and v.value == "an object"
                    for v in node.value.values)]


def test_record_lines_skip_the_generic_json_path():
    """A record line is one f-string, not json.dumps over a dict tree, and
    every manifest or prediction line is read by records.json_lines: the one
    place that splits an input file into lines, calls parse_json_line, which
    goes to the C scanner without json.loads's wrapper, and words a JSON
    type in an error. The one other split at "\n" cuts a backend reply, not
    an input file, into its key: value lines, in bridge._kv_lines.

    The line format is written once: one string literal in records holds
    '"alternates": [', in one f-string, in the function that every line
    dump_manifest writes goes through, from the raw texts in _raw_file or
    from the escaped ones in record_to_json. dump_manifest and
    Manifest.validate keep the names that bench/spans.py wraps, and
    dump_manifest still calls validate."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC_DIR.glob("*.py"))}
    [writer] = functions(trees["records"], "record_to_json")
    assert not json_calls(writer, "dumps")
    [line_format] = [node for node in ast.walk(trees["records"])
                     if isinstance(node, ast.Constant) and isinstance(node.value, str)
                     and '"alternates": [' in node.value]
    [template] = [fn for fn in ast.walk(trees["records"]) if isinstance(fn, ast.FunctionDef)
                  and any(node is line_format for node in ast.walk(fn))]
    assert any(isinstance(node, ast.JoinedStr) and line_format in node.values
               for node in ast.walk(template))
    [dump] = functions(trees["records"], "dump_manifest")
    writers = {fn.name for fn in ast.walk(trees["records"])
               if isinstance(fn, ast.FunctionDef) and name_uses(fn, template.name)}
    assert writers == {"_raw_file", "record_to_json"}
    assert all(name_uses(dump, name) for name in writers)
    assert name_uses(dump, "validate")
    [manifest] = [node for node in trees["records"].body
                  if isinstance(node, ast.ClassDef) and node.name == "Manifest"]
    assert functions(manifest, "validate")
    assert not name_uses(trees["records"], "plain")
    offenders = [(name, line) for name in ("records", "scoring")
                 for line in json_calls(trees[name], "loads", skip=("parse_json_line",))]
    assert not offenders
    [reader] = functions(trees["records"], "json_lines")
    assert enclosing_functions(trees["records"], splits_at_newlines) == ["json_lines"]
    assert [ln for ln in name_uses(trees["records"], "parse_json_line")
            if not reader.lineno <= ln <= reader.end_lineno] == []
    assert len(json_type_tables(trees["records"])) == 1
    assert enclosing_functions(trees["bridge"], splits_at_newlines) == ["_kv_lines"]
    elsewhere = [(name, line) for name, tree in trees.items() if name != "records"
                 for line in (*name_uses(tree, "parse_json_line"), *json_type_tables(tree),
                              *(n.lineno for n in ast.walk(tree)
                                if splits_at_newlines(n) and name != "bridge"))]
    assert not elsewhere


def test_each_record_rule_is_written_once():
    """validate_record's type checks and value_problems's value rules test
    each rule in one place between them: no fast path in front of the
    per-problem checks repeats a rule, and the vocabulary fields are looked
    up in their frozensets, not scanned in the tuples."""
    tree = ast.parse((SRC_DIR / "records.py").read_text(encoding="utf-8"))
    checks = functions(tree, "validate_record", "value_problems")
    assert len(checks) == 2
    once = ("parse_number", "_SCENARIO_SET", "_ANSWER_KIND_SET", "_SPLIT_SET",
            "RATIONALE_REQUIRED_TYPES")
    uses = {name: sum(len(name_uses(check, name)) for check in checks)
            for name in (*once, "SCENARIOS", "ANSWER_KINDS")}
    assert uses == {**dict.fromkeys(once, 1), "SCENARIOS": 0, "ANSWER_KINDS": 0}


def test_record_types_are_slotted():
    """Records and drafts keep their fields in slots, not a per-instance
    __dict__, so building one skips a frozen __init__'s object.__setattr__.
    Provenance stays frozen and hashable: its default is one instance shared
    by every record that leaves provenance out."""
    draft = QuestionDraft("What is 'B'?", "30", "numeric", "ocr")
    record = InstructionRecord("chart-00000-q00", "chart", "images/chart/chart-00000.svg",
                               draft.question, draft.answer, draft.answer_kind,
                               draft.question_type)
    provenance = Provenance("chart-gen", 7)
    for obj in (draft, record, provenance):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
    assert record.provenance is InstructionRecord("b", "chart", "", "", "", "", "").provenance
    assert hash(provenance) == hash(Provenance("chart-gen", 7))
    with pytest.raises(dataclasses.FrozenInstanceError):
        provenance.seed = 8


def _chart(kind, *values):
    points = tuple(SeriesPoint(c, v) for c, v in zip("ABCD", values))
    return ChartSpec(kind, "t", "percent", (Series("share", points),), ("", ""),
                     "bottom_left", {})


@pytest.mark.parametrize("make, message", [
    (lambda: _chart("pie", 40.0, 30.0, 20.0, 9.0), "pie percentages sum to 99.0, not 100"),
    (lambda: DialSpec("clock", (25, 0)),
     "clock reading (25, 0) out of range"),
    (lambda: FlowSpec("workflow", "t", (FlowNode("Step", "process"),), ()),
     "flowchart needs exactly one start terminator"),
    (lambda: TreeSpec(TreeNode("Root", (TreeNode("Leaf"),)), {"Root": "cyan"}),
     "node 'Leaf' has no color assigned"),
    (lambda: GateConfig(review_fraction=0.0), "review_fraction must be in (0, 1]"),
    (lambda: BackendConfig(max_parallel=0), "max_parallel must be >= 1"),
    (lambda: RunConfig(seed=2**64), f"seed {2**64} outside [0, 2**64)"),
    (lambda: StyleSpec(stroke="chartreuse"), "unknown stroke color 'chartreuse'"),
    (lambda: StyleSpec(fill="mauve", stroke="black"), "unknown fill color 'mauve'"),
    (lambda: StyleSpec(stroke="black", stroke_width=-0.5), "negative stroke_width"),
    (lambda: Canvas(640, 63), "canvas below 64px minimum"),
    (lambda: Canvas(background=(255, 256, 255)), "background channel outside [0,255]"),
    (lambda: RunConfig(questions_per_image=-2), "questions_per_image must be >= 1"),
    (lambda: RunConfig(questions_per_image=0), "questions_per_image must be >= 1"),
    (lambda: RunConfig(default_count=MAX_COUNT + 1),
     f"count {MAX_COUNT + 1} for 'chart' above {MAX_COUNT}, "
     "the most that five-digit image ids can number"),
    (lambda: GateConfig(min_font_px=math.nan), "min_font_px must be a finite number >= 0"),
    (lambda: GateConfig(min_font_px=-1.0), "min_font_px must be a finite number >= 0"),
    (lambda: GateConfig(min_font_px=math.inf), "min_font_px must be a finite number >= 0"),
    (lambda: GateConfig(min_vote_support=LLM_ANSWER_VOTES + 1),
     f"min_vote_support must be in [1, {LLM_ANSWER_VOTES}]"),
    (lambda: GateConfig(min_vote_support=0), f"min_vote_support must be in [1, {LLM_ANSWER_VOTES}]"),
    (lambda: BackendConfig(temperature=math.nan), "temperature must be a finite number >= 0"),
    (lambda: BackendConfig(temperature=math.inf), "temperature must be a finite number >= 0"),
    (lambda: BackendConfig(temperature=-3.0), "temperature must be a finite number >= 0"),
    (lambda: BackendConfig(retry_budget=9), "retry_budget must be in [0, 8]"),
    (lambda: BackendConfig(retry_budget=-1), "retry_budget must be in [0, 8]"),
    (lambda: _chart("bar", 10.0, math.nan, 20.0), "series 'share' value nan is not finite"),
    (lambda: _chart("bar", 10.0, math.inf, 20.0), "series 'share' value inf is not finite"),
    (lambda: _chart("bar", 10.0, -2.0, 20.0), "bar series 'share' value -2.0 is negative"),
    (lambda: _chart("line", 10.0, -5.0, 20.0), "line series 'share' value -5.0 is negative"),
    (lambda: _chart("bar", 10.0, 1e300, 20.0),
     "series 'share' value 1e+300 is not below 1e+15 in magnitude"),
    (lambda: _chart("table", 10.0, -1e16, 20.0),
     "series 'share' value -1e+16 is not below 1e+15 in magnitude"),
    (lambda: _chart("bar", 10.0, 1e-9, 20.0), "series 'share' value 1e-09 is nonzero but writes as 0"),
    (lambda: _chart("table", 10.0, -1e-9, 20.0),
     "series 'share' value -1e-09 is nonzero but writes as 0"),
    (lambda: _chart("pie", 40.0, 30.0, math.nan, 30.0), "series 'share' value nan is not finite"),
    (lambda: DialSpec("clock", (3, 5), 2.0, 0.7),
     "clock exercise_hours 0.7 is not one of [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]"),
    (lambda: DialSpec("clock", (3, 5), math.nan, 1.0), "offset nan is not finite"),
    (lambda: DialSpec("clock", (3, 5), 2.5, 1.0),
     "clock offset 2.5 is not a whole number of hours"),
    (lambda: DialSpec("fuel", 0.5, math.nan), "offset nan is not finite"),
    (lambda: PanelSpec("hexagon", 0.0, 1, 1.0, "red"), "unknown panel shape 'hexagon'"),
    (lambda: PanelSpec("star", 0.0, 1, 1.0, "pink"), "unknown panel color 'pink'"),
    (lambda: PanelSpec("star", 0.0, 12, 1.0, "red"), "panel count 12 outside 1..9"),
    (lambda: PanelSpec("star", 0.0, 0, 1.0, "red"), "panel count 0 outside 1..9"),
    (lambda: PanelSpec("arrow", math.inf, 1, 1.0, "red"), "panel angle inf is not finite"),
    (lambda: PanelSpec("arrow", math.nan, 1, 1.0, "red"), "panel angle nan is not finite"),
    (lambda: PanelSpec("circle", 0.0, 1, 0.0, "red"),
     "panel size 0.0 is not a finite number above 0"),
    (lambda: PanelSpec("circle", 0.0, 1, math.nan, "red"),
     "panel size nan is not a finite number above 0"),
    (lambda: PanelSpec("circle", 0.0, 1, math.inf, "red"),
     "panel size inf is not a finite number above 0"),
    (lambda: PanelItem("hexagon", "red", 0), "unknown item shape 'hexagon'"),
    (lambda: PanelItem("star", "pink", 0), "unknown item color 'pink'"),
    (lambda: PanelItem("star", "red", 11), "item cell 11 outside 0..8"),
    (lambda: PanelItem("star", "red", -1), "item cell -1 outside 0..8"),
], ids=["ChartSpec", "DialSpec", "FlowSpec", "TreeSpec", "GateConfig", "BackendConfig",
        "RunConfig", "StyleSpec-stroke", "StyleSpec-fill", "StyleSpec-stroke_width",
        "Canvas-side", "Canvas-background",
        "RunConfig-questions_per_image-negative", "RunConfig-questions_per_image-zero",
        "RunConfig-count-above-five-digit-ids",
        "GateConfig-min_font_px-nan", "GateConfig-min_font_px-negative",
        "GateConfig-min_font_px-inf",
        "GateConfig-min_vote_support-above-votes", "GateConfig-min_vote_support-zero",
        "BackendConfig-temperature-nan", "BackendConfig-temperature-inf",
        "BackendConfig-temperature-negative", "BackendConfig-retry_budget-above-8",
        "BackendConfig-retry_budget-negative", "ChartSpec-bar-nan", "ChartSpec-bar-inf",
        "ChartSpec-bar-negative", "ChartSpec-line-negative", "ChartSpec-bar-1e300",
        "ChartSpec-table-minus-1e16", "ChartSpec-bar-1e-9", "ChartSpec-table-minus-1e-9",
        "ChartSpec-pie-nan", "DialSpec-clock-exercise_hours",
        "DialSpec-clock-offset-nan", "DialSpec-clock-offset-fraction",
        "DialSpec-fuel-offset-nan", "PanelSpec-shape", "PanelSpec-color",
        "PanelSpec-count-12", "PanelSpec-count-0", "PanelSpec-angle-inf",
        "PanelSpec-angle-nan", "PanelSpec-size-0", "PanelSpec-size-nan", "PanelSpec-size-inf",
        "PanelItem-shape", "PanelItem-color", "PanelItem-cell-11", "PanelItem-cell-negative"])
def test_specs_and_configs_check_themselves_on_construction(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_a_table_keeps_its_negative_values():
    """A table cell draws "-5" as it is, so only bars and lines refuse a
    negative value; the largest value below the magnitude bound is kept."""
    table = _chart("table", 10.0, -5.0, 1e15 - 1)
    assert [p.value for p in table.series[0].points] == [10.0, -5.0, 1e15 - 1]


# Each spec and config type checks itself in __post_init__; free-standing
# checkers of the same rules, and a topic pool re-checked per call, stay out.
# So do the bridge's tree codec and its template registry, which `gen` never
# used: the bridge holds one prompt, for QA proposal.
REMOVED_NAMES = {"validate_chart_spec", "validate_dial_spec", "validate_tree_spec",
                 "validate_flow_spec", "KeywordLibrary", "parse_tree", "serialize_tree",
                 "PromptTemplate", "TEMPLATES"}
# The one `validate` method left, and the one place that calls it: a loaded
# manifest's records are checked line by line as they are read.
VALIDATE_SITES = {("records.py", "Manifest"), ("records.py", "dump_manifest")}


def validation_sites(tree):
    """(top-level name, line, what) for each use or definition of a removed
    name and each `validate` method defined or called."""
    sites = []
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            name = (getattr(node, "id", None) or getattr(node, "attr", None)
                    or getattr(node, "name", None))
            if name in REMOVED_NAMES:
                sites.append((owner, node.lineno, name))
            elif isinstance(node, ast.FunctionDef) and node.name == "validate":
                sites.append((owner, node.lineno, "validate"))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "validate"):
                sites.append((owner, node.lineno, "validate"))
    return sites


# Feasibility is one build: the font-shrink retry loop, its budget and every
# builder's font scale are gone, as names, parameters and prose alike.
RETRY_NAMES = ("font_scale", "FONT_SCALE_DECAY", "max_retries")


def test_gen_runs_on_one_thread():
    """Only the bridge's answer vote, which waits on the network, runs on a
    thread pool; `gen` makes its images in one pass and has no worker count."""
    importers = sorted(path.name for path in SRC_DIR.glob("*.py")
                       if any(name == "concurrent" or name.startswith("concurrent.")
                              for name in imported_names(ast.parse(
                                  path.read_text(encoding="utf-8")))))
    assert importers == ["bridge.py"]
    assert "jobs" not in {f.name for f in dataclasses.fields(RunConfig)}


# Every output file of gen, eval, stats and gallery is written as bytes by
# records.write_files, and the bridge's request log is appended as bytes, so
# text mode turns no "\n" into os.linesep anywhere.


def _writes_text(call):
    """Whether the call opens a file to write text: open() or io.open() with
    a mode that writes and has no "b", a path's .open(mode) likewise, or a
    path's .write_text(). A mode that is not a literal counts as text."""
    func = call.func
    name = getattr(func, "id", None) or getattr(func, "attr", None)
    module = getattr(getattr(func, "value", None), "id", None)
    if name == "write_text":
        return True
    if name != "open" or module == "os":
        return False
    position = 1 if isinstance(func, ast.Name) or module == "io" else 0
    modes = [k.value for k in call.keywords if k.arg == "mode"] + call.args[position:][:1]
    if not modes:
        return False
    mode = modes[0]
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return "b" not in mode.value and any(c in mode.value for c in "wax+")


def text_mode_writes(tree):
    """(innermost enclosing function, line) of each text-mode write call."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and _writes_text(child):
                found.append((owner, child.lineno))
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else owner)

    visit(tree, None)
    return found


def test_no_module_writes_a_file_in_text_mode():
    found = [(path.name, owner, line) for path in sorted(SRC_DIR.glob("*.py"))
             for owner, line in text_mode_writes(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []
    # The scan is not blind: it flags a text-mode append and passes a byte one.
    assert text_mode_writes(ast.parse(
        'def log(path):\n    open(path, "a", encoding="utf-8")\n')) == [("log", 2)]
    assert text_mode_writes(ast.parse('def log(path):\n    open(path, "ab")\n')) == []


# Every JSON file absynth writes is json.dumps text, except the manifest's
# record lines, which records encodes itself: no second encoder, such as a
# gate report written directly on records' string escaper, comes back.
def test_json_files_are_written_by_json_dumps():
    users = sorted({path.name for path in SRC_DIR.glob("*.py")
                    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                    if "_quote" in (getattr(node, "id", None), getattr(node, "attr", None),
                                    getattr(node, "name", None))})
    assert users == ["records.py"]
    tree = ast.parse((SRC_DIR / "gate.py").read_text(encoding="utf-8"))
    [report] = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "GateReport"]
    [to_json] = [n for n in report.body if isinstance(n, ast.FunctionDef) and n.name == "to_json"]
    assert "json.dumps" in {ast.unparse(n.func) for n in ast.walk(to_json)
                            if isinstance(n, ast.Call)}


def test_the_font_retry_names_stay_removed():
    found = [(path.name, number, name)
             for path in sorted(SRC_DIR.glob("*.py"))
             for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             for name in RETRY_NAMES if name in line]
    assert not found


def test_specs_and_configs_are_not_re_checked():
    """Every spec and config type checks itself once, when it is built; only
    the manifest, whose records arrive from files, keeps a validate()."""
    offenders = []
    for path in sorted(SRC_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for owner, line, what in validation_sites(tree):
            if what in REMOVED_NAMES or (path.name, owner) not in VALIDATE_SITES:
                offenders.append((path.name, line, what))
    assert not offenders


# Each scenario samples one way, the way `gen` does: its sampler takes the
# seed alone. The road-map walk's settings are module constants in maps.py,
# so no parameter object for them comes back.
def test_each_scenario_samples_one_way():
    offenders = []
    for module, sample, *_ in SCENARIO_SOURCES.values():
        sampler = getattr(importlib.import_module(f"absynth.{module}"), sample)
        params = list(inspect.signature(sampler).parameters)
        if params != ["seed"]:
            offenders.append((module, sample, params))
    offenders += [(path.name, number) for path in sorted(SRC_DIR.glob("*.py"))
                  for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
                  if "WalkParams" in line]
    assert not offenders
    from absynth import charts, diagrams
    assert inspect.signature(charts.sample_chart_spec).parameters["kind"].default \
        is inspect.Parameter.empty
    assert not {"sample_graph", "sample_tree_spec"} & set(vars(diagrams))


SHAPE_CONSTRUCTORS = {"line", "polyline", "polygon", "rect", "circle", "arc", "wedge", "text"}


def call_sites(tree, attr):
    """(innermost enclosing function name or None, line) for each call whose
    callee is named `attr`, bare or as an attribute."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call) and attr in (getattr(node.func, "id", None),
                                                   getattr(node.func, "attr", None)):
            found.append((owner, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


def parameter_names(tree, qualname):
    """The parameter names of the function `qualname` (`f` or `Class.f`)."""
    *owner, name = qualname.split(".")
    scope = tree.body
    if owner:
        [cls] = [n for n in scope if isinstance(n, ast.ClassDef) and n.name == owner[0]]
        scope = cls.body
    [func] = [n for n in scope if isinstance(n, ast.FunctionDef) and n.name == name]
    return [a.arg for a in func.args.posonlyargs + func.args.args + func.args.kwonlyargs]


def primitive_builds(tree):
    """(innermost enclosing function name or None, line) for each call that
    builds a Primitive: the class called, its `_make`, or any call that is
    handed the class, such as `tuple.__new__(Primitive, ...)`."""
    def names_primitive(node):
        return getattr(node, "id", None) == "Primitive"

    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call) and (
                names_primitive(node.func) or names_primitive(getattr(node.func, "value", None))
                or any(names_primitive(arg) for arg in node.args)):
            found.append((owner, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


def test_each_primitive_is_built_once_with_its_role():
    """Only the shape constructors build a Primitive, each with its role and
    its SVG text, so nothing makes a second copy of one."""
    builders, replaced = set(), []
    for path in sorted(SRC_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        builders |= {(path.stem, owner) for owner, _ in primitive_builds(tree)}
        replaced += [(path.name, line) for _, line in call_sites(tree, "_replace")]
    # polyline and polygon share `_points`, arc and wedge `_arc`.
    assert builders == {("scene", name) for name in
                        SHAPE_CONSTRUCTORS - {"polyline", "polygon", "arc", "wedge"}
                        | {"_points", "_arc"}}
    assert not replaced
    tree = ast.parse((SRC_DIR / "scene.py").read_text(encoding="utf-8"))
    for name in SHAPE_CONSTRUCTORS:
        params = parameter_names(tree, name)
        assert params[params.index("style") + 1] == "role", name


# The shared-part registry is gone: a primitive is checked and rendered by
# its shape constructor, and a part that many scenes draw comes from a cached
# helper of its generator.
REGISTRY_NAMES = {"shared", "_SHARED", "_element"}


def test_each_primitive_is_checked_and_rendered_in_its_constructor():
    """No module names the registry, its `shared` or the renderer's kind
    dispatch `_element`, and Primitive declares no field defaults, so every
    field, the SVG text too, comes from the constructor that made it."""
    named = []
    for path in sorted(SRC_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = {getattr(node, "id", None), getattr(node, "attr", None),
                     getattr(node, "name", None), getattr(node, "arg", None)}
            if isinstance(node, ast.alias):
                names |= {node.name, node.asname}
            if names & REGISTRY_NAMES:
                named.append((path.name, getattr(node, "lineno", None)))
    assert not named
    tree = ast.parse((SRC_DIR / "scene.py").read_text(encoding="utf-8"))
    [primitive] = [node for node in tree.body
                   if isinstance(node, ast.ClassDef) and node.name == "Primitive"]
    fields = [n for n in primitive.body if isinstance(n, ast.AnnAssign)]
    assert [f.target.id for f in fields] == ["kind", "geometry", "style", "z", "role", "svg"]
    assert [f.target.id for f in fields if f.value is not None] == []


# ROADMAP item 15(a): every function of src/ that `gen --all --count 40
# --seed 9` never enters, outside the modules of the other commands, with why.
GEN_SKIPS = ("scoring", "bridge", "gallery", "cli")
NEVER_ENTERED_BY_GEN = {
    "__init__.__dir__": "dir(absynth) only",
    "gauges.DialSpec.to_dict": "no seed drawn from a dial spec; bench/spans.py times it",
    "maps.RoadMapSpec.to_dict": "no seed drawn from a map spec; bench/spans.py times it",
    "puzzles.PatternRule.to_dict": "no seed drawn from a puzzle spec; bench/spans.py times it",
    "puzzles.DiffPairSpec.to_dict": "no seed drawn from a puzzle spec; bench/spans.py times it",
    "gauges._line_angle": "item 3 calls it: the scene-reading oracle",
    "gauges.decode_clock_scene": "item 3 calls it: the scene-reading oracle",
    "gauges.decode_gauge_scene": "item 3 calls it: the scene-reading oracle",
    "pipeline._llm_extra_record": "backend: runs only with --backend",
    "records.vote_select": "backend: the bridge's answer vote",
    "records.canonicalize": "eval; the oracle only when a record's answer differs in form",
    "records.answer_set": "the oracle only when a record's answer differs in form",
    "records.parse_json_line": "eval, stats, gallery: reading a manifest",
    "records.json_lines": "eval, stats, gallery: reading a manifest",
    "records.record_from_json": "eval, stats, gallery: reading a manifest",
    "records.record_from_match": "eval, stats, gallery: reading a manifest",
    "records.load_manifest": "eval, stats, gallery: reading a manifest",
    "records.record_to_json": "dump of a manifest with a text that needs an escape",
    "records._texts": "refusal: a record that cannot be encoded as UTF-8",
    "scene.InvalidScene.__init__": "refusal: an invalid scene",
    "scene._all_finite": "refusal: coordinates whose sum is not finite",
    "scene._refuse": "refusal: a primitive that fails its constructor's quick check",
    "scene.primitive_problems": "refusal: a primitive that fails its constructor's quick check",
}
# The helpers that make each shared scene part on first use.
SHARED_PART_MAKERS = {"maps._roads_from", "maps._obstacle", "maps._marker", "gauges._face",
                      "puzzles._frame", "puzzles._induction_title", "puzzles._question_box",
                      "puzzles._option_label", "puzzles._diff_mark", "puzzles._induction_canvas",
                      "charts._table_grid", "charts._label_cell", "diagrams._flow_canvas",
                      "diagrams._flow_node", "diagrams._flow_arrow", "diagrams._flow_edge",
                      "diagrams._flow_loop", "diagrams._branch_label"}

_TRACE_GEN = """
import json, sys
from absynth import cli
entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(profile)
status = cli.main(["gen", "--all", "--count", "40", "--seed", "9", "--out", sys.argv[1]])
sys.setprofile(None)
assert status == 0
print(json.dumps(sorted(entered)))
"""


def src_functions():
    """{qualified name: (file, the first line of the def or its first
    decorator, which is the code object's first line)} for each function in
    src/ outside GEN_SKIPS; a nested name is joined with dots."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[name] = (str(path), first)
                visit(child, path, name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC_DIR.glob("*.py")):
        if path.stem not in GEN_SKIPS:
            visit(ast.parse(path.read_text(encoding="utf-8")), path, path.stem + ".")
    return found


def test_every_function_gen_never_enters_is_named(tmp_path):
    """A fresh interpreter, so each cached helper starts empty and is
    entered the first time its key comes up."""
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR.parent))
    done = subprocess.run([sys.executable, "-c", _TRACE_GEN, str(tmp_path / "out")], env=env,
                          cwd=tmp_path, capture_output=True, text=True, check=True)
    entered = {(str(pathlib.Path(f).resolve()), line)
               for f, line in json.loads(done.stdout.splitlines()[-1])}
    defined = {name: (str(pathlib.Path(f).resolve()), line)
                  for name, (f, line) in src_functions().items()}
    never = {name for name, where in defined.items() if where not in entered}
    assert sorted(never) == sorted(NEVER_ENTERED_BY_GEN)
    assert SHARED_PART_MAKERS <= set(defined) - never


def _is_cached(fn: ast.FunctionDef) -> bool:
    """Whether `fn` is decorated with functools.cache or lru_cache, so runs once per key."""
    for dec in fn.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id in ("cache", "lru_cache"):
            return True
    return False


def test_scene_builders_take_styles_and_canvases_made_once():
    """No function of the text and puzzle generators that runs per image
    builds a StyleSpec or a Canvas: a style comes from the interner
    `scene.style`, a fixed canvas is a module constant, and a canvas that
    varies with the layout comes from a cached helper. The interner is
    called with keywords only, in StyleSpec's field order, so equal styles
    share one cache key."""
    order = [f.name for f in dataclasses.fields(StyleSpec)]
    built, misordered = [], []
    for stem in ("charts", "diagrams", "puzzles"):
        tree = ast.parse((SRC_DIR / f"{stem}.py").read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef) or _is_cached(fn):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    if node.func.id in ("StyleSpec", "Canvas"):
                        built.append((stem, fn.name, node.lineno))
                    names = [k.arg for k in node.keywords]
                    if node.func.id == "style" and (
                            node.args or names != sorted(names, key=order.index)):
                        misordered.append((stem, fn.name, node.lineno))
    assert built == []
    assert misordered == []
