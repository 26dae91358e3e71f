"""absynth: procedural abstract-image instruction datasets and evaluation.

Synthesizes charts, tables, road maps, dashboards, flowcharts, relation
graphs, visual puzzles, and planar layouts as SVG scenes; derives
question/answer/rationale records directly from the generating parameters;
gates candidates through feasibility/aesthetics/accuracy filters; and scores
prediction files with tolerance-aware numeric, phrase, Rouge-L, and
landmark-coverage metrics.

`import absynth` loads no submodule: each name below is imported from its
module when it is first read, so a short command pays only for the modules
it runs.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "InstructionRecord": "records", "Manifest": "records", "QuestionDraft": "records",
    "Canvas": "scene", "Primitive": "scene", "SceneGraph": "scene", "StyleSpec": "scene",
    "render_svg": "scene",
}


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
