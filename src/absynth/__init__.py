"""absynth: procedural abstract-image instruction datasets and evaluation.

Synthesizes charts, tables, road maps, dashboards, flowcharts, relation
graphs, visual puzzles, and planar layouts as SVG scenes; derives
question/answer/rationale records directly from the generating parameters;
gates candidates through feasibility/aesthetics/accuracy filters; and scores
prediction files with tolerance-aware numeric, phrase, Rouge-L, and
landmark-coverage metrics.
"""

from .records import InstructionRecord, Manifest, QuestionDraft  # noqa: F401
from .scene import Canvas, Primitive, SceneGraph, StyleSpec, render_svg  # noqa: F401

__version__ = "0.1.0"
