"""Seeded inputs for the benchmark: a synthetic gold manifest and a prediction
file that reads like model output.

Everything here is a pure function of the seed and uses the standard library
only, so the program under test sees nothing but the generated files. The
gold file is serialized here, not by
`records.dump_manifest`, so the benchmark can check the program's serializer
against an independent writer of the documented line format.
"""

from __future__ import annotations

import json
import re
from random import Random

# Per-scenario record templates mirror what `absynth gen` emits: the same
# answer kinds and question types, in about the same proportions (about 3.7
# records per image over the eight scenarios).
_GENERATOR_NAMES = {
    "chart": "chart-gen", "table": "chart-gen", "map": "map-gen",
    "dashboard": "gauge-gen", "flowchart": "diagram-gen",
    "relation_graph": "diagram-gen", "puzzle": "puzzle-gen", "layout": "floorplan-gen",
}
_TOPIC_WORDS = (
    "housing", "construction", "permits", "drones", "registered", "annually", "solar",
    "output", "regional", "sales", "coffee", "exports", "museum", "visitors", "rainfall",
    "monthly", "bicycle", "rentals", "library", "loans", "wind", "capacity", "transit",
    "ridership", "hospital", "admissions", "water", "usage", "steel", "production",
)
_CATEGORIES = ("North", "South", "East", "West", "Alpha", "Beta", "Gamma", "Delta",
               "Team A", "Team B", "Team C", "2019", "2020", "2021", "2022", "Q1", "Q2")
_LANDMARKS = ("Granger", "Station", "Laurel", "Jasper", "Church", "Maple", "Harbor",
              "Mill", "Cedar", "Bridge", "Market", "Tower", "Orchard", "Quarry",
              "Summit", "Willow", "Meadow", "Foundry", "Chapel", "Garrison")
_STEPS = ("Record the result", "Advance the index", "Compare values", "Return the output",
          "Load the input", "Check the totals", "Notify the team", "Archive the file")
_NODES = ("Admissions", "Analysis", "Finance", "Research", "Outreach", "Operations",
          "Marketing", "Logistics", "Legal", "Design")
_COLORS = ("teal", "cyan", "yellow", "pink", "olive", "orange", "green", "gray")
_ROOMS = ("Living Room", "Kitchen", "Bedroom 1", "Bedroom 2", "Bathroom", "Header",
          "Navigation", "Sidebar", "Content", "Footer", "Ad Banner", "Search Panel")
_INSTRUMENTS = ("speedometer", "fuel gauge", "thermometer", "barometer", "clock")
_SHAPES = ("rectangle", "diamond", "circle")
_FIGURES = ("organization chart", "pie chart", "line chart", "gantt chart")
_YES_NO = ("Yes", "No")

# Filler sentences for chain-of-thought responses; some carry numbers, so the
# scorer's "last number wins" rule is exercised.
_COT_NUMERIC = (
    "Looking at the figure, I can see {a} labelled elements.",
    "The axis runs from 0 to {b} in even steps.",
    "There are {a} items in the legend and {c} gridlines.",
)
_COT_PLAIN = (
    "First, I identify the part of the image the question refers to.",
    "I read the labels carefully and compare them with the legend.",
    "Next, I check the surrounding elements to make sure nothing is missed.",
    "The title and the axis labels tell me what is being measured.",
    "I follow the lines and arrows from one element to the next.",
    "Colours and positions help to tell the elements apart.",
)

MISSING_FRACTION = 0.10


def _title(rng: Random) -> str:
    return " ".join(rng.sample(_TOPIC_WORDS, rng.randint(2, 4)))


def _int(rng: Random) -> str:
    return str(rng.choice((rng.randint(0, 12), rng.randint(10, 400), rng.randint(1000, 90000))))


def _rationale(rng: Random, answer: str) -> str:
    a, b = rng.randint(5, 300), rng.randint(5, 300)
    return f"The first value is {a} and the second is {b}; combining them gives {answer}."


def _chart_drafts(rng: Random, scenario: str) -> list[tuple]:
    title = _title(rng)
    noun = "table" if scenario == "table" else rng.choice(("bar chart", "line chart", "pie chart"))
    n = rng.randint(3, 6)
    math_answer = _int(rng)
    perception = (("numeric", "perception", "How many categories are shown?", str(n))
                  if scenario == "table" or rng.random() < 0.5 else
                  ("phrase", "perception", "Which category has the largest value?",
                   rng.choice(_CATEGORIES)))
    return [
        ("phrase", "ocr", f"What is the title of this {noun}?", title),
        ("sentence", "caption", "Write a one-sentence caption describing this figure.",
         f"A {noun} titled '{title}' with {n} categories of {rng.choice(_TOPIC_WORDS)} values."),
        perception,
        ("numeric", "extraction",
         f"What is the value of '{rng.choice(_CATEGORIES)}'?", _int(rng)),
        ("numeric", "math", "What is the difference between the largest and smallest values?",
         math_answer, (), _rationale(rng, math_answer)),
    ]


def _map_drafts(rng: Random, scenario: str) -> list[tuple]:
    route = rng.sample(_LANDMARKS, rng.randint(3, 8))
    return [("landmark_sequence", "navigation",
             f"Plan a route on this road map from {route[0]} to {route[-1]}. List, in order, "
             "the names of all marked points you pass through, including start and end.",
             ", ".join(route), (), None, rng.randint(1, 5))]


def _dashboard_drafts(rng: Random, scenario: str) -> list[tuple]:
    instrument = rng.choice(_INSTRUMENTS)
    if instrument == "clock":
        hour, minute = rng.randint(1, 12), rng.choice((0, 10, 15, 20, 30, 45, 50))
        shown = f"{hour}:{minute:02d}"
        later = f"{(hour + 2) % 12 or 12}:{minute:02d}"
        start = str((hour - 1) % 12 or 12)
        return [
            ("phrase", "reading", "What time is shown on the dial?", shown,
             (f"{hour + 12 if hour < 12 else 0}:{minute:02d}",)),
            ("phrase", "offset_math", "What time is it after 2 hours?", later, (),
             _rationale(rng, later)),
            ("numeric", "inverse_reasoning", "What number did the hour hand point to an hour "
             "before?", start, (), _rationale(rng, start)),
        ]
    reading = str(rng.randint(5, 240))
    offset = str(int(reading) + 15)
    return [
        ("numeric", "reading", f"What does the {instrument} show?", reading),
        ("phrase", "instrument", "Which instrument is shown in this image?", instrument),
        ("numeric", "offset_math", "If the reading increases by 15, what will it read?",
         offset, (), _rationale(rng, offset)),
    ]


def _flowchart_drafts(rng: Random, scenario: str) -> list[tuple]:
    a, b = rng.sample(_STEPS, 2)
    drafts = [
        ("numeric", "structure_count", "How many decision nodes does this flowchart contain?",
         str(rng.randint(0, 3))),
        ("phrase", "structure_shape", f"What shape is the '{a}' node?", rng.choice(_SHAPES)),
        ("phrase", "existence", f"Does the '{b}' step exist in this flowchart?",
         rng.choice(_YES_NO)),
        ("phrase", "next_step", f"Which step comes immediately after '{a}'?", b),
    ]
    if rng.random() < 0.7:
        drafts.append(("phrase", "branch_outcome", "If the answer is no, which step follows?",
                       f"Redo: {rng.choice(_STEPS).lower()}"))
    return drafts


def _relation_drafts(rng: Random, scenario: str) -> list[tuple]:
    drafts = [
        ("phrase", "node_color", f"What's the color of the '{rng.choice(_NODES)}' node?",
         rng.choice(_COLORS)),
        ("phrase", "existence", f"Does the '{rng.choice(_NODES)}' node exist in this figure?",
         rng.choice(_YES_NO)),
        ("numeric", "node_count", "How many nodes are there in total in this figure?",
         str(rng.randint(3, 8))),
    ]
    if rng.random() < 0.65:
        drafts.append(("phrase", "figure_type", "What is the type of this figure?",
                       rng.choice(_FIGURES)))
    if rng.random() < 0.6:
        drafts.append(("numeric", "department_count", "How many departments are there?",
                       str(rng.randint(1, 4))))
    return drafts


def _puzzle_drafts(rng: Random, scenario: str) -> list[tuple]:
    if rng.random() < 0.4:
        return [("choice", "induction", "Which option (A, B, C, or D) completes the pattern?",
                 rng.choice("ABCD"))]
    first = f"the {rng.choice(_COLORS)} triangle changed color to {rng.choice(_COLORS)}"
    second = f"the {rng.choice(_COLORS)} circle became a square"
    return [
        ("numeric", "diff_count", "How many differences are there between the pictures?",
         str(rng.randint(1, 4))),
        ("phrase", "diff_describe", "Describe one difference between the pictures.",
         first, (second,)),
    ]


def _layout_drafts(rng: Random, scenario: str) -> list[tuple]:
    a, b, c, d = rng.sample(_ROOMS, 4)
    return [
        ("phrase", "largest_room", "Which region is the largest?", a),
        ("phrase", "smallest_room", "Which region is the smallest?", b),
        ("numeric", "room_count", "How many regions does this layout contain?",
         str(rng.randint(3, 7))),
        ("phrase", "containment", f"Does the {c} contain a search box?", rng.choice(_YES_NO)),
        ("phrase", "adjacency", f"Is the {c} directly adjacent to the {d}?",
         rng.choice(_YES_NO)),
    ]


_DRAFTERS = {
    "chart": _chart_drafts, "table": _chart_drafts, "map": _map_drafts,
    "dashboard": _dashboard_drafts, "flowchart": _flowchart_drafts,
    "relation_graph": _relation_drafts, "puzzle": _puzzle_drafts, "layout": _layout_drafts,
}


def _record_dict(image_id: str, scenario: str, j: int, draft: tuple, seed: int) -> dict:
    kind, qtype, question, answer, *rest = draft
    alternates = rest[0] if len(rest) > 0 else ()
    rationale = rest[1] if len(rest) > 1 else None
    difficulty = rest[2] if len(rest) > 2 else None
    return {
        "id": f"{image_id}-q{j:02d}", "scenario": scenario,
        "image_ref": f"images/{scenario}/{image_id}.svg", "question": question,
        "answer": answer, "answer_kind": kind, "question_type": qtype,
        "alternates": list(alternates), "rationale": rationale, "difficulty": difficulty,
        "split": "test",
        "provenance": {"generator": _GENERATOR_NAMES[scenario], "seed": seed},
    }


def gold_record_dicts(seed: int, images_per_scenario: int) -> list[dict]:
    """Records for `images_per_scenario` synthetic images of every scenario."""
    rng = Random(f"gold:{seed}")
    out = []
    for scenario, drafter in _DRAFTERS.items():
        for index in range(images_per_scenario):
            image_id = f"{scenario}-{index:05d}"
            image_seed = rng.getrandbits(64)
            for j, draft in enumerate(drafter(rng, scenario)):
                out.append(_record_dict(image_id, scenario, j, draft, image_seed))
    return out


def manifest_bytes(record_dicts: list[dict]) -> bytes:
    """The documented manifest line format: a header line, then one
    sorted-key JSON object per record."""
    lines = [json.dumps({"kind": "manifest-header", "schema_version": "1"}, sort_keys=True)]
    lines += [json.dumps(d, ensure_ascii=False, sort_keys=True) for d in record_dicts]
    return ("\n".join(lines) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# Predictions


def _cot(rng: Random, numbers: bool) -> str:
    parts = []
    for _ in range(rng.randint(1, 4)):
        if numbers and rng.random() < 0.4:
            parts.append(rng.choice(_COT_NUMERIC).format(
                a=rng.randint(2, 9), b=rng.randint(10, 500), c=rng.randint(3, 12)))
        else:
            parts.append(rng.choice(_COT_PLAIN))
    return " ".join(parts)


def _numeric_response(rng: Random, gold: str) -> str:
    value = float(re.findall(r"-?\d+(?:\.\d+)?", gold.replace(",", ""))[-1])
    roll = rng.random()
    if roll < 0.10:
        return _cot(rng, numbers=False) + " The exact value cannot be read from the image."
    if roll < 0.50:
        shown = f"{int(value):,}" if value.is_integer() else f"{value:g}"
    elif roll < 0.65:  # inside the 5% tolerance
        shown = f"{value * rng.choice((0.97, 1.03)):.2f}"
    elif roll < 0.80:  # just outside it
        shown = f"{value * rng.choice((0.93, 1.07)):.2f}"
    else:
        shown = str(int(value) + rng.randint(1, 20))
    return f"{_cot(rng, numbers=True)} So the answer is {shown}."


def _phrase_response(rng: Random, gold: str) -> str:
    roll = rng.random()
    if roll < 0.55:
        answer = gold
    elif roll < 0.70:
        answer = f"{gold.upper()}, based on the legend"
    else:
        answer = rng.choice(_CATEGORIES + _NODES + _COLORS)
    return f"{_cot(rng, numbers=True)} The answer is {answer}."


def _sentence_response(rng: Random, gold: str) -> str:
    words = gold.split()
    kept = [w for w in words if rng.random() > 0.2]
    if len(kept) > 3 and rng.random() < 0.5:
        i = rng.randrange(len(kept) - 1)
        kept[i], kept[i + 1] = kept[i + 1], kept[i]
    extra = rng.sample(_TOPIC_WORDS, rng.randint(0, 6))
    return f"This image shows {' '.join(kept)} {' '.join(extra)}".strip() + "."


def _route_response(rng: Random, gold: str) -> str:
    route = gold.split(", ")
    roll = rng.random()
    if roll < 0.4:
        said = list(route)
    elif roll < 0.7:  # partial
        said = [n for n in route if rng.random() > 0.35] or route[:1]
    else:  # reordered, with a detour through a landmark not on the route
        said = list(route)
        i = rng.randrange(len(said) - 1)
        said[i], said[i + 1] = said[i + 1], said[i]
        said.insert(rng.randrange(len(said)), rng.choice(_LANDMARKS))
    steps = [f"Start at {said[0]}."]
    steps += [f"Then go {rng.choice(('up', 'down', 'left', 'right'))} to {n}." for n in said[1:]]
    return f"{_cot(rng, numbers=False)} {' '.join(steps)} That completes the route."


_RESPONDERS = {
    "numeric": _numeric_response, "phrase": _phrase_response, "choice": _phrase_response,
    "sentence": _sentence_response, "landmark_sequence": _route_response,
}


def prediction_bytes(record_dicts: list[dict], key: str) -> tuple[bytes, int]:
    """A prediction file for the records, and how many ids it leaves out;
    `key` seeds it."""
    rng = Random(f"predictions:{key}")
    lines = []
    missing = 0
    for d in record_dicts:
        if rng.random() < MISSING_FRACTION:
            missing += 1
            continue
        response = _RESPONDERS[d["answer_kind"]](rng, d["answer"])
        lines.append(json.dumps({"id": d["id"], "response": response}, ensure_ascii=False))
    return ("\n".join(lines) + "\n").encode("utf-8"), missing
