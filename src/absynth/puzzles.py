"""Visual puzzles (pattern induction, two-panel comparison) and 2D planar
layouts (floor plans and webpage layouts).

Induction puzzles show 3-4 panels following a single-attribute rule (rotate,
count, scale, or color-cycle) plus four candidate continuations; exactly one
candidate extends the rule and every distractor breaks it in exactly one
attribute. Comparison puzzles inject 1-3 cell-disjoint differences into a
copy of a panel. Floor plans come from recursive rectangle splits, so rooms
can never overlap; webpage layouts reuse the same machinery with region
names.

Every primitive is built with its role, a mark by `shape_primitive` too.
Puzzle frames sit where a fixed layout puts them, so each is made, and so
checked and rendered by its shape constructor, once per process: the
induction title, panel frames, "?" box and option frames and letters by a
cached helper keyed by position (20 in all), the comparison titles and
frames as module constants, and each comparison mark by a cached helper
keyed by its item and panel (at most 4 shapes x 6 colours x 9 cells x 2
panels = 432; every comparison mark has the one radius). The induction
marks follow the sampled rule and are made per image. Floor-plan rooms
follow the sampled splits and are made per image too. Every style is a
module constant or comes from the interner `scene.style`, the floor-plan
canvas is a module constant, and the induction canvas comes from a cached
helper keyed by its width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache
from random import Random

from .records import QuestionDraft
from .scene import (
    Canvas, LayoutOverflow, Primitive, SceneBuilder, SceneGraph, StyleSpec,
    circle, polygon, rect, style, text, text_width,
)
from .seeds import derive_seed, fields_of, question_seed

PUZZLE_SHAPES = ("triangle", "square", "arrow", "circle", "star")
ORIENTABLE_SHAPES = ("triangle", "arrow")
COLOR_CYCLE = ("red", "blue", "green", "orange", "purple", "teal")
OPTION_LETTERS = ("A", "B", "C", "D")


# ---------------------------------------------------------------------------
# Shape geometry


def _rotate(points, cx, cy, deg):
    rad = math.radians(deg)
    cos, sin = math.cos(rad), math.sin(rad)
    return tuple(
        (cx + (x - cx) * cos - (y - cy) * sin, cy + (x - cx) * sin + (y - cy) * cos)
        for x, y in points
    )


def shape_primitive(shape: str, cx: float, cy: float, radius: float, angle: float,
                    color: str, role: str) -> Primitive:
    """One filled mark at z 1; `angle` rotates clockwise around its center."""
    mark_style = style(stroke="black", stroke_width=1.0, fill=color)
    if shape == "circle":
        return circle(cx, cy, radius, mark_style, role, z=1)
    if shape == "square":
        half = radius * 0.78
        pts = ((cx - half, cy - half), (cx + half, cy - half),
               (cx + half, cy + half), (cx - half, cy + half))
    elif shape == "triangle":
        pts = ((cx, cy - radius), (cx + 0.87 * radius, cy + 0.5 * radius),
               (cx - 0.87 * radius, cy + 0.5 * radius))
    elif shape == "arrow":
        r = radius
        pts = ((cx, cy - r), (cx + 0.55 * r, cy - 0.15 * r), (cx + 0.22 * r, cy - 0.15 * r),
               (cx + 0.22 * r, cy + r), (cx - 0.22 * r, cy + r), (cx - 0.22 * r, cy - 0.15 * r),
               (cx - 0.55 * r, cy - 0.15 * r))
    elif shape == "star":
        pts = []
        for i in range(10):
            rr = radius if i % 2 == 0 else radius * 0.45
            a = math.radians(36 * i)
            pts.append((cx + rr * math.sin(a), cy - rr * math.cos(a)))
        pts = tuple(pts)
    else:
        raise ValueError(f"unknown puzzle shape {shape!r}")
    return polygon(_rotate(pts, cx, cy, angle), mark_style, role, z=1)


# ---------------------------------------------------------------------------
# Induction puzzles


@dataclass(frozen=True)
class PanelSpec:
    shape: str
    angle: float
    count: int  # 1..9, one mark per position of a 3x3 grid
    size: float
    color: str

    def __post_init__(self) -> None:
        if self.shape not in PUZZLE_SHAPES:
            raise ValueError(f"unknown panel shape {self.shape!r}")
        if self.color not in COLOR_CYCLE:
            raise ValueError(f"unknown panel color {self.color!r}")
        if not 1 <= self.count <= 9:
            raise ValueError(f"panel count {self.count} outside 1..9")
        if not math.isfinite(self.angle):
            raise ValueError(f"panel angle {self.angle} is not finite")
        if not 0 < self.size < math.inf:
            raise ValueError(f"panel size {self.size} is not a finite number above 0")


@dataclass(frozen=True)
class PatternRule:
    base: PanelSpec
    transform: tuple[str, float]  # (rotate deg | count +k | scale xs | color_cycle +k)
    steps_shown: int
    options: tuple[PanelSpec, PanelSpec, PanelSpec, PanelSpec]
    correct_index: int

    def to_dict(self) -> dict:
        return fields_of(self)


def apply_transform(panel: PanelSpec, transform: tuple[str, float]) -> PanelSpec:
    op, amount = transform
    if op == "rotate":
        return replace(panel, angle=(panel.angle + amount) % 360.0)
    if op == "count":
        return replace(panel, count=panel.count + int(amount))
    if op == "scale":
        return replace(panel, size=panel.size * amount)
    if op == "color_cycle":
        ix = COLOR_CYCLE.index(panel.color)
        return replace(panel, color=COLOR_CYCLE[(ix + int(amount)) % len(COLOR_CYCLE)])
    raise ValueError(f"unknown transform {op!r}")


def _series(base: PanelSpec, transform: tuple[str, float], steps_shown: int) -> list[PanelSpec]:
    """The shown panels, then the one panel that continues them."""
    panels = [base]
    for _ in range(steps_shown):
        panels.append(apply_transform(panels[-1], transform))
    return panels


def shown_panels(rule: PatternRule) -> list[PanelSpec]:
    return _series(rule.base, rule.transform, rule.steps_shown)[:-1]


def _distractors(rng: Random, correct: PanelSpec) -> list[PanelSpec]:
    options: list[tuple[str, PanelSpec]] = []
    if correct.shape in ORIENTABLE_SHAPES:
        options.append(("angle", replace(correct, angle=(correct.angle + 45.0) % 360.0)))
    options.append(("count+", replace(correct, count=correct.count + 1)))
    if correct.count > 1:
        options.append(("count-", replace(correct, count=correct.count - 1)))
    options.append(("size", replace(correct, size=correct.size * 0.7)))
    other_color = next(c for c in COLOR_CYCLE if c != correct.color)
    options.append(("color", replace(correct, color=other_color)))
    other_shape = next(s for s in PUZZLE_SHAPES if s != correct.shape and s != "star")
    options.append(("shape", replace(correct, shape=other_shape)))
    rng.shuffle(options)
    picked: list[PanelSpec] = []
    kinds: set[str] = set()
    for kind, panel in options:
        attr = kind.rstrip("+-")
        if attr not in kinds:
            kinds.add(attr)
            picked.append(panel)
        if len(picked) == 3:
            break
    return picked


def sample_pattern_rule(seed: int) -> PatternRule:
    rng = Random(derive_seed(seed, "induction"))
    op = rng.choice(("rotate", "count", "scale", "color_cycle"))
    color = rng.choice(COLOR_CYCLE)
    steps_shown = rng.randint(3, 4)
    if op == "rotate":
        shape = rng.choice(ORIENTABLE_SHAPES)
        base = PanelSpec(shape, rng.choice((0.0, 90.0)), 1, 1.0, color)
        transform = ("rotate", rng.choice((45.0, 90.0)))
    elif op == "count":
        shape = rng.choice(("circle", "square", "triangle", "star"))
        base = PanelSpec(shape, 0.0, rng.randint(1, 3), 0.55, color)
        transform = ("count", 1.0)
    elif op == "scale":
        shape = rng.choice(("circle", "square", "triangle"))
        base = PanelSpec(shape, 0.0, 1, 1.0, color)
        transform = ("scale", rng.choice((1.2, 0.8)))
    else:
        shape = rng.choice(("circle", "square", "triangle"))
        base = PanelSpec(shape, 0.0, 1, 1.0, color)
        transform = ("color_cycle", 1.0)
    correct = _series(base, transform, steps_shown)[-1]
    distractors = _distractors(rng, correct)
    slots = [correct] + distractors
    order = list(range(4))
    rng.shuffle(order)
    options = tuple(slots[order.index(i)] for i in range(4))
    correct_index = order[0]
    rule = PatternRule(base, transform, steps_shown, options, correct_index)
    assert options[correct_index] == correct
    return rule


# ---------------------------------------------------------------------------
# Comparison puzzles


@dataclass(frozen=True)
class PanelItem:
    shape: str
    color: str
    cell: int  # 0..8 on a 3x3 grid

    def __post_init__(self) -> None:
        if self.shape not in PUZZLE_SHAPES:
            raise ValueError(f"unknown item shape {self.shape!r}")
        if self.color not in COLOR_CYCLE:
            raise ValueError(f"unknown item color {self.color!r}")
        if not 0 <= self.cell <= 8:
            raise ValueError(f"item cell {self.cell} outside 0..8")


@dataclass(frozen=True)
class DiffPairSpec:
    base_items: tuple[PanelItem, ...]
    variant_items: tuple[PanelItem, ...]
    diff_manifest: tuple[str, ...]

    def to_dict(self) -> dict:
        return fields_of(self)


def sample_diff_pair(seed: int) -> DiffPairSpec:
    rng = Random(derive_seed(seed, "comparison"))
    n_items = rng.randint(4, 6)
    cells = rng.sample(range(9), n_items)
    combos = [(s, c) for s in ("circle", "square", "triangle", "star") for c in COLOR_CYCLE]
    chosen = rng.sample(combos, n_items)
    base = tuple(PanelItem(s, c, cell) for (s, c), cell in zip(chosen, cells))

    d = rng.randint(1, 3)
    variant = {item.cell: item for item in base}
    used_cells = set(cells)
    touched: set[int] = set()
    manifest: list[str] = []
    targets = rng.sample(base, d)
    for item in targets:
        ops = ["color", "shape", "remove"]
        free = [c for c in range(9) if c not in used_cells and c not in touched]
        if free:
            ops.append("move")
            ops.append("add")
        op = rng.choice(ops)
        if op == "color":
            new_color = rng.choice([c for c in COLOR_CYCLE if c != item.color])
            variant[item.cell] = replace(item, color=new_color)
            manifest.append(f"the {item.color} {item.shape} changed color to {new_color}")
            touched.add(item.cell)
        elif op == "shape":
            new_shape = rng.choice([s for s in ("circle", "square", "triangle", "star")
                                    if s != item.shape])
            variant[item.cell] = replace(item, shape=new_shape)
            manifest.append(f"the {item.color} {item.shape} became a {new_shape}")
            touched.add(item.cell)
        elif op == "remove":
            del variant[item.cell]
            manifest.append(f"the {item.color} {item.shape} disappeared")
            touched.add(item.cell)
        elif op == "move":
            target = rng.choice(free)
            del variant[item.cell]
            variant[target] = replace(item, cell=target)
            manifest.append(f"the {item.color} {item.shape} moved to a different position")
            touched.update({item.cell, target})
            used_cells.add(target)
        else:  # add
            target = rng.choice(free)
            new_combo = rng.choice([cb for cb in combos if cb not in chosen])
            variant[target] = PanelItem(new_combo[0], new_combo[1], target)
            manifest.append(f"a new {new_combo[1]} {new_combo[0]} appeared")
            touched.add(target)
            used_cells.add(target)
    variant_items = tuple(variant[c] for c in sorted(variant))
    return DiffPairSpec(base, variant_items, tuple(manifest))


def sample_puzzle(seed: int) -> PatternRule | DiffPairSpec:
    """The `puzzle` scenario's spec: an induction or a comparison puzzle,
    chosen by the seed's "puzzle-kind" stream and drawn by its sampler."""
    kind = Random(derive_seed(seed, "puzzle-kind")).choice(("induction", "comparison"))
    return sample_pattern_rule(seed) if kind == "induction" else sample_diff_pair(seed)


# ---------------------------------------------------------------------------
# Puzzle scenes

_PANEL = 100.0
_GAP = 16.0
_PANEL_STYLE = StyleSpec(stroke="black", stroke_width=1.5)
_LABEL_STYLE = StyleSpec(font_size=13.0)


# The frames, boxes and labels of an induction puzzle sit where the number
# of panels puts them, so each is shared by its position, made the first
# time a scene needs it.
@cache
def _frame(x: float, y: float) -> Primitive:
    return rect(x, y, _PANEL, _PANEL, _PANEL_STYLE, "panels")


@cache
def _induction_canvas(width: int) -> Canvas:
    return Canvas(width, 400)


@cache
def _induction_title(width: int) -> Primitive:
    return text(width / 2, 12, "Which option continues the pattern?", _LABEL_STYLE, "title",
                anchor="middle")


@cache
def _question_box(x: float, y: float) -> tuple[Primitive, Primitive]:
    """The dashed frame of the missing panel and its "?"."""
    box = rect(x, y, _PANEL, _PANEL, StyleSpec(stroke="gray", stroke_width=1.5, dash=(6.0, 4.0)),
               "panels")
    mark = text(x + _PANEL / 2, y + _PANEL / 2 - 14, "?", StyleSpec(font_size=28.0), "marks",
                anchor="middle")
    return box, mark


@cache
def _option_label(x: float, y: float, letter: str) -> Primitive:
    return text(x + _PANEL / 2, y + _PANEL + 8, letter, _LABEL_STYLE, "option_labels",
                anchor="middle")


def _draw_panel(b: SceneBuilder, panel: PanelSpec, x: float, y: float) -> None:
    b.add(_frame(x, y))
    _draw_marks(b, panel, x, y)


def _draw_marks(b: SceneBuilder, panel: PanelSpec, x: float, y: float) -> None:
    if panel.count == 1:
        radius = min(20.0 * panel.size, _PANEL / 2 - 4)
        b.add(shape_primitive(panel.shape, x + _PANEL / 2, y + _PANEL / 2,
                              radius, panel.angle, panel.color, "marks"))
        return
    positions = ((0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75),
                 (0.5, 0.5), (0.25, 0.5), (0.75, 0.5), (0.5, 0.25), (0.5, 0.75))
    for i in range(panel.count):
        px, py = positions[i % len(positions)]
        b.add(shape_primitive(panel.shape, x + px * _PANEL, y + py * _PANEL,
                              11.0 * panel.size, panel.angle, panel.color, "marks"))


def build_induction_scene(rule: PatternRule) -> SceneGraph:
    """The shown panels, the missing one and the four options. The marks
    are the rule's, made per scene; everything else is shared."""
    panels = shown_panels(rule)
    n_top = len(panels) + 1
    width = max(640, int(n_top * _PANEL + (n_top + 1) * _GAP))
    b = SceneBuilder(_induction_canvas(width))
    b.add(_induction_title(width))
    top_w = n_top * _PANEL + (n_top - 1) * _GAP
    x0 = (width - top_w) / 2
    y_top = 48.0
    for i, panel in enumerate(panels):
        _draw_panel(b, panel, x0 + i * (_PANEL + _GAP), y_top)
    box, mark = _question_box(x0 + len(panels) * (_PANEL + _GAP), y_top)
    b.add(box)
    b.add(mark)
    opt_w = 4 * _PANEL + 3 * _GAP
    ox0 = (width - opt_w) / 2
    y_opt = 210.0
    for i, option in enumerate(rule.options):
        x = ox0 + i * (_PANEL + _GAP)
        _draw_panel(b, option, x, y_opt)
        b.add(_option_label(x, y_opt, OPTION_LETTERS[i]))
    return b.build()


_DIFF_PANEL = 240.0
_DIFF_CELL = _DIFF_PANEL / 3
_DIFF_FONT = 13.0
_DIFF_Y = 60.0
_DIFF_CANVAS = Canvas(640, 340)


# (x, title, frame) of the two comparison panels, the original first.
_DIFF_PANELS = tuple(
    (x,
     text(x + _DIFF_PANEL / 2, _DIFF_Y - _DIFF_FONT - 10, title,
          StyleSpec(font_size=_DIFF_FONT), "panel_titles", anchor="middle"),
     rect(x, _DIFF_Y, _DIFF_PANEL, _DIFF_PANEL, _PANEL_STYLE, "panels"))
    for x, title in ((40.0, "Picture 1"), (360.0, "Picture 2")))


def diff_panel_primitives(items: tuple[PanelItem, ...], x: float, y: float) -> list[Primitive]:
    """The marks of a comparison panel whose top left corner is (x, y), in cell order."""
    prims = []
    for item in sorted(items, key=lambda it: it.cell):
        row, col = divmod(item.cell, 3)
        cx = x + (col + 0.5) * _DIFF_CELL
        cy = y + (row + 0.5) * _DIFF_CELL
        prims.append(shape_primitive(item.shape, cx, cy, 26.0, 0.0, item.color, "marks"))
    return prims


@cache
def _diff_mark(item: PanelItem, x: float) -> Primitive:
    """The mark of `item` in the comparison panel at `x`."""
    [mark] = diff_panel_primitives((item,), x, _DIFF_Y)
    return mark


def build_comparison_scene(spec: DiffPairSpec) -> SceneGraph:
    """Two titled panels of marks on a 3x3 grid. Titles, frames and marks
    are all shared: a mark is fixed by its item and its panel."""
    b = SceneBuilder(_DIFF_CANVAS)
    for (x, title, frame), items in zip(_DIFF_PANELS, (spec.base_items, spec.variant_items)):
        b.add(title)
        b.add(frame)
        for item in sorted(items, key=lambda it: it.cell):
            b.add(_diff_mark(item, x))
    return b.build()


# ---------------------------------------------------------------------------
# Puzzle questions


def puzzle_questions(spec: PatternRule | DiffPairSpec) -> list[QuestionDraft]:
    if isinstance(spec, PatternRule):
        letter = OPTION_LETTERS[spec.correct_index]
        op, amount = spec.transform
        rule_text = {
            "rotate": f"each panel rotates the shape by {amount:g} degrees",
            "count": "each panel adds one more shape",
            "scale": "each panel scales the shape by the same factor",
            "color_cycle": "the color advances one step in a fixed cycle",
        }[op]
        question = ("The first panels follow a pattern and the last panel is missing. "
                    "Which option (A, B, C, or D) completes the pattern?")
        rationale = (f"From panel to panel, {rule_text}; applying the rule once more "
                     f"matches option {letter}.")
        return [QuestionDraft(question, letter, "choice", "induction",
                              rationale=rationale)]
    drafts = [QuestionDraft(
        "How many differences are there between Picture 1 and Picture 2?",
        str(len(spec.diff_manifest)), "numeric", "diff_count")]
    drafts.append(QuestionDraft(
        "Describe one difference between Picture 1 and Picture 2.",
        spec.diff_manifest[0], "phrase", "diff_describe",
        alternates=tuple(spec.diff_manifest[1:])))
    return drafts


# ---------------------------------------------------------------------------
# Floor plans / webpage layouts


@dataclass(frozen=True)
class Room:
    name: str
    bounds: tuple[float, float, float, float]  # x, y, w, h
    fixtures: tuple[str, ...] = ()

    def area(self) -> float:
        return self.bounds[2] * self.bounds[3]


@dataclass(frozen=True)
class FloorPlanSpec:
    style: str  # architectural | webpage
    rooms: tuple[Room, ...]
    doors: tuple[tuple[str, str], ...]

    def to_dict(self) -> dict:
        return fields_of(self)


_ROOM_NAMES = ("Living Room", "Kitchen", "Bedroom 1", "Bedroom 2", "Bedroom 3",
               "Bathroom", "Study", "Dining Room")
_REGION_NAMES = ("Header", "Navigation", "Sidebar", "Content", "Ad Banner",
                 "Footer", "Search Panel", "Gallery")
_FIXTURES = {"architectural": "washroom", "webpage": "search box"}  # style -> fixture
_PLAN_CANVAS = Canvas(640, 480)
_ROOM_STYLES = tuple(StyleSpec(fill=fill, stroke="black", stroke_width=2.0) for fill in
                     ("cyan", "yellow", "pink", "olive", "teal", "orange", "green", "gray"))
_FIXTURE_STYLE = StyleSpec(stroke="black", stroke_width=1.0, dash=(3.0, 2.0))
_DOOR_STYLE = StyleSpec(fill="brown")

_MIN_W = 150.0
_MIN_H = 100.0

INTERIOR = (40.0, 60.0, 560.0, 370.0)


def _wall(a: Room, b: Room) -> tuple[str, float, float, float] | None:
    """Where an edge of room `a` lies on an edge of room `b`: the axis the wall
    is fixed on ("x" for a vertical wall), its coordinate, and the span (lo, hi)
    both rooms cover along it (lo >= hi at a bare corner); None if no edges meet."""
    ax, ay, aw, ah = a.bounds
    bx, by, bw, bh = b.bounds
    for axis, a0, a1, b0, b1, (lo0, hi0, lo1, hi1) in (
        ("x", ax, ax + aw, bx, bx + bw, (ay, ay + ah, by, by + bh)),
        ("y", ay, ay + ah, by, by + bh, (ax, ax + aw, bx, bx + bw)),
    ):
        for end, start in ((a1, b0), (b1, a0)):
            if abs(end - start) < 1e-6:
                return axis, start, max(lo0, lo1), min(hi0, hi1)
    return None


def shared_wall(a: Room, b: Room) -> float:
    """Length of the wall segment two rooms share (0 when not adjacent)."""
    wall = _wall(a, b)
    return 0.0 if wall is None else max(0.0, wall[3] - wall[2])


def sample_floorplan(seed: int) -> FloorPlanSpec:
    """Recursive rectangle subdivision into 4-6 connected, named rooms."""
    rng = Random(derive_seed(seed, "floorplan"))
    style = rng.choice(("architectural", "webpage"))
    target = rng.randint(4, 6)
    rects = [INTERIOR]
    while len(rects) < target:
        splittable = [i for i, (x, y, w, h) in enumerate(rects)
                      if w >= 2 * _MIN_W or h >= 2 * _MIN_H]
        if not splittable:
            break
        ix = rng.choice(splittable)
        x, y, w, h = rects.pop(ix)
        ratio = rng.uniform(0.4, 0.6)
        if w >= 2 * _MIN_W and (h < 2 * _MIN_H or w >= h):
            cut = x + w * ratio
            rects.insert(ix, (x, y, cut - x, h))
            rects.insert(ix + 1, (cut, y, x + w - cut, h))
        else:
            cut = y + h * ratio
            rects.insert(ix, (x, y, w, cut - y))
            rects.insert(ix + 1, (x, cut, w, y + h - cut))
    rects.sort(key=lambda r: (r[1], r[0]))
    pool = _ROOM_NAMES if style == "architectural" else _REGION_NAMES
    names = rng.sample(pool, len(rects))
    fixture_rooms = set(rng.sample(range(len(rects)), rng.randint(1, 2)))
    rooms = tuple(
        Room(name, bounds, (_FIXTURES[style],) if i in fixture_rooms else ())
        for i, (name, bounds) in enumerate(zip(names, rects))
    )
    # Doors: spanning tree over wall adjacency plus an occasional extra.
    adj: list[tuple[str, str]] = []
    for i, a in enumerate(rooms):
        for b in rooms[i + 1:]:
            if shared_wall(a, b) >= 50.0:
                adj.append((a.name, b.name))
    connected = {rooms[0].name}
    doors: list[tuple[str, str]] = []
    while len(connected) < len(rooms):
        progress = False
        for a, b in adj:
            if (a in connected) != (b in connected):
                doors.append((a, b))
                connected.update({a, b})
                progress = True
        if not progress:
            break
    extras = [pair for pair in adj if pair not in doors]
    if extras and rng.random() < 0.5:
        doors.append(rng.choice(extras))
    return FloorPlanSpec(style, rooms, tuple(doors))


def build_floorplan_scene(spec: FloorPlanSpec) -> SceneGraph:
    canvas = _PLAN_CANVAS
    b = SceneBuilder(canvas)
    font = 11.0
    title = "Floor Plan" if spec.style == "architectural" else "Webpage Layout"
    b.add(text(canvas.width / 2, 14, title, style(font_size=16.0), "title",
               anchor="middle"))
    room_label_style = style(font_size=font)
    fixture_label_style = style(font_size=8.0)
    for i, room in enumerate(spec.rooms):
        x, y, w, h = room.bounds
        b.add(rect(x, y, w, h, _ROOM_STYLES[i % len(_ROOM_STYLES)], "rooms"))
        if text_width(room.name, font) > w - 8:
            raise LayoutOverflow(f"room name {room.name!r} wider than its room")
        b.add(text(x + w / 2, y + 8, room.name, room_label_style, "room_labels",
                   anchor="middle", z=3))
        for j, fixture in enumerate(room.fixtures):
            fx, fy = x + 8, y + h - 26 - j * 26
            b.add(rect(fx, fy, 14, 14, _FIXTURE_STYLE, "fixtures", z=2))
            b.add(text(fx + 18, fy + 3, fixture, fixture_label_style, "fixture_labels", z=3))
    by_name = {r.name: r for r in spec.rooms}
    for a_name, b_name in spec.doors:
        axis, at, lo, hi = _wall(by_name[a_name], by_name[b_name])
        mid = (lo + hi) / 2
        if axis == "x":
            b.add(rect(at - 3, mid - 12, 6, 24, _DOOR_STYLE, "doors", z=4))
        else:
            b.add(rect(mid - 12, at - 3, 24, 6, _DOOR_STYLE, "doors", z=4))
    return b.build()


def layout_questions(spec: FloorPlanSpec) -> list[QuestionDraft]:
    """Size, containment, adjacency, and count questions; area ties produce
    multi-alternate answers instead of being resampled away."""
    rng = Random(question_seed(spec))
    unit = "room" if spec.style == "architectural" else "region"
    areas = [(r.area(), r.name) for r in spec.rooms]
    max_area = max(a for a, _ in areas)
    min_area = min(a for a, _ in areas)
    largest = tuple(n for a, n in areas if a == max_area)
    smallest = tuple(n for a, n in areas if a == min_area)
    drafts = [
        QuestionDraft(f"Which {unit} is the largest?", largest[0], "phrase",
                      "largest_room", alternates=largest[1:]),
        QuestionDraft(f"Which {unit} is the smallest?", smallest[0], "phrase",
                      "smallest_room", alternates=smallest[1:]),
        QuestionDraft(f"How many {unit}s does this layout contain?",
                      str(len(spec.rooms)), "numeric", "room_count"),
    ]
    fixture = _FIXTURES[spec.style]
    probe = spec.rooms[rng.randrange(len(spec.rooms))]
    answer = "Yes" if fixture in probe.fixtures else "No"
    drafts.append(QuestionDraft(
        f"Does the {probe.name} contain a {fixture}?", answer, "phrase", "containment"))
    a = spec.rooms[rng.randrange(len(spec.rooms))]
    others = [r for r in spec.rooms if r.name != a.name]
    c = others[rng.randrange(len(others))]
    adjacent = "Yes" if shared_wall(a, c) > 0 else "No"
    drafts.append(QuestionDraft(
        f"Is the {a.name} directly adjacent to the {c.name}?", adjacent, "phrase",
        "adjacency"))
    return drafts


def build_puzzle_scene(spec: PatternRule | DiffPairSpec) -> SceneGraph:
    """Scene dispatcher used by the generation pipeline."""
    if isinstance(spec, PatternRule):
        return build_induction_scene(spec)
    return build_comparison_scene(spec)
