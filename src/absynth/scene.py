"""Resolution-independent scene graph and deterministic SVG renderer.

A SceneGraph is the single source of truth for an image: an ordered list of
primitives on a canvas, each built with the one role it plays ("legend",
"hour_hand", ...). Rendering is a pure function of the scene graph; the
same scene always produces byte-identical SVG, in any process.

Text extent is not measured from font metrics. It is estimated as
``0.6 * font_size`` per glyph wide and ``1.0 * font_size`` tall
(TEXT_WIDTH_FACTOR / TEXT_HEIGHT_FACTOR), which keeps geometry queries
deterministic and independent of any font stack.

A primitive is an immutable named tuple, made whole by one of the 8 shape
constructors (`line` ... `text`): the constructor checks its kind's rules
and formats its SVG element, which the primitive keeps as `svg`. A scene
then checks only its z order, and `render_svg` joins the stored texts. A
`Canvas` and a `StyleSpec` check themselves when they are built; a style
also formats its SVG attributes then, once per object, for every primitive
drawn with it. A generator takes each style it draws with from a module
constant or from the interner `style`, and each canvas from a module
constant or a cached helper, so each is checked and formatted once per
process. A part that many scenes draw alike (a road of the map grid, a dial
face, a puzzle frame, a flowchart box or arrow, a table grid or header cell)
comes from a cached helper of its generator, so it is checked and rendered
once per process. Chart frames, tree nodes and floor-plan rooms are made per
image: their axes, ticks, labels, titles, legends and positions follow the
sampled data, and too few of them recur within a run to pay for a cache.

The constructors reuse the text of coordinate values formatted recently:
`_coord` is a bounded memo of `_fmt` shared by every constructor in the
process, safe because equal values always format alike.

Text content is escaped by a local three-replacement function: importing the
standard library's XML escaper would load the network stack with it, and
`import absynth` would pay for that on every start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from operator import attrgetter
from typing import Iterable, NamedTuple

from .palette import PALETTE, color_css, rgb_css

TEXT_WIDTH_FACTOR = 0.6
TEXT_HEIGHT_FACTOR = 1.0

MIN_CANVAS_SIDE = 64

ANCHORS = ("start", "middle", "end")


class InvalidScene(ValueError):
    """Scene violates an invariant; carries the offending primitive indices."""

    def __init__(self, problems: list[tuple[int, str]]):
        self.problems = problems
        detail = "; ".join(f"primitive {i}: {msg}" for i, msg in problems)
        super().__init__(f"invalid scene: {detail}")


class LayoutOverflow(ValueError):
    """Raised by scene builders when labels cannot fit the canvas."""


@dataclass(frozen=True)
class Canvas:
    width: int = 640
    height: int = 480
    background: tuple[int, int, int] = (255, 255, 255)

    def __post_init__(self) -> None:
        if self.width < MIN_CANVAS_SIDE or self.height < MIN_CANVAS_SIDE:
            raise ValueError(f"canvas below {MIN_CANVAS_SIDE}px minimum")
        if any(not (0 <= c <= 255) for c in self.background):
            raise ValueError("background channel outside [0,255]")


@dataclass(frozen=True)
class StyleSpec:
    """Drawing style. Colors are palette names (see palette.PALETTE).

    Built, a style also holds its SVG attribute text, formatted once:
    `shape_attrs` for a shape drawn with it, or None if it has neither
    stroke nor fill, and `text_attrs` for text set in it, or None if it has
    no positive font size. They are plain attributes, not fields, so they
    take no part in equality, hashing or repr."""

    stroke: str | None = None
    stroke_width: float = 1.0
    fill: str | None = None
    font_size: float | None = None
    dash: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.stroke is not None and self.stroke not in PALETTE:
            raise ValueError(f"unknown stroke color {self.stroke!r}")
        if self.fill is not None and self.fill not in PALETTE:
            raise ValueError(f"unknown fill color {self.fill!r}")
        if self.stroke_width < 0:
            raise ValueError("negative stroke_width")
        shape = None
        if self.stroke is not None or self.fill is not None:
            shape = f'fill="{color_css(self.fill)}"' if self.fill is not None else 'fill="none"'
            if self.stroke is not None:
                shape += (f' stroke="{color_css(self.stroke)}"'
                          f' stroke-width="{_fmt(self.stroke_width)}"')
            if self.dash:
                shape += f' stroke-dasharray="{" ".join([_fmt(d) for d in self.dash])}"'
        text = None
        # Written as primitive_problems tests it, so a NaN size counts as positive.
        if self.font_size is not None and not self.font_size <= 0:
            text = (f'fill="{color_css(self.fill or "black")}" '
                    f'font-size="{_fmt(self.font_size)}" font-family="sans-serif"')
        object.__setattr__(self, "shape_attrs", shape)
        object.__setattr__(self, "text_attrs", text)


# The style interner: one StyleSpec object per distinct set of fields, so a
# style that every image draws with is checked and formatted once per process.
# Called with keyword arguments only, in the field order above, so equal
# styles share one cache key. The generators draw with a few fonts and with
# palette colours at fixed widths, so it holds a few dozen entries.
style = cache(StyleSpec)


class Primitive(NamedTuple):
    """One drawable element, immutable, made only by the shape constructors
    below.

    Geometry layout per kind:
      line:      (x1, y1, x2, y2)
      polyline:  ((x, y), ...)
      polygon:   ((x, y), ...)
      rectangle: (x, y, width, height)
      circle:    (cx, cy, r)
      arc:       (cx, cy, r, start_deg, sweep_deg)
      wedge:     (cx, cy, r, start_deg, sweep_deg)
      text:      (x, y, content, anchor)   anchor in {start, middle, end}

    Angles are degrees, measured clockwise from 12 o'clock. (x, y) of a text
    primitive is the top of the line box at its anchor point.

    `role` names what the element means in its scene ("legend", "hour_hand",
    "roads", ...); it plays no part in rendering. `svg` is the element's SVG
    text, formatted by its constructor.
    """

    kind: str
    geometry: tuple
    style: StyleSpec
    z: int
    role: str
    svg: str


BBox = tuple[float, float, float, float]

# A primitive is built with the tuple constructor itself: the named tuple's
# own __new__ is a Python function that only passes its arguments on.
_new = tuple.__new__


def _refuse(kind: str, geometry: tuple, style: StyleSpec) -> None:
    """Raise InvalidScene, in primitive_problems' words, for a primitive that
    failed its constructor's quick check. Finite coordinates whose sum
    overflows fail that check too, and pass this one."""
    problems = primitive_problems(kind, geometry, style)
    if problems:
        raise InvalidScene([(0, msg) for msg in problems])


# Each shape constructor checks its kind's rules, the same ones as
# primitive_problems, in one quick test and hands a primitive that fails it
# to `_refuse`. It then formats the element from the style's attribute text
# and each coordinate's text from the memo `_coord`.


def line(x1, y1, x2, y2, style: StyleSpec, role: str, z: int = 0) -> Primitive:
    geo = x1, y1, x2, y2 = float(x1), float(y1), float(x2), float(y2)
    attrs = style.shape_attrs
    if attrs is None or not math.isfinite(x1 + y1 + x2 + y2):
        _refuse("line", geo, style)
    return _new(Primitive, ("line", geo, style, z, role,
                            f'<line x1="{_coord(x1)}" y1="{_coord(y1)}" '
                            f'x2="{_coord(x2)}" y2="{_coord(y2)}" {attrs}/>'))


def _points(kind: str, points, style: StyleSpec, role: str, z: int) -> Primitive:
    pts = tuple((float(x), float(y)) for x, y in points)
    attrs = style.shape_attrs
    if attrs is None or not pts or not math.isfinite(sum(map(sum, pts))):
        _refuse(kind, pts, style)
    return _new(Primitive, (kind, pts, style, z, role,
                            f'<{kind} points="{_points_attr(pts)}" {attrs}/>'))


def polyline(points, style: StyleSpec, role: str, z: int = 0) -> Primitive:
    return _points("polyline", points, style, role, z)


def polygon(points, style: StyleSpec, role: str, z: int = 0) -> Primitive:
    return _points("polygon", points, style, role, z)


def rect(x, y, w, h, style: StyleSpec, role: str, z: int = 0) -> Primitive:
    geo = x, y, w, h = float(x), float(y), float(w), float(h)
    attrs = style.shape_attrs
    if attrs is None or w < 0 or h < 0 or not math.isfinite(x + y + w + h):
        _refuse("rectangle", geo, style)
    return _new(Primitive, ("rectangle", geo, style, z, role,
                            f'<rect x="{_coord(x)}" y="{_coord(y)}" '
                            f'width="{_coord(w)}" height="{_coord(h)}" {attrs}/>'))


def circle(cx, cy, r, style: StyleSpec, role: str, z: int = 0) -> Primitive:
    geo = cx, cy, r = float(cx), float(cy), float(r)
    attrs = style.shape_attrs
    if attrs is None or not r > 0 or not math.isfinite(cx + cy + r):
        _refuse("circle", geo, style)
    return _new(Primitive, ("circle", geo, style, z, role,
                            f'<circle cx="{_coord(cx)}" cy="{_coord(cy)}" r="{_coord(r)}" '
                            f'{attrs}/>'))


def _arc(kind: str, cx, cy, r, start_deg, sweep_deg, style: StyleSpec, role: str,
         z: int) -> Primitive:
    geo = cx, cy, r, start, sweep = (float(cx), float(cy), float(r), float(start_deg),
                                     float(sweep_deg))
    attrs = style.shape_attrs
    if (attrs is None or not r > 0 or not 0.0 < sweep <= 360.0
            or not math.isfinite(cx + cy + r + start + sweep)):
        _refuse(kind, geo, style)
    path = _arc_path(cx, cy, r, start, sweep, kind == "wedge")
    return _new(Primitive, (kind, geo, style, z, role, f'<path d="{path}" {attrs}/>'))


def arc(cx, cy, r, start_deg, sweep_deg, style: StyleSpec, role: str, z: int = 0) -> Primitive:
    return _arc("arc", cx, cy, r, start_deg, sweep_deg, style, role, z)


def wedge(cx, cy, r, start_deg, sweep_deg, style: StyleSpec, role: str, z: int = 0) -> Primitive:
    return _arc("wedge", cx, cy, r, start_deg, sweep_deg, style, role, z)


def text(x, y, content: str, style: StyleSpec, role: str, anchor: str = "start",
         z: int = 0) -> Primitive:
    x, y, content = float(x), float(y), str(content)
    geo = (x, y, content, anchor)
    attrs = style.text_attrs
    if attrs is None or not content or anchor not in ANCHORS or not math.isfinite(x + y):
        _refuse("text", geo, style)
    # Baseline sits at ~0.8em below the top of the heuristic line box.
    baseline = y + 0.8 * float(style.font_size)
    return _new(Primitive, ("text", geo, style, z, role,
                            f'<text x="{_coord(x)}" y="{_coord(baseline)}" '
                            f'text-anchor="{anchor}" {attrs}>{_escape(content)}</text>'))


@dataclass(frozen=True)
class SceneGraph:
    """A validated scene: construction raises InvalidScene on any primitive
    out of z order. Each primitive checked its kind's rules when it was
    built, and the canvas and each style checked themselves. Canvas,
    primitives and styles are frozen, so a scene that was built is still
    valid when it is rendered."""

    canvas: Canvas
    primitives: tuple[Primitive, ...]

    def __post_init__(self) -> None:
        validate_scene(self)


_by_z = attrgetter("z")


class SceneBuilder:
    """Accumulates primitives, each already built with its role, then emits
    a SceneGraph. `add` is the list's own append, so it keeps the very
    object it is given, and a part made once stays one object.

    build() sorts primitives stably by z, so callers never deal with
    draw-order bookkeeping.
    """

    def __init__(self, canvas: Canvas):
        self.canvas = canvas
        self._prims: list[Primitive] = []
        self.add = self._prims.append

    def build(self) -> SceneGraph:
        # A stable sort: primitives of equal z keep the order they were added in.
        return SceneGraph(self.canvas, tuple(sorted(self._prims, key=_by_z)))


def _all_finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def primitive_problems(kind: str, geometry: tuple, style: StyleSpec) -> list[str]:
    """All invariant violations of a primitive of `kind` with this geometry
    and style (empty list = valid), as its shape constructor made them. Its
    style checked its colours and stroke width when it was built.

    Coordinates are checked by their sum first: a NaN or an infinity always
    makes the sum non-finite, so a finite sum settles it. A non-finite sum
    may also be the overflow of large finite values, so only then is each
    value checked.
    """
    g = geometry
    problems: list[str] = []
    if kind == "text":
        x, y, content, anchor = g
        if not (math.isfinite(x + y) or _all_finite((x, y))):
            problems.append("non-finite coordinates")
        if not content:
            problems.append("empty text content")
        if anchor not in ANCHORS:
            problems.append(f"bad anchor {anchor!r}")
        if style.font_size is None or style.font_size <= 0:
            problems.append("text requires positive font_size")
    else:
        if kind in ("polyline", "polygon"):
            finite = math.isfinite(sum(map(sum, g))) or _all_finite(v for pt in g for v in pt)
            if not g:
                problems.append(f"{kind} without points")
        else:
            finite = math.isfinite(sum(g)) or _all_finite(g)
        if not finite:
            problems.append("non-finite coordinates")
        if kind == "rectangle" and (g[2] < 0 or g[3] < 0):
            problems.append("negative width or height")
        if style.stroke is None and style.fill is None:
            problems.append("shape needs stroke or fill")
        if kind in ("arc", "wedge"):
            sweep = g[4]
            if not (0.0 < sweep <= 360.0):
                problems.append(f"sweep {sweep} outside (0, 360]")
            if g[2] <= 0:
                problems.append("non-positive radius")
        if kind == "circle" and g[2] <= 0:
            problems.append("non-positive radius")
    return problems


def validate_scene(scene: SceneGraph) -> None:
    """Raise InvalidScene naming each primitive that comes after one of
    higher z. Each primitive checked its kind's rules when it was built."""
    zs = [p.z for p in scene.primitives]
    if zs != sorted(zs):
        raise InvalidScene([(i, "primitives not sorted by z")
                            for i in range(1, len(zs)) if zs[i] < zs[i - 1]])


# ---------------------------------------------------------------------------
# Geometry queries


def angle_point(cx: float, cy: float, r: float, deg: float) -> tuple[float, float]:
    """Point on a circle at `deg` degrees clockwise from 12 o'clock."""
    rad = math.radians(deg)
    return (cx + r * math.sin(rad), cy - r * math.cos(rad))


def text_width(content: str, font: float) -> float:
    """Estimated width of `content` set at `font` px."""
    return TEXT_WIDTH_FACTOR * font * len(content)


def bounding_box(p: Primitive) -> BBox:
    """(x_min, y_min, x_max, y_max) containing all geometry of `p`.

    Text extent uses the documented glyph heuristic; arc/wedge boxes are
    exact (endpoints plus any crossed cardinal directions).
    """
    g = p.geometry
    if p.kind == "text":
        x, y, content, anchor = g
        size = float(p.style.font_size or 0.0)
        w = text_width(content, size)
        h = TEXT_HEIGHT_FACTOR * size
        if anchor == "middle":
            return (x - w / 2.0, y, x + w / 2.0, y + h)
        if anchor == "end":
            return (x - w, y, x, y + h)
        return (x, y, x + w, y + h)
    if p.kind == "line":
        x1, y1, x2, y2 = g
        return (min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
    if p.kind in ("polyline", "polygon"):
        xs = [pt[0] for pt in g]
        ys = [pt[1] for pt in g]
        return (min(xs), min(ys), max(xs), max(ys))
    if p.kind == "rectangle":
        x, y, w, h = g
        return (x, y, x + w, y + h)
    if p.kind == "circle":
        cx, cy, r = g
        return (cx - r, cy - r, cx + r, cy + r)
    if p.kind in ("arc", "wedge"):
        cx, cy, r, start, sweep = g
        pts = [angle_point(cx, cy, r, start), angle_point(cx, cy, r, start + sweep)]
        if p.kind == "wedge":
            pts.append((cx, cy))
        for cardinal in (0.0, 90.0, 180.0, 270.0):
            if ((cardinal - start) % 360.0) <= sweep:
                pts.append(angle_point(cx, cy, r, cardinal))
        xs = [pt[0] for pt in pts]
        ys = [pt[1] for pt in pts]
        return (min(xs), min(ys), max(xs), max(ys))
    raise ValueError(f"unknown kind {p.kind!r}")


def bbox_intersection_area(a: BBox, b: BBox) -> float:
    w = min(a[2], b[2]) - max(a[0], b[0])
    h = min(a[3], b[3]) - max(a[1], b[1])
    if w <= 0 or h <= 0:
        return 0.0
    return w * h


def overlap_pairs(scene: SceneGraph, indices: Iterable[int]) -> list[tuple[int, int, float]]:
    """All index pairs (i < j, in sorted order) among the primitives at
    `indices` whose bounding boxes intersect with positive area, with the
    intersection area.

    Only those primitives are boxed, each once. The boxes are swept in x-min
    order: once a box starts at or past another's x-max, so does every box
    after it, and neither can meet it with positive area. A box whose
    y-range starts at or past the other's y-max, or ends at or before its
    y-min, cannot meet it either, and is passed over before any area is
    computed.
    """
    prims = scene.primitives
    boxes = sorted([(bounding_box(prims[i]), i) for i in set(indices)])
    pairs: list[tuple[int, int, float]] = []
    for pos, (a, i) in enumerate(boxes):
        _, y_min, x_max, y_max = a
        for b, j in boxes[pos + 1:]:
            if b[0] >= x_max:
                break
            if b[1] >= y_max or b[3] <= y_min:
                continue
            area = bbox_intersection_area(a, b)
            if area > 0:
                pairs.append((i, j, area) if i < j else (j, i, area))
    pairs.sort()
    return pairs


# ---------------------------------------------------------------------------
# SVG rendering


def _fmt(v: float) -> str:
    f = float(v)
    if f.is_integer():
        return str(int(v))
    return f"{f:.3f}".rstrip("0").rstrip(".")


# Coordinate text by value, shared by every constructor in the process. Maps,
# puzzles and dashboards draw on a small set of recurring coordinates, so
# most lookups hit. Equal keys format alike (0.0, -0.0 and 0 all give "0";
# 1, 1.0 and True all give "1"), so a shared entry changes no byte. Bounded,
# so arbitrary chart values cannot grow it without limit.
_coord = lru_cache(maxsize=2048)(_fmt)


def _points_attr(points) -> str:
    return " ".join([f"{_coord(x)},{_coord(y)}" for x, y in points])


def _arc_path(cx, cy, r, start, sweep, close_to_center: bool) -> str:
    x1, y1 = angle_point(cx, cy, r, start)
    if sweep >= 360.0:
        # Full circle: two half arcs, since a single 360-degree arc collapses.
        xm, ym = angle_point(cx, cy, r, start + 180.0)
        d = (
            f"M {_coord(x1)} {_coord(y1)} "
            f"A {_coord(r)} {_coord(r)} 0 0 1 {_coord(xm)} {_coord(ym)} "
            f"A {_coord(r)} {_coord(r)} 0 0 1 {_coord(x1)} {_coord(y1)}"
        )
        return d + " Z" if close_to_center else d
    x2, y2 = angle_point(cx, cy, r, start + sweep)
    large = 1 if sweep > 180.0 else 0
    arc_part = f"A {_coord(r)} {_coord(r)} 0 {large} 1 {_coord(x2)} {_coord(y2)}"
    if close_to_center:
        return f"M {_coord(cx)} {_coord(cy)} L {_coord(x1)} {_coord(y1)} {arc_part} Z"
    return f"M {_coord(x1)} {_coord(y1)} {arc_part}"


def _escape(text: str) -> str:
    """`text` as SVG character data: the three replacements of
    `xml.sax.saxutils.escape` with no extra entities, so quotes stay as they are."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def render_svg(scene: SceneGraph) -> bytes:
    """Render a scene to a standalone SVG 1.1 document.

    Deterministic: the same scene yields byte-identical output. The scene
    was validated when it was constructed, and each primitive holds the
    element text its constructor formatted, so rendering only joins them.
    """
    c = scene.canvas
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{c.width}" height="{c.height}" viewBox="0 0 {c.width} {c.height}">',
        f'<rect x="0" y="0" width="{c.width}" height="{c.height}" fill="{rgb_css(c.background)}"/>',
    ]
    lines += [p.svg for p in scene.primitives]
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode("utf-8")
