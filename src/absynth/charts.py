"""Chart and table synthesis: specs, scenes, and question drafts.

Covers five chart kinds (line, bar, pie, table, composite). A ChartSpec holds
the simulated data and every plotting parameter; both the rendered scene and
every question/answer derive from it alone.

Each unit class has one row of fixed config (keywords.UNIT_CLASSES), its
value range and axis suffix: percent 1-60 (%), currency 10-10000 ($) and
count 1-500 (none). Pie charts always use four categories with integer
percentages summing to 100. Composite charts hold 2-4 bar/line sub-charts
laid out in a row or 2x2 grid. Every value is finite and below MAX_VALUE in
magnitude, and none is nonzero but written as "0" by format_number. No bar
or line value is negative, since the value axis starts at 0; a table cell
may hold a negative value, since it draws "-5" as it is. A ChartSpec checks
these rules when it is constructed, so the scene builder and the questions
take every spec as valid.

Every style is a module constant or comes from the interner `scene.style`,
and the canvas is a module constant, so each is made once per process. A
table's grid (by its row and column counts) and its header and row-label
cells (by position and text) come from cached helpers: their labels come
from the category and series pools, so they recur, and each is checked and
rendered once per process. Value cells and the whole frame of a chart (its
axes, ticks, category labels, title and legend) are made per image, since
they follow the sampled values and labels. About 40% of chart primitives do
recur within 100 charts, and a cache of the axes, category labels and
legend strip by their layout inputs cut a warm chart build from 101 to
57 µs (Python 3.11, shared 2-vCPU host), but gen_text gained only 1.02x
end to end, too little to pay for the code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from random import Random

from .keywords import BUILTIN_TOPICS, UNIT_CLASSES
from .palette import CHART_COLORS
from .records import QuestionDraft, format_number
from .scene import (
    Canvas, LayoutOverflow, Primitive, SceneBuilder, SceneGraph, StyleSpec,
    circle, line, polyline, rect, style, text, text_width, wedge,
)
from .seeds import derive_seed, fields_of, question_seed

CHART_KINDS = ("line", "bar", "pie", "table", "composite")
NON_TABLE_CHART_KINDS = tuple(kind for kind in CHART_KINDS if kind != "table")
LEGEND_POSITIONS = ("top_left", "top_right", "bottom_left", "bottom_right")

PIE_CATEGORIES = 4
MIN_PIE_PERCENT = 5
MAX_VALUE = 1e15  # every value is below it in magnitude: 15 integer digits at most

TITLE_FONT = 18.0
LABEL_FONT = 11.0
TICK_FONT = 10.0
CELL_FONT = 12.0
SUB_SCALE = 0.8  # extra font shrink inside composite sub-charts

_CATEGORY_POOLS = (
    ("2019", "2020", "2021", "2022", "2023", "2024", "2025", "2026"),
    ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8"),
    ("North", "South", "East", "West", "Central", "Coast", "Inland", "Isles"),
    ("Alpha", "Beta", "Gamma", "Delta", "Epsilon", "Zeta", "Eta", "Theta"),
    ("Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug"),
)
_SHORT_POOLS = (0, 1)  # pools with <= 4-char labels, safe for sub-charts

_SERIES_POOLS = (
    ("Plan", "Actual", "Forecast"),
    ("Team A", "Team B", "Team C"),
    ("Urban", "Rural", "Suburban"),
    ("Model X", "Model Y", "Model Z"),
)


@dataclass(frozen=True)
class SeriesPoint:
    category: str
    value: float


@dataclass(frozen=True)
class Series:
    label: str
    points: tuple[SeriesPoint, ...]


@dataclass(frozen=True)
class ChartSpec:
    kind: str
    topic: str
    unit: str
    series: tuple[Series, ...]
    axis_labels: tuple[str, str]
    legend_position: str
    palette_assignment: dict[str, str]
    subcharts: tuple["ChartSpec", ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in CHART_KINDS:
            raise ValueError(f"unknown chart kind {self.kind!r}")
        if self.kind == "composite":
            if not (2 <= len(self.subcharts) <= 4):
                raise ValueError("composite needs 2-4 subcharts")
            if any(sub.kind == "composite" for sub in self.subcharts):
                raise ValueError("subcharts must not be composite")
            return
        if not self.series:
            raise ValueError("chart needs at least one series")
        cats = self.categories()
        for s in self.series:
            if tuple(p.category for p in s.points) != cats:
                raise ValueError("inconsistent categories across series")
            for p in s.points:
                if not math.isfinite(p.value):
                    raise ValueError(f"series {s.label!r} value {p.value} is not finite")
                if abs(p.value) >= MAX_VALUE:
                    raise ValueError(f"series {s.label!r} value {p.value} is not below "
                                     f"{MAX_VALUE:g} in magnitude")
                if 0 < abs(p.value) < 1 and format_number(abs(p.value)) == "0":
                    raise ValueError(f"series {s.label!r} value {p.value} is nonzero "
                                     f"but writes as 0")
                if self.kind in ("bar", "line") and p.value < 0:
                    raise ValueError(f"{self.kind} series {s.label!r} value {p.value} "
                                     f"is negative")
        if self.kind == "pie":
            values = [p.value for p in self.series[0].points]
            if any(v <= 0 for v in values):
                raise ValueError("pie values must be strictly positive")
            if abs(sum(values) - 100.0) > 0.01:
                raise ValueError(f"pie percentages sum to {sum(values)}, not 100")
        if self.kind in ("bar", "line") and len(cats) < 3:
            raise ValueError(f"{self.kind} chart needs >= 3 categories")

    def categories(self) -> tuple[str, ...]:
        if not self.series:
            return ()
        return tuple(p.category for p in self.series[0].points)

    def to_dict(self) -> dict:
        return fields_of(self)


# ---------------------------------------------------------------------------
# Sampling


def _value_series(rng: Random, unit: str, labels: tuple[str, ...],
                  cats: tuple[str, ...]) -> tuple[Series, ...]:
    """One series per label, each with one value per category, drawn label
    by label."""
    lo, hi, _ = UNIT_CLASSES[unit]
    return tuple(Series(label, tuple(SeriesPoint(c, float(rng.randint(lo, hi))) for c in cats))
                 for label in labels)


def _sample_pie_percentages(rng: Random) -> list[int]:
    # Integer composition of 100 with every part >= MIN_PIE_PERCENT.
    while True:
        cuts = sorted(rng.sample(range(1, 100), PIE_CATEGORIES - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [100])]
        if min(parts) >= MIN_PIE_PERCENT:
            return parts


def _assign_colors(rng: Random, labels: tuple[str, ...]) -> dict[str, str]:
    offset = rng.randrange(len(CHART_COLORS))
    return {
        label: CHART_COLORS[(offset + i) % len(CHART_COLORS)]
        for i, label in enumerate(labels)
    }


def _axis_labels(unit: str) -> tuple[str, str]:
    _, _, suffix = UNIT_CLASSES[unit]
    return ("category", f"value ({suffix})" if suffix else "value")


def _sample_simple(rng: Random, kind: str, topic, narrow: bool = False) -> ChartSpec:
    pool_ix = rng.choice(_SHORT_POOLS) if narrow else rng.randrange(len(_CATEGORY_POOLS))
    pool = _CATEGORY_POOLS[pool_ix]
    if kind == "pie":
        cats = tuple(pool[:PIE_CATEGORIES])
        values = _sample_pie_percentages(rng)
        series = (Series("share", tuple(SeriesPoint(c, float(v)) for c, v in zip(cats, values))),)
        colors = _assign_colors(rng, cats)
        position = rng.choice(("bottom_left", "bottom_right"))
        return ChartSpec("pie", topic.text, "percent", series, ("", ""), position, colors)
    if kind == "table":
        n_rows = rng.randint(2, 5)
        n_cols = rng.randint(3, 5)
        cats = tuple(pool[:n_cols])
        pool_labels = _SERIES_POOLS[rng.randrange(len(_SERIES_POOLS))]
        if n_rows <= len(pool_labels):
            row_labels = pool_labels[:n_rows]
        else:
            row_labels = tuple(f"Row {i + 1}" for i in range(n_rows))
        series = _value_series(rng, topic.unit, row_labels, cats)
        return ChartSpec("table", topic.text, topic.unit, series,
                         _axis_labels(topic.unit), rng.choice(LEGEND_POSITIONS), {})
    if kind == "bar":
        k = rng.randint(3, 4) if narrow else rng.randint(3, 6)
        cats = tuple(pool[:k])
        label = rng.choice(_SERIES_POOLS[rng.randrange(len(_SERIES_POOLS))])
        series = _value_series(rng, topic.unit, (label,), cats)
        colors = _assign_colors(rng, (label,))
        return ChartSpec("bar", topic.text, topic.unit, series,
                         _axis_labels(topic.unit), rng.choice(LEGEND_POSITIONS), colors)
    # line
    n_series = rng.randint(1, 2) if narrow else rng.randint(1, 3)
    k = rng.randint(3, 5) if narrow else rng.randint(4, 8)
    cats = tuple(pool[:k])
    labels = _SERIES_POOLS[rng.randrange(len(_SERIES_POOLS))][:n_series]
    series = _value_series(rng, topic.unit, labels, cats)
    colors = _assign_colors(rng, labels)
    return ChartSpec("line", topic.text, topic.unit, series,
                     _axis_labels(topic.unit), rng.choice(LEGEND_POSITIONS), colors)


def sample_chart_spec(seed: int, kind: str) -> ChartSpec:
    """A valid ChartSpec of `kind`, drawn from the seed's "chart" stream; a
    composite draws each sub-chart from its own ("chart-sub", i) stream.
    The `chart` and `table` scenarios choose the kind."""
    rng = Random(derive_seed(seed, "chart"))
    topic = rng.choice(BUILTIN_TOPICS)
    if kind == "composite":
        n = rng.randint(2, 4)
        subs = []
        for i in range(n):
            sub_rng = Random(derive_seed(seed, "chart-sub", i))
            sub_kind = sub_rng.choice(("bar", "line"))
            sub_topic = sub_rng.choice(BUILTIN_TOPICS)
            subs.append(_sample_simple(sub_rng, sub_kind, sub_topic, narrow=True))
        return ChartSpec("composite", topic.text, topic.unit, (), ("", ""),
                         rng.choice(LEGEND_POSITIONS), {}, tuple(subs))
    return _sample_simple(rng, kind, topic)


def sample_chart(seed: int) -> ChartSpec:
    """The `chart` scenario's spec: a kind other than table, drawn from the seed."""
    kind = Random(derive_seed(seed, "chart-kind")).choice(NON_TABLE_CHART_KINDS)
    return sample_chart_spec(seed, kind=kind)


def sample_table(seed: int) -> ChartSpec:
    """The `table` scenario's spec."""
    return sample_chart_spec(seed, kind="table")


# ---------------------------------------------------------------------------
# Scene construction

Region = tuple[float, float, float, float]  # x0, y0, x1, y1


def nice_axis_max(max_value: float) -> float:
    """Smallest 1/2/2.5/5 * 10^k value >= max_value (axis headroom)."""
    if max_value <= 0:
        return 1.0
    exp = math.floor(math.log10(max_value))
    for base in (1.0, 2.0, 2.5, 5.0, 10.0):
        candidate = base * 10.0 ** exp
        if candidate >= max_value - 1e-9:
            return candidate
    return 10.0 ** (exp + 1)


_CANVAS = Canvas(640, 480)
_AXIS_STYLE = StyleSpec(stroke="black", stroke_width=1.5)
_GRID_STYLE = StyleSpec(stroke="gray", stroke_width=0.5)


def _draw_axes(b: SceneBuilder, plot: Region, axis_max: float, label_style: StyleSpec) -> None:
    x0, y0, x1, y1 = plot
    font = label_style.font_size
    b.add(line(x0, y0, x0, y1, _AXIS_STYLE, "axis"))
    b.add(line(x0, y1, x1, y1, _AXIS_STYLE, "axis"))
    for t in range(5):
        v = axis_max * t / 4.0
        y = y1 - (y1 - y0) * t / 4.0
        b.add(line(x0 - 4, y, x0, y, _AXIS_STYLE, "axis"))
        b.add(text(x0 - 6, y - font / 2.0, format_number(round(v, 2)), label_style, "axis",
                   anchor="end"))


def _legend_strip(
    b: SceneBuilder, entries: list[tuple[str, str]], x0: float, x1: float,
    y: float, font: float, position: str,
) -> None:
    """Horizontal row of swatch+label legend entries at height `y`, flush
    left when the legend `position` names the left side, else flush right."""
    widths = [16.0 + text_width(lbl, font) + 12.0 for lbl, _ in entries]
    total = sum(widths)
    if total > x1 - x0:
        raise LayoutOverflow("legend entries exceed available width")
    lx = x0 if "left" in position else x1 - total
    label_style = style(font_size=font)
    for (lbl, color), w in zip(entries, widths):
        b.add(rect(lx, y + 2, 10, 10, style(stroke="black", stroke_width=0.5, fill=color),
                   "legend", z=6))
        b.add(text(lx + 14, y, lbl, label_style, "legend", z=6))
        lx += w


def _split_legend_band(
    region: Region, position: str, legend_h: float
) -> tuple[Region, float]:
    """Reserve a horizontal band for the legend; returns (rest, legend_y)."""
    x0, y0, x1, y1 = region
    if position.startswith("top"):
        return (x0, y0 + legend_h + 4.0, x1, y1), y0
    return (x0, y0, x1, y1 - legend_h - 4.0), y1 - legend_h


def _draw_pie(b: SceneBuilder, spec: ChartSpec, region: Region, scale: float) -> None:
    font = LABEL_FONT * scale
    legend_h = font + 8.0
    inner, legend_y = _split_legend_band(region, spec.legend_position, legend_h)
    x0, y0, x1, y1 = inner
    entries = [(p.category, spec.palette_assignment[p.category]) for p in spec.series[0].points]
    _legend_strip(b, entries, region[0], region[2], legend_y, font, spec.legend_position)

    cx = (x0 + x1) / 2.0
    cy = (y0 + y1) / 2.0
    radius = min(x1 - x0, y1 - y0) / 2.0 - 2.6 * font
    if radius < 10:
        raise LayoutOverflow("pie region too small")
    start = 0.0
    label_style = style(font_size=font)
    for point in spec.series[0].points:
        sweep = 3.6 * point.value
        color = spec.palette_assignment[point.category]
        b.add(wedge(cx, cy, radius, start, sweep,
                    style(stroke="black", stroke_width=0.8, fill=color), "data_marks"))
        mid = math.radians(start + sweep / 2.0)
        lx = cx + (radius + 1.2 * font) * math.sin(mid)
        ly = cy - (radius + 1.2 * font) * math.cos(mid) - font / 2.0
        b.add(text(lx, ly, f"{format_number(point.value)}%", label_style, "data_marks",
                   anchor="middle"))
        start += sweep


def _draw_value_chart(
    b: SceneBuilder, spec: ChartSpec, region: Region, scale: float, unit_label: str
) -> None:
    """Shared frame for bar and line charts: legend band, unit lane, axes."""
    font = TICK_FONT * scale
    label_font = LABEL_FONT * scale
    legend_h = label_font + 8.0
    inner, legend_y = _split_legend_band(region, spec.legend_position, legend_h)
    x0, y0, x1, y1 = inner
    unit_lane = 1.8 * font if unit_label else 0.0
    plot: Region = (x0, y0 + unit_lane, x1, y1 - 1.6 * font)
    px0, py0, px1, py1 = plot
    if py1 - py0 < 40:
        raise LayoutOverflow("plot region too small")

    entries = [(s.label, spec.palette_assignment[s.label]) for s in spec.series]
    _legend_strip(b, entries, region[0], region[2], legend_y, label_font, spec.legend_position)
    tick_style = style(font_size=font)
    if unit_label:
        b.add(text(px0, py0 - 1.6 * font, unit_label, tick_style, "axis"))

    all_values = [p.value for s in spec.series for p in s.points]
    axis_max = nice_axis_max(max(all_values))
    _draw_axes(b, plot, axis_max, tick_style)
    cats = spec.categories()
    slot = (px1 - px0) / len(cats)
    for i, cat in enumerate(cats):
        if text_width(cat, font) > slot:
            raise LayoutOverflow(f"category label {cat!r} exceeds its slot")
        b.add(text(px0 + i * slot + slot / 2.0, py1 + 0.4 * font, cat, tick_style, "axis",
                   anchor="middle"))

    if spec.kind == "bar":
        bar_w = slot * 0.6
        bar_style = style(stroke="black", stroke_width=0.6,
                          fill=spec.palette_assignment[spec.series[0].label])
        for i, point in enumerate(spec.series[0].points):
            h = point.value / axis_max * (py1 - py0)
            bx = px0 + i * slot + (slot - bar_w) / 2.0
            b.add(rect(bx, py1 - h, bar_w, h, bar_style, "data_marks"))
    else:
        for s in spec.series:
            color = spec.palette_assignment[s.label]
            pts = []
            for i, point in enumerate(s.points):
                x = px0 + i * slot + slot / 2.0
                y = py1 - point.value / axis_max * (py1 - py0)
                pts.append((x, y))
            b.add(polyline(pts, style(stroke=color, stroke_width=2.0), "data_marks", z=2))
            point_style = style(fill=color)
            for x, y in pts:
                b.add(circle(x, y, 3.0, point_style, "data_marks", z=3))


# A table's grid and its header and row-label cells are fixed by its shape
# and its labels, which come from the category and series pools, so each is
# made once per process; only the value cells are made per image.
@cache
def _table_grid(region: Region, font: float, n_rows: int,
                n_cols: int) -> tuple[float, float, float, tuple[Primitive, ...]]:
    """The column width, row height and top of a table of `n_rows` data rows
    and `n_cols` value columns set at `font` in `region`, and its grid lines."""
    x0, y0, x1, y1 = region
    col_w = (x1 - x0) / (n_cols + 1)
    row_h = min((y1 - y0) / (n_rows + 1), 3.0 * font)
    table_h = row_h * (n_rows + 1)
    ty0 = y0 + ((y1 - y0) - table_h) / 2.0
    grid = [line(x0, ty0 + r * row_h, x1, ty0 + r * row_h, _GRID_STYLE, "grid")
            for r in range(n_rows + 2)]
    grid += [line(x0 + c * col_w, ty0, x0 + c * col_w, ty0 + table_h, _GRID_STYLE, "grid")
             for c in range(n_cols + 2)]
    return col_w, row_h, ty0, tuple(grid)


@cache
def _label_cell(x: float, y: float, content: str, font: float) -> Primitive:
    """A header or row-label cell whose text is centred on `x`."""
    return text(x, y, content, style(font_size=font), "axis", anchor="middle")


def _draw_table(b: SceneBuilder, spec: ChartSpec, region: Region, scale: float) -> None:
    x0 = region[0]
    font = CELL_FONT * scale
    col_w, row_h, ty0, grid = _table_grid(region, font, len(spec.series),
                                          len(spec.categories()))
    for prim in grid:
        b.add(prim)
    cell_style = style(font_size=font)

    def cell_at(row: int, col: int, content: str) -> tuple[float, float]:
        """The top centre of the cell at (row, col), once `content` fits it."""
        if text_width(content, font) > col_w - 6:
            raise LayoutOverflow(f"cell text {content!r} exceeds column width")
        return x0 + col * col_w + col_w / 2.0, ty0 + row * row_h + (row_h - font) / 2.0

    for c, cat in enumerate(spec.categories()):
        b.add(_label_cell(*cell_at(0, c + 1, cat), cat, font))
    for r, s in enumerate(spec.series):
        b.add(_label_cell(*cell_at(r + 1, 0, s.label), s.label, font))
        for c, point in enumerate(s.points):
            value = format_number(point.value)
            b.add(text(*cell_at(r + 1, c + 1, value), value, cell_style, "data_marks",
                       anchor="middle"))


def _draw_kind(b: SceneBuilder, spec: ChartSpec, region: Region, scale: float,
               unit_label: str) -> None:
    if spec.kind == "pie":
        _draw_pie(b, spec, region, scale)
    elif spec.kind in ("bar", "line"):
        _draw_value_chart(b, spec, region, scale, unit_label)
    elif spec.kind == "table":
        _draw_table(b, spec, region, scale)
    else:
        raise ValueError(f"cannot draw kind {spec.kind!r}")


def build_chart_scene(spec: ChartSpec) -> SceneGraph:
    """Render a ChartSpec to a SceneGraph.

    Each primitive carries one role: title, legend, axis, data_marks or grid
    (a role that a kind does not draw is absent). Raises LayoutOverflow when
    a label cannot fit at its font size; value-to-pixel mapping is
    value / nice_axis_max(max value) * plot height.
    """
    canvas = _CANVAS
    b = SceneBuilder(canvas)
    if text_width(spec.topic, TITLE_FONT) > canvas.width - 20:
        raise LayoutOverflow(f"title {spec.topic!r} wider than canvas")
    b.add(text(canvas.width / 2.0, 10, spec.topic,
               style(font_size=TITLE_FONT), "title", anchor="middle", z=9))

    top = 16 + 1.6 * TITLE_FONT
    if spec.kind == "composite":
        n = len(spec.subcharts)
        gap = 14.0
        if n == 4:
            cw = (canvas.width - 24 - gap) / 2.0
            ch = (canvas.height - top - 12 - gap) / 2.0
            regions = [(12 + c * (cw + gap), top + r * (ch + gap),
                        12 + c * (cw + gap) + cw, top + r * (ch + gap) + ch)
                       for r in range(2) for c in range(2)]
        else:
            cw = (canvas.width - 24 - gap * (n - 1)) / n
            regions = [(12 + i * (cw + gap), top,
                        12 + i * (cw + gap) + cw, canvas.height - 14) for i in range(n)]
        for sub, (rx0, ry0, rx1, ry1) in zip(spec.subcharts, regions):
            sub_title_font = LABEL_FONT * SUB_SCALE
            if text_width(sub.topic, sub_title_font) > (rx1 - rx0):
                raise LayoutOverflow(f"sub-chart title {sub.topic!r} too wide")
            b.add(text((rx0 + rx1) / 2.0, ry0, sub.topic,
                       style(font_size=sub_title_font), "title", anchor="middle", z=9))
            inner: Region = (rx0 + 3.4 * TICK_FONT * SUB_SCALE, ry0 + 1.8 * sub_title_font,
                             rx1 - 6, ry1 - 4)
            _draw_kind(b, sub, inner, SUB_SCALE, "")
    else:
        margin_left = 70.0 if spec.kind in ("bar", "line") else 40.0
        region: Region = (margin_left, top, canvas.width - 30.0, canvas.height - 24.0)
        unit_label = spec.axis_labels[1] if spec.kind in ("bar", "line") else ""
        _draw_kind(b, spec, region, 1.0, unit_label)

    return b.build()


# ---------------------------------------------------------------------------
# Questions

def _kind_noun(kind: str) -> str:
    return {"line": "line chart", "bar": "bar chart", "pie": "pie chart",
            "table": "table", "composite": "composite chart"}[kind]


def _caption(spec: ChartSpec) -> str:
    if spec.kind == "composite":
        kinds = ", ".join(_kind_noun(s.kind) for s in spec.subcharts)
        return (f"A composite chart titled '{spec.topic}' containing "
                f"{len(spec.subcharts)} sub-charts: {kinds}.")
    k = len(spec.categories())
    n = len(spec.series)
    if spec.kind == "table":
        return f"A table titled '{spec.topic}' with {n} rows and {k} columns of values."
    if spec.kind == "pie":
        return f"A pie chart titled '{spec.topic}' divided into {k} categories."
    series_part = f" across {n} series" if n > 1 else ""
    return f"A {_kind_noun(spec.kind)} titled '{spec.topic}' showing {k} categories{series_part}."


def _capitalize(q: str) -> str:
    return q[0].upper() + q[1:]


def _value_target(spec: ChartSpec) -> tuple[ChartSpec, str]:
    """The chart value questions read, and the phrase that leads them: a
    composite's first sub-chart, otherwise the chart itself."""
    if spec.kind == "composite":
        return spec.subcharts[0], "in the first sub-chart, "
    return spec, ""


def _math_draft(rng: Random, spec: ChartSpec) -> QuestionDraft:
    target, prefix = _value_target(spec)
    values = [p.value for p in target.series[0].points]
    names = [p.category for p in target.series[0].points]
    label = target.series[0].label
    if target.kind == "pie":
        vmax, vmin = max(values), min(values)
        cmax, cmin = names[values.index(vmax)], names[values.index(vmin)]
        q = (f"{prefix}what is the difference between the largest and smallest "
             f"categories in this pie chart?")
        rationale = (f"The largest category is {cmax} at {format_number(vmax)}% and the "
                     f"smallest is {cmin} at {format_number(vmin)}%. "
                     f"{format_number(vmax)} - {format_number(vmin)} = "
                     f"{format_number(vmax - vmin)}.")
        return QuestionDraft(_capitalize(q), format_number(vmax - vmin),
                             "numeric", "math", rationale=rationale)
    op = rng.choice(("total", "difference", "average"))
    in_series = f" in the '{label}' row" if target.kind == "table" and len(target.series) > 1 \
        else (f" for '{label}'" if len(target.series) > 1 else "")
    listed = ", ".join(format_number(v) for v in values)
    if op == "total":
        answer = float(sum(values))
        q = f"{prefix}what is the total of all values{in_series}?"
        rationale = f"The values are {listed}. Their sum is {format_number(answer)}."
    elif op == "difference":
        answer = max(values) - min(values)
        q = f"{prefix}what is the difference between the highest and lowest values{in_series}?"
        rationale = (f"The highest value is {format_number(max(values))} and the lowest is "
                     f"{format_number(min(values))}. {format_number(max(values))} - "
                     f"{format_number(min(values))} = {format_number(answer)}.")
    else:
        answer = sum(values) / len(values)
        q = f"{prefix}what is the average of all values{in_series}?"
        rationale = (f"The values are {listed}. Their sum is {format_number(sum(values))}, "
                     f"divided by {len(values)} gives {format_number(answer)}.")
    return QuestionDraft(_capitalize(q), format_number(answer),
                         "numeric", "math", rationale=rationale)


def _perception_draft(rng: Random, spec: ChartSpec) -> QuestionDraft:
    if spec.kind == "composite":
        return QuestionDraft("How many sub-charts does this figure contain?",
                             str(len(spec.subcharts)), "numeric", "perception")
    if spec.kind == "table":
        return QuestionDraft("How many data rows does the table have, excluding the header?",
                             str(len(spec.series)), "numeric", "perception")
    if spec.kind == "pie":
        values = [p.value for p in spec.series[0].points]
        vmax = max(values)
        winners = tuple(p.category for p in spec.series[0].points if p.value == vmax)
        return QuestionDraft("Which category has the largest share in this pie chart?",
                             winners[0], "phrase", "perception", alternates=winners[1:])
    if rng.random() < 0.5:
        position = spec.legend_position.replace("_", " ")
        return QuestionDraft("Where is the legend located in this chart?",
                             position, "phrase", "perception")
    return QuestionDraft("How many categories are shown on the x-axis?",
                         str(len(spec.categories())), "numeric", "perception")


def _extraction_draft(rng: Random, spec: ChartSpec) -> QuestionDraft:
    target, prefix = _value_target(spec)
    s = target.series[rng.randrange(len(target.series))]
    point = s.points[rng.randrange(len(s.points))]
    if target.kind == "pie":
        q = f"{prefix}what percentage does the '{point.category}' category account for?"
    elif len(target.series) > 1:
        q = f"{prefix}what is the value of '{point.category}' for '{s.label}'?"
    else:
        q = f"{prefix}what is the value of '{point.category}'?"
    return QuestionDraft(_capitalize(q), format_number(point.value), "numeric", "extraction")


def chart_questions(spec: ChartSpec) -> list[QuestionDraft]:
    """One draft per question type (OCR, caption, perception, extraction,
    math); every answer is recomputable from the spec alone."""
    rng = Random(question_seed(spec))
    noun = _kind_noun(spec.kind)
    return [
        QuestionDraft(f"What is the title of this {noun}?", spec.topic, "phrase", "ocr"),
        QuestionDraft("Write a one-sentence caption describing this figure.",
                      _caption(spec), "sentence", "caption"),
        _perception_draft(rng, spec),
        _extraction_draft(rng, spec),
        _math_draft(rng, spec),
    ]
