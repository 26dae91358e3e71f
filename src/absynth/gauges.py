"""Instrument-dashboard synthesis: clocks, speedometers, fuel gauges,
thermometers, and barometers, each described by one row of the family table.

Clock hands follow the standard formulas (degrees clockwise from 12):
hour hand = 30 * (hour mod 12) + 0.5 * minute, minute hand = 6 * minute.
Clock readings are stored in 12-hour display form; answers always accept the
24-hour twin as an alternate, because the dial itself cannot distinguish
morning from evening. Inverse-offset questions whose start time falls
between two hour marks accept both flanking numbers.

A DialSpec holds only what was sampled: the family, the reading and the
question knobs (offset, exercise_hours), so questions are a pure function of
the spec. It checks its family, its reading range and its knobs (a finite
offset; for a clock, whole offset hours and an exercise duration that has a
phrase) when it is constructed, so the builder and the questions do not.
The decoders read a dial back from its scene alone.

Each family row draws its dial in two parts: a `face`, which no reading
moves (the dial or tube, ticks, tick labels and hub), and a `mark`, which
shows the reading (the hands, needle or mercury). Both yield primitives
built with their roles, each checked and rendered by its shape constructor.
The face is drawn once per family and process by the cached `_face`, so every
dial of a family holds the same face primitives (107 for the five families);
the mark is drawn once per image and added after the face, and
the builder's stable sort by z then puts every primitive where a one-pass
build put it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from random import Random
from typing import Any, Callable, Iterable, Iterator

from .records import QuestionDraft, format_number
from .scene import (
    Canvas, Primitive, SceneBuilder, SceneGraph, StyleSpec, angle_point, arc, circle, line,
    rect, text,
)
from .seeds import derive_seed, fields_of

_DURATION_PHRASES: dict[float, str] = {
    0.5: "half an hour",
    1.0: "one hour",
    1.5: "one and a half hours",
    2.0: "two hours",
    2.5: "two and a half hours",
    3.0: "three hours",
}


@dataclass(frozen=True)
class DialSpec:
    family: str
    reading: tuple[int, int] | float  # clock: (hour, minute); others: value
    offset: float = 0.0  # hours for clocks, scale units otherwise
    exercise_hours: float = 0.0  # clocks only

    def __post_init__(self) -> None:
        if self.family not in _ROWS:
            raise ValueError(f"unknown dial family {self.family!r}")
        if not math.isfinite(self.offset):
            raise ValueError(f"offset {self.offset} is not finite")
        if self.family == "clock":
            hour, minute = self.reading
            if not (0 <= hour <= 23 and 0 <= minute <= 59):
                raise ValueError(f"clock reading {self.reading} out of range")
            if self.offset != int(self.offset):
                raise ValueError(f"clock offset {self.offset} is not a whole number of hours")
            if self.exercise_hours not in _DURATION_PHRASES:
                raise ValueError(f"clock exercise_hours {self.exercise_hours} is not one of "
                                 f"{sorted(_DURATION_PHRASES)}")
        else:
            lo, hi, _ = self.scale
            if not (lo <= float(self.reading) <= hi):
                raise ValueError(f"reading {self.reading} outside scale [{lo}, {hi}]")

    @property
    def scale(self) -> tuple[float, float, float] | None:
        """The family's (low end, high end, major step); None for a clock."""
        return _ROWS[self.family].scale

    def to_dict(self) -> dict:
        return fields_of(self)


def clock_angles(hour: int, minute: int) -> tuple[float, float]:
    """(hour hand, minute hand) in degrees clockwise from 12 o'clock."""
    return (30.0 * (hour % 12) + 0.5 * minute, 6.0 * minute)


def sample_dial_spec(seed: int) -> DialSpec:
    """The `dashboard` scenario's spec: a family from FAMILIES, its reading
    and its question knobs, all drawn from the seed's "dial" stream. Clock
    minutes are multiples of 5."""
    rng = Random(derive_seed(seed, "dial"))
    family = rng.choice(FAMILIES)
    if family == "clock":
        reading = (rng.randint(1, 12), 5 * rng.randint(0, 11))
        offset = float(rng.randint(1, 12))
        exercise = rng.choice(sorted(_DURATION_PHRASES))
        return DialSpec(family, reading, offset, exercise)
    row = _ROWS[family]
    reading = rng.randint(*row.readings) * row.grain
    delta = rng.randint(*row.offsets) * row.grain
    if rng.random() < 0.5:
        delta = -delta
    lo, hi, _ = row.scale
    if not (lo <= reading + delta <= hi):
        delta = -delta
    return DialSpec(family, reading, delta)


# ---------------------------------------------------------------------------
# Scenes

_FACE_STYLE = StyleSpec(stroke="black", stroke_width=2.5)
_TICK_STYLE = StyleSpec(stroke="black", stroke_width=1.5)
_HOUR_STYLE = StyleSpec(stroke="black", stroke_width=5.0)
_MINUTE_STYLE = StyleSpec(stroke="black", stroke_width=3.0)
_NEEDLE_STYLE = StyleSpec(stroke="red", stroke_width=3.0)


# The thermometer column runs this far below the scale's low end, into the bulb.
_BULB_OVERLAP = 12.0


def _scale_frac(value: float, scale: tuple[float, float, float]) -> float:
    """Where `value` sits on the scale, from 0 at its low end to 1 at its high end."""
    lo, hi, _ = scale
    return (value - lo) / (hi - lo)


def _ticks(scale: tuple[float, float, float]) -> list[float]:
    """The labelled values of a scale, one per major step from its low end."""
    lo, hi, step = scale
    return [lo + i * step for i in range(int(round((hi - lo) / step)) + 1)]


def _dial_hour(hour: int) -> int:
    """The number 1-12 on a clock face that `hour` (any integer) points at."""
    return hour % 12 or 12


def _dial_angle(row: _Family, value: float) -> float:
    """The angle at which a needle dial shows `value`."""
    start, sweep = row.arc
    return start + _scale_frac(value, row.scale) * sweep


# Where each kind of dial sits on its canvas: the face and the mark of a
# family are drawn from the same numbers.
_CLOCK_CENTER = 200.0
_CLOCK_RADIUS = 150.0
_NEEDLE_CX, _NEEDLE_CY = 200.0, 190.0
_NEEDLE_RADIUS = 120.0
_THERMOMETER_X = 130.0
_THERMOMETER_TOP = 40.0
_BAROMETER_X, _BAROMETER_Y = 50.0, 70.0

_HUB_STYLE = StyleSpec(fill="black")
_THERMOMETER_MERCURY_STYLE = StyleSpec(fill="red")
_BAROMETER_MERCURY_STYLE = StyleSpec(fill="cyan")


def _clock_face(row: _Family) -> Iterator[Primitive]:
    c = _CLOCK_CENTER
    radius = _CLOCK_RADIUS
    yield circle(c, c, radius, StyleSpec(stroke="black", stroke_width=3.0, fill="yellow"), "face")
    label_style = StyleSpec(font_size=row.font)
    for n in range(1, 13):
        deg = 30.0 * n
        x1, y1 = angle_point(c, c, radius - 8, deg)
        x2, y2 = angle_point(c, c, radius, deg)
        yield line(x1, y1, x2, y2, _TICK_STYLE, "ticks", z=1)
        nx, ny = angle_point(c, c, radius - 26, deg)
        yield text(nx, ny - row.font / 2.0, str(n), label_style, "numbers", anchor="middle", z=2)
    yield circle(c, c, 5, _HUB_STYLE, "hub", z=4)


def _clock_hands(row: _Family, reading: tuple[int, int]) -> Iterator[Primitive]:
    c = _CLOCK_CENTER
    hour_deg, minute_deg = clock_angles(*reading)
    hx, hy = angle_point(c, c, _CLOCK_RADIUS * 0.52, hour_deg)
    yield line(c, c, hx, hy, _HOUR_STYLE, "hour_hand", z=3)
    mx, my = angle_point(c, c, _CLOCK_RADIUS * 0.82, minute_deg)
    yield line(c, c, mx, my, _MINUTE_STYLE, "minute_hand", z=3)


def _needle_face(row: _Family) -> Iterator[Primitive]:
    cx, cy = _NEEDLE_CX, _NEEDLE_CY
    radius = _NEEDLE_RADIUS
    start, sweep = row.arc
    yield arc(cx, cy, radius, start, sweep, _FACE_STYLE, "face")
    label_style = StyleSpec(font_size=row.font)
    for v in _ticks(row.scale):
        deg = _dial_angle(row, v)
        x1, y1 = angle_point(cx, cy, radius - 10, deg)
        x2, y2 = angle_point(cx, cy, radius, deg)
        yield line(x1, y1, x2, y2, _TICK_STYLE, "ticks", z=1)
        lx, ly = angle_point(cx, cy, radius + 14, deg)
        yield text(lx, ly - row.font / 2.0, format_number(v), label_style, "tick_labels",
                   anchor="middle", z=2)
    yield circle(cx, cy, 5, _HUB_STYLE, "hub", z=4)


def _needle(row: _Family, reading: float) -> Iterator[Primitive]:
    cx, cy = _NEEDLE_CX, _NEEDLE_CY
    nx, ny = angle_point(cx, cy, _NEEDLE_RADIUS * 0.85, _dial_angle(row, float(reading)))
    yield line(cx, cy, nx, ny, _NEEDLE_STYLE, "needle", z=3)


def _thermometer_face(row: _Family) -> Iterator[Primitive]:
    length = row.length
    x = _THERMOMETER_X
    y_bottom = _THERMOMETER_TOP + length
    yield rect(x - 9, _THERMOMETER_TOP, 18, length, StyleSpec(stroke="black", stroke_width=2.0),
               "tube")
    yield circle(x, y_bottom + 20, 20, StyleSpec(stroke="black", stroke_width=2.0, fill="red"),
                 "bulb", z=1)
    label_style = StyleSpec(font_size=row.font)
    for v in _ticks(row.scale):
        y = y_bottom - _scale_frac(v, row.scale) * length
        yield line(x - 16, y, x - 9, y, _TICK_STYLE, "ticks")
        yield text(x - 20, y - row.font / 2.0, format_number(v), label_style, "tick_labels",
                   anchor="end")


def _thermometer_column(row: _Family, reading: float) -> Iterator[Primitive]:
    y_bottom = _THERMOMETER_TOP + row.length
    level = _scale_frac(float(reading), row.scale) * row.length
    yield rect(_THERMOMETER_X - 5, y_bottom - level, 10, level + _BULB_OVERLAP,
               _THERMOMETER_MERCURY_STYLE, "mercury", z=2)


def _barometer_face(row: _Family) -> Iterator[Primitive]:
    length = row.length
    x0, y0 = _BAROMETER_X, _BAROMETER_Y
    yield rect(x0, y0, length, 26, StyleSpec(stroke="black", stroke_width=2.0), "tube")
    label_style = StyleSpec(font_size=row.font)
    for v in _ticks(row.scale):
        x = x0 + _scale_frac(v, row.scale) * length
        yield line(x, y0 + 26, x, y0 + 34, _TICK_STYLE, "ticks", z=2)
        yield text(x, y0 + 38, format_number(v), label_style, "tick_labels", anchor="middle", z=2)


def _barometer_column(row: _Family, reading: float) -> Iterator[Primitive]:
    fill_w = _scale_frac(float(reading), row.scale) * row.length
    if fill_w > 0:
        yield rect(_BAROMETER_X, _BAROMETER_Y, fill_w, 26, _BAROMETER_MERCURY_STYLE, "mercury",
                   z=1)


# ---------------------------------------------------------------------------
# The family table


@dataclass(frozen=True)
class _Family:
    """One dial family. The fields after `build` describe a scale dial; a
    clock leaves them at their defaults."""

    canvas: Canvas
    font: float  # label font size, in px
    face: Callable[[_Family], Iterable[Primitive]]  # what no reading moves
    mark: Callable[[_Family, Any], Iterable[Primitive]]  # what shows the reading
    scale: tuple[float, float, float] | None = None  # low end, high end, major step
    arc: tuple[float, float] = (0.0, 0.0)  # a needle's start and sweep, in degrees
    length: float = 0.0  # a column's length, in px
    unit: str = ""
    question: str = ""  # the reading question
    grain: float = 1.0  # readings and offsets are whole multiples of this
    readings: tuple[int, int] = (0, 0)  # sampled reading range, in grains
    offsets: tuple[int, int] = (0, 0)  # sampled offset size range, in grains


_BACKGROUND = (245, 245, 245)

_ROWS: dict[str, _Family] = {
    "clock": _Family(Canvas(400, 400, _BACKGROUND), 16.0, _clock_face, _clock_hands),
    "speedometer": _Family(
        Canvas(400, 340, _BACKGROUND), 10.0, _needle_face, _needle, (0.0, 240.0, 20.0),
        arc=(225.0, 270.0), unit="km/h", grain=5.0, readings=(2, 44), offsets=(2, 8),
        question="What speed does the speedometer show, in km/h?"),
    "fuel": _Family(
        Canvas(400, 340, _BACKGROUND), 10.0, _needle_face, _needle, (0.0, 1.0, 0.25),
        arc=(270.0, 180.0), unit="of a full tank", grain=0.125, readings=(0, 8),
        offsets=(1, 3), question="What fraction of a full tank does the fuel gauge show?"),
    "thermometer": _Family(
        Canvas(260, 440, _BACKGROUND), 10.0, _thermometer_face, _thermometer_column,
        (-20.0, 50.0, 10.0),
        length=300.0, unit="degrees Celsius", readings=(-15, 45), offsets=(3, 15),
        question="What temperature does the thermometer show, in degrees Celsius?"),
    "barometer": _Family(
        Canvas(500, 180, _BACKGROUND), 10.0, _barometer_face, _barometer_column,
        (950.0, 1050.0, 10.0),
        length=400.0, unit="hPa", readings=(955, 1045), offsets=(5, 25),
        question="What pressure does the barometer show, in hPa?"),
}

FAMILIES = tuple(_ROWS)


@cache
def _face(family: str) -> tuple[Primitive, ...]:
    """The shared parts of a family's dial, drawn once per process."""
    row = _ROWS[family]
    return tuple(row.face(row))


def build_dial_scene(spec: DialSpec) -> SceneGraph:
    """The family's shared face, then its mark for the reading. The mark is
    added last, and the builder's stable sort by z puts each of its
    primitives where the face leaves room for it."""
    row = _ROWS[spec.family]
    b = SceneBuilder(row.canvas)
    for prim in _face(spec.family):
        b.add(prim)
    for prim in row.mark(row, spec.reading):
        b.add(prim)
    return b.build()


# ---------------------------------------------------------------------------
# Decoding: a dial's reading read back from its scene


def _line_angle(prim) -> float:
    x1, y1, x2, y2 = prim.geometry
    return math.degrees(math.atan2(x2 - x1, y1 - y2)) % 360.0


def decode_clock_scene(scene: SceneGraph) -> tuple[int, int]:
    """Recover (hour, minute) in 12-hour form from the hand angles."""
    hands = {p.role: p for p in scene.primitives if p.role in ("hour_hand", "minute_hand")}
    minute = round(_line_angle(hands["minute_hand"]) / 6.0) % 60
    return (_dial_hour(round((_line_angle(hands["hour_hand"]) - 0.5 * minute) / 30.0)), minute)


def decode_gauge_scene(scene: SceneGraph, family: str) -> float:
    """Recover the reading of a scale dial of `family` from its needle or
    column; a column that rises out of a bulb starts below the scale, and a
    column family with no column drawn reads the low end of its scale."""
    row = _ROWS[family]
    lo, hi, _ = row.scale
    marks = {p.role: p for p in scene.primitives if p.role in ("needle", "mercury", "bulb")}
    if "needle" in marks:
        start, sweep = row.arc
        frac = ((_line_angle(marks["needle"]) - start) % 360.0) / sweep
    elif "mercury" not in marks:  # a column of width 0 is not drawn
        return lo
    else:
        _, _, w, h = marks["mercury"].geometry
        frac = (h - _BULB_OVERLAP if "bulb" in marks else w) / row.length
    return lo + frac * (hi - lo)


# ---------------------------------------------------------------------------
# Questions


def format_clock(hour: int, minute: int) -> str:
    return f"{hour}:{minute:02d}"


def _clock_reading_draft(hour: int, minute: int) -> QuestionDraft:
    display = format_clock(hour, minute)
    alternate = format_clock((hour + 12) % 24 or 12, minute)
    return QuestionDraft("What time is shown on the dial?", display,
                         "phrase", "reading", alternates=(alternate,))


def _clock_offset_draft(hour: int, minute: int, offset: int) -> QuestionDraft:
    t1 = (hour + offset) % 24
    t2 = (hour + 12 + offset) % 24
    forms = []
    for h in (t1, t2, _dial_hour(t1)):
        form = format_clock(h, minute)
        if form not in forms:
            forms.append(form)
    question = (
        "When I left home, the clock showed the time indicated in the figure. "
        f"What time is it after {offset} hours of work?"
    )
    rationale = (
        f"I see that the clock shows the time as {format_clock(hour, minute)}. "
        f"After working for {offset} hours, the time should be {forms[0]}."
    )
    return QuestionDraft(question, forms[0], "phrase", "offset_math",
                         alternates=tuple(forms[1:]), rationale=rationale)


def _clock_inverse_draft(hour: int, minute: int, exercise_hours: float) -> QuestionDraft:
    duration = _DURATION_PHRASES[exercise_hours]
    total = (hour * 60 + minute - round(exercise_hours * 60)) % (12 * 60)
    start_hour, start_minute = divmod(total, 60)
    pointed, following = _dial_hour(start_hour), _dial_hour(start_hour + 1)
    question = (
        f"I exercised for {duration}. After finishing, the clock showed the time "
        "as illustrated. What number did the hour hand point to when I started "
        "my workout?"
    )
    alternates = (str(following),) if start_minute else ()
    rationale = (
        f"I read the time from the clock as {format_clock(hour, minute)}, and the workout "
        f"took {duration}. That means I started at {format_clock(pointed, start_minute)}, "
        f"so the hour hand pointed between {pointed} and {following}."
        if start_minute else
        f"I read the time from the clock as {format_clock(hour, minute)}, and the workout "
        f"took {duration}. That means I started exactly at {pointed} o'clock."
    )
    return QuestionDraft(question, str(pointed), "numeric", "inverse_reasoning",
                         alternates=alternates, rationale=rationale)


def dial_questions(spec: DialSpec) -> list[QuestionDraft]:
    """Reading question for every family; clocks add the offset-arithmetic
    and inverse-offset questions; other dials add an identification question
    and a scale-offset question."""
    if spec.family == "clock":
        hour, minute = spec.reading
        hour12 = _dial_hour(hour)
        return [
            _clock_reading_draft(hour12, minute),
            _clock_offset_draft(hour12, minute, int(spec.offset)),
            _clock_inverse_draft(hour12, minute, spec.exercise_hours),
        ]
    row = _ROWS[spec.family]
    reading = float(spec.reading)
    drafts = [
        QuestionDraft(row.question, format_number(reading), "numeric", "reading"),
        QuestionDraft(
            "Which instrument is shown in this image?", spec.family, "phrase", "instrument"),
    ]
    direction = "increases" if spec.offset >= 0 else "decreases"
    magnitude = abs(spec.offset)
    result = reading + spec.offset
    question = (
        f"If the reading {direction} by {format_number(magnitude)} {row.unit}, "
        "what will the instrument read?"
    )
    rationale = (
        f"The {spec.family} currently reads {format_number(reading)}. "
        f"{format_number(reading)} {'+' if spec.offset >= 0 else '-'} "
        f"{format_number(magnitude)} = {format_number(result)}."
    )
    drafts.append(QuestionDraft(question, format_number(result), "numeric",
                                "offset_math", rationale=rationale))
    return drafts
