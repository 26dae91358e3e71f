"""Dial sampling, clock arithmetic, scene round-trips."""

from datetime import datetime, timedelta
from itertools import count, islice

import pytest

from absynth.gauges import (
    DialSpec, FAMILIES, build_dial_scene, clock_angles,
    decode_clock_scene, decode_gauge_scene, dial_questions, sample_dial_spec,
)
from absynth.records import canonicalize
from absynth.scene import bounding_box


def clock_spec(hour, minute, offset=8.0, exercise=1.5):
    return DialSpec("clock", (hour, minute), offset, exercise)


def answer_forms(draft):
    return {canonicalize(draft.answer)} | {canonicalize(a) for a in draft.alternates}


def sampled_dials(family, n):
    """The first `n` specs of `family` that the dashboard sampler draws."""
    specs = (sample_dial_spec(seed) for seed in count())
    return list(islice((spec for spec in specs if spec.family == family), n))


def test_810_hand_angles():
    assert clock_angles(8, 10) == (245.0, 60.0)


def test_sampling_deterministic():
    for seed in (0, 5, 99):
        assert sample_dial_spec(seed) == sample_dial_spec(seed)


def test_fuel_reading_within_tank_scale():
    for spec in sampled_dials("fuel", 40):
        assert 0.0 <= spec.reading <= 1.0


def test_all_families_sampled():
    families = {sample_dial_spec(seed).family for seed in range(200)}
    assert families == set(FAMILIES)


def test_clock_reading_answer_accepts_both_forms():
    drafts = dial_questions(clock_spec(8, 10))
    reading = next(d for d in drafts if d.question_type == "reading")
    assert answer_forms(reading) == {"8:10", "20:10"}


def test_paper_offset_answer_8_10_plus_8():
    drafts = dial_questions(clock_spec(8, 10, offset=8.0))
    offset = next(d for d in drafts if d.question_type == "offset_math")
    assert answer_forms(offset) == {"4:10", "16:10"}
    assert "8:10" in offset.rationale and "8 hours" in offset.rationale


def test_paper_inverse_answer_exercise_90_minutes():
    drafts = dial_questions(clock_spec(8, 10, exercise=1.5))
    inverse = next(d for d in drafts if d.question_type == "inverse_reasoning")
    assert answer_forms(inverse) == {"6", "7"}
    assert "8:10" in inverse.rationale and "one and a half hours" in inverse.rationale


def test_inverse_on_exact_hour_is_single_answer():
    drafts = dial_questions(clock_spec(9, 0, exercise=2.0))
    inverse = next(d for d in drafts if d.question_type == "inverse_reasoning")
    assert inverse.answer == "7"
    assert inverse.alternates == ()


def calendar_offset_oracle(hour, minute, offset_hours):
    """Independent clock arithmetic through the datetime calendar."""
    forms = set()
    for base_hour in (hour, (hour + 12) % 24):
        t = datetime(2000, 1, 1, base_hour % 24, minute) + timedelta(hours=offset_hours)
        forms.add(f"{t.hour}:{t.minute:02d}")
        display = t.hour % 12 or 12
        forms.add(f"{display}:{t.minute:02d}")
    return forms


def test_offset_answers_match_calendar_oracle():
    for spec in sampled_dials("clock", 120):
        hour, minute = spec.reading
        drafts = dial_questions(spec)
        offset = next(d for d in drafts if d.question_type == "offset_math")
        assert answer_forms(offset) == calendar_offset_oracle(hour, minute, int(spec.offset))


def test_gauge_offset_matches_scale_oracle():
    for seed in range(100):
        spec = sample_dial_spec(seed)
        if spec.family == "clock":
            continue
        drafts = dial_questions(spec)
        offset = next(d for d in drafts if d.question_type == "offset_math")
        assert float(offset.answer) == pytest.approx(float(spec.reading) + spec.offset)
        lo, hi, _ = spec.scale
        assert lo <= float(offset.answer) <= hi


def test_rationales_cite_base_and_offset():
    for seed in range(60):
        spec = sample_dial_spec(seed)
        for draft in dial_questions(spec):
            if draft.question_type == "offset_math":
                base = f"{spec.reading[0] % 12 or 12}:{spec.reading[1]:02d}" \
                    if spec.family == "clock" else str(int(float(spec.reading))) \
                    if float(spec.reading).is_integer() else str(spec.reading)
                assert base in draft.rationale
                assert draft.rationale


def test_clock_scene_round_trip():
    for spec in sampled_dials("clock", 60):
        scene = build_dial_scene(spec)
        hour, minute = spec.reading
        assert decode_clock_scene(scene) == (hour % 12 or 12, minute)


def test_gauge_scene_round_trip_within_half_minor_tick():
    for seed in range(80):
        spec = sample_dial_spec(seed)
        if spec.family == "clock":
            continue
        scene = build_dial_scene(spec)
        decoded = decode_gauge_scene(scene, spec.family)
        tolerance = spec.scale[2] / 10.0
        assert abs(decoded - float(spec.reading)) <= tolerance, (seed, spec.family)


@pytest.mark.parametrize("family", [f for f in FAMILIES if f != "clock"])
def test_gauge_scene_round_trip_at_both_ends_of_the_scale(family):
    [spec] = sampled_dials(family, 1)
    lo, hi, step = spec.scale
    for reading in (lo, hi):
        decoded = decode_gauge_scene(build_dial_scene(DialSpec(family, reading)), family)
        assert abs(decoded - reading) <= step / 10.0, (family, reading, decoded)


def test_scenes_stay_on_canvas():
    for seed in range(40):
        spec = sample_dial_spec(seed)
        scene = build_dial_scene(spec)
        for p in scene.primitives:
            x0, y0, x1, y1 = bounding_box(p)
            assert x0 >= 0 and y0 >= 0, (seed, spec.family, p)
            assert x1 <= scene.canvas.width and y1 <= scene.canvas.height, (seed, spec.family, p)


def test_thermometer_direct_reading():
    spec = DialSpec("thermometer", 23.0, 5.0)
    reading = next(d for d in dial_questions(spec) if d.question_type == "reading")
    assert reading.answer == "23"
