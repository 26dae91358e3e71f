"""Visual puzzles and floor-plan layouts."""

from absynth.puzzles import (
    DiffPairSpec, FloorPlanSpec, OPTION_LETTERS, PanelSpec, PatternRule, Room,
    apply_transform, build_comparison_scene, build_floorplan_scene, build_induction_scene,
    diff_panel_primitives, layout_questions,
    puzzle_questions, sample_diff_pair, sample_floorplan, sample_pattern_rule, sample_puzzle,
    shared_wall, shown_panels,
)
from absynth.scene import overlap_pairs
from tests_helpers import role_indices


def correct_panel(rule: PatternRule) -> PanelSpec:
    """The panel that continues the shown ones."""
    return apply_transform(shown_panels(rule)[-1], rule.transform)


def panel_attribute_diffs(a: PanelSpec, b: PanelSpec) -> int:
    return sum((
        a.shape != b.shape,
        a.angle != b.angle,
        a.count != b.count,
        abs(a.size - b.size) > 1e-9,
        a.color != b.color,
    ))


def room(spec: FloorPlanSpec, name: str) -> Room:
    return next(r for r in spec.rooms if r.name == name)


def test_rotate_rule_application():
    base = PanelSpec("arrow", 0.0, 1, 1.0, "red")
    rule = ("rotate", 90.0)
    seq = [base]
    for _ in range(3):
        seq.append(apply_transform(seq[-1], rule))
    assert [p.angle for p in seq] == [0.0, 90.0, 180.0, 270.0]


def test_count_rule_2_3_4_gives_5():
    base = PanelSpec("circle", 0.0, 2, 0.55, "blue")
    rule = PatternRule(base, ("count", 1.0), 3,
                       (base, base, base, base), 0)  # options unused here
    assert [p.count for p in shown_panels(rule)] == [2, 3, 4]
    assert correct_panel(rule).count == 5


def test_exactly_one_option_satisfies_rule():
    for seed in range(150):
        rule = sample_pattern_rule(seed)
        correct = correct_panel(rule)
        matches = [i for i, o in enumerate(rule.options) if o == correct]
        assert matches == [rule.correct_index]
        for i, option in enumerate(rule.options):
            if i != rule.correct_index:
                assert panel_attribute_diffs(option, correct) == 1


def test_options_pairwise_distinct():
    for seed in range(100):
        rule = sample_pattern_rule(seed)
        assert len(set(rule.options)) == 4


def test_induction_answer_is_letter():
    for seed in range(40):
        rule = sample_pattern_rule(seed)
        (draft,) = puzzle_questions(rule)
        assert draft.answer == OPTION_LETTERS[rule.correct_index]
        assert draft.answer_kind == "choice"


def test_diff_manifest_length_matches_d():
    for seed in range(150):
        spec = sample_diff_pair(seed)
        assert 1 <= len(spec.diff_manifest) <= 3


def structural_diff_count(spec: DiffPairSpec) -> int:
    """Independent diff oracle over the rendered panel primitives.

    Compares the two panels cell by cell; a move shows up as one vanished
    cell plus one appeared cell with identical appearance, and counts once.
    """
    def by_cell(items):
        prims = diff_panel_primitives(items, 0.0, 0.0)
        return {item.cell: (prim.kind, prim.geometry, prim.style)
                for item, prim in zip(sorted(items, key=lambda i: i.cell), prims)}

    base = by_cell(spec.base_items)
    variant = by_cell(spec.variant_items)
    changed = sum(1 for c in base if c in variant and base[c] != variant[c])
    gone = [c for c in base if c not in variant]
    appeared = [c for c in variant if c not in base]
    moves = 0
    for c in list(gone):
        base_item = next(i for i in spec.base_items if i.cell == c)
        for a in list(appeared):
            var_item = next(i for i in spec.variant_items if i.cell == a)
            if (base_item.shape, base_item.color) == (var_item.shape, var_item.color):
                moves += 1
                gone.remove(c)
                appeared.remove(a)
                break
    return changed + moves + len(gone) + len(appeared)


def test_structural_diff_oracle_matches_manifest():
    for seed in range(150):
        spec = sample_diff_pair(seed)
        assert structural_diff_count(spec) == len(spec.diff_manifest), seed


def test_comparison_questions():
    spec = sample_diff_pair(5)
    drafts = puzzle_questions(spec)
    count = next(d for d in drafts if d.question_type == "diff_count")
    assert count.answer == str(len(spec.diff_manifest))
    describe = next(d for d in drafts if d.question_type == "diff_describe")
    assert describe.answer == spec.diff_manifest[0]
    assert set(describe.alternates) == set(spec.diff_manifest[1:])


def test_puzzle_sampler_dispatch_and_determinism():
    kinds = set()
    for seed in range(40):
        spec = sample_puzzle(seed)
        assert spec == sample_puzzle(seed)
        kinds.add(type(spec).__name__)
    assert kinds == {"PatternRule", "DiffPairSpec"}


def test_puzzle_scenes_build():
    for seed in range(30):
        spec = sample_puzzle(seed)
        if isinstance(spec, PatternRule):
            scene = build_induction_scene(spec)
            assert len(role_indices(scene, "option_labels")) == 4
        else:
            scene = build_comparison_scene(spec)
            assert len(role_indices(scene, "panels")) == 2


# -- floor plans ------------------------------------------------------------


def square_room(name, x, y, w, h, fixtures=()):
    return Room(name, (x, y, w, h), fixtures)


def test_floorplan_rooms_disjoint_and_named():
    for seed in range(100):
        spec = sample_floorplan(seed)
        names = [r.name for r in spec.rooms]
        assert len(set(names)) == len(names)
        for i, a in enumerate(spec.rooms):
            for b in spec.rooms[i + 1:]:
                ax, ay, aw, ah = a.bounds
                bx, by, bw, bh = b.bounds
                overlap_w = min(ax + aw, bx + bw) - max(ax, bx)
                overlap_h = min(ay + ah, by + bh) - max(ay, by)
                assert overlap_w <= 1e-6 or overlap_h <= 1e-6, (seed, a.name, b.name)


def test_floorplan_connected_via_doors():
    for seed in range(100):
        spec = sample_floorplan(seed)
        adjacency: dict[str, set[str]] = {r.name: set() for r in spec.rooms}
        for a, b in spec.doors:
            adjacency[a].add(b)
            adjacency[b].add(a)
        seen = {spec.rooms[0].name}
        frontier = [spec.rooms[0].name]
        while frontier:
            frontier = [n for room in frontier for n in adjacency[room] - seen
                        if not seen.add(n)]
        assert seen == {r.name for r in spec.rooms}, seed


def test_largest_room_answer_is_argmax():
    rooms = (square_room("Kitchen", 0, 0, 120, 100),
             square_room("Bedroom 1", 120, 0, 90, 100),
             square_room("Study", 0, 100, 60, 100))
    spec = FloorPlanSpec("architectural", rooms,
                         (("Kitchen", "Bedroom 1"), ("Kitchen", "Study")))
    drafts = layout_questions(spec)
    largest = next(d for d in drafts if d.question_type == "largest_room")
    assert largest.answer == "Kitchen"
    assert largest.alternates == ()
    smallest = next(d for d in drafts if d.question_type == "smallest_room")
    assert smallest.answer == "Study"


def test_area_tie_produces_alternates():
    rooms = (square_room("Bedroom 1", 0, 0, 100, 100),
             square_room("Bedroom 2", 100, 0, 100, 100),
             square_room("Bathroom", 0, 100, 50, 40))
    spec = FloorPlanSpec("architectural", rooms,
                         (("Bedroom 1", "Bedroom 2"), ("Bedroom 1", "Bathroom")))
    largest = next(d for d in layout_questions(spec) if d.question_type == "largest_room")
    assert {largest.answer, *largest.alternates} == {"Bedroom 1", "Bedroom 2"}


def test_argmax_invariant_under_uniform_scaling():
    for seed in range(40):
        spec = sample_floorplan(seed)
        scaled = FloorPlanSpec(
            spec.style,
            tuple(Room(r.name, tuple(v * 2 for v in r.bounds), r.fixtures)
                  for r in spec.rooms),
            spec.doors,
        )
        def answer(s, qt):
            return next(d for d in layout_questions(s) if d.question_type == qt).answer
        assert answer(spec, "largest_room") == answer(scaled, "largest_room")
        assert answer(spec, "smallest_room") == answer(scaled, "smallest_room")


def brute_force_areas(spec):
    return {r.name: r.bounds[2] * r.bounds[3] for r in spec.rooms}


def test_area_answers_match_brute_force():
    for seed in range(60):
        spec = sample_floorplan(seed)
        areas = brute_force_areas(spec)
        drafts = layout_questions(spec)
        largest = next(d for d in drafts if d.question_type == "largest_room")
        assert areas[largest.answer] == max(areas.values())
        smallest = next(d for d in drafts if d.question_type == "smallest_room")
        assert areas[smallest.answer] == min(areas.values())


def test_containment_answer_matches_fixtures():
    seen_yes = seen_no = False
    for seed in range(80):
        spec = sample_floorplan(seed)
        draft = next(d for d in layout_questions(spec) if d.question_type == "containment")
        room_name = draft.question.split("Does the ")[1].split(" contain")[0]
        fixture = draft.question.rsplit("contain a ", 1)[1].rstrip("?")
        expected = "Yes" if fixture in room(spec, room_name).fixtures else "No"
        assert draft.answer == expected
        seen_yes |= expected == "Yes"
        seen_no |= expected == "No"
    assert seen_yes and seen_no


def test_adjacency_answer_matches_geometry():
    for seed in range(60):
        spec = sample_floorplan(seed)
        draft = next(d for d in layout_questions(spec) if d.question_type == "adjacency")
        inner = draft.question.split("Is the ")[1].rstrip("?")
        a_name, b_name = inner.split(" directly adjacent to the ")
        expected = "Yes" if shared_wall(room(spec, a_name), room(spec, b_name)) > 0 else "No"
        assert draft.answer == expected


def test_floorplan_scene_builds_without_room_overlap():
    for seed in range(40):
        scene = build_floorplan_scene(sample_floorplan(seed))
        rooms = role_indices(scene, "rooms")
        assert overlap_pairs(scene, rooms) == []
        assert len(role_indices(scene, "room_labels")) == len(rooms)
