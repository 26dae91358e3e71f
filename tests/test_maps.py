"""Road-map generation, difficulty classification, and navigation drafts."""

from collections import Counter
from random import Random

import pytest

from absynth import maps
from absynth.maps import (
    BRANCH_MAX_LEN, BRANCH_MIN_LEN, CELL_PX, GRID_COLS, GRID_ROWS, MARGIN_PX, MAX_BRANCHES,
    MAX_STEPS, MIN_GOLD_CELLS, OBSTACLE_DENSITY, RESEED_ATTEMPTS, STREET_NAMES, TURN_PROB,
    DegenerateMap, DIRECTIONS, RoadMapSpec, _corners, _ROAD_STYLE, build_map_scene,
    classify_difficulty, generate_map, map_questions,
)
from absynth.scene import bounding_box, line, overlap_pairs
from absynth.seeds import derive_seed
from tests_helpers import role_indices


def count_turns(cells):
    return len(_corners(cells))


# ---------------------------------------------------------------------------
# The sampler and road loop as they were before the neighbour table, which
# worked every neighbour out by coordinate arithmetic and drew directions by
# accumulating per-direction weights, all 0.25. Kept as the reference the
# table-driven code must match spec for spec and line for line.

_DIR_ORDER = ("up", "down", "left", "right")


def network_degree(cell, network):
    r, c = cell
    return sum((r + dr, c + dc) in network for dr, dc in DIRECTIONS.values())


def reference_open_steps(cell, taken, obstacles):
    steps = {}
    for d in _DIR_ORDER:
        dr, dc = DIRECTIONS[d]
        nxt = (cell[0] + dr, cell[1] + dc)
        if (0 <= nxt[0] < GRID_ROWS and 0 <= nxt[1] < GRID_COLS and nxt not in taken
                and nxt not in obstacles and network_degree(nxt, taken) == 1):
            steps[d] = nxt
    return steps


def reference_weighted_direction(rng, valid):
    weights = [0.25 for _ in valid]
    roll = rng.random() * sum(weights)
    acc = 0.0
    for d, w in zip(valid, weights):
        acc += w
        if roll <= acc:
            return d
    return valid[-1]


def reference_walk(rng, obstacles):
    free = [(r, c) for r in range(GRID_ROWS) for c in range(GRID_COLS) if (r, c) not in obstacles]
    start = free[rng.randrange(len(free))]
    budget = rng.randint(MIN_GOLD_CELLS + 1, MAX_STEPS)
    path = [start]
    visited = {start}
    direction = None
    for _ in range(budget):
        steps = reference_open_steps(path[-1], visited, obstacles)
        valid = list(steps)
        if not valid:
            break
        if direction is None or rng.random() < TURN_PROB:
            chosen = reference_weighted_direction(rng, valid)
        elif direction in valid:
            chosen = direction
        else:
            chosen = reference_weighted_direction(rng, valid)
        direction = chosen
        path.append(steps[chosen])
        visited.add(steps[chosen])
    return path


def reference_grow_branch(rng, network, obstacles, attach, length):
    current = attach
    for _ in range(length):
        options = list(reference_open_steps(current, network, obstacles).values())
        if not options:
            break
        current = options[rng.randrange(len(options))]
        network.add(current)


def reference_generate_map(seed):
    path = []
    rng = Random()
    for attempt in range(RESEED_ATTEMPTS):
        rng = Random(derive_seed(seed, "map", attempt))
        all_cells = [(r, c) for r in range(GRID_ROWS) for c in range(GRID_COLS)]
        obstacles = set(rng.sample(all_cells, int(OBSTACLE_DENSITY * GRID_ROWS * GRID_COLS)))
        path = reference_walk(rng, obstacles)
        if len(path) >= MIN_GOLD_CELLS:
            break
    else:
        raise DegenerateMap(
            f"no gold path of >= {MIN_GOLD_CELLS} cells after {RESEED_ATTEMPTS} attempts"
        )
    network = set(path)
    corners = _corners(path)
    if corners:
        n_branches = rng.randint(0, min(MAX_BRANCHES, len(corners)))
        for attach in rng.sample(corners, n_branches):
            reference_grow_branch(rng, network, obstacles,
                                  attach, rng.randint(BRANCH_MIN_LEN, BRANCH_MAX_LEN))
    frozen_network = frozenset(network)
    start, end = path[0], path[-1]
    junctions = {c for c in network if network_degree(c, frozen_network) >= 3}
    ordered = sorted(junctions | {start, end})
    names = list(STREET_NAMES)
    rng.shuffle(names)
    if len(ordered) > len(names):
        raise DegenerateMap("more intersections than available landmark names")
    landmark_names = {cell: names[i] for i, cell in enumerate(ordered)}
    difficulty = classify_difficulty(count_turns(path), sum(c in junctions for c in path))
    return RoadMapSpec(frozen_network, frozenset(obstacles), tuple(path), landmark_names,
                       difficulty)


def reference_center(cell):
    r, c = cell
    return (MARGIN_PX + c * CELL_PX, MARGIN_PX + r * CELL_PX)


def reference_roads(spec):
    """Every road line, in draw order and with its role, from the loop that
    kept a drawn set and worked out centres and neighbours by arithmetic."""
    roads, drawn = [], set()
    for cell in sorted(spec.network):
        x, y = reference_center(cell)
        for dr, dc in DIRECTIONS.values():
            other = (cell[0] + dr, cell[1] + dc)
            if other in spec.network and (other, cell) not in drawn:
                ox, oy = reference_center(other)
                roads.append(line(x, y, ox, oy, _ROAD_STYLE, "roads"))
                drawn.add((cell, other))
    return roads


def test_sampler_and_roads_match_reference_at_defaults():
    for seed in range(2000):
        spec = generate_map(seed)
        assert spec == reference_generate_map(seed), seed
        scene = build_map_scene(spec)
        assert [p for p in scene.primitives if p.role == "roads"] == reference_roads(spec), seed


class FixedDraw:
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_direction_draw_matches_reference_on_boundaries():
    """A draw that lands exactly on a boundary between directions takes the
    lower index, as the accumulating draw does. Random seeds almost never hit
    a boundary, so the draws are fixed here."""
    for k in range(1, 5):
        valid = list(range(k))
        draws = [i / k for i in range(k)] + [i / k + 1e-12 for i in range(k)] + [1 - 2**-53]
        for u in draws:
            assert (maps._uniform_direction(FixedDraw(u), valid)
                    == reference_weighted_direction(FixedDraw(u), valid)), (k, u)


def one_cell_walk(rng, obstacles):
    return [(0, 0)]


def test_degenerate_map_message_matches_reference(monkeypatch):
    monkeypatch.setattr(maps, "_walk", one_cell_walk)
    monkeypatch.setitem(globals(), "reference_walk", one_cell_walk)
    with pytest.raises(DegenerateMap) as expected:
        reference_generate_map(0)
    with pytest.raises(DegenerateMap) as actual:
        generate_map(0)
    assert str(actual.value) == str(expected.value)


def test_landmark_names_cover_the_largest_network():
    """Every junction, the start and the end get a distinct name. A network
    is at most the path's MAX_STEPS + 1 cells plus MAX_BRANCHES branches of
    BRANCH_MAX_LEN cells, so it never has more cells than there are names."""
    assert MAX_STEPS + 1 + MAX_BRANCHES * BRANCH_MAX_LEN <= len(set(STREET_NAMES))


def test_difficulty_formula_cases():
    assert classify_difficulty(0, 0) == 1
    assert classify_difficulty(2, 2) == 3
    assert classify_difficulty(5, 4) == 5
    assert classify_difficulty(1, 0) == 1
    assert classify_difficulty(1, 1) == 2


def test_difficulty_monotone_and_at_least_3_for_2_and_2():
    for t in range(8):
        for i in range(8):
            level = classify_difficulty(t, i)
            assert 1 <= level <= 5
            assert classify_difficulty(t + 1, i) >= level
            assert classify_difficulty(t, i + 1) >= level
            if t >= 2 and i >= 2:
                assert level >= 3


def test_same_seed_same_map():
    assert generate_map(17) == generate_map(17)


@pytest.fixture(scope="module")
def zero_turn_maps():
    """The maps among seeds 0-1999 whose gold path never turns."""
    specs = [spec for spec in map(generate_map, range(2000)) if not count_turns(spec.route)]
    assert len(specs) == 79
    return specs


def test_zero_turn_prob_gives_straight_level1_path(zero_turn_maps):
    for spec in zero_turn_maps:
        rows = {c[0] for c in spec.route}
        cols = {c[1] for c in spec.route}
        assert len(rows) == 1 or len(cols) == 1  # straight segment
        assert spec.difficulty == 1
        assert spec.network == set(spec.route)  # no branch, so no junction


def test_gold_path_valid_and_self_avoiding():
    for seed in range(100):
        spec = generate_map(seed)
        cells = spec.route
        assert len(cells) >= 3
        assert len(set(cells)) == len(cells)
        for a, b in zip(cells, cells[1:]):
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1
            assert a in spec.network and b in spec.network
        assert not (spec.obstacles & spec.network)
        turns = count_turns(cells)
        intersections = sum(1 for c in cells if network_degree(c, spec.network) >= 3)
        assert spec.difficulty == classify_difficulty(turns, intersections)


def test_landmark_names_unique_and_cover_start_end():
    for seed in range(50):
        spec = generate_map(seed)
        names = list(spec.landmark_names.values())
        assert len(names) == len(set(names))
        assert spec.route[0] in spec.landmark_names
        assert spec.route[-1] in spec.landmark_names
        for cell in spec.network:
            if network_degree(cell, spec.network) >= 3:
                assert cell in spec.landmark_names


def test_difficulty_distribution_over_1000_seeds():
    levels = Counter(generate_map(seed).difficulty for seed in range(1000))
    assert set(levels) == {1, 2, 3, 4, 5}
    assert sum(v for k, v in levels.items() if k >= 3) >= 500


def oracle_landmark_walk(spec):
    """Independent re-walk: BFS over the network restricted to the route's
    cells, reading off landmark names in visit order."""
    allowed = set(spec.route)
    start = spec.route[0]
    seen = {start}
    order = [start]
    frontier = [start]
    while frontier:
        nxt = []
        for cell in frontier:
            for dr, dc in DIRECTIONS.values():
                n = (cell[0] + dr, cell[1] + dc)
                if n in allowed and n not in seen:
                    seen.add(n)
                    order.append(n)
                    nxt.append(n)
        frontier = nxt
    return tuple(spec.landmark_names[c] for c in order if c in spec.landmark_names)


def test_landmark_sequence_matches_oracle_rewalk():
    for seed in range(100):
        spec = generate_map(seed)
        assert map_questions(spec)[0].answer == ", ".join(oracle_landmark_walk(spec)), seed


def drawn_cell(x, y):
    """The grid cell whose centre is drawn at canvas point (x, y)."""
    return round((y - MARGIN_PX) / CELL_PX), round((x - MARGIN_PX) / CELL_PX)


def test_drawn_network_is_a_tree_whose_one_start_to_end_path_is_the_route():
    """Read back off the scene, the roads form a tree over the network's
    cells, so the route is the only road path from the start marker to the
    end marker: a BFS over the whole network finds it."""
    for seed in range(500):
        spec = generate_map(seed)
        scene = build_map_scene(spec)
        links = {}
        roads = [p.geometry for p in scene.primitives if p.role == "roads"]
        for x1, y1, x2, y2 in roads:
            a, b = drawn_cell(x1, y1), drawn_cell(x2, y2)
            links.setdefault(a, []).append(b)
            links.setdefault(b, []).append(a)
        assert links.keys() == spec.network, seed
        assert len(roads) == len(links) - 1, seed
        [start] = [drawn_cell(*p.geometry[:2]) for p in scene.primitives
                   if p.role == "start_marker"]
        [end] = [drawn_cell(x + w / 2, y + h / 2) for p in scene.primitives
                 if p.role == "end_marker" for x, y, w, h in [p.geometry]]
        parent = {start: start}
        frontier = [start]
        while frontier:
            reached = []
            for cell in frontier:
                for other in links[cell]:
                    if other not in parent:
                        parent[other] = cell
                        reached.append(other)
            frontier = reached
        assert parent.keys() == links.keys(), seed  # connected: with n - 1 roads, a tree
        path = [end]
        while path[-1] != start:
            path.append(parent[path[-1]])
        assert tuple(reversed(path)) == spec.route, seed


def test_map_instruction_answer_is_landmark_sequence():
    spec = generate_map(123)
    draft = map_questions(spec)[0]
    names = spec.landmark_names
    assert draft.answer == ", ".join(names[c] for c in spec.route if c in names)
    assert draft.answer_kind == "landmark_sequence"
    start_name = names[spec.route[0]]
    end_name = names[spec.route[-1]]
    assert start_name in draft.question and end_name in draft.question


def test_single_landmark_degenerate_sequence(zero_turn_maps):
    # Straight path: only start and end are named.
    for spec in zero_turn_maps:
        assert len(map_questions(spec)[0].answer.split(", ")) == 2
        assert spec.landmark_names.keys() == {spec.route[0], spec.route[-1]}


def test_scene_one_label_per_named_intersection():
    for seed in (1, 22, 333):
        spec = generate_map(seed)
        scene = build_map_scene(spec)
        labels = [p for p in scene.primitives if p.role == "landmark_labels"]
        texts = sorted(p.geometry[2] for p in labels)
        assert texts == sorted(spec.landmark_names.values())
        [start] = [p for p in scene.primitives if p.role == "start_marker"]
        [end] = [p for p in scene.primitives if p.role == "end_marker"]
        assert start.kind != end.kind  # distinct glyphs
        assert start.style.fill != end.style.fill  # distinct colors


def test_pathological_params_raise_degenerate_map(monkeypatch):
    # A walk that never leaves its start cell fails every reseed attempt.
    calls = []
    monkeypatch.setattr(maps, "_walk", lambda rng, obstacles: calls.append(rng) or [(0, 0)])
    with pytest.raises(DegenerateMap, match="20 attempts"):
        generate_map(0)
    assert len(calls) == RESEED_ATTEMPTS


def test_scene_fits_canvas_and_text_interference_bounded():
    for seed in range(30):
        spec = generate_map(seed)
        scene = build_map_scene(spec)
        for p in scene.primitives:
            x0, y0, x1, y1 = bounding_box(p)
            assert x0 >= 0 and y0 >= 0 and x1 <= scene.canvas.width and y1 <= scene.canvas.height
        area = sum(a for _, _, a in overlap_pairs(scene, role_indices(scene, "landmark_labels")))
        assert area <= 0.02 * scene.canvas.width * scene.canvas.height, seed
