"""Simulated road-map synthesis via a self-avoiding random walk.

One map = one walk on a GRID_ROWS x GRID_COLS grid (12 x 12) with
OBSTACLE_DENSITY (10%) of its cells blocked. Starting from a random free
cell, the walker picks its first direction uniformly from the open ones,
keeps it until a draw of TURN_PROB (0.30) or a blockage makes it pick again
uniformly, never revisits a cell, and stops when its budget of at most
MAX_STEPS (36) steps runs out or it is boxed in; the stopping cell becomes
the endpoint. Distractor branches are then grown off cells where the path
turns, one self-avoiding corridor each, never touching the rest of the
network, so a junction always coincides with a turn and a straight route
stays at difficulty 1. Neither the walk nor a branch ever runs alongside the
cells it joins, so the network is a tree and the route is its one path from
the start to the end.

A map stores its cells and its names: the network, the obstacles, the
`route` (the walk's cells, start first and end last), the landmark names and
the difficulty. Intersections (network degree >= 3) plus the start and end
cells are named from a fixed street-name list; the gold answer to the
navigation question is the ordered landmark-name sequence along the route,
including start and end, read off `route` when the question is drafted.

Difficulty is level = 1 + min(4, (turns + intersections) // 2), a documented
config-style formula: two turns plus two intersections is exactly level 3.

Neighbours are never worked out by coordinate arithmetic: `_GRID`, built at
import, maps each cell in row-major order to its in-grid neighbours by
direction, in DIRECTIONS order, for the walk, the branches, the junction scan
and the obstacle draw. The scene reads `_CENTER`, each cell's canvas centre
and down and right neighbours, and draws each road once, from whichever of
its cells sorts first.

Every map is drawn on the same grid, so a road is fixed by its cell and its
down or right neighbour, and an obstacle or a start, end or landmark marker
by its cell. Each is made by a cached helper the first time a map needs it,
so its shape constructor checks and renders it once per process: at most 264
roads, 144 obstacles and 432 markers. Only the labels, whose text is the
map's own, are made per map.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import ceil
from random import Random

from .records import QuestionDraft
from .scene import (
    Canvas, Primitive, SceneBuilder, SceneGraph, StyleSpec, circle, line, rect, text,
)
from .seeds import derive_seed, fields_of

Cell = tuple[int, int]  # (row, col)

DIRECTIONS: dict[str, Cell] = {
    "up": (-1, 0),
    "down": (1, 0),
    "left": (0, -1),
    "right": (0, 1),
}

STREET_NAMES: tuple[str, ...] = (
    "Oak", "Pine", "Elm", "Maple", "Cedar", "Birch", "Willow", "Aspen",
    "Holly", "Laurel", "Magnolia", "Juniper", "Hazel", "Alder", "Poplar", "Spruce",
    "Main", "High", "Park", "Lake", "Hill", "River", "Bridge", "Mill",
    "Church", "Market", "Station", "Harbor", "Garden", "Meadow", "Orchard", "Valley",
    "Sunset", "Sunrise", "Summit", "Ridge", "Canyon", "Prairie", "Forest", "Grove",
    "Brook", "Spring", "Fountain", "Crescent", "Liberty", "Union", "Victory", "Camden",
    "Baker", "Carter", "Dalton", "Ellis", "Foster", "Granger", "Hudson", "Irving",
    "Jasper", "Keaton", "Langley", "Mercer", "Norton", "Oswald", "Preston", "Quincy",
)

GRID_ROWS = 12
GRID_COLS = 12
TURN_PROB = 0.30
MAX_STEPS = 36
OBSTACLE_DENSITY = 0.10
MAX_BRANCHES = 4
BRANCH_MIN_LEN = 2
BRANCH_MAX_LEN = 5
MIN_GOLD_CELLS = 3
RESEED_ATTEMPTS = 20


class DegenerateMap(ValueError):
    """No attempt produced a usable gold path."""


@dataclass(frozen=True)
class RoadMapSpec:
    network: frozenset[Cell]
    obstacles: frozenset[Cell]
    route: tuple[Cell, ...]  # the walk's cells, start first and end last
    landmark_names: dict[Cell, str]
    difficulty: int

    def to_dict(self) -> dict:
        return fields_of(self)


def _corners(cells: list[Cell] | tuple[Cell, ...]) -> list[Cell]:
    """The cells where the path changes direction, in path order."""
    return [b for a, b, c in zip(cells, cells[1:], cells[2:])
            if (b[0] - a[0], b[1] - a[1]) != (c[0] - b[0], c[1] - b[1])]


# Every cell of the grid, in row-major order, mapped to its in-grid
# neighbours as (direction, cell) pairs, in DIRECTIONS order. Nothing mutates
# it.
_GRID: dict[Cell, tuple[tuple[str, Cell], ...]] = {
    (r, c): tuple((d, (r + dr, c + dc)) for d, (dr, dc) in DIRECTIONS.items()
                  if 0 <= r + dr < GRID_ROWS and 0 <= c + dc < GRID_COLS)
    for r in range(GRID_ROWS) for c in range(GRID_COLS)
}
_CELLS = tuple(_GRID)
_N_OBSTACLES = int(OBSTACLE_DENSITY * GRID_ROWS * GRID_COLS)


def _open_steps(cell: Cell, taken: set[Cell], obstacles: set[Cell]) -> dict[str, Cell]:
    """The grid neighbours of `cell`, itself in `taken`, that a corridor may
    grow into, keyed by direction, in DIRECTIONS order: free, untaken,
    and touching `taken` only through `cell`, so the corridor never runs
    alongside itself or the rest of the network (a fold would draw a
    shortcut edge and make the gold route ambiguous)."""
    steps = {}
    for d, nxt in _GRID[cell]:
        if nxt in taken or nxt in obstacles:
            continue
        for _, other in _GRID[nxt]:
            if other in taken and other != cell:
                break
        else:
            steps[d] = nxt
    return steps


def classify_difficulty(turns: int, intersections: int) -> int:
    """Map complexity level 1..5, monotone in turns and intersections."""
    return 1 + min(4, (turns + intersections) // 2)


def _uniform_direction(rng: Random, valid: list[str]) -> str:
    """A direction drawn uniformly from `valid` with one rng.random():
    a draw of u picks the first i with u * len(valid) <= i + 1, so a draw on
    a boundary takes the lower index."""
    return valid[max(ceil(rng.random() * len(valid)) - 1, 0)]


def _walk(rng: Random, obstacles: set[Cell]) -> list[Cell]:
    free = [cell for cell in _CELLS if cell not in obstacles]
    start = free[rng.randrange(len(free))]
    budget = rng.randint(MIN_GOLD_CELLS + 1, MAX_STEPS)
    path = [start]
    visited = {start}
    direction: str | None = None
    for _ in range(budget):
        steps = _open_steps(path[-1], visited, obstacles)
        if not steps:
            break  # boxed in
        # The turn draw is made whenever there is a direction to keep, even
        # when that direction is blocked: the rng stream, and so every map,
        # depends on it.
        if direction is None or rng.random() < TURN_PROB or direction not in steps:
            direction = _uniform_direction(rng, list(steps))
        path.append(steps[direction])
        visited.add(steps[direction])
    return path


def _grow_branch(rng: Random, network: set[Cell], obstacles: set[Cell], attach: Cell,
                 length: int) -> None:
    """Add to `network` a self-avoiding corridor growing out of `attach`; each
    new cell touches the existing network only through its predecessor."""
    current = attach
    for _ in range(length):
        options = list(_open_steps(current, network, obstacles).values())
        if not options:
            break
        current = options[rng.randrange(len(options))]
        network.add(current)


def generate_map(seed: int) -> RoadMapSpec:
    """Generate a deterministic road map for `seed`.

    Raises DegenerateMap if no attempt out of RESEED_ATTEMPTS produces a gold
    path of at least MIN_GOLD_CELLS cells. The landmark names always suffice:
    a path of at most MAX_STEPS + 1 cells plus MAX_BRANCHES branches of at
    most BRANCH_MAX_LEN cells is no more cells than STREET_NAMES has names.
    """
    path: list[Cell] = []
    for attempt in range(RESEED_ATTEMPTS):
        rng = Random(derive_seed(seed, "map", attempt))
        obstacles = set(rng.sample(_CELLS, _N_OBSTACLES))
        path = _walk(rng, obstacles)
        if len(path) >= MIN_GOLD_CELLS:
            break
    else:
        raise DegenerateMap(
            f"no gold path of >= {MIN_GOLD_CELLS} cells after {RESEED_ATTEMPTS} attempts"
        )

    network: set[Cell] = set(path)
    # Distractor branches grow out of corner cells, so an added junction is
    # always paired with a turn and a zero-turn path keeps difficulty 1.
    corners = _corners(path)
    if corners:
        n_branches = rng.randint(0, min(MAX_BRANCHES, len(corners)))
        attach_cells = rng.sample(corners, n_branches)
        for attach in attach_cells:
            _grow_branch(rng, network, obstacles, attach,
                         rng.randint(BRANCH_MIN_LEN, BRANCH_MAX_LEN))

    junctions = set()
    for cell in network:
        degree = 0
        for _, other in _GRID[cell]:
            if other in network:
                degree += 1
        if degree >= 3:
            junctions.add(cell)
    ordered = sorted(junctions | {path[0], path[-1]})
    names = list(STREET_NAMES)
    rng.shuffle(names)
    landmark_names = {cell: names[i] for i, cell in enumerate(ordered)}

    turns = len(corners)
    intersections = sum(c in junctions for c in path)
    return RoadMapSpec(
        network=frozenset(network),
        obstacles=frozenset(obstacles),
        route=tuple(path),
        landmark_names=landmark_names,
        difficulty=classify_difficulty(turns, intersections),
    )


# ---------------------------------------------------------------------------
# Scene

CELL_PX = 36.0
MARGIN_PX = 38.0
LABEL_FONT = 9.0

_ROAD_STYLE = StyleSpec(stroke="gray", stroke_width=9.0)
_OBSTACLE_STYLE = StyleSpec(fill="brown", stroke="black", stroke_width=0.5)
_NODE_STYLE = StyleSpec(fill="black")
_START_STYLE = StyleSpec(fill="green", stroke="black", stroke_width=1.0)
_END_STYLE = StyleSpec(fill="red", stroke="black", stroke_width=1.0)
_LABEL_STYLE = StyleSpec(font_size=LABEL_FONT)


# Every cell's canvas centre, then its down and right neighbours from _GRID,
# in that order: the road to each is drawn from this cell. Nothing mutates it.
_CENTER: dict[Cell, tuple[float, float, tuple[Cell, ...]]] = {
    (r, c): (MARGIN_PX + c * CELL_PX, MARGIN_PX + r * CELL_PX,
             tuple(other for d, other in links if d in ("down", "right")))
    for (r, c), links in _GRID.items()
}


_CANVAS = Canvas(
    int(2 * MARGIN_PX + (GRID_COLS - 1) * CELL_PX),
    int(2 * MARGIN_PX + (GRID_ROWS - 1) * CELL_PX),
    background=(250, 247, 240),
)


# The shared parts of a map, each made the first time a scene needs it.
@cache
def _roads_from(cell: Cell) -> tuple[tuple[Cell, Primitive], ...]:
    """The road from `cell` to each of its down and right neighbours."""
    x, y, down_right = _CENTER[cell]
    return tuple((other, line(x, y, *_CENTER[other][:2], _ROAD_STYLE, "roads"))
                 for other in down_right)


@cache
def _obstacle(cell: Cell) -> Primitive:
    x, y, _ = _CENTER[cell]
    return rect(x - 8, y - 8, 16, 16, _OBSTACLE_STYLE, "obstacles", z=1)


@cache
def _marker(cell: Cell, role: str) -> Primitive:
    """The start, end or landmark marker at `cell`, by its role."""
    x, y, _ = _CENTER[cell]
    if role == "start_marker":
        return circle(x, y, 8, _START_STYLE, role, z=3)
    if role == "end_marker":
        return rect(x - 7, y - 7, 14, 14, _END_STYLE, role, z=3)
    return circle(x, y, 4.5, _NODE_STYLE, role, z=2)


def build_map_scene(spec: RoadMapSpec) -> SceneGraph:
    """Draw the road network, obstacles, landmark labels, and start/end
    markers. The gold path itself is not highlighted (it is the answer).
    Roads, obstacles and markers come from the cached helpers; only the
    labels, whose text is the spec's, are made per scene."""
    b = SceneBuilder(_CANVAS)
    network = spec.network
    # Each road is drawn from its first cell in sorted order, which is the
    # cell above it or to its left, so only down and right are looked at.
    for cell in sorted(network):
        for other, road in _roads_from(cell):
            if other in network:
                b.add(road)
    for cell in sorted(spec.obstacles):
        b.add(_obstacle(cell))

    start, end = spec.route[0], spec.route[-1]
    for cell, name in sorted(spec.landmark_names.items()):
        role = ("start_marker" if cell == start else "end_marker" if cell == end
                else "landmarks")
        b.add(_marker(cell, role))
        x, y, _ = _CENTER[cell]
        ly = y - 13.0 - LABEL_FONT if (cell[0] + cell[1]) % 2 == 0 else y + 11.0
        b.add(text(x, ly, name, _LABEL_STYLE, "landmark_labels", anchor="middle", z=4))
    return b.build()


def map_questions(spec: RoadMapSpec) -> list[QuestionDraft]:
    """The one navigation question: the route's landmark names in order,
    including the start and end cells (the recorded convention)."""
    route, names = spec.route, spec.landmark_names
    start_name, end_name = names[route[0]], names[route[-1]]
    sequence = ", ".join(names[cell] for cell in route if cell in names)
    question = (
        f"Plan a route on this road map from {start_name} to {end_name}. "
        f"List, in order, the names of all marked points you pass through, "
        f"including the start and the end."
    )
    rationale = (
        f"Starting at {start_name}, the road leads through "
        f"{sequence} and ends at {end_name}."
    )
    return [QuestionDraft(question, sequence, "landmark_sequence", "navigation",
                          rationale=rationale)]
