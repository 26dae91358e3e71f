"""Flowcharts (algorithm + workflow) and relation graphs (trees/graphs).

Tree constraints follow the generation contract: at most 8 nodes, at most 3
children per node, depth at most 3 levels, unique labels. Relation graphs
are trees plus up to 3 extra undirected edges; subtree-counting questions are
disabled once extra edges introduce cycles. The relation-graph sampler draws
an organization topic, a tree on it and its extra edges in one pass, and is
stricter than the contract: it also caps every layer's total width at 3.

A TreeSpec checks the tree contract when it is constructed, and a FlowSpec
checks its own (one start terminator, two labelled branches per decision,
every node reachable from the start), so layout and questions take every
spec as valid.

"How many nodes are there in X" questions count direct children, matching
the organization-chart convention where a unit's node count is its number of
departments.

A flowchart sits on fixed rows and draws its labels from fixed pools, so
every part of it recurs across flowcharts: its canvas (by height), node
boxes with their labels, arrow heads, edge lines, loop paths and branch
labels each come from a cached helper keyed by where the part sits and what
it says, and are checked and rendered once per process. A relation graph
shares the box and arrow-head makers but makes its parts per image: its
node positions follow the widths of a sampled tree's layers, so a cache of
them would keep growing with the run. Styles are module constants or come
from the interner `scene.style`, and the tree canvas is a module constant.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache
from random import Random

from .keywords import ALGORITHM_TOPICS, ORGANIZATION_TOPICS, WORKFLOW_TOPICS
from .records import QuestionDraft
from .scene import (
    Canvas, LayoutOverflow, Primitive, SceneBuilder, SceneGraph, StyleSpec,
    line, polygon, polyline, rect, style, text, text_width,
)
from .seeds import derive_seed, fields_of, question_seed

MAX_TREE_NODES = 8
MAX_CHILDREN = 3
MAX_DEPTH = 3

NODE_COLOR_POOL = ("cyan", "yellow", "pink", "olive", "orange", "green", "teal", "gray")

_DEPARTMENT_POOL = (
    "Operations", "Research", "Outreach", "Training", "Logistics", "Finance",
    "Analysis", "Field Work", "Archives", "Workshops", "Recruiting", "Planning",
    "Case Management", "Quality Control", "Maintenance", "Evaluation",
)
_LEAF_POOL = (
    "Evidence Collection", "Certifications", "Inventory", "Scheduling",
    "Reporting", "Inspection", "Cataloging", "Budgeting", "Screening",
    "Documentation", "Dispatch", "Admissions", "Permits", "Surveys",
    "Mentoring", "Storage",
)
_DECOY_POOL = (
    "Space Elevator Office", "Submarine Choir", "Dragon Relations",
    "Time Travel Desk", "Cloud Sculpting",
)

_WORKFLOW_STEPS = (
    "Gather materials", "Review requirements", "Prepare a draft",
    "Check the quality", "Collect feedback", "Apply corrections",
    "Get approval", "Deliver the result",
)
_ALGORITHM_STEPS = (
    "Initialize variables", "Read the input", "Compare values",
    "Update the total", "Advance the index", "Record the result",
    "Return the output",
)
_WORKFLOW_CONDITIONS = ("quality acceptable", "approval granted", "requirements met")
_ALGORITHM_CONDITIONS = ("more items remain", "target value found", "counter below limit")


# ---------------------------------------------------------------------------
# Trees / relation graphs


@dataclass(frozen=True)
class TreeNode:
    label: str
    children: tuple["TreeNode", ...] = ()


@dataclass(frozen=True)
class TreeSpec:
    root: TreeNode
    node_colors: dict[str, str]
    extra_edges: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        nodes = tree_nodes(self.root)
        labels = [n.label for n in nodes]
        if len(nodes) > MAX_TREE_NODES:
            raise ValueError(f"tree has {len(nodes)} nodes, max {MAX_TREE_NODES}")
        if len(set(labels)) != len(labels):
            raise ValueError("tree labels must be unique")
        for n in nodes:
            if len(n.children) > MAX_CHILDREN:
                raise ValueError(f"node {n.label!r} has more than {MAX_CHILDREN} children")
        if len(tree_layers(self.root)) > MAX_DEPTH:
            raise ValueError(f"tree deeper than {MAX_DEPTH} levels")
        label_set = set(labels)
        for a, b in self.extra_edges:
            if a not in label_set or b not in label_set:
                raise ValueError(f"extra edge ({a!r}, {b!r}) references unknown node")
        for n in nodes:
            if n.label not in self.node_colors:
                raise ValueError(f"node {n.label!r} has no color assigned")

    @property
    def root_label(self) -> str:
        return self.root.label

    def to_dict(self) -> dict:
        return fields_of(self)


def tree_nodes(node: TreeNode) -> list[TreeNode]:
    out = [node]
    for child in node.children:
        out.extend(tree_nodes(child))
    return out


def tree_layers(root: TreeNode) -> list[list[TreeNode]]:
    layers: list[list[TreeNode]] = []
    frontier = [root]
    while frontier:
        layers.append(frontier)
        frontier = [c for n in frontier for c in n.children]
    return layers


def sample_relation_graph(seed: int) -> TreeSpec:
    """The `relation_graph` scenario's spec: an organization-style tree plus
    up to 3 extra undirected edges between non-adjacent nodes.

    The topic, from ORGANIZATION_TOPICS, comes from the seed's "graph-topic"
    stream; the tree, whose every layer's width stays <= 3, and its node
    colors from ("tree", topic); the extra edges from ("graph-edges", topic).
    """
    topic = Random(derive_seed(seed, "graph-topic")).choice(ORGANIZATION_TOPICS)
    rng = Random(derive_seed(seed, "tree", topic))
    n_departments = rng.choices((0, 1, 2, 3), weights=(1, 3, 8, 8))[0]
    departments = rng.sample(_DEPARTMENT_POOL, n_departments)
    n_leaves = rng.randint(0, 3) if n_departments else 0
    leaves = rng.sample(_LEAF_POOL, n_leaves)
    assignment: dict[int, list[str]] = {i: [] for i in range(n_departments)}
    for leaf in leaves:
        assignment[rng.randrange(n_departments)].append(leaf)
    children = tuple(
        TreeNode(dept, tuple(TreeNode(lb) for lb in assignment[i]))
        for i, dept in enumerate(departments)
    )
    root = TreeNode(topic, children)
    nodes = tree_nodes(root)
    labels = [n.label for n in nodes]
    colors = {lb: rng.choice(NODE_COLOR_POOL) for lb in labels}
    rng = Random(derive_seed(seed, "graph-edges", topic))
    if len(nodes) < 4 or rng.random() < 0.5:
        return TreeSpec(root, colors)
    adjacent = {(n.label, c.label) for n in nodes for c in n.children}
    adjacent |= {(b, a) for a, b in adjacent}
    candidates = [
        (a, b) for i, a in enumerate(labels) for b in labels[i + 1:]
        if (a, b) not in adjacent
    ]
    k = min(rng.randint(1, 3), len(candidates))
    return TreeSpec(root, colors, tuple(rng.sample(candidates, k)))


# ---------------------------------------------------------------------------
# Flowcharts


@dataclass(frozen=True)
class FlowNode:
    label: str
    shape: str  # process | decision | terminator


@dataclass(frozen=True)
class FlowEdge:
    src: str
    dst: str
    label: str = ""


@dataclass(frozen=True)
class FlowSpec:
    kind: str  # algorithm | workflow
    topic: str
    nodes: tuple[FlowNode, ...]
    edges: tuple[FlowEdge, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("algorithm", "workflow"):
            raise ValueError(f"unknown flowchart kind {self.kind!r}")
        labels = [n.label for n in self.nodes]
        if len(set(labels)) != len(labels):
            raise ValueError("flowchart labels must be unique")
        starts = [n for n in self.nodes
                  if n.shape == "terminator" and n.label.startswith("Start")]
        if len(starts) != 1:
            raise ValueError("flowchart needs exactly one start terminator")
        label_set = set(labels)
        for e in self.edges:
            if e.src not in label_set or e.dst not in label_set:
                raise ValueError(f"edge {e} references unknown node")
        for n in self.nodes:
            if n.shape == "decision":
                out = self.out_edges(n.label)
                if len(out) != 2 or len({e.label for e in out}) != 2:
                    raise ValueError(f"decision {n.label!r} needs two distinctly labeled branches")
        # Reachability from the start node over directed edges.
        reachable = {starts[0].label}
        frontier = [starts[0].label]
        while frontier:
            nxt = []
            for lb in frontier:
                for e in self.out_edges(lb):
                    if e.dst not in reachable:
                        reachable.add(e.dst)
                        nxt.append(e.dst)
            frontier = nxt
        if reachable != label_set:
            raise ValueError("flowchart is not connected from the start node")

    def to_dict(self) -> dict:
        return fields_of(self)

    def node(self, label: str) -> FlowNode:
        return next(n for n in self.nodes if n.label == label)

    def out_edges(self, label: str) -> list[FlowEdge]:
        return [e for e in self.edges if e.src == label]


def sample_flow_spec(seed: int) -> FlowSpec:
    """The `flowchart` scenario's spec: an algorithm or a workflow, its topic
    and a linear flow of 3-5 steps with 0-2 decision branches, all drawn from
    the seed's "flow" stream.

    A decision's no-branch leads to a fix step that loops back to the step
    before the decision (the only permitted cycles); its yes-branch continues
    down the main sequence.
    """
    rng = Random(derive_seed(seed, "flow"))
    kind = rng.choice(("algorithm", "workflow"))
    if kind == "workflow":
        topic = rng.choice(WORKFLOW_TOPICS)
        steps_pool, cond_pool = _WORKFLOW_STEPS, _WORKFLOW_CONDITIONS
    else:
        topic = rng.choice(ALGORITHM_TOPICS)
        steps_pool, cond_pool = _ALGORITHM_STEPS, _ALGORITHM_CONDITIONS
    n_steps = rng.randint(3, 5)
    # Keep the pool's natural task order; vary only which steps appear.
    steps = sorted(rng.sample(steps_pool, n_steps), key=steps_pool.index)
    n_decisions = rng.randint(0, 2)
    decision_after = set(rng.sample(range(n_steps), min(n_decisions, n_steps)))
    conditions = iter(rng.sample(cond_pool, len(decision_after)))

    nodes = [FlowNode("Start", "terminator")]
    edges: list[FlowEdge] = []
    previous: str | None = "Start"
    for i, step in enumerate(steps):
        nodes.append(FlowNode(step, "process"))
        if previous is not None:
            edges.append(FlowEdge(previous, step))
        previous = step
        if i in decision_after:
            condition = f"Is {next(conditions)}?"
            fix = f"Redo: {step.lower()}"
            nodes.append(FlowNode(condition, "decision"))
            nodes.append(FlowNode(fix, "process"))
            edges.append(FlowEdge(step, condition))
            next_label = steps[i + 1] if i + 1 < n_steps else "End"
            edges.append(FlowEdge(condition, next_label, "Yes"))
            edges.append(FlowEdge(condition, fix, "No"))
            edges.append(FlowEdge(fix, step))  # loop back
            previous = None  # the yes-branch already links to the next step
    nodes.append(FlowNode("End", "terminator"))
    if previous is not None:
        edges.append(FlowEdge(previous, "End"))
    return FlowSpec(kind, topic, tuple(nodes), tuple(edges))


# ---------------------------------------------------------------------------
# Layout

NODE_FONT = 11.0
NODE_H = 30.0
LAYER_GAP = 80.0
_TREE_CANVAS = Canvas(640, 480)
_EDGE_STYLE = StyleSpec(stroke="black", stroke_width=1.4)
_EXTRA_EDGE_STYLE = StyleSpec(stroke="gray", stroke_width=1.2, dash=(5.0, 4.0))
_ARROW_STYLE = StyleSpec(fill="black")
_FLOW_FILLS = {"terminator": "gray", "process": "cyan", "decision": "yellow"}  # by shape


def _node_box_width(label: str, font: float) -> float:
    return text_width(label, font) + 18.0


def _arrow_head(x: float, y: float, direction: str) -> Primitive:
    if direction == "down":
        pts = ((x, y), (x - 5, y - 8), (x + 5, y - 8))
    elif direction == "left":
        pts = ((x, y), (x + 8, y - 5), (x + 8, y + 5))
    else:
        pts = ((x, y), (x - 8, y - 5), (x - 8, y + 5))
    return polygon(pts, _ARROW_STYLE, "edges", z=2)


def _draw_node_box(label: str, cx: float, cy: float, w: float, shape: str,
                   fill: str) -> tuple[Primitive, Primitive]:
    """The box of a node `w` wide centred on (cx, cy), a diamond for a
    decision, and its label."""
    h = NODE_H
    box_style = style(stroke="black", stroke_width=1.4, fill=fill)
    if shape == "decision":
        pts = ((cx, cy - h / 2 - 6), (cx + w / 2 + 10, cy), (cx, cy + h / 2 + 6),
               (cx - w / 2 - 10, cy))
        box = polygon(pts, box_style, "nodes", z=1)
    else:
        box = rect(cx - w / 2, cy - h / 2, w, h, box_style, "nodes", z=1)
    return box, text(cx, cy - NODE_FONT / 2.0, label, style(font_size=NODE_FONT),
                     "node_labels", anchor="middle", z=3)


def _layout_tree(spec: TreeSpec) -> SceneGraph:
    canvas = _TREE_CANVAS
    b = SceneBuilder(canvas)
    layers = tree_layers(spec.root)
    top = 60.0
    centers: dict[str, tuple[float, float, float]] = {}  # label -> (cx, cy, w)
    for depth, layer in enumerate(layers):
        widths = [_node_box_width(n.label, NODE_FONT) for n in layer]
        gap = 26.0
        total = sum(widths) + gap * (len(layer) - 1)
        if total > canvas.width - 20:
            raise LayoutOverflow(f"layer {depth + 1} of tree too wide ({total:.0f}px)")
        x = (canvas.width - total) / 2.0
        cy = top + depth * LAYER_GAP * (1.6 if len(layers) == 2 else 1.0)
        for node, w in zip(layer, widths):
            cx = x + w / 2.0
            centers[node.label] = (cx, cy, w)
            x += w + gap
    for a, bl in spec.extra_edges:
        (ax, ay, _), (bx, by, _) = centers[a], centers[bl]
        b.add(line(ax, ay + NODE_H / 2, bx, by + NODE_H / 2, _EXTRA_EDGE_STYLE, "extra_edges",
                   z=0))
    for node in tree_nodes(spec.root):
        cx, cy, w = centers[node.label]
        for child in node.children:
            ccx, ccy, _ = centers[child.label]
            b.add(line(cx, cy + NODE_H / 2, ccx, ccy - NODE_H / 2 - 8, _EDGE_STYLE, "edges",
                       z=0))
            b.add(_arrow_head(ccx, ccy - NODE_H / 2, "down"))
    for node in tree_nodes(spec.root):
        cx, cy, w = centers[node.label]
        box, label = _draw_node_box(node.label, cx, cy, w, "process",
                                    spec.node_colors[node.label])
        b.add(box)
        b.add(label)
    return b.build()


# A flowchart is laid out on fixed rows from labels of fixed pools, so every
# part of it recurs across flowcharts: each comes from a cached helper keyed
# by where it sits and what it says, and is made once per process.
@cache
def _flow_canvas(height: int) -> Canvas:
    return Canvas(640, height)


@cache
def _flow_node(label: str, shape: str, cx: float, cy: float) -> tuple[Primitive, Primitive]:
    return _draw_node_box(label, cx, cy, _node_box_width(label, NODE_FONT), shape,
                          _FLOW_FILLS[shape])


@cache
def _flow_arrow(x: float, y: float, direction: str) -> Primitive:
    return _arrow_head(x, y, direction)


@cache
def _flow_edge(x1: float, y1: float, x2: float, y2: float) -> Primitive:
    return line(x1, y1, x2, y2, _EDGE_STYLE, "edges")


@cache
def _flow_loop(points: tuple[tuple[float, float], ...]) -> Primitive:
    return polyline(points, _EDGE_STYLE, "edges")


@cache
def _branch_label(x: float, y: float, content: str, anchor: str) -> Primitive:
    return text(x, y, content, style(font_size=NODE_FONT), "edge_labels", anchor=anchor)


def _layout_flow(spec: FlowSpec) -> SceneGraph:
    # Side nodes are the no-branch targets; everything else stacks vertically.
    no_targets = {e.dst: e.src for e in spec.edges if e.label == "No"}
    main_rows: list[str] = []
    side: dict[str, str] = {}  # fix node -> decision on whose row it sits
    for n in spec.nodes:
        if n.label in no_targets:
            side[n.label] = no_targets[n.label]
        else:
            main_rows.append(n.label)
    row_gap = 64.0
    height = int(max(480, 70 + row_gap * len(main_rows)))
    canvas = _flow_canvas(height)
    b = SceneBuilder(canvas)
    main_x = 240.0
    side_x = 500.0
    rows: dict[str, tuple[float, float]] = {}
    for i, label in enumerate(main_rows):
        rows[label] = (main_x, 50.0 + i * row_gap)
    for fix, decision in side.items():
        rows[fix] = (side_x, rows[decision][1])

    boxes: dict[str, float] = {}
    for n in spec.nodes:
        w = _node_box_width(n.label, NODE_FONT)
        extra = 20.0 if n.shape == "decision" else 0.0
        if rows[n.label][0] + w / 2 + extra > canvas.width - 4 or w / 2 + extra > rows[n.label][0]:
            raise LayoutOverflow(f"flow node {n.label!r} too wide")
        boxes[n.label] = w

    for e in spec.edges:
        (x1, y1), (x2, y2) = rows[e.src], rows[e.dst]
        src_shape = spec.node(e.src).shape
        src_half_h = NODE_H / 2 + (6 if src_shape == "decision" else 0)
        dst_shape = spec.node(e.dst).shape
        dst_half_h = NODE_H / 2 + (6 if dst_shape == "decision" else 0)
        if x1 == x2 and y2 > y1:  # straight down
            b.add(_flow_edge(x1, y1 + src_half_h, x2, y2 - dst_half_h - 8))
            b.add(_flow_arrow(x2, y2 - dst_half_h, "down"))
            if e.label:
                b.add(_branch_label(x1 + 6, (y1 + y2) / 2 - NODE_FONT, e.label, "start"))
        elif y1 == y2:  # horizontal to the side node
            half_w1 = boxes[e.src] / 2 + (10 if src_shape == "decision" else 0)
            half_w2 = boxes[e.dst] / 2
            b.add(_flow_edge(x1 + half_w1, y1, x2 - half_w2 - 8, y2))
            b.add(_flow_arrow(x2 - half_w2, y2, "right"))
            if e.label:
                b.add(_branch_label((x1 + half_w1 + x2 - half_w2) / 2, y1 - NODE_FONT - 4,
                                    e.label, "middle"))
        else:  # loop back from a fix node: right edge, up, into the target's side
            half_w = boxes[e.src] / 2
            lane_x = canvas.width - 10.0
            target_half = boxes[e.dst] / 2
            b.add(_flow_loop(((x1 + half_w, y1), (lane_x, y1), (lane_x, y2),
                              (x2 + target_half + 8, y2))))
            b.add(_flow_arrow(x2 + target_half, y2, "left"))

    for n in spec.nodes:
        box, label = _flow_node(n.label, n.shape, *rows[n.label])
        b.add(box)
        b.add(label)
    return b.build()


def layout_hierarchy(spec: TreeSpec | FlowSpec) -> SceneGraph:
    """Layered layout: levels are vertical, siblings horizontal, connectors
    arrowed, no axes. Node boxes never overlap."""
    if isinstance(spec, TreeSpec):
        return _layout_tree(spec)
    return _layout_flow(spec)


# ---------------------------------------------------------------------------
# Questions

_FIGURE_TYPE_CHOICES = "organization chart, pie chart, line chart, gantt chart"


def _existence_draft(
    rng: Random, nodes: Sequence[TreeNode | FlowNode], noun: str, figure: str
) -> QuestionDraft:
    """Asks whether a node exists: a drawn one (Yes) or a decoy (No), evenly."""
    if rng.random() < 0.5:
        target, answer = nodes[rng.randrange(len(nodes))].label, "Yes"
    else:
        target, answer = _DECOY_POOL[rng.randrange(len(_DECOY_POOL))], "No"
    return QuestionDraft(f"Does the '{target}' {noun} exist in this {figure}?", answer,
                         "phrase", "existence")


def _tree_questions(spec: TreeSpec) -> list[QuestionDraft]:
    rng = Random(question_seed(spec))
    nodes = tree_nodes(spec.root)
    drafts = []
    if not spec.extra_edges:
        drafts.append(QuestionDraft(
            f"What is the type of this figure? Choose your answer from {_FIGURE_TYPE_CHOICES}.",
            "organization chart", "phrase", "figure_type"))
    color_node = nodes[rng.randrange(len(nodes))]
    drafts.append(QuestionDraft(
        f"What's the color of the '{color_node.label}' node?",
        spec.node_colors[color_node.label], "phrase", "node_color"))
    drafts.append(_existence_draft(rng, nodes, "node", "figure"))
    drafts.append(QuestionDraft(
        "How many nodes are there in total in this figure?",
        str(len(nodes)), "numeric", "node_count"))
    if not spec.extra_edges and spec.root.children:
        drafts.append(QuestionDraft(
            f"How many departments are there in the '{spec.root_label}'?",
            str(len(spec.root.children)), "numeric", "department_count"))
        with_kids = [n for n in spec.root.children if n.children]
        if with_kids:
            dept = with_kids[rng.randrange(len(with_kids))]
            drafts.append(QuestionDraft(
                f"How many nodes are there in the '{dept.label}' department?",
                str(len(dept.children)), "numeric", "department_count"))
    return drafts


def _flow_questions(spec: FlowSpec) -> list[QuestionDraft]:
    rng = Random(question_seed(spec))
    decisions = [n for n in spec.nodes if n.shape == "decision"]
    processes = [n for n in spec.nodes if n.shape == "process"]
    drafts = [QuestionDraft(
        "How many decision (diamond-shaped) nodes does this flowchart contain?",
        str(len(decisions)), "numeric", "structure_count")]
    probe = processes[rng.randrange(len(processes))]
    drafts.append(QuestionDraft(
        f"What shape is the '{probe.label}' node? Choose from rectangle, diamond, circle.",
        "rectangle", "phrase", "structure_shape"))
    drafts.append(_existence_draft(rng, spec.nodes, "step", "flowchart"))
    linear = [n for n in processes if len(spec.out_edges(n.label)) == 1]
    if linear:
        node = linear[rng.randrange(len(linear))]
        nxt = spec.out_edges(node.label)[0].dst
        drafts.append(QuestionDraft(
            f"Which step comes immediately after '{node.label}'?",
            nxt, "phrase", "next_step",
            rationale=f"The arrow out of '{node.label}' points to '{nxt}'."))
    if decisions:
        d = decisions[rng.randrange(len(decisions))]
        branch = rng.choice(("Yes", "No"))
        target = next(e.dst for e in spec.out_edges(d.label) if e.label == branch)
        drafts.append(QuestionDraft(
            f"If the answer to '{d.label}' is {branch.lower()}, which step follows?",
            target, "phrase", "branch_outcome",
            rationale=f"The edge labeled {branch} out of '{d.label}' leads to '{target}'."))
    return drafts


def diagram_questions(spec: TreeSpec | FlowSpec) -> list[QuestionDraft]:
    if isinstance(spec, TreeSpec):
        return _tree_questions(spec)
    return _flow_questions(spec)
