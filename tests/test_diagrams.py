"""Tree/flowchart sampling, hierarchical layout, and question derivation."""

import pytest

from absynth.diagrams import (
    TreeNode, TreeSpec, diagram_questions, layout_hierarchy,
    sample_flow_spec, sample_relation_graph, tree_layers, tree_nodes,
)
from absynth.scene import overlap_pairs
from tests_helpers import role_indices


def forensics_tree():
    """The seven-node organization fixture: one root, two departments, four leaves."""
    root = TreeNode("Digital Forensics Unit", (
        TreeNode("Case Management", (TreeNode("Evidence Collection"), TreeNode("Analysis"))),
        TreeNode("Training and Development", (TreeNode("Workshops"), TreeNode("Certifications"))),
    ))
    colors = {n.label: "cyan" for n in tree_nodes(root)}
    colors["Digital Forensics Unit"] = "blue"
    return TreeSpec(root, colors)


def test_forensics_fixture_shape():
    spec = forensics_tree()  # constructing a TreeSpec checks its constraints
    nodes = tree_nodes(spec.root)
    assert len(nodes) == 7
    assert len(tree_layers(spec.root)) == 3


def test_forensics_departments_answer_is_2():
    drafts = diagram_questions(forensics_tree())
    dept = next(d for d in drafts if "How many departments" in d.question)
    assert dept.answer == "2"


def test_forensics_existence_and_type():
    spec = forensics_tree()
    drafts = diagram_questions(spec)
    fig = next(d for d in drafts if d.question_type == "figure_type")
    assert fig.answer == "organization chart"
    existence = next(d for d in drafts if d.question_type == "existence")
    label = existence.question.split("'")[1]
    in_tree = label in {n.label for n in tree_nodes(spec.root)}
    assert existence.answer == ("Yes" if in_tree else "No")


def test_forensics_layout_layers_and_connectors():
    scene = layout_hierarchy(forensics_tree())
    boxes = [p for p in scene.primitives if p.role == "nodes"]
    assert len(boxes) == 7
    tops = sorted({b.geometry[1] for b in boxes})
    assert len(tops) == 3  # three horizontal layers
    edges = [p for p in scene.primitives if p.role == "edges" and p.kind == "line"]
    assert len(edges) == 6  # one connector per non-root node
    assert overlap_pairs(scene, role_indices(scene, "nodes")) == []


def test_minimal_tree_single_node():
    for seed in range(400):
        spec = sample_relation_graph(seed)
        if len(tree_nodes(spec.root)) == 1:
            scene = layout_hierarchy(spec)
            assert len(role_indices(scene, "nodes")) == 1
            assert "edges" not in {p.role for p in scene.primitives}
            return
    pytest.fail("no minimal tree among 400 seeds")


def test_500_sampled_trees_satisfy_constraints():
    for seed in range(500):
        spec = sample_relation_graph(seed)
        nodes = tree_nodes(spec.root)
        assert 1 <= len(nodes) <= 8
        for layer in tree_layers(spec.root):
            assert len(layer) <= 3
        labels = [n.label for n in nodes]
        assert len(set(labels)) == len(labels)


def test_tree_sampling_deterministic():
    assert sample_relation_graph(9) == sample_relation_graph(9)
    assert sample_flow_spec(9) == sample_flow_spec(9)


def test_counting_answers_match_independent_traversal():
    for seed in range(100):
        spec = sample_relation_graph(seed)
        by_label = {n.label: n for n in tree_nodes(spec.root)}
        for draft in diagram_questions(spec):
            if draft.question_type == "node_count":
                def count(node):
                    return 1 + sum(count(c) for c in node.children)
                assert draft.answer == str(count(spec.root))
            elif draft.question_type == "department_count":
                owner = draft.question.split("'")[1]
                assert draft.answer == str(len(by_label[owner].children))
            elif draft.question_type == "node_color":
                node = draft.question.split("'")[-2]  # [-2]: skip the "What's" apostrophe
                assert draft.answer == spec.node_colors[node]


def test_relation_graph_extra_edges_disable_subtree_counting():
    seen_edges = False
    for seed in range(200):
        spec = sample_relation_graph(seed)
        drafts = diagram_questions(spec)
        if spec.extra_edges:
            seen_edges = True
            assert all(d.question_type != "department_count" for d in drafts)
            assert all(d.question_type != "figure_type" for d in drafts)
            labels = {n.label for n in tree_nodes(spec.root)}
            for a, b in spec.extra_edges:
                assert a in labels and b in labels
    assert seen_edges


def test_flowchart_structure():
    for seed in range(100):
        spec = sample_flow_spec(seed)
        starts = [n for n in spec.nodes if n.shape == "terminator" and n.label == "Start"]
        assert len(starts) == 1
        for n in spec.nodes:
            if n.shape == "decision":
                out = spec.out_edges(n.label)
                assert sorted(e.label for e in out) == ["No", "Yes"]


def test_flowchart_branch_outcome_answers():
    found = 0
    for seed in range(100):
        spec = sample_flow_spec(seed)
        for draft in diagram_questions(spec):
            if draft.question_type == "branch_outcome":
                found += 1
                decision = draft.question.split("'")[1]
                branch = "Yes" if " is yes," in draft.question else "No"
                target = next(e.dst for e in spec.out_edges(decision) if e.label == branch)
                assert draft.answer == target
            if draft.question_type == "next_step":
                src = draft.question.split("'")[1]
                assert draft.answer == spec.out_edges(src)[0].dst
    assert found > 20


def test_flow_layout_no_node_overlap():
    for seed in range(60):
        scene = layout_hierarchy(sample_flow_spec(seed))
        assert overlap_pairs(scene, role_indices(scene, "nodes")) == []
