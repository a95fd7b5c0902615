"""Threshold search and recursive rule extraction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evonets.errors import DataError
from evonets.ruletree import (RuleNode, RuleTree, classify_rule, extract_rules,
                              ruletree_to_dot, search_threshold, to_text)


def brute_force_threshold(values0, values1):
    """Exhaustive scan over all midpoints and both polarities."""
    pooled = np.unique(np.concatenate([values0, values1]))
    candidates = (pooled[:-1] + pooled[1:]) / 2 if pooled.size > 1 else pooled
    best = None
    for q in candidates:
        for high_is_one in (True, False):
            if high_is_one:
                errors = np.sum(values0 > q) + np.sum(values1 <= q)
            else:
                errors = np.sum(values0 <= q) + np.sum(values1 > q)
            key = (int(errors), float(q), 0 if high_is_one else 1)
            if best is None or key < best:
                best = key
    return best


class TestSearchThreshold:
    def test_separable_gap_midpoint(self):
        q, high_is_one, errors = search_threshold([1.0, 2.0], [3.0, 4.0])
        assert q == 2.5 and high_is_one is True and errors == 0

    def test_polarity_flip(self):
        q, high_is_one, errors = search_threshold([3.0, 4.0], [1.0, 2.0])
        assert q == 2.5 and high_is_one is False and errors == 0

    def test_interleaved_matches_exhaustive_scan(self):
        q, _, errors = search_threshold([1.0, 3.0], [2.0, 4.0])
        assert errors == 1
        expect = brute_force_threshold(np.array([1.0, 3.0]), np.array([2.0, 4.0]))
        assert (errors, q) == (expect[0], expect[1])

    def test_empty_side_rejected(self):
        with pytest.raises(DataError):
            search_threshold([], [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DataError, match="finite"):
            search_threshold([1.0, bad, 2.0], [3.0, 0.5])
        with pytest.raises(DataError, match="finite"):
            search_threshold([1.0, 2.0], [bad])
        X1 = np.array([[3.0, 0.0], [4.0, bad]])
        with pytest.raises(DataError, match="finite"):
            extract_rules([[1.0, 0.0], [2.0, 1.0]], X1, [0, 1])

    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=12),
           st.lists(st.integers(-20, 20), min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_always_matches_exhaustive_scan(self, a, b):
        v0 = np.array(a, dtype=float)
        v1 = np.array(b, dtype=float)
        q, high_is_one, errors = search_threshold(v0, v1)
        expect = brute_force_threshold(v0, v1)
        assert (errors, q, 0 if high_is_one else 1) == expect


def gap_dataset(seed=0, n=60):
    """Class 0 strictly below 1.0, class 1 strictly above, on feature 0."""
    rng = np.random.default_rng(seed)
    X0 = np.column_stack([rng.uniform(-2, 0.8, n), rng.normal(size=n)])
    X1 = np.column_stack([rng.uniform(1.2, 3.0, n), rng.normal(size=n)])
    return X0, X1


class TestExtractRules:
    def test_separable_single_node_in_gap(self):
        X0, X1 = gap_dataset()
        tree = extract_rules(X0, X1, [0, 1])
        root = tree.root
        assert root.feature == 0
        assert 0.8 < root.threshold < 1.2
        assert root.low_child is None and root.high_child is None
        preds0 = [classify_rule(tree, x) for x in X0]
        preds1 = [classify_rule(tree, x) for x in X1]
        assert preds0 == [0] * len(X0)
        assert preds1 == [1] * len(X1)

    def test_single_feature_inseparable_stops_without_recursion(self):
        X0 = np.array([[1.0], [3.0]])
        X1 = np.array([[2.0], [4.0]])
        tree = extract_rules(X0, X1, [0])
        assert tree.root.low_child is None and tree.root.high_child is None

    def test_root_error_equals_best_single_feature(self):
        rng = np.random.default_rng(2)
        X0 = rng.normal(0, 1, size=(100, 4))
        X1 = rng.normal(0.8, 1, size=(100, 4))
        tree = extract_rules(X0, X1, [0, 1, 2, 3])
        root = tree.root
        best = min(brute_force_threshold(X0[:, v], X1[:, v])[0] for v in range(4))
        got = brute_force_threshold(X0[:, root.feature], X1[:, root.feature])
        assert got[0] == best
        assert root.threshold == got[1]

    def test_no_feature_repeats_and_depth_bounded(self):
        rng = np.random.default_rng(3)
        X0 = rng.normal(0, 1, size=(60, 3))
        X1 = rng.normal(0.5, 1, size=(60, 3))
        tree = extract_rules(X0, X1, [0, 1, 2])

        def walk(node, seen, depth):
            assert node.feature not in seen
            assert depth <= 3
            for child in (node.low_child, node.high_child):
                if child is not None:
                    walk(child, seen | {node.feature}, depth + 1)

        walk(tree.root, set(), 1)

    def test_classification_agrees_with_partition_replay(self):
        rng = np.random.default_rng(4)
        X0 = rng.normal(0, 1, size=(50, 3))
        X1 = rng.normal(1.0, 1, size=(50, 3))
        tree = extract_rules(X0, X1, [0, 1, 2])

        def replay(node, rows0, rows1, results):
            """Walk the recursion the way training partitioned the rows."""
            pred1_0 = (rows0[:, node.feature] > node.threshold) == node.high_is_one
            pred1_1 = (rows1[:, node.feature] > node.threshold) == node.high_is_one
            sides = {
                0: (rows0[~pred1_0], rows1[~pred1_1]),
                1: (rows0[pred1_0], rows1[pred1_1]),
            }
            for side, (r0, r1) in sides.items():
                child = (node.high_child if (side == 1) == node.high_is_one
                         else node.low_child)
                label = (node.high_label if (side == 1) == node.high_is_one
                         else node.low_label)
                if child is None:
                    for x in r0:
                        results.append((x, label))
                    for x in r1:
                        results.append((x, label))
                else:
                    replay(child, r0, r1, results)

        results = []
        replay(tree.root, X0, X1, results)
        for x, label in results:
            assert classify_rule(tree, x) == label

    def test_empty_pool_rejected(self):
        with pytest.raises(DataError):
            extract_rules(np.zeros((2, 1)), np.ones((2, 1)), [])


def artifact_tree():
    """Single-node artifact rule: one feature, threshold 1.081, high side
    is the positive class."""
    node = RuleNode(feature=5, threshold=1.081, high_is_one=True)
    names = tuple(f"x{j + 1}" for j in range(7))
    return RuleTree(node, names)


class TestClassifyRule:
    def test_above_threshold_is_positive(self):
        x = np.zeros(7)
        x[5] = 1.2
        assert classify_rule(artifact_tree(), x) == 1

    def test_below_threshold_is_negative(self):
        x = np.zeros(7)
        x[5] = 1.0
        assert classify_rule(artifact_tree(), x) == 0

    def test_boundary_is_strict(self):
        x = np.zeros(7)
        x[5] = 1.081
        assert classify_rule(artifact_tree(), x) == 0


class TestText:
    def test_single_node_two_lines(self):
        text = to_text(artifact_tree(), class_names=("normal", "artifact"))
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0] == "if x6 > 1.0810 then class artifact"
        assert lines[1] == "else class normal"

    def test_depth_two_nesting(self):
        inner = RuleNode(feature=1, threshold=0.5, high_is_one=False,
                         low_label=1, high_label=0)
        root = RuleNode(feature=0, threshold=2.0, high_is_one=True,
                        low_child=inner)
        tree = RuleTree(root, ("a", "b"))
        text = to_text(tree)
        assert "if a > 2.0000 then class 1" in text
        assert "  if b > 0.5000" in text  # nested level is indented

    def test_feature_names_verbatim(self):
        node = RuleNode(feature=0, threshold=1.0, high_is_one=True)
        tree = RuleTree(node, ("AbsPowSubdelta",))
        assert "AbsPowSubdelta" in to_text(tree)

    def test_dot_renders(self):
        dot = ruletree_to_dot(artifact_tree())
        assert dot.startswith("digraph")
        assert "x6 > 1.0810" in dot
