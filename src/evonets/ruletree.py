"""Single-feature threshold rules extracted from two labeled row sets.

The intended pipeline takes a trained binary network, keeps only the rows
it classifies correctly, projects them onto the features the network
selected, and grows a small threshold tree over that cleaned-up space: each
node picks the feature whose best single threshold misclassifies the fewest
rows, then both predicted sides are refined recursively with the feature
removed from the pool. The result reads as a nested if/else rule.

The operations accept any two row sets, so they are usable (and testable)
on raw data as well.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, TrainingError

__all__ = ["RuleNode", "RuleTree", "search_threshold", "extract_rules",
           "classify_rule", "to_text", "ruletree_to_dot"]


@dataclass(eq=False)
class RuleNode:
    """One threshold test: rows with x[feature] > threshold go to the high
    side. high_is_one tells which side the node itself predicts as class 1.
    A side either recurses into a child node or ends in a leaf label."""

    feature: int
    threshold: float
    high_is_one: bool
    low_child: "RuleNode | None" = None
    high_child: "RuleNode | None" = None
    low_label: int = 0
    high_label: int = 1


@dataclass(eq=False)
class RuleTree:
    root: RuleNode
    feature_names: tuple = ()

    def predict_classes(self, X):
        """Labels for every row: the rows reaching a node split on one
        boolean mask, x[feature] > threshold going high, as in classify_rule."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.root is None:
            raise TrainingError("untrained rule tree")
        labels = np.empty(X.shape[0], dtype=int)
        stack = [(self.root, np.arange(X.shape[0]))]
        while stack:
            node, rows = stack.pop()
            high = X[rows, node.feature] > node.threshold
            for child, label, side in ((node.high_child, node.high_label, rows[high]),
                                       (node.low_child, node.low_label, rows[~high])):
                if child is None:
                    labels[side] = label
                else:
                    stack.append((child, side))
        return labels


def search_threshold(values0, values1):
    """Best single threshold between two value lists.

    Candidate thresholds are the midpoints between consecutive distinct
    pooled values. Returns (threshold, high_is_one, misclassified_count),
    minimizing errors with ties broken toward the smaller threshold and
    then toward 'high side is class 1'. The result is exact for finite
    input; a NaN or infinite value raises DataError.
    """
    v0 = np.asarray(values0, dtype=float)
    v1 = np.asarray(values1, dtype=float)
    if v0.size == 0 or v1.size == 0:
        raise DataError("both sides need at least one value")
    if not (np.isfinite(v0).all() and np.isfinite(v1).all()):
        raise DataError("threshold search needs finite values, not NaN or infinity")
    pooled = np.unique(np.concatenate([v0, v1]))
    if pooled.size > 1:
        candidates = (pooled[:-1] + pooled[1:]) / 2.0
    else:
        candidates = pooled  # all values identical; the split is degenerate

    # Rows of each class at or below each candidate, i.e. on its low side.
    c0 = np.searchsorted(np.sort(v0), candidates, side="right")
    c1 = np.searchsorted(np.sort(v1), candidates, side="right")
    errors_high_one = (v0.size - c0) + c1
    errors_low_one = c0 + (v1.size - c1)
    # Candidates ascend, so each polarity's first minimum has its smallest
    # threshold. Equal (errors, threshold) on both means the same candidate,
    # where 'high side is class 1' wins.
    i, j = int(errors_high_one.argmin()), int(errors_low_one.argmin())
    if (errors_high_one[i], candidates[i]) <= (errors_low_one[j], candidates[j]):
        return float(candidates[i]), True, int(errors_high_one[i])
    return float(candidates[j]), False, int(errors_low_one[j])


def _majority_label(zeros, ones, side_polarity):
    if zeros == 0 and ones == 0:
        return side_polarity
    return 1 if ones > zeros else 0


def _find_node(X0, X1, pool):
    """Recursive node construction over the remaining feature pool."""
    scored = [(v,) + search_threshold(X0[:, v], X1[:, v]) for v in pool]
    best_i = min(range(len(scored)), key=lambda i: (scored[i][3], i))
    feature, q, high_is_one, _ = scored[best_i]
    node = RuleNode(feature, q, high_is_one)
    rest = [v for v in pool if v != feature]

    pred1_0 = (X0[:, feature] > q) if high_is_one else (X0[:, feature] <= q)
    pred1_1 = (X1[:, feature] > q) if high_is_one else (X1[:, feature] <= q)
    A0, A01 = X0[~pred1_0], X0[pred1_0]     # class-0 rows split by prediction
    A10, A1 = X1[~pred1_1], X1[pred1_1]     # class-1 rows split by prediction

    # Refine the predicted-0 side only while it still contains mistakes.
    side0_child = None
    if rest and len(A10) and len(A0):
        side0_child = _find_node(A0, A10, rest)
    side0_label = _majority_label(len(A0), len(A10), 0)

    side1_child = None
    if rest and len(A01) and len(A1):
        side1_child = _find_node(A01, A1, rest)
    side1_label = _majority_label(len(A01), len(A1), 1)

    if high_is_one:
        node.low_child, node.low_label = side0_child, side0_label
        node.high_child, node.high_label = side1_child, side1_label
    else:
        node.high_child, node.high_label = side0_child, side0_label
        node.low_child, node.low_label = side1_child, side1_label
    return node


def extract_rules(X0, X1, pool, feature_names=()) -> RuleTree:
    """Grow a threshold tree dividing class-0 rows X0 from class-1 rows X1.

    `pool` lists the feature columns the tree may test; each feature is
    used at most once along any root-to-leaf path.
    """
    X0 = np.atleast_2d(np.asarray(X0, dtype=float))
    X1 = np.atleast_2d(np.asarray(X1, dtype=float))
    pool = [int(v) for v in pool]
    if not pool:
        raise DataError("empty feature pool")
    if X0.shape[0] == 0 or X1.shape[0] == 0:
        raise DataError("both classes need at least one row")
    if len(set(pool)) != len(pool):
        raise DataError("feature pool entries must be unique")
    return RuleTree(_find_node(X0, X1, pool), tuple(feature_names))


def classify_rule(tree: RuleTree, x):
    """Descend threshold comparisons to a leaf label (strict > goes high)."""
    if tree.root is None:
        raise TrainingError("untrained rule tree")
    x = np.asarray(x, dtype=float)
    node = tree.root
    while True:
        if x[node.feature] > node.threshold:
            if node.high_child is None:
                return int(node.high_label)
            node = node.high_child
        else:
            if node.low_child is None:
                return int(node.low_label)
            node = node.low_child


def to_text(tree: RuleTree, class_names=("0", "1")) -> str:
    """Nested if/else rendering with 4-decimal thresholds."""
    names = tree.feature_names or None

    def name(feature):
        return names[feature] if names else f"x{feature + 1}"

    def render(node, indent):
        pad = "  " * indent
        lines = []
        cond = f"{name(node.feature)} > {node.threshold:.4f}"
        if node.high_child is None:
            lines.append(f"{pad}if {cond} then class {class_names[node.high_label]}")
        else:
            lines.append(f"{pad}if {cond} then")
            lines.extend(render(node.high_child, indent + 1))
        if node.low_child is None:
            lines.append(f"{pad}else class {class_names[node.low_label]}")
        else:
            lines.append(f"{pad}else")
            lines.extend(render(node.low_child, indent + 1))
        return lines

    return "\n".join(render(tree.root, 0))


def ruletree_to_dot(tree: RuleTree, class_names=("0", "1")) -> str:
    """Graphviz rendering: threshold tests as boxes, leaves as ellipses."""
    names = tree.feature_names or None

    def name(feature):
        return names[feature] if names else f"x{feature + 1}"

    lines = ["digraph ruletree {"]
    counter = [0]

    def emit(node):
        my = f"t{counter[0]}"
        counter[0] += 1
        lines.append(f'  "{my}" [label="{name(node.feature)} > {node.threshold:.4f}", shape=box];')
        for side, child, label in (("> (high)", node.high_child, node.high_label),
                                   ("<= (low)", node.low_child, node.low_label)):
            if child is None:
                leaf = f"t{counter[0]}"
                counter[0] += 1
                lines.append(f'  "{leaf}" [label="class {class_names[label]}"];')
                lines.append(f'  "{my}" -> "{leaf}" [label="{side}"];')
            else:
                sub = emit(child)
                lines.append(f'  "{my}" -> "{sub}" [label="{side}"];')
        return my

    emit(tree.root)
    lines.append("}")
    return "\n".join(lines)
