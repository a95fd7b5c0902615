"""Reference implementations that tests compare the library against."""

import numpy as np

from evonets._util import augment
from evonets.errors import TrainingError
from evonets.neuron import sigmoid


def classify_rule(tree, x):
    """One row's label from a RuleTree: descend the threshold comparisons to a
    leaf (strict > goes high). The single-row twin of RuleTree.predict_classes."""
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


def fnn_loss(hidden_w, output_w, Xa, T):
    """Mean squared error over rows and output units of a one-hidden-layer
    net on the augmented rows Xa: the finite-difference reference for
    fnn_gradients."""
    O = sigmoid(augment(sigmoid(Xa @ hidden_w.T)) @ output_w.T)
    return float(np.mean(np.sum((O - T) ** 2, axis=1)))


def walk_chunks(order, accepted, cap):
    """The chunks a cascade walk fitted, read off the model it grew from its
    feature order and accepted features: one (candidates fitted, position of
    the accepted one or None) per chunk. A chunk starts at one candidate,
    doubles after a chunk that accepts nothing, falls back to one after an
    accept and holds at most cap candidates; this holds for a walk in which
    no fit failed."""
    chunks, h, size = [], 1, 1
    accepted = set(accepted)
    while h < len(order):
        feats = order[h:h + min(size, cap)]
        pos = next((i for i, feat in enumerate(feats) if feat in accepted), None)
        chunks.append((len(feats), pos))
        h += len(feats) if pos is None else pos + 1
        size = size * 2 if pos is None else 1
    return chunks
