"""Cascade networks that grow inputs and hidden neurons during learning.

Training first ranks every feature by the validation error of a one-input
neuron. The best feature becomes the anchor. Walking down the ranking, each
remaining feature is tried as a candidate neuron bound to the anchor, the
new feature, and the outputs of all previously accepted neurons; the
candidate is kept only if its validation error strictly beats the incumbent.
The resulting model uses few inputs and few neurons, and the growth order
doubles as a readable feature-importance listing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ._util import derive_seed
from .errors import DataError
from .neuron import FitConfig, SigmoidNeuron, fit_neuron, sigmoid

__all__ = [
    "CascadeNetwork", "rank_single_features", "relevance_check",
    "train_ecnn", "predict_cascade", "describe_cascade", "cascade_to_dot",
]


@dataclass(eq=False)
class CascadeNetwork:
    """A trained cascade classifier.

    neurons holds the accepted hidden/output neurons in growth order;
    neuron t is bound to the anchor feature, its own new feature, and the
    outputs of neurons 0..t-1 (t + 2 bindings). accepted_scores mirrors
    neurons with the strictly decreasing validation errors that justified
    each acceptance. When no candidate was ever accepted, the model falls
    back to base_neuron, the fitted one-input neuron on the anchor.
    """

    anchor: int
    feature_order: tuple
    single_errors: tuple
    base_neuron: SigmoidNeuron
    base_score: float
    neurons: list = field(default_factory=list)
    accepted_features: list = field(default_factory=list)
    accepted_scores: list = field(default_factory=list)
    threshold: float = 0.5
    feature_names: tuple = ()

    @property
    def selected_features(self):
        """Columns the model actually consumes, anchor first."""
        seen = [self.anchor]
        for f in self.accepted_features:
            if f not in seen:
                seen.append(f)
        return tuple(seen)

    @property
    def final_score(self):
        return self.accepted_scores[-1] if self.accepted_scores else self.base_score

    def scores(self, X):
        """Network output in (0, 1) for each row of X."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        zs = []
        for nrn in self.neurons:
            cols = [X[:, ref] if kind == "x" else zs[ref] for kind, ref in nrn.bindings]
            U = np.column_stack(cols)
            zs.append(sigmoid(nrn.weights[0] + U @ nrn.weights[1:]))
        if zs:
            return zs[-1]
        w = self.base_neuron.weights
        return sigmoid(w[0] + X[:, self.anchor] * w[1])

    def predict_classes(self, X):
        return (self.scores(X) >= self.threshold).astype(int)


def _fit_single_features(train, val, cfg, seed):
    """Fit a one-input neuron on every column and rank the columns by its
    validation error, ties to the lower index. Returns (feature order,
    errors in that order, per-column (validation error, fitted neuron))."""
    singles = []
    for j in range(train.n_features):
        nrn = SigmoidNeuron((("x", j),))
        fitted = fit_neuron(nrn, train.features[:, [j]], train.labels,
                            replace(cfg, seed=derive_seed(seed, 0, j)))
        sv = sigmoid(fitted.weights[0] + val.features[:, j] * fitted.weights[1])
        err = float(np.mean((sv >= cfg.decision_threshold).astype(int) != val.labels))
        singles.append((err, fitted))
    order = tuple(sorted(range(train.n_features), key=lambda j: (singles[j][0], j)))
    return order, tuple(singles[j][0] for j in order), singles


def rank_single_features(train, val, cfg: FitConfig):
    """Rank features by one-input validation error, ascending.

    Returns (feature_order, errors, best_error); ties go to the lower
    column index, and the first entry of the order is the anchor feature.
    """
    if train.n_features < 2:
        raise DataError("need at least 2 features to rank")
    order, errors, _ = _fit_single_features(train, val, cfg, cfg.seed)
    return order, errors, errors[0]


def relevance_check(candidate_score, incumbent_score):
    """Accept a candidate only when it strictly improves on the incumbent."""
    return candidate_score < incumbent_score


def train_ecnn(train, val, cfg: FitConfig = FitConfig(), seed=None) -> CascadeNetwork:
    """Grow a cascade network while validation error strictly decreases.

    Walks the ranked feature pool once; each candidate neuron sees the
    anchor, the next-ranked feature, and all previously accepted outputs.
    Deterministic for a fixed seed.
    """
    if train.class_count != 2:
        raise DataError("cascade training requires binary labels")
    if train.n_features < 2:
        raise DataError("need at least 2 features")
    if val.n_rows == 0:
        raise DataError("empty validation set")
    if seed is None:
        seed = cfg.seed

    order, errors, singles = _fit_single_features(train, val, cfg, seed)
    anchor = order[0]
    base_err, base_neuron = singles[anchor]

    net = CascadeNetwork(
        anchor=anchor, feature_order=order, single_errors=errors,
        base_neuron=base_neuron, base_score=base_err,
        threshold=cfg.decision_threshold, feature_names=train.feature_names,
    )

    Xtr, Xva = train.features, val.features
    ztr, zva = [], []
    incumbent = base_err
    for h in range(1, len(order)):
        feat = order[h]
        bindings = [("x", anchor), ("x", feat)] + [("z", t) for t in range(len(net.neurons))]
        U_tr = np.column_stack([Xtr[:, anchor], Xtr[:, feat]] + ztr)
        candidate = fit_neuron(SigmoidNeuron(tuple(bindings)), U_tr, train.labels,
                               replace(cfg, seed=derive_seed(seed, 1, h)))
        U_va = np.column_stack([Xva[:, anchor], Xva[:, feat]] + zva)
        out_va = sigmoid(candidate.weights[0] + U_va @ candidate.weights[1:])
        c1 = float(np.mean((out_va >= cfg.decision_threshold).astype(int) != val.labels))
        if relevance_check(c1, incumbent):
            net.neurons.append(candidate)
            net.accepted_features.append(feat)
            net.accepted_scores.append(c1)
            ztr.append(sigmoid(candidate.weights[0] + U_tr @ candidate.weights[1:]))
            zva.append(out_va)
            incumbent = c1
    return net


def predict_cascade(net: CascadeNetwork, x):
    """Classify a single example; returns (class, score)."""
    x = np.asarray(x, dtype=float)
    needed = max(net.selected_features)
    if x.ndim != 1 or x.shape[0] <= needed:
        raise DataError(f"input must provide at least {needed + 1} feature values")
    score = float(net.scores(x[None, :])[0])
    return int(score >= net.threshold), score


def describe_cascade(net: CascadeNetwork) -> str:
    """One line per neuron: its inputs, its validation accuracy, and the
    fitted coefficients (the strength of each input's relation).

    Inputs are listed newest hidden output first, then the anchor feature,
    then the feature the neuron introduced.
    """
    names = net.feature_names or tuple(f"x{j + 1}" for j in range(max(net.selected_features) + 1))

    def label(kind, ref):
        return names[ref] if kind == "x" else f"z{ref + 1}"

    def fmt(tag, nrn, acc, is_output):
        zs = [b for b in nrn.bindings if b[0] == "z"]
        xs = [b for b in nrn.bindings if b[0] == "x"]
        shown = sorted(zs, key=lambda b: -b[1]) + xs
        inputs = " & ".join(label(*b) for b in shown)
        strengths = ", ".join(
            [f"bias={nrn.weights[0]:.4f}"]
            + [f"{label(*b)}={nrn.weights[nrn.bindings.index(b) + 1]:.4f}" for b in shown]
        )
        mark = " (= y)" if is_output else ""
        return f"{tag}{mark}: {inputs} -> {acc:.4f}  [{strengths}]"

    if not net.neurons:
        return fmt("z1", net.base_neuron, 1.0 - net.base_score, True)
    lines = [fmt(f"z{t + 1}", nrn, 1.0 - err, t == len(net.neurons) - 1)
             for t, (nrn, err) in enumerate(zip(net.neurons, net.accepted_scores))]
    return "\n".join(lines)


def cascade_to_dot(net: CascadeNetwork) -> str:
    """Graphviz rendering of the cascade: feature boxes feeding neuron
    ellipses, accepted neurons filled gray."""
    names = net.feature_names or tuple(f"x{j + 1}" for j in range(max(net.selected_features) + 1))
    lines = ["digraph cascade {", "  rankdir=LR;"]
    for f in net.selected_features:
        lines.append(f'  "x{f}" [label="{names[f]}", shape=box];')
    neurons = net.neurons if net.neurons else [net.base_neuron]
    for t, nrn in enumerate(neurons):
        mark = ", peripheries=2" if t == len(neurons) - 1 else ""
        lines.append(f'  "z{t + 1}" [label="z{t + 1}", style=filled, fillcolor=gray80{mark}];')
        for kind, ref in nrn.bindings:
            src = f"x{ref}" if kind == "x" else f"z{ref + 1}"
            lines.append(f'  "{src}" -> "z{t + 1}";')
    lines.append("}")
    return "\n".join(lines)
