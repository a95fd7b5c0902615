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

from dataclasses import dataclass, field

import numpy as np

from ._util import STACK_ELEMENTS, derive_seed, dot_escape, in_order
from .errors import DataError
from .neuron import FitConfig, SigmoidNeuron, fit_neuron, sigmoid  # noqa: F401 (perfbench wraps it)

__all__ = [
    "CascadeNetwork", "train_ecnn", "describe_cascade", "cascade_to_dot",
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

    @property
    def selected_features(self):
        """Columns the model actually consumes: the anchor, then the columns
        the neurons bind, in the order they bind them."""
        bound = [ref for nrn in self.neurons for kind, ref in nrn.bindings if kind == "x"]
        return tuple(dict.fromkeys([self.anchor] + bound))

    def scores(self, X):
        """Network output in (0, 1) for each row of X."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        needed = max(self.selected_features)
        if X.shape[1] <= needed:
            raise DataError(f"input must provide at least {needed + 1} feature values")
        zs = []
        for nrn in self.neurons or [self.base_neuron]:
            zs.append(nrn.outputs(X, zs))
        return zs[-1]

    def predict_classes(self, X):
        return (self.scores(X) >= self.threshold).astype(int)


def _error(outputs, val, cfg):
    """Validation error of a neuron's outputs on the rows of val."""
    return float(np.mean((outputs >= cfg.decision_threshold).astype(int) != val.labels))


def _fit_single_features(train, val, cfg):
    """Fit a one-input neuron on every column, column j's with seed
    derive_seed(cfg.seed, 0, j), and rank the columns by its validation
    error, ties to the lower index. Returns (feature order, errors in that
    order, per-column (validation error, fitted neuron))."""
    m = train.n_features

    def fit(ks):
        neurons = [SigmoidNeuron((("x", j),)) for j in ks]
        return fit_neuron(neurons, [nrn.inputs(train.features) for nrn in neurons], train.labels,
                          [derive_seed(cfg.seed, 0, j) for j in ks], cfg)

    singles = [(_error(nrn.outputs(val.features), val, cfg), nrn) for nrn in in_order(fit, m)]
    order = tuple(sorted(range(m), key=lambda j: (singles[j][0], j)))
    return order, tuple(singles[j][0] for j in order), singles


def train_ecnn(train, val, cfg: FitConfig = FitConfig()) -> CascadeNetwork:
    """Grow a cascade network while validation error strictly decreases.

    Walks the ranked feature pool once; each candidate neuron sees the
    anchor, the next-ranked feature, and all previously accepted outputs,
    and the first that strictly lowers the validation error is accepted.
    Candidates are fitted in chunks, and the network is, bit for bit, the
    one a walk fitting one candidate at a time grows. Deterministic for a
    fixed cfg.seed.
    """
    if train.class_count != 2:
        raise DataError("cascade training requires binary labels")
    if train.n_features < 2:
        raise DataError("need at least 2 features")
    if val.n_rows == 0:
        raise DataError("empty validation set")

    order, errors, singles = _fit_single_features(train, val, cfg)
    anchor = order[0]
    base_err, base_neuron = singles[anchor]

    net = CascadeNetwork(
        anchor=anchor, feature_order=order, single_errors=errors,
        base_neuron=base_neuron, base_score=base_err, threshold=cfg.decision_threshold,
    )

    # The walk fits the next ranked candidates as one stack, in order
    # (_util.in_order), and accepts the first strict improver; the fits behind
    # it are dropped, and those candidates start the next chunk, seeing the
    # new neuron's output. A chunk starts at one candidate, doubles after a
    # chunk that accepts nothing, falls back to one after an accept, and is at
    # most one descent stack.
    Xtr, Xva = train.features, val.features
    ztr, zva = [], []
    incumbent = base_err
    cap = max(1, STACK_ELEMENTS // (train.n_rows * cfg.restarts))
    h, size = 1, 1
    while h < len(order):
        feats = order[h:h + min(size, cap)]
        zs = tuple(("z", t) for t in range(len(net.neurons)))

        def fit(ks):
            candidates = [SigmoidNeuron((("x", anchor), ("x", feats[i])) + zs) for i in ks]
            return fit_neuron(candidates, [nrn.inputs(Xtr, ztr) for nrn in candidates],
                              train.labels, [derive_seed(cfg.seed, 1, h + i) for i in ks], cfg)

        size *= 2
        for i, (feat, candidate) in enumerate(zip(feats, in_order(fit, len(feats)))):
            out_va = candidate.outputs(Xva, zva)
            c1 = _error(out_va, val, cfg)
            if c1 < incumbent:   # only a strict improvement is accepted
                net.neurons.append(candidate)
                net.accepted_features.append(feat)
                net.accepted_scores.append(c1)
                ztr.append(candidate.outputs(Xtr, ztr))
                zva.append(out_va)
                incumbent = c1
                size = 1
                break
        h += i + 1
    return net


def describe_cascade(net: CascadeNetwork, feature_names, label_names) -> str:
    """One line per neuron: its inputs, its validation accuracy, and the
    fitted coefficients (the strength of each input's relation).

    Inputs are listed newest hidden output first, then the anchor feature,
    then the feature the neuron introduced.
    """
    def label(kind, ref):
        return feature_names[ref] if kind == "x" else f"z{ref + 1}"

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

    neurons = net.neurons or [net.base_neuron]
    scores = net.accepted_scores or [net.base_score]
    return "\n".join(fmt(f"z{t + 1}", nrn, 1.0 - err, t == len(neurons) - 1)
                     for t, (nrn, err) in enumerate(zip(neurons, scores)))


def cascade_to_dot(net: CascadeNetwork, feature_names, label_names) -> str:
    """Graphviz rendering of the cascade: feature boxes feeding neuron
    ellipses, accepted neurons filled gray."""
    lines = ["digraph cascade {", "  rankdir=LR;"]
    for f in net.selected_features:
        lines.append(f'  "x{f}" [label="{dot_escape(feature_names[f])}", shape=box];')
    neurons = net.neurons or [net.base_neuron]
    for t, nrn in enumerate(neurons):
        mark = ", peripheries=2" if t == len(neurons) - 1 else ""
        lines.append(f'  "z{t + 1}" [label="z{t + 1}", style=filled, fillcolor=gray80{mark}];')
        for kind, ref in nrn.bindings:
            src = f"x{ref}" if kind == "x" else f"z{ref + 1}"
            lines.append(f'  "{src}" -> "z{t + 1}";')
    lines.append("}")
    return "\n".join(lines)
