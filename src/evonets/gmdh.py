"""Polynomial networks grown by the group method of data handling (GMDH).

Two-input supporting neurons with short polynomial transfer functions are
generated in layers, fitted on one half of the data, and selected by their
sum-squared error on the other half (the exterior criterion). Growth stops
as soon as the best candidate of a new layer fails to improve on the
previous layer. A roulette variant replaces exhaustive layer generation
with randomized pairing proportional to validation accuracy, which scales
to many input features.

The trained network is a small DAG that prints as a readable set of
polynomial equations.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from ._util import derive_seed, dot_escape, first_lowest, in_order, shown, stack_chunks
from .errors import DataError, TrainingError
from .neuron import check_descent, exterior_criterion, least_squares_fit

__all__ = [
    "KINDS", "SupportingNeuron", "PolyNetwork", "GmdhConfig", "count_candidates",
    "train_gmdh_layered", "train_gmdh_roulette", "to_polynomial_text", "gmdh_to_dot",
]

KINDS = ("linear", "bilinear")   # supporting-neuron transfer functions


@dataclass(eq=False)
class SupportingNeuron:
    """One node of a polynomial network.

    kind "linear" computes w0 + w1*v1 (+ w2*v2); kind "bilinear" adds the
    interaction term w3*v1*v2 and requires exactly two inputs. Inputs
    reference either a feature column ("x", j) or an earlier neuron ("n", k).
    """

    kind: str
    inputs: tuple
    weights: np.ndarray | None = None
    layer: int = 1
    survivor: bool = False
    criterion: float = float("nan")
    accuracy: float = float("nan")

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DataError(f"unknown neuron kind {shown(self.kind)}")
        self.inputs = tuple((str(t), int(r)) for t, r in self.inputs)
        if len(self.inputs) not in (1, 2):
            raise DataError("supporting neurons take one or two inputs")
        if self.kind == "bilinear" and len(self.inputs) != 2:
            raise DataError("bilinear neurons need exactly two inputs")
        for t, _ in self.inputs:
            if t not in ("x", "n"):
                raise DataError(f"unknown input reference {shown(t)}")
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=float)
            if self.weights.shape != (self.weight_count,):
                raise DataError(f"{self.kind} neuron with {len(self.inputs)} inputs "
                                f"needs {self.weight_count} weights")

    @property
    def weight_count(self):
        return 4 if self.kind == "bilinear" else len(self.inputs) + 1


@dataclass(eq=False)
class PolyNetwork:
    """Topologically ordered supporting neurons plus the output reference.

    layer_scores records the minimal exterior criterion of each retained
    layer (layered growth only); these are strictly decreasing by the stop
    rule. Predictions threshold the raw polynomial output at 0.5 against
    0/1 targets.
    """

    neurons: list
    output: int
    layer_scores: list = field(default_factory=list)

    def referenced_features(self):
        cols = sorted({r for n in self.neurons for t, r in n.inputs if t == "x"})
        return tuple(cols)

    def raw_outputs(self, X):
        if not self.neurons:
            raise TrainingError("untrained model: network has no neurons")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        needed = max(self.referenced_features(), default=-1)
        if X.shape[1] <= needed:
            raise DataError(f"input must provide at least {needed + 1} feature values")
        outs = []
        for nrn in self.neurons:
            outs.append(_output(nrn, X, outs))
        return outs[self.output]

    def predict_classes(self, X):
        return (self.raw_outputs(X) >= 0.5).astype(int)


@dataclass(frozen=True)
class GmdhConfig:
    """Growth parameters.

    survivors: how many best candidates seed the next layer; the default
    round(0.4 * first-layer size) is capped at 64 to keep layered growth
    polynomial when there are many features. attempts only applies to the
    roulette variant. method picks the weight fitter: "gradient" descends
    the squared error from cfg.restarts random starts, with cfg.epochs steps
    of cfg.learning_rate each, "least_squares" solves the normal equations
    directly. Gradient descent runs in Gram form, on BᵀB and Bᵀy of a
    candidate's design B on the fitting subset, so its epochs never pass
    over the rows; see _fit_weights.
    """

    kind: str = "bilinear"
    survivors: int | None = None
    max_layers: int = 10
    attempts: int = 500
    method: str = "gradient"
    learning_rate: float = 0.1
    epochs: int = 200
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DataError(f"unknown neuron kind '{self.kind}'")
        if self.survivors is not None and self.survivors < 1:
            raise DataError("survivors must be at least 1")
        if self.max_layers < 1:
            raise DataError("max_layers must be at least 1")
        if self.attempts < 0:
            raise DataError("attempts must be non-negative")
        if self.method not in ("gradient", "least_squares"):
            raise DataError(f"unknown fit method '{self.method}'")
        check_descent(self.learning_rate, self.epochs, self.restarts)


def count_candidates(m):
    """Number of two-input pairings of m features: m * (m - 1) / 2."""
    if m < 2:
        raise DataError("need at least 2 features")
    return m * (m - 1) // 2


def _basis(kind, cols):
    """Design matrix of a neuron's polynomial from its input columns: each
    column (n,) gives (n, q), and a stack (k, n) per input gives (k, n, q)."""
    B = np.empty(cols[0].shape + (len(cols) + 1 + (kind == "bilinear"),))
    B[..., 0] = 1.0
    for i, col in enumerate(cols, 1):
        B[..., i] = col
    if kind == "bilinear":
        np.multiply(cols[0], cols[1], out=B[..., 3])
    return B


def _columns(refs, X, outs):
    """Input columns of a batch of neurons with inputs refs[0], refs[1], ...:
    one (len(refs), rows) array per input position, where ("x", j) is column
    j of X and ("n", k) is outs[k]."""
    return [np.array([X[:, r] if t == "x" else outs[r] for t, r in col]) for col in zip(*refs)]


def _output(nrn, X, outs):
    """The neuron's output on the rows of X; outs holds the outputs of the
    neurons "n" refers to."""
    return _basis(nrn.kind, _columns([nrn.inputs], X, outs))[0] @ nrn.weights


def _fit_weights(B, y, cfg: GmdhConfig, keys):
    """Fit polynomial weights by the configured method, one fit per key on
    its design in the stack B, (len(keys), n, q). Returns (len(keys), q).

    Gradient descent starts cfg.restarts times per key from the rng seeded
    with derive_seed(cfg.seed, *key) and keeps each key's first restart with
    the strictly lowest sum-squared error. The descent runs in Gram form:
    the squared error of a polynomial that is linear in its weights has the
    gradient (2/n)(G w - c) with G = BᵀB and c = Bᵀy, so G and c are formed
    once and each epoch costs a q x q product instead of a pass over the
    rows. That is the row-by-row descent in exact arithmetic, but it sums in
    another order, so its weights differ from that descent's in the last
    bits. All keys and restarts descend together as one stack; a stacked
    matmul runs the same BLAS call on each element as `G @ w` does, so each
    fit is bit-identical to one made alone. The sum-squared errors, which
    pass over the rows, are taken in chunks of at most STACK_ELEMENTS
    per-row elements. Least squares has no starts and derives no seed.
    """
    if cfg.method == "least_squares":
        return least_squares_fit(B, y)
    W = np.stack([np.random.default_rng(derive_seed(cfg.seed, *key))
                  .uniform(-0.5, 0.5, size=(cfg.restarts, B.shape[-1])) for key in keys])
    Bt = np.swapaxes(B, -1, -2)
    # a diverging descent overflows; the weights are checked once, at the end
    with np.errstate(over="ignore", invalid="ignore"):
        G = (Bt @ B)[:, None]   # shared by a key's restarts
        c = (Bt @ y)[:, None]
        step = cfg.learning_rate * (2.0 / y.shape[0])
        for _ in range(cfg.epochs):
            W -= step * ((G @ W[..., None])[..., 0] - c)
        if not np.isfinite(W).all():
            raise TrainingError("polynomial weights diverged; lower the learning rate")
        r, q = cfg.restarts, B.shape[-1]
        Wf = W.reshape(-1, q)   # element e is restart e % r of key e // r
        sse = np.empty(len(Wf))
        for s in stack_chunks(len(Wf), y.shape[0] * q):   # a chunk gathers its designs
            Be = B[np.arange(s.start, s.stop) // r]
            sse[s] = np.sum(((Be @ Wf[s, :, None])[..., 0] - y) ** 2, axis=-1)
    return W[np.arange(len(keys)), [first_lowest(e) for e in sse.reshape(-1, r)]]


# Layered growth fits a layer's candidates this many at a time, as one
# stack. Measured on a 72-feature first layer (2556 candidates, 801 fitting
# rows): the time is flat from 64 to 512 and about 15% higher at 32, while
# the stacked designs and outputs grow with the chunk (peak traced memory
# 5, 9 and 29 MB at 64, 128 and 512).
CHUNK = 128


def _candidates(kind, refs, keys, layer, XA, XB, outsA, outsB, yA, cfg):
    """Fit one neuron per entry of refs on the fitting subset A, keyed as
    for _fit_weights, as one stack; yields each (neuron, its output on B) in
    the order of refs, and raises a failed fit where fitting one candidate at
    a time would (_util.in_order). outsA/outsB hold the outputs of the
    neurons "n" refers to."""
    def fit(ks):
        rs = [refs[k] for k in ks]
        W = _fit_weights(_basis(kind, _columns(rs, XA, outsA)), yA, cfg, [keys[k] for k in ks])
        OB = (_basis(kind, _columns(rs, XB, outsB)) @ W[..., None])[..., 0]
        return [(SupportingNeuron(kind, r, w, layer=layer), outB) for r, w, outB in zip(rs, W, OB)]

    return in_order(fit, len(refs))


def _subsets(train, val):
    """The fitting subset A and validation subset B of either growth as
    (XA, XB, yA, yB), with 0/1 float targets; DataError for fewer than 2
    features, labels that are not binary, or an empty validation set."""
    if train.n_features < 2:
        raise DataError("need at least 2 features")
    for ds in (train, val):
        if ds.class_count != 2:
            raise DataError("polynomial-network training requires binary labels")
    if val.n_rows == 0:
        raise DataError("empty validation set")
    return train.features, val.features, train.labels.astype(float), val.labels.astype(float)


def train_gmdh_layered(train, val, cfg: GmdhConfig = GmdhConfig()) -> PolyNetwork:
    """Layer-wise exhaustive growth with exterior-criterion selection.

    Layer 1 fits every pairing of input features on the fitting subset and
    keeps the `survivors` best by held-out sum-squared error; later layers
    pair the survivors. Growth stops when a new layer's best candidate no
    longer improves, and the best neuron of the last retained layer becomes
    the output. Neurons the output never references are pruned.
    """
    XA, XB, yA, yB = _subsets(train, val)
    if not 0.4 <= train.n_rows / max(val.n_rows, 1) <= 2.5:
        warnings.warn("fitting and validation subsets differ a lot in size; "
                      "the selection criterion works best when they are comparable",
                      stacklevel=2)

    m = train.n_features
    kept, outsA, outsB = [], [], []   # retained neurons and their outputs on A and B
    layer_scores = []
    n_keep = cfg.survivors if cfg.survivors is not None \
        else max(1, min(64, round(0.4 * count_candidates(m))))
    pairs = [(("x", a), ("x", b)) for a, b in combinations(range(m), 2)]

    for layer in range(1, cfg.max_layers + 1):
        if not pairs:
            break
        candidates = []
        for start in range(0, len(pairs), CHUNK):
            ids = range(start, min(start + CHUNK, len(pairs)))
            fitted = _candidates(cfg.kind, pairs[start:ids.stop], [(layer, ci) for ci in ids],
                                 layer, XA, XB, outsA, outsB, yA, cfg)
            for ci, (nrn, outB) in zip(ids, fitted):
                nrn.criterion = exterior_criterion(outB, yB)
                candidates.append((ci, nrn))

        order = sorted(candidates, key=lambda c: (c[1].criterion, c[0]))
        best_cr = order[0][1].criterion
        if layer_scores and best_cr >= layer_scores[-1]:
            break
        layer_scores.append(best_cr)
        output = len(kept)   # survivors are sorted best-first
        for ci, nrn in order[:n_keep]:
            nrn.survivor = True
            # outputs are recomputed for the few survivors rather than kept
            # for every candidate
            outsA.append(_output(nrn, XA, outsA))
            outsB.append(_output(nrn, XB, outsB))
            kept.append(nrn)
        pairs = [(("n", a), ("n", b)) for a, b in combinations(range(output, len(kept)), 2)]

    return _pruned(PolyNetwork(kept, output, layer_scores))


def train_gmdh_roulette(train, val, cfg: GmdhConfig = GmdhConfig()) -> PolyNetwork:
    """Randomized growth: accepted neurons join the selectable pool.

    Every feature first gets a one-input neuron whose validation accuracy
    seeds the roulette pool. Each attempt draws a pair of distinct pool
    members with probability proportional to accuracy, fits a two-input
    candidate on them, and accepts it only when it beats both parents; an
    accepted neuron's output becomes selectable for later pairings. The
    final model is the pool member with the best validation accuracy.
    """
    XA, XB, yA, _ = _subsets(train, val)
    m = train.n_features
    neurons, outsA, outsB = [], [], []
    pool = []  # accuracy per pool member; member k is neurons[k], and
    #            members below m stand in for the raw features themselves

    def offer(nrn, outB, to_beat):
        """Add a fitted candidate, given its output on B, to the pool if its
        accuracy beats to_beat."""
        acc = float(np.mean((outB >= 0.5).astype(int) == val.labels))
        if acc > to_beat:
            nrn.accuracy = acc
            neurons.append(nrn)
            outsA.append(_output(nrn, XA, outsA))
            outsB.append(outB)
            pool.append(acc)

    # one-input neurons on every feature, fitted as one stack; every accuracy
    # beats -1, so each feature joins the pool
    for nrn, outB in _candidates("linear", [(("x", i),) for i in range(m)],
                                 [(0, i) for i in range(m)], 1, XA, XB, outsA, outsB, yA, cfg):
        offer(nrn, outB, -1.0)

    rng = np.random.default_rng(derive_seed(cfg.seed, 1))

    for attempt in range(cfg.attempts):
        a = np.asarray(pool, dtype=float)
        probs = a / a.sum() if a.sum() > 0 else np.full(len(pool), 1.0 / len(pool))
        for _ in range(10):
            i = int(rng.choice(len(pool), p=probs))
            j = int(rng.choice(len(pool), p=probs))
            if i != j:
                nrn, outB = next(_candidates(
                    cfg.kind, [tuple(("x", p) if p < m else ("n", p) for p in (i, j))],
                    [(2, attempt)], 1 + max(neurons[i].layer, neurons[j].layer),
                    XA, XB, outsA, outsB, yA, cfg))
                nrn.survivor = True
                offer(nrn, outB, max(pool[i], pool[j]))
                break

    output = int(np.argmax(pool))
    return _pruned(PolyNetwork(neurons, output))


def _pruned(net: PolyNetwork) -> PolyNetwork:
    """Drop neurons the output never references; predictions are unchanged."""
    needed = set()
    stack = [net.output]
    while stack:
        k = stack.pop()
        if k in needed:
            continue
        needed.add(k)
        stack.extend(r for t, r in net.neurons[k].inputs if t == "n")
    keep = sorted(needed)
    remap = {old: new for new, old in enumerate(keep)}
    pruned = []
    for old in keep:
        nrn = net.neurons[old]
        inputs = tuple((t, r if t == "x" else remap[r]) for t, r in nrn.inputs)
        pruned.append(replace(nrn, inputs=inputs))
    return PolyNetwork(pruned, remap[net.output], list(net.layer_scores))


def _neuron_names(net):
    per_layer = {}
    names = []
    for nrn in net.neurons:
        per_layer[nrn.layer] = per_layer.get(nrn.layer, 0) + 1
        names.append(f"y{per_layer[nrn.layer]}({nrn.layer})")
    return names


def to_polynomial_text(net: PolyNetwork, feature_names, label_names) -> str:
    """The network as a set of polynomial equations, one per neuron, with
    coefficients to 4 decimals and inputs substituted by name. Listing is
    topological, so every referenced term appears before its use."""
    if not net.neurons:
        raise TrainingError("untrained model: network has no neurons")
    names = _neuron_names(net)
    lines = []
    for k, nrn in enumerate(net.neurons):
        ins = [feature_names[r] if t == "x" else names[r] for t, r in nrn.inputs]
        terms = list(ins)
        if nrn.kind == "bilinear":
            terms.append(f"{ins[0]}*{ins[1]}")
        eq = f"{nrn.weights[0]:.4f}"
        for w, term in zip(nrn.weights[1:], terms):
            sign = " + " if w >= 0 else " - "
            eq += f"{sign}{abs(w):.4f}*{term}"
        mark = "   (output)" if k == net.output else ""
        lines.append(f"{names[k]} = {eq}{mark}")
    return "\n".join(lines)


def gmdh_to_dot(net: PolyNetwork, feature_names, label_names) -> str:
    """Graphviz rendering of the DAG; surviving neurons are filled gray."""
    names = _neuron_names(net)
    lines = ["digraph polynet {", "  rankdir=LR;"]
    for f in net.referenced_features():
        lines.append(f'  "x{f}" [label="{dot_escape(feature_names[f])}", shape=box];')
    for k, nrn in enumerate(net.neurons):
        fill = ", style=filled, fillcolor=gray80" if nrn.survivor else ""
        mark = ", peripheries=2" if k == net.output else ""
        lines.append(f'  "n{k}" [label="{names[k]}"{fill}{mark}];')
        for t, r in nrn.inputs:
            src = f"x{r}" if t == "x" else f"n{r}"
            lines.append(f'  "{src}" -> "n{k}";')
    lines.append("}")
    return "\n".join(lines)
