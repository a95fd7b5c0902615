"""Linear machines and pairwise decision trees.

A linear machine keeps one weight vector per class over the augmented input
(1, x) and classifies by winner-take-all. Weights are trained by the pocket
algorithm: random example draws with the error-correction rule, remembering
the weights that produced the longest run of correct classifications; the
ratchet refinement replaces the pocket only when full training accuracy
strictly improves, and a thermal correction size is available for
non-separable data.

Multi-class problems are decomposed one-vs-one: one threshold logic unit
(TLU) per class pair, each trained on its own feature subset, combined with
fixed +/-1 weights into per-class scores. Feature subsets come from either
greedy forward selection or a randomized accuracy-proportional scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from ._util import augment, derive_seed
from .dataset import Dataset
from .errors import DataError, TrainingError

__all__ = [
    "LinearMachine", "PocketState", "ThermalSchedule", "LinearTest", "PairwiseTree",
    "LmdtConfig", "wta_classify", "error_correct", "train_pocket_ratchet",
    "thermal_c", "thermal_correction", "sfs_select", "induce_dt",
    "train_pairwise_tree", "combine_pairwise", "aggregate_segments",
    "describe_linear_machine", "linear_machine_to_dot", "describe_pairwise_tree",
    "pairwise_tree_to_dot",
]


@dataclass(eq=False)
class LinearMachine:
    """r discriminant vectors over (1, x); the largest score wins."""

    weights: np.ndarray  # shape (r, m + 1); column 0 multiplies x0 == 1

    def __post_init__(self):
        self.weights = np.atleast_2d(np.asarray(self.weights, dtype=float))
        if self.weights.shape[0] < 2:
            raise DataError("a linear machine needs at least 2 classes")

    @classmethod
    def zeros(cls, classes, features):
        return cls(np.zeros((classes, features + 1)))

    @property
    def class_count(self):
        return self.weights.shape[0]

    def predict_classes(self, X):
        return np.argmax(augment(X) @ self.weights.T, axis=1)


@dataclass
class PocketState:
    """Best-so-far weights kept aside during pocket training."""

    weights: np.ndarray
    run_length: int
    accuracy: float
    accuracy_trace: list = field(default_factory=list)
    run_length_trace: list = field(default_factory=list)
    epochs_run: int = 0


@dataclass
class ThermalSchedule:
    """Annealed correction size c = beta / (beta + k^2).

    beta starts at 2 and is reduced to a*beta - b whenever the summed weight
    magnitude shrank on this epoch after growing on the previous one;
    training halts once beta is no longer positive.
    """

    beta: float = 2.0
    epsilon: float = 0.11
    a: float = 0.99
    b: float = 0.01

    def __post_init__(self):
        if self.beta <= 0:
            raise DataError("beta must start positive")
        if self.epsilon <= 0.1:
            raise DataError("epsilon must exceed 0.1")
        if self.a <= 0 or self.b <= 0:
            raise DataError("annealing constants must be positive")

    def anneal(self, delta_now, delta_prev):
        """Reduce beta when the weight-magnitude sum shrank on this step
        after growing on the previous one. Returns False once beta has been
        driven to zero or below, meaning training must halt."""
        if delta_now < 0 and delta_prev > 0:
            self.beta = self.a * self.beta - self.b
        return self.beta > 0


@dataclass(eq=False)
class LinearTest:
    """A TLU over a feature subset: sign(w . (1, x[features])), with
    sign(0) mapped to +1."""

    features: tuple
    weights: np.ndarray
    accuracy: float = float("nan")

    def __post_init__(self):
        self.features = tuple(int(f) for f in self.features)
        if len(set(self.features)) != len(self.features):
            raise DataError("feature subset indices must be unique")
        self.weights = np.asarray(self.weights, dtype=float)
        if self.weights.shape != (len(self.features) + 1,):
            raise DataError("weight length must be subset size + 1")

    def raw(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] <= max(self.features):
            raise DataError(f"input must provide at least {max(self.features) + 1} "
                            "feature values")
        return augment(X[:, list(self.features)]) @ self.weights

    def outputs(self, X):
        """Vector of +/-1 decisions, one per row."""
        return np.where(self.raw(X) >= 0, 1, -1)


@dataclass(eq=False)
class PairwiseTree:
    """One TLU per class pair (i, j), i < j, outputting +1 for class i.

    The combiner is fixed: pair (i, j) adds its output to class i's score
    and subtracts it from class j's, so every g_i sums the +/-1 votes of
    the r - 1 units that involve class i.
    """

    class_count: int
    tlus: dict
    feature_names: tuple = ()

    def __post_init__(self):
        expect = {(i, j) for i, j in combinations(range(self.class_count), 2)}
        if set(self.tlus) != expect:
            raise DataError(f"need exactly {len(expect)} pairwise tests, one per class pair")

    def class_scores(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        g = np.zeros((X.shape[0], self.class_count))
        for (i, j) in sorted(self.tlus):
            f = self.tlus[(i, j)].outputs(X)
            g[:, i] += f
            g[:, j] -= f
        return g

    def predict_classes(self, X):
        return np.argmax(self.class_scores(X), axis=1)


@dataclass(frozen=True)
class LmdtConfig:
    """Training knobs for linear machines and pairwise trees.

    epochs None means one epoch per training example (the thorough setting;
    quadratic in n). test_epochs bounds the cheaper fits of candidate
    feature-subset tests. pair_trainer picks how each pairwise TLU finds
    its features: "induce-dt" (randomized scan), "sfs" (greedy forward
    selection), or "all-features".
    """

    c: float = 1.0
    use_ratchet: bool = True
    epochs: int | None = None
    test_epochs: int = 25
    correction: str = "fixed"
    thermal: ThermalSchedule = field(default_factory=ThermalSchedule)
    pair_trainer: str = "induce-dt"
    max_features: int | None = None
    attempts: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.c <= 0:
            raise DataError("correction amount c must be positive")
        if self.epochs is not None and self.epochs < 1:
            raise DataError("epochs must be at least 1")
        if self.test_epochs < 1:
            raise DataError("test_epochs must be at least 1")
        if self.correction not in ("fixed", "thermal"):
            raise DataError(f"unknown correction '{self.correction}'")
        if self.pair_trainer not in ("induce-dt", "sfs", "all-features"):
            raise DataError(f"unknown pair trainer '{self.pair_trainer}'")
        if self.max_features is not None and self.max_features < 1:
            raise DataError("max_features must be at least 1")
        if self.attempts < 1:
            raise DataError("attempts must be at least 1")


def wta_classify(lm: LinearMachine, x):
    """Winner-take-all class of one example; ties go to the lowest index."""
    x = np.asarray(x, dtype=float)
    if x.shape != (lm.weights.shape[1] - 1,):
        raise DataError(f"expected {lm.weights.shape[1] - 1} features, got {x.shape}")
    scores = lm.weights @ np.concatenate([[1.0], x])
    return int(np.argmax(scores))


def error_correct(lm: LinearMachine, x, true_class, predicted, c):
    """Move the true class's vector toward (1, x) and the mistaken
    prediction's away by the same amount; the vector sum is conserved."""
    if true_class == predicted:
        raise DataError("error correction applies only to misclassified examples")
    _correct(lm.weights, np.concatenate([[1.0], np.asarray(x, dtype=float)]),
             true_class, predicted, c)
    return lm


def _correct(W, xa, true_class, predicted, amount):
    """The error-correction step on the augmented input xa, in place."""
    W[true_class] += amount * xa
    W[predicted] -= amount * xa


def thermal_c(beta, k):
    """Correction magnitude beta / (beta + k^2); in (0, 1] for beta > 0."""
    return beta / (beta + k * k)


def thermal_correction(sched: ThermalSchedule, w_true, w_pred, x):
    """Annealed correction size for one misclassified example.

    k measures (half) the normalized score gap between the true and
    predicted class on the augmented input, offset by epsilon; large gaps
    yield small corrections so distant outliers stop destabilizing training.
    """
    return _thermal_amount(sched, np.asarray(w_true), np.asarray(w_pred),
                           np.concatenate([[1.0], np.asarray(x, dtype=float)]))


def _thermal_amount(sched, w_true, w_pred, xa):
    """thermal_correction on the augmented input xa."""
    k = float((w_true - w_pred) @ xa) / (2.0 * float(xa @ xa)) + sched.epsilon
    return thermal_c(sched.beta, k)


def train_pocket_ratchet(lm: LinearMachine, train: Dataset, epochs=None, c=1.0,
                         seed=0, use_ratchet=True, correction="fixed",
                         thermal: ThermalSchedule | None = None):
    """Pocket training: random draws with error correction, keeping the
    weights behind the longest correct run.

    Each epoch draws n random examples. A misclassification applies the
    correction rule and resets the run; a correct classification extends it,
    and once the run beats the pocketed one the full training accuracy is
    measured. It is measured once per weight change: the weights change only
    on a correction, so every later draw under the same weights reuses it.
    With the ratchet the pocket is replaced only when that accuracy strictly
    improves (so the pocketed accuracy never decreases, and training can
    stop early once it reaches 1); without it, any longer run replaces the
    pocket.

    Returns (pocketed machine, PocketState).
    """
    n = train.n_rows
    if n == 0:
        raise DataError("empty training data")
    if epochs is None:
        epochs = n
    if epochs < 1:
        raise DataError("need at least 1 epoch")
    X = augment(train.features)
    y = train.labels
    W = lm.weights.astype(float).copy()
    sched = ThermalSchedule(thermal.beta, thermal.epsilon, thermal.a, thermal.b) \
        if thermal is not None else ThermalSchedule()

    def full_accuracy(weights):
        return float(np.mean(np.argmax(X @ weights.T, axis=1) == y))

    rng = np.random.default_rng(seed)
    Wp = W.copy()
    Lp = 0
    Ap = full_accuracy(W)
    state = PocketState(Wp, Lp, Ap, [Ap], [Lp])
    L = 0
    prev_mag = float(np.abs(W).sum())
    prev_delta = 0.0

    labels = y.tolist()
    A = Ap  # full accuracy of W; None once a correction has changed W
    for epoch in range(epochs):
        for i in rng.integers(0, n, size=n).tolist():
            xa = X[i]
            pred = int((W @ xa).argmax())
            q = labels[i]
            if pred != q:
                amount = _thermal_amount(sched, W[q], W[pred], xa) \
                    if correction == "thermal" else c
                _correct(W, xa, q, pred, amount)
                L = 0
                A = None
            else:
                L += 1
                if L > state.run_length:
                    if A is None:
                        A = full_accuracy(W)
                    if (not use_ratchet) or A > state.accuracy:
                        state.weights = W.copy()
                        state.run_length = L
                        state.accuracy = A
                        state.accuracy_trace.append(A)
                        state.run_length_trace.append(L)
        state.epochs_run = epoch + 1
        if correction == "thermal":
            mag = float(np.abs(W).sum())
            delta = mag - prev_mag
            if not sched.anneal(delta, prev_delta):
                break
            prev_mag, prev_delta = mag, delta
        if use_ratchet and state.accuracy >= 1.0:
            break   # the ratchet can never replace a perfect pocket
    return LinearMachine(state.weights.copy()), state


def _fit_test(train: Dataset, val: Dataset, features, cfg: LmdtConfig, seed) -> LinearTest:
    """Pocket-train a binary TLU on a feature subset; accuracy on `val`.

    Training labels must be 0/1 with 1 the positive (+1 output) class.
    """
    sub = Dataset(train.features[:, list(features)], train.labels,
                  tuple(train.feature_names[f] for f in features), 2)
    lm, _ = train_pocket_ratchet(
        LinearMachine.zeros(2, len(features)), sub, epochs=cfg.test_epochs,
        c=cfg.c, seed=seed, use_ratchet=cfg.use_ratchet,
        correction=cfg.correction, thermal=cfg.thermal)
    test = LinearTest(tuple(features), lm.weights[1] - lm.weights[0])
    score_on = val if val.n_rows else train
    test.accuracy = float(np.mean(
        (test.outputs(score_on.features) > 0).astype(int) == score_on.labels))
    return test


def sfs_select(train: Dataset, val: Dataset, r=2, cfg: LmdtConfig = LmdtConfig()) -> LinearTest:
    """Greedy forward feature selection for a binary linear test.

    Starts from the best single feature and keeps adding whichever feature
    most improves validation accuracy. The search stops when every feature
    is used or the best candidate falls more than 10 percentage points
    below the best accuracy seen; the returned test is the best seen,
    which also has the fewest features among ties (later equal-accuracy
    tests never replace it).
    """
    if r != 2:
        raise DataError("feature selection operates on binary tests")
    if train.class_count != 2:
        raise DataError("binary labels required")
    m = train.n_features
    singles = [_fit_test(train, val, (j,), cfg, derive_seed(cfg.seed, 0, j))
               for j in range(m)]
    current = max(range(m), key=lambda j: (singles[j].accuracy, -j))
    current_test = singles[current]
    best = current_test

    while len(current_test.features) < m:
        step = len(current_test.features)
        candidates = []
        for j in range(m):
            if j in current_test.features:
                continue
            cand = _fit_test(train, val, current_test.features + (j,), cfg,
                             derive_seed(cfg.seed, step, j))
            candidates.append(cand)
        chosen = max(candidates, key=lambda t: (t.accuracy, -t.features[-1]))
        if chosen.accuracy < best.accuracy - 0.10:
            break
        current_test = chosen
        if chosen.accuracy > best.accuracy:
            best = chosen
    return best


def induce_dt(train: Dataset, val: Dataset, max_features=None, attempts=10,
              seed=0, cfg: LmdtConfig = LmdtConfig()) -> LinearTest:
    """Randomized feature-subset search for a binary linear test.

    Single-feature accuracies, normalized by their maximum, become
    acceptance probabilities over the accuracy-sorted feature pool. Each
    attempt scans the pool, flips a coin against each feature's
    probability, retrains the test with the feature added, and keeps the
    growth only when accuracy improves; a scan stops at max_features. The
    best test across attempts wins. Because accepted subsets can differ by
    several features between attempts, this escapes the one-feature-at-a-
    time local minima of plain forward selection.
    """
    if attempts < 1:
        raise DataError("need at least 1 attempt")
    if train.class_count != 2:
        raise DataError("binary labels required")
    m = train.n_features
    cap = m if max_features is None else min(max_features, m)

    singles = [_fit_test(train, val, (j,), cfg, derive_seed(seed, 0, j))
               for j in range(m)]
    acc = np.array([t.accuracy for t in singles])
    if acc.max() <= 0:
        raise TrainingError("every single-feature test has zero accuracy")
    probs = acc / acc.max()
    pool = sorted(range(m), key=lambda j: (-probs[j], j))

    rng = np.random.default_rng(derive_seed(seed, 1))
    best = None
    for attempt in range(attempts):
        test = None
        accuracy = 0.0
        for rank, j in enumerate(pool):
            if test is not None and len(test.features) >= cap:
                break
            if probs[j] > rng.random():
                feats = (test.features if test is not None else ()) + (j,)
                cand = _fit_test(train, val, feats, cfg,
                                 derive_seed(seed, 2, attempt, rank))
                if cand.accuracy > accuracy:
                    test, accuracy = cand, cand.accuracy
        if test is not None and (best is None or accuracy > best.accuracy):
            best = test
    if best is None:
        raise TrainingError("no candidate test was ever accepted")
    return best


def train_pairwise_tree(train: Dataset, val: Dataset, r=None,
                        cfg: LmdtConfig = LmdtConfig()) -> PairwiseTree:
    """Train one TLU per class pair on the rows of those two classes.

    Class i is the positive (+1) side of pair (i, j), i < j. Each pair gets
    its own deterministic seed, so the units are independent and could be
    trained in parallel.
    """
    if r is None:
        r = train.class_count
    if r < 2:
        raise DataError("need at least 2 classes")
    tlus = {}
    for i, j in combinations(range(r), 2):
        tr_mask = (train.labels == i) | (train.labels == j)
        va_mask = (val.labels == i) | (val.labels == j)
        if not ((train.labels == i).any() and (train.labels == j).any()):
            raise DataError(f"class pair ({i}, {j}) has an empty side in the training data")
        pair_train = Dataset(train.features[tr_mask],
                             (train.labels[tr_mask] == i).astype(int),
                             train.feature_names, 2)
        pair_val = Dataset(val.features[va_mask],
                           (val.labels[va_mask] == i).astype(int),
                           val.feature_names, 2) if va_mask.any() else \
            Dataset(pair_train.features[:0], pair_train.labels[:0], train.feature_names, 2)
        pair_seed = derive_seed(cfg.seed, i, j)
        if cfg.pair_trainer == "induce-dt":
            tlus[(i, j)] = induce_dt(pair_train, pair_val, cfg.max_features,
                                     cfg.attempts, pair_seed, cfg)
        elif cfg.pair_trainer == "sfs":
            tlus[(i, j)] = sfs_select(pair_train, pair_val, 2,
                                      replace(cfg, seed=pair_seed))
        else:
            tlus[(i, j)] = _fit_test(pair_train, pair_val,
                                     tuple(range(train.n_features)), cfg, pair_seed)
    return PairwiseTree(r, tlus, train.feature_names)


def combine_pairwise(f_outputs, class_count=None):
    """Combine pairwise +/-1 outputs into per-class scores.

    f_outputs maps (i, j) with i < j to the unit's output. Class i's score
    adds outputs of pairs (i, k) for k > i and subtracts those of (k, i)
    for k < i; the winner (lowest index on ties) is returned with the
    scores. The scores always sum to zero.
    """
    if class_count is None:
        class_count = max(j for _, j in f_outputs) + 1
    expect = set(combinations(range(class_count), 2))
    if set(f_outputs) != expect:
        missing = sorted(expect - set(f_outputs))
        raise DataError(f"incomplete pairwise outputs; missing {missing}")
    g = np.zeros(class_count)
    for (i, j), f in f_outputs.items():
        g[i] += f
        g[j] -= f
    return tuple(float(v) for v in g), int(np.argmax(g))


def aggregate_segments(predictions, class_count):
    """Normalized histogram of per-segment class decisions.

    Summing the segment votes of one recording gives a probabilistic
    reading of its class: the top class and its fraction of segments.
    """
    preds = np.asarray(predictions, dtype=int)
    if preds.size == 0:
        raise DataError("no predictions to aggregate")
    dist = np.bincount(preds, minlength=class_count).astype(float) / preds.size
    return dist


def describe_linear_machine(lm: LinearMachine, feature_names, class_names) -> str:
    """One line per class: its discriminant's bias and feature weights."""
    lines = []
    for k, w in enumerate(lm.weights):
        terms = ", ".join([f"bias={w[0]:.4f}"] +
                          [f"{feature_names[i]}={w[i + 1]:.4f}" for i in range(len(w) - 1)])
        lines.append(f"g_{class_names[k]}: {terms}")
    return "\n".join(lines)


def linear_machine_to_dot(lm: LinearMachine, feature_names, class_names) -> str:
    """Graphviz rendering: every feature box feeds every class discriminant."""
    lines = ["digraph linmachine {", "  rankdir=LR;"]
    for i, name in enumerate(feature_names):
        lines.append(f'  "x{i}" [label="{name}", shape=box];')
    for k in range(lm.class_count):
        lines.append(f'  "g{k}" [label="g_{class_names[k]}"];')
        for i in range(len(feature_names)):
            lines.append(f'  "x{i}" -> "g{k}";')
    lines.append("}")
    return "\n".join(lines)


def describe_pairwise_tree(tree: PairwiseTree, feature_names, class_names) -> str:
    """One line per class pair: the unit's features, weights and accuracy."""
    lines = []
    for (i, j) in sorted(tree.tlus):
        t = tree.tlus[(i, j)]
        feats = ", ".join(feature_names[f] for f in t.features)
        ws = ", ".join(f"{v:.4f}" for v in t.weights)
        lines.append(f"f_{class_names[i]}/{class_names[j]}: "
                     f"features [{feats}] weights [{ws}] accuracy {t.accuracy:.4f}")
    return "\n".join(lines)


def pairwise_tree_to_dot(tree: PairwiseTree, class_names) -> str:
    """Graphviz rendering: each pair unit votes +1 for class i, -1 for class j."""
    lines = ["digraph pairwise {", "  rankdir=LR;"]
    for (i, j) in sorted(tree.tlus):
        lines.append(f'  "f{i}_{j}" [label="f_{i}/{j}", shape=box];')
    for k in range(tree.class_count):
        lines.append(f'  "g{k}" [label="g_{class_names[k]}"];')
    for (i, j) in sorted(tree.tlus):
        lines.append(f'  "f{i}_{j}" -> "g{i}" [label="+1"];')
        lines.append(f'  "f{i}_{j}" -> "g{j}" [label="-1"];')
    lines.append("}")
    return "\n".join(lines)
