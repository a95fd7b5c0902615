"""Linear machines and pairwise decision trees.

A linear machine keeps one weight vector per class over the augmented input
(1, x) and classifies by winner-take-all. Weights are trained by the pocket
algorithm: random example draws with the error-correction rule, remembering
the weights that produced the longest run of correct classifications; the
ratchet refinement replaces the pocket only when full training accuracy
strictly improves, and a thermal correction size, annealed by fixed
constants, is available for non-separable data.

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
    "CORRECTIONS", "PAIR_TRAINERS", "LinearMachine", "PocketState", "LinearTest",
    "PairwiseTree", "LmdtConfig", "check_correction", "error_correct",
    "train_pocket_ratchet", "thermal_c", "thermal_correction",
    "sfs_select", "induce_dt", "train_pairwise_tree", "combine_pairwise",
    "aggregate_segments", "describe_linear_machine", "linear_machine_to_dot",
    "describe_pairwise_tree", "pairwise_tree_to_dot",
]

CORRECTIONS = ("fixed", "thermal")   # pocket correction sizes
PAIR_TRAINERS = ("induce-dt", "sfs", "all-features")   # how a pair unit picks features

# Thermal correction: c = beta / (beta + k^2), with k offset by epsilon. beta
# starts at THERMAL_BETA and becomes a*beta - b whenever the summed weight
# magnitude shrank on an epoch after growing on the one before; training
# halts once beta is no longer positive.
THERMAL_BETA = 2.0
THERMAL_EPSILON = 0.11
THERMAL_A = 0.99
THERMAL_B = 0.01


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
        """Winner-take-all class per row; ties go to the lowest index."""
        Xa = augment(X)
        if Xa.shape[1] != self.weights.shape[1]:
            raise DataError(f"expected {self.weights.shape[1] - 1} features, "
                            f"got {Xa.shape[1] - 1}")
        return np.argmax(Xa @ self.weights.T, axis=1)


@dataclass
class PocketState:
    """Best-so-far weights kept aside during pocket training."""

    weights: np.ndarray
    run_length: int
    accuracy: float
    accuracy_trace: list = field(default_factory=list)
    run_length_trace: list = field(default_factory=list)
    epochs_run: int = 0


@dataclass(eq=False)
class LinearTest:
    """A TLU over a feature subset: sign(w . (1, x[features])), with
    sign(0) mapped to +1."""

    features: tuple
    weights: np.ndarray
    accuracy: float = float("nan")

    def __post_init__(self):
        self.features = tuple(int(f) for f in self.features)
        if not self.features:
            raise DataError("a linear test needs at least one feature")
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
        with np.errstate(over="ignore", invalid="ignore"):   # outputs reads only the sign
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

    test_epochs bounds the pocket fits of candidate feature-subset tests.
    pair_trainer picks how each pairwise TLU finds its features:
    "induce-dt" (randomized scan), "sfs" (greedy forward selection), or
    "all-features".
    """

    c: float = 1.0
    use_ratchet: bool = True
    test_epochs: int = 25
    correction: str = "fixed"
    pair_trainer: str = "induce-dt"
    max_features: int | None = None
    attempts: int = 10
    seed: int = 0

    def __post_init__(self):
        check_correction(self.c, self.correction)
        if self.test_epochs < 1:
            raise DataError("test_epochs must be at least 1")
        if self.pair_trainer not in PAIR_TRAINERS:
            raise DataError(f"unknown pair trainer '{self.pair_trainer}'")
        if self.max_features is not None and self.max_features < 1:
            raise DataError("max_features must be at least 1")
        if self.attempts < 1:
            raise DataError("attempts must be at least 1")


def check_correction(c, correction):
    """Reject a correction size or kind the pocket cannot use; LmdtConfig and
    train_pocket_ratchet both call this."""
    if not c > 0:   # also refuses NaN
        raise DataError("correction amount c must be positive")
    if not np.isfinite(c):
        raise DataError("correction amount c must be finite")
    if correction not in CORRECTIONS:
        raise DataError(f"unknown correction '{correction}'")


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
    d = amount * xa
    W[true_class] += d
    W[predicted] -= d


def thermal_c(beta, k):
    """Correction magnitude beta / (beta + k^2); in (0, 1] for beta > 0."""
    return beta / (beta + k * k)


def thermal_correction(beta, w_true, w_pred, xa):
    """Annealed correction size for one misclassified augmented input xa.

    k measures (half) the normalized score gap between the true and
    predicted class, offset by THERMAL_EPSILON; large gaps yield small
    corrections so distant outliers stop destabilizing training.
    """
    k = float((w_true - w_pred) @ xa) / (2.0 * float(xa @ xa)) + THERMAL_EPSILON
    return thermal_c(beta, k)


def train_pocket_ratchet(lm: LinearMachine, train: Dataset, epochs=None, c=1.0,
                         seed=0, use_ratchet=True, correction="fixed"):
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
    check_correction(c, correction)
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

    def full_accuracy(weights):
        # an exact count over n: the same float as the mean of the hits
        return np.count_nonzero(np.argmax(X @ weights.T, axis=1) == y) / n

    rng = np.random.default_rng(seed)
    Wp = W.copy()
    Lp = 0
    Ap = full_accuracy(W)
    state = PocketState(Wp, Lp, Ap, [Ap], [Lp])
    L = 0
    prev_mag = float(np.abs(W).sum())
    prev_delta = 0.0
    beta = THERMAL_BETA

    thermal_step = correction == "thermal"
    rows = list(X)
    labels = y.tolist()
    A = Ap  # full accuracy of W; None once a correction has changed W
    # a diverging machine overflows; the pocket is checked once, at the end
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            for i in rng.integers(0, n, size=n).tolist():
                xa = rows[i]
                # .dot issues the same gemv as W @ xa, at half the dispatch cost
                pred = W.dot(xa).argmax()
                q = labels[i]
                if pred != q:
                    amount = thermal_correction(beta, W[q], W[pred], xa) \
                        if thermal_step else c
                    _correct(W, xa, q, pred, amount)
                    L = 0
                    A = None
                else:
                    L += 1
                    if L > Lp:
                        if A is None:
                            A = full_accuracy(W)
                        if (not use_ratchet) or A > state.accuracy:
                            Lp = L
                            state.weights = W.copy()
                            state.run_length = L
                            state.accuracy = A
                            state.accuracy_trace.append(A)
                            state.run_length_trace.append(L)
            state.epochs_run = epoch + 1
            if thermal_step:
                mag = float(np.abs(W).sum())
                delta = mag - prev_mag
                if delta < 0 and prev_delta > 0:
                    beta = THERMAL_A * beta - THERMAL_B
                if not beta > 0:
                    break
                prev_mag, prev_delta = mag, delta
            if use_ratchet and state.accuracy >= 1.0:
                break   # the ratchet can never replace a perfect pocket
    if not np.isfinite(state.weights).all():
        raise TrainingError("pocket weights overflowed; use a smaller correction amount c")
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
        correction=cfg.correction)
    with np.errstate(over="ignore"):
        w = lm.weights[1] - lm.weights[0]
    if not np.isfinite(w).all():
        raise TrainingError("pair test weights overflowed; use a smaller correction amount c")
    test = LinearTest(tuple(features), w)
    score_on = val if val.n_rows else train
    test.accuracy = float(np.mean(
        (test.outputs(score_on.features) > 0).astype(int) == score_on.labels))
    return test


def _single_tests(train: Dataset, val: Dataset, cfg: LmdtConfig):
    """One test per feature alone, in column order: where both searches start."""
    if train.class_count != 2:
        raise DataError("binary labels required")
    return [_fit_test(train, val, (j,), cfg, derive_seed(cfg.seed, 0, j))
            for j in range(train.n_features)]


def sfs_select(train: Dataset, val: Dataset, cfg: LmdtConfig = LmdtConfig()) -> LinearTest:
    """Greedy forward feature selection for a binary linear test.

    Starts from the best single feature and keeps adding whichever feature
    most improves validation accuracy. The search stops when every feature
    is used or the best candidate falls more than 10 percentage points
    below the best accuracy seen; the returned test is the best seen,
    which also has the fewest features among ties (later equal-accuracy
    tests never replace it).
    """
    m = train.n_features
    current_test = max(_single_tests(train, val, cfg),
                       key=lambda t: (t.accuracy, -t.features[0]))
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


def induce_dt(train: Dataset, val: Dataset, cfg: LmdtConfig = LmdtConfig()) -> LinearTest:
    """Randomized feature-subset search for a binary linear test.

    Single-feature accuracies, normalized by their maximum, become
    acceptance probabilities over the accuracy-sorted feature pool. Each
    of cfg.attempts attempts scans the pool, flips a coin against each
    feature's probability, retrains the test with the feature added, and
    keeps the growth only when accuracy improves; a scan stops at
    cfg.max_features. The best test across attempts wins. Because accepted
    subsets can differ by several features between attempts, this escapes
    the one-feature-at-a-time local minima of plain forward selection.
    """
    m = train.n_features
    cap = m if cfg.max_features is None else min(cfg.max_features, m)

    acc = np.array([t.accuracy for t in _single_tests(train, val, cfg)])
    if acc.max() <= 0:
        raise TrainingError("every single-feature test has zero accuracy")
    probs = acc / acc.max()
    pool = sorted(range(m), key=lambda j: (-probs[j], j))

    rng = np.random.default_rng(derive_seed(cfg.seed, 1))
    best = None
    for attempt in range(cfg.attempts):
        test = None
        accuracy = 0.0
        for rank, j in enumerate(pool):
            if test is not None and len(test.features) >= cap:
                break
            if probs[j] > rng.random():
                feats = (test.features if test is not None else ()) + (j,)
                cand = _fit_test(train, val, feats, cfg,
                                 derive_seed(cfg.seed, 2, attempt, rank))
                if cand.accuracy > accuracy:
                    test, accuracy = cand, cand.accuracy
        if test is not None and (best is None or accuracy > best.accuracy):
            best = test
    if best is None:
        raise TrainingError("no candidate test was ever accepted")
    return best


def _all_features(train: Dataset, val: Dataset, cfg: LmdtConfig) -> LinearTest:
    """One test on every feature at once."""
    return _fit_test(train, val, tuple(range(train.n_features)), cfg, cfg.seed)


def train_pairwise_tree(train: Dataset, val: Dataset,
                        cfg: LmdtConfig = LmdtConfig()) -> PairwiseTree:
    """Train one TLU per class pair on the rows of those two classes.

    Class i is the positive (+1) side of pair (i, j), i < j. Each pair gets
    its own deterministic seed, so the units are independent and could be
    trained in parallel.
    """
    # the pair trainers are looked up when called, so a wrapper installed on
    # a module name (as a tracer does) sees every pair
    fit = dict(zip(PAIR_TRAINERS,
                   (induce_dt, sfs_select, _all_features)))[cfg.pair_trainer]
    tlus = {}
    for i, j in combinations(range(train.class_count), 2):
        tr_mask = (train.labels == i) | (train.labels == j)
        va_mask = (val.labels == i) | (val.labels == j)
        if not ((train.labels == i).any() and (train.labels == j).any()):
            raise DataError(f"class pair ({i}, {j}) has an empty side in the training data")
        pair_train = Dataset(train.features[tr_mask],
                             (train.labels[tr_mask] == i).astype(int),
                             train.feature_names, 2)
        pair_val = Dataset(val.features[va_mask],
                           (val.labels[va_mask] == i).astype(int),
                           val.feature_names, 2)
        tlus[(i, j)] = fit(pair_train, pair_val,
                           replace(cfg, seed=derive_seed(cfg.seed, i, j)))
    return PairwiseTree(train.class_count, tlus, train.feature_names)


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
