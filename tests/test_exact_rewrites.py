"""Rewritten kernels against the code they replaced.

`oracle_train_pocket_ratchet`, `oracle_augment`, `oracle_sigmoid`,
`oracle_search_threshold`, `oracle_predict_classes`,
`oracle_train_gmdh_layered`, `oracle_train_gmdh_roulette`, `oracle_pruned`,
`oracle_fit_loss`, `oracle_fit_gradient`, `oracle_fit_neuron`,
`oracle_fit_single_features`, `oracle_train_ecnn`, `oracle_fit_weights`,
`oracle_least_squares_fit`, `oracle_fnn_forward`,
`oracle_fnn_predict_classes`, `oracle_fnn_gradients` and `oracle_train_fnn`
are the former bodies of `linear.train_pocket_ratchet`, `_util.augment`,
`neuron.sigmoid`, `ruletree.search_threshold`,
`ruletree.RuleTree.predict_classes`, `gmdh.train_gmdh_layered`,
`gmdh.train_gmdh_roulette`, `gmdh._pruned`, `neuron.fit_loss`,
`neuron.fit_gradient`, `neuron.fit_neuron`, `cascade._fit_single_features`,
`cascade.train_ecnn`, `gmdh._fit_weights`, `neuron.least_squares_fit`, `FnnModel.forward`,
`FnnModel.predict_classes`, `baseline.fnn_gradients` and
`baseline.train_fnn`, kept verbatim as the reference (apart from their
names, the oracles they call, and a parameter that swaps in one part: the
GMDH trainers' weight fitter, the threshold search's midpoint rule). The
oracles call no library function that a rewrite here replaced.
`ThermalSchedule` is the former `linear.ThermalSchedule` the pocket oracle
anneals with. The rewrites only drop repeated or unused work or
repeated code, or fit independent problems as one stack (the cascade walk
fits ranked candidates in chunks and drops the fits behind the one it
accepts, `TestChunkedWalk`), so they must give
bit-identical results: the same pocketed weights and traces, the same sigmoid bytes, nan
and signed zero included, the same threshold bytes, polarity and error count,
the same rule-tree labels, the same fitted weights, feature rankings and
errors, the same feed-forward weights and divergence error, and the same
saved cascade and polynomial-network model files, also when a stack is
descended in chunks (`TestStackChunks`). `train_fnn` no longer
records a per-epoch training curve, so the curve's properties are checked
on the oracle's.

Two rewrites change results on purpose. Gradient-fitted polynomial networks
descend in Gram form, which sums in another order: they must grow the same
structure as the oracle with weights within a stated tolerance, and match
`gram_fit_weights`, the same descent made one candidate at a time, bit for
bit. `search_threshold` gives a finite midpoint where the oracle's overflows
to inf, and matches the oracle everywhere else.
"""

import warnings
from dataclasses import dataclass, replace
from itertools import combinations, product
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evonets import baseline, cascade, gmdh, neuron
from evonets._util import STACK_ELEMENTS, derive_seed, in_order, stack_chunks
from evonets.baseline import FnnConfig, FnnModel, _targets, train_fnn
from evonets.cascade import CascadeNetwork
from evonets.dataset import (Dataset, NormParams, SplitSpec, gen_blobs, gen_surrogate_eeg,
                             split)
from evonets.errors import DataError, TrainingError
from evonets.gmdh import (KINDS, GmdhConfig, PolyNetwork, SupportingNeuron, _basis,
                          _fit_weights, _subsets, count_candidates,
                          train_gmdh_layered, train_gmdh_roulette)
from evonets.linear import LinearMachine, PocketState, train_pocket_ratchet
from evonets.modelio import ModelBundle, save_model
from evonets.neuron import (SIGMOID_CLAMP, FitConfig, SigmoidNeuron, exterior_criterion,
                            fit_gradient, fit_loss, fit_neuron, least_squares_fit,
                            sigmoid)
from evonets.ruletree import RuleNode, RuleTree, extract_rules, search_threshold
from oracles import classify_rule, walk_chunks


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


def oracle_train_pocket_ratchet(lm: LinearMachine, train: Dataset, epochs=None, c=1.0,
                                seed=0, use_ratchet=True, correction="fixed",
                                thermal: ThermalSchedule | None = None):
    """Pocket training: random draws with error correction, keeping the
    weights behind the longest correct run.

    Each epoch draws n random examples. A misclassification applies the
    correction rule and resets the run; a correct classification extends it,
    and once the run beats the pocketed one the full training accuracy is
    measured. With the ratchet the pocket is replaced only when that
    accuracy strictly improves (so the pocketed accuracy never decreases,
    and training can stop early once it reaches 1); without it, any longer
    run replaces the pocket.

    Returns (pocketed machine, PocketState).
    """
    n = train.n_rows
    if n == 0:
        raise DataError("empty training data")
    if epochs is None:
        epochs = n
    if epochs < 1:
        raise DataError("need at least 1 epoch")
    X = oracle_augment(train.features)
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

    for epoch in range(epochs):
        for i in rng.integers(0, n, size=n):
            xa = X[i]
            pred = int(np.argmax(W @ xa))
            q = int(y[i])
            if pred != q:
                if correction == "thermal":
                    k = float((W[q] - W[pred]) @ xa) / (2.0 * float(xa @ xa)) + sched.epsilon
                    amount = sched.beta / (sched.beta + k * k)
                else:
                    amount = c
                W[q] += amount * xa
                W[pred] -= amount * xa
                L = 0
            else:
                L += 1
                if L > state.run_length:
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


def oracle_augment(X):
    """Prepend the constant input x0 = 1 to each row of X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.column_stack([np.ones(X.shape[0]), X])


def oracle_sigmoid(z):
    """Numerically stable logistic, clamped to [1e-12, 1 - 1e-12].

    Clamping keeps saturated outputs strictly inside (0, 1) so sum-squared
    criteria downstream stay finite and class decisions remain defined.
    """
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    out = np.clip(out, SIGMOID_CLAMP, 1.0 - SIGMOID_CLAMP)
    return float(out[0]) if scalar else out


def pocket_data(classes, seed, n=48, noise=2):
    """Overlapping blobs plus noise columns, so the pocket keeps changing."""
    ds = gen_blobs(n, classes=classes, seed=seed, spread=1.6)
    extra = np.random.default_rng(seed).standard_normal((n, noise))
    return Dataset(np.column_stack([ds.features, extra]), ds.labels,
                   ("x1", "x2") + tuple(f"n{j}" for j in range(noise)), classes)


def assert_same_pocket(got, want):
    (lm, state), (lm_ref, ref) = got, want
    assert lm.weights.tobytes() == lm_ref.weights.tobytes()
    assert state.weights.tobytes() == ref.weights.tobytes()
    assert state.run_length == ref.run_length
    assert state.accuracy == ref.accuracy
    assert state.accuracy_trace == ref.accuracy_trace
    assert state.run_length_trace == ref.run_length_trace
    assert state.epochs_run == ref.epochs_run


def assert_matches_oracle(W0, ds, **kw):
    """The pocket raises TrainingError exactly when the oracle's returned
    weights are non-finite, and otherwise matches it byte for byte."""
    with np.errstate(all="ignore"):
        want = oracle_train_pocket_ratchet(LinearMachine(W0.copy()), ds, **kw)
    if np.isfinite(want[0].weights).all():
        assert_same_pocket(train_pocket_ratchet(LinearMachine(W0.copy()), ds, **kw), want)
        return True
    with pytest.raises(TrainingError, match="pocket weights overflowed"):
        train_pocket_ratchet(LinearMachine(W0.copy()), ds, **kw)
    return False


class TestPocketOracle:
    @pytest.mark.parametrize("correction", ["fixed", "thermal"])
    @pytest.mark.parametrize("use_ratchet", [True, False])
    @pytest.mark.parametrize("epochs", [None, 1, 3])
    @pytest.mark.parametrize("classes", [2, 3])
    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_matches_oracle(self, correction, use_ratchet, epochs, classes, seed):
        ds = pocket_data(classes, seed)
        kw = dict(epochs=epochs, seed=seed + 100, use_ratchet=use_ratchet,
                  correction=correction)
        got = train_pocket_ratchet(LinearMachine.zeros(classes, 4), ds, **kw)
        want = oracle_train_pocket_ratchet(LinearMachine.zeros(classes, 4), ds, **kw)
        assert_same_pocket(got, want)

    @settings(max_examples=60, deadline=None)
    @given(classes=st.integers(2, 4), n=st.integers(1, 40), features=st.integers(1, 8),
           data_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**32 - 1),
           epochs=st.one_of(st.none(), st.integers(1, 6)),
           c=st.sampled_from([0.05, 1.0, 3.0, 1e308]), use_ratchet=st.booleans(),
           correction=st.sampled_from(["fixed", "thermal"]), warm=st.booleans())
    def test_matches_oracle_on_random_problems(self, classes, n, features, data_seed,
                                               seed, epochs, c, use_ratchet,
                                               correction, warm):
        rng = np.random.default_rng(data_seed)
        # a coarse grid makes exact score ties, which argmax breaks by index
        X = np.round(rng.standard_normal((n, features)), 1)
        y = rng.integers(0, classes, size=n)
        ds = Dataset(X, y, tuple(f"x{j}" for j in range(features)), classes)
        W0 = rng.standard_normal((classes, features + 1)) if warm \
            else np.zeros((classes, features + 1))
        kw = dict(epochs=epochs, c=c, seed=seed, use_ratchet=use_ratchet,
                  correction=correction)
        assert_matches_oracle(W0, ds, **kw)

    @pytest.mark.parametrize("use_ratchet", [True, False])
    @pytest.mark.parametrize("seed", [10, 17, 29])
    def test_matches_oracle_through_annealing_halt(self, seed, use_ratchet):
        # small overlapping blobs on which the default thermal constants
        # drive beta to zero; without the ratchet these seeds halt that way
        ds = gen_blobs(12, classes=2, seed=seed, spread=3.0)
        kw = dict(epochs=3000, seed=seed, use_ratchet=use_ratchet, correction="thermal")
        got = train_pocket_ratchet(LinearMachine.zeros(2, 2), ds, **kw)
        want = oracle_train_pocket_ratchet(LinearMachine.zeros(2, 2), ds, **kw)
        assert_same_pocket(got, want)
        if not use_ratchet:
            assert got[1].epochs_run < 3000
            assert got[1].accuracy < 1.0

    def test_overflowing_pocket_raises_where_the_oracle_returns_inf(self):
        # c = 1e308 overflows a weight that a second correction of the same
        # sign reaches; across these runs some pockets stay finite, some do not
        finite = {assert_matches_oracle(np.zeros((classes, 9)),
                                        pocket_data(classes, seed, noise=6),
                                        epochs=2, c=1e308, seed=seed, use_ratchet=use_ratchet)
                  for use_ratchet in (True, False) for classes in (2, 3)
                  for seed in range(8)}
        assert finite == {True, False}


SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 709.0, -709.0, 745.0, -745.0,
            1e308, -1e308, 5e-324, -5e-324, 36.7, -36.7]
# nans with a payload, positive and negative
NANS = [np.frombuffer(bytes.fromhex(h), dtype=float)[0]
        for h in ("010000000000f87f", "010000000000f8ff")]


class TestSigmoidOracle:
    def test_grid(self):
        z = np.linspace(-800.0, 800.0, 160001)
        assert sigmoid(z).tobytes() == oracle_sigmoid(z).tobytes()

    @pytest.mark.parametrize("scale", [1.0, 30.0, 1000.0])
    def test_random_values_with_specials(self, scale):
        rng = np.random.default_rng(int(scale))
        z = rng.standard_normal(20000) * scale
        picks = np.array(SPECIALS + NANS)
        z[rng.integers(0, z.size, 200)] = rng.choice(picks, 200)
        for part in (z, z[::3], z[:7], z.reshape(100, 200)):
            assert sigmoid(part).tobytes() == oracle_sigmoid(part).tobytes()

    @pytest.mark.parametrize("value", SPECIALS + NANS)
    def test_each_special_alone(self, value):
        one = np.array([value])
        assert sigmoid(one).tobytes() == oracle_sigmoid(one).tobytes()
        got, want = sigmoid(np.float64(value)), oracle_sigmoid(np.float64(value))
        assert isinstance(got, float)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_scalar_and_list_inputs(self):
        assert sigmoid(0) == oracle_sigmoid(0) == 0.5
        assert sigmoid([-2.0, 3]).tobytes() == oracle_sigmoid([-2.0, 3]).tobytes()


def oracle_search_threshold(values0, values1, midpoints=lambda lo, hi: (lo + hi) / 2.0):
    """Best single threshold between two value lists.

    Candidate thresholds are the midpoints between consecutive distinct
    pooled values. Returns (threshold, high_is_one, misclassified_count),
    minimizing errors with ties broken toward the smaller threshold and
    then toward 'high side is class 1'.
    """
    v0 = np.asarray(values0, dtype=float)
    v1 = np.asarray(values1, dtype=float)
    if v0.size == 0 or v1.size == 0:
        raise DataError("both sides need at least one value")
    pooled = np.unique(np.concatenate([v0, v1]))
    if pooled.size > 1:
        candidates = midpoints(pooled[:-1], pooled[1:])
    else:
        candidates = pooled  # all values identical; the split is degenerate

    s0 = np.sort(v0)
    s1 = np.sort(v1)
    best = None
    for q in candidates:
        n0_high = s0.size - np.searchsorted(s0, q, side="right")
        n1_high = s1.size - np.searchsorted(s1, q, side="right")
        for high_is_one, errors in ((True, n0_high + (s1.size - n1_high)),
                                    (False, (s0.size - n0_high) + n1_high)):
            key = (int(errors), float(q), 0 if high_is_one else 1)
            if best is None or key < best[0]:
                best = (key, float(q), high_is_one, int(errors))
    return best[1], best[2], best[3]


def oracle_predict_classes(self, X):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.array([classify_rule(self, row) for row in X], dtype=int)


def ulp_step(x, k):
    """x moved k representable doubles up (k > 0) or down (k < 0)."""
    for _ in range(abs(k)):
        x = np.nextafter(x, np.inf if k > 0 else -np.inf)
    return float(x)


# Near 5e-324 and 1.7e308 consecutive doubles sit one ulp apart, so a
# midpoint rounds onto a pooled value and neighbouring midpoints coincide;
# two values near 1.7e308 overflow the oracle's midpoint to inf.
BASES = [0.0, -0.0, 1.0, -2.5, 0.1, 5e-324, 1e-300, 1.7e308, -1.7e308]


@st.composite
def threshold_sides(draw):
    base = draw(st.sampled_from(BASES))
    value = st.one_of(st.integers(-3, 3).map(float),
                      st.integers(-4, 4).map(lambda k: ulp_step(base, k)),
                      st.sampled_from([0.0, -0.0, 1.7e308, -1.7e308]))
    return (draw(st.lists(value, min_size=1, max_size=25)),
            draw(st.lists(value, min_size=1, max_size=25)))


def finite_midpoints(lo, hi):
    """The oracle's midpoints, except that a pair whose sum overflows gets
    lo/2 + hi/2 instead of inf: the one place search_threshold departs from
    the oracle."""
    with np.errstate(over="ignore"):
        mid = (lo + hi) / 2.0
    return np.where(np.isinf(mid), lo / 2.0 + hi / 2.0, mid)


def assert_same_threshold(values0, values1):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = search_threshold(values0, values1)
    want = oracle_search_threshold(values0, values1, finite_midpoints)
    assert type(got[0]) is float and type(got[2]) is int
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    assert got[1] is want[1]
    assert got[2] == want[2]


class TestSearchThresholdOracle:
    @settings(max_examples=400, deadline=None)
    @given(threshold_sides())
    def test_matches_oracle_on_tie_prone_values(self, sides):
        assert_same_threshold(*sides)

    @pytest.mark.parametrize("values0,values1", [
        ([2.0], [2.0]),                          # one distinct value, both sides
        ([2.0, 2.0, 2.0], [2.0]),
        ([-0.0], [0.0]),
        ([0.0, -0.0], [-0.0, 0.0, 0.0]),
        ([1.0], [3.0]),                          # single-element sides
        ([3.0], [1.0]),
        ([-5e-324, 5e-324], [0.0]),              # midpoints -0.0 and 0.0
        ([1.7e308], [-1.7e308]),
        ([1.7e308, ulp_step(1.7e308, 1)], [ulp_step(1.7e308, 2)]),
        ([1.0, 1.0, 2.0, 2.0], [1.0, 2.0]),      # every candidate ties
    ])
    def test_edge_cases(self, values0, values1):
        assert_same_threshold(values0, values1)

    @pytest.mark.parametrize("values0,values1,threshold", [
        ([1.7e308], [1.75e308], 1.725e308),
        ([-1.75e308], [-1.7e308], -1.725e308),
    ])
    def test_overflowing_midpoint_stays_finite(self, values0, values1, threshold):
        # the oracle's (a + b) / 2 overflows to inf here, and its inf
        # threshold puts every value on the low side
        with np.errstate(over="ignore"):
            assert oracle_search_threshold(values0, values1)[0] in (np.inf, -np.inf)
        assert_same_threshold(values0, values1)
        assert search_threshold(values0, values1) == (threshold, True, 0)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_oracle_on_large_rounded_samples(self, seed):
        rng = np.random.default_rng(seed)
        decimals = [0, 1, 3][seed % 3]
        v0 = np.round(rng.normal(0.0, 1.0, 300 + 97 * seed), decimals)
        v1 = np.round(rng.normal(0.4, 1.3, 250 + 61 * seed), decimals)
        assert_same_threshold(v0, v1)


def threshold_rows(tree, m):
    """One row per node with every column on that node's threshold."""
    rows, stack = [], [tree.root]
    while stack:
        node = stack.pop()
        rows.append(np.full(m, node.threshold))
        stack.extend(c for c in (node.low_child, node.high_child) if c is not None)
    return np.array(rows)


class TestPredictClassesOracle:
    @settings(max_examples=60, deadline=None)
    @given(data_seed=st.integers(0, 2**32 - 1), n0=st.integers(1, 40),
           n1=st.integers(1, 40), m=st.integers(1, 5), decimals=st.sampled_from([0, 1, 6]))
    def test_matches_oracle_on_extracted_trees(self, data_seed, n0, n1, m, decimals):
        rng = np.random.default_rng(data_seed)
        X0 = np.round(rng.normal(0.0, 1.0, (n0, m)), decimals)
        X1 = np.round(rng.normal(0.5, 1.0, (n1, m)), decimals)
        pool = [int(v) for v in rng.permutation(m)[:rng.integers(1, m + 1)]]
        tree = extract_rules(X0, X1, pool)
        on = threshold_rows(tree, m)
        # the same rows with one column nudged by a ulp either way
        nudged = np.arange(on.shape[0]), rng.integers(0, m, on.shape[0])
        up, down = on.copy(), on.copy()
        up[nudged] = np.nextafter(on[nudged], np.inf)
        down[nudged] = np.nextafter(on[nudged], -np.inf)
        X = np.vstack([X0, X1, on, up, down, np.round(rng.normal(0.2, 1.5, (30, m)), decimals)])
        got = tree.predict_classes(X)
        want = oracle_predict_classes(tree, X)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_hand_built_tree_with_specials(self):
        leaf_parent = RuleNode(1, -0.5, False, low_label=1, high_label=0)
        root = RuleNode(0, 0.0, True, low_child=leaf_parent, high_label=1)
        tree = RuleTree(root)
        X = np.array([[0.0, 0.0], [-0.0, -0.5], [5e-324, -1.0], [-5e-324, -0.4],
                      [np.nan, -1.0], [np.inf, np.nan], [-np.inf, -np.inf]])
        assert tree.predict_classes(X).tobytes() == oracle_predict_classes(tree, X).tobytes()
        assert tree.predict_classes(X[0]).tolist() == oracle_predict_classes(tree, X[0]).tolist()

    def test_no_rows(self):
        tree = extract_rules([[0.0], [1.0]], [[2.0], [3.0]], [0])
        got = tree.predict_classes(np.empty((0, 1)))
        want = oracle_predict_classes(tree, np.empty((0, 1)))
        assert got.dtype == want.dtype and got.shape == want.shape == (0,)


def oracle_least_squares_fit(design, targets):
    """Solve min_w ||design @ w - targets||^2 via the normal equations.

    The caller supplies the full design matrix (constant column included).
    A ridge jitter of 1e-10 is added to the diagonal when the system is
    singular or badly conditioned; if that still fails, the fit errors out.
    """
    B = np.atleast_2d(np.asarray(design, dtype=float))
    y = np.asarray(targets, dtype=float)
    if B.shape[0] < B.shape[1]:
        raise DataError(f"need at least {B.shape[1]} rows to fit {B.shape[1]} basis terms")
    A = B.T @ B
    b = B.T @ y
    try:
        if np.linalg.cond(A) > 1e12:
            raise np.linalg.LinAlgError("ill-conditioned")
        w = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        A = A + 1e-10 * np.eye(A.shape[0])
        try:
            w = np.linalg.solve(A, b)
        except np.linalg.LinAlgError as exc:
            raise TrainingError("design matrix is rank-deficient beyond jitter recovery") from exc
    if not np.isfinite(w).all():
        raise TrainingError("least-squares weights are not finite")
    return w


def oracle_fit_weights(kind, cols, targets, cfg: GmdhConfig, seed):
    """Fit polynomial weights on the fitting subset by the configured method."""
    B = _basis(kind, cols)
    y = np.asarray(targets, dtype=float)
    if cfg.method == "least_squares":
        return oracle_least_squares_fit(B, y)
    n = y.shape[0]
    rng = np.random.default_rng(seed)
    best = None
    for restart in range(cfg.restarts):
        w = rng.uniform(-0.5, 0.5, size=B.shape[1])
        for _ in range(cfg.epochs):
            w -= cfg.learning_rate * (2.0 / n) * (B.T @ (B @ w - y))
        if not np.isfinite(w).all():
            raise TrainingError("polynomial weights diverged; lower the learning rate")
        sse = float(np.sum((B @ w - y) ** 2))
        if best is None or sse < best[0]:
            best = (sse, restart, w)
    return best[2]


def gram_fit_weights(kind, cols, targets, cfg: GmdhConfig, seed):
    """oracle_fit_weights with its descent in Gram form, one candidate at a
    time: G = BᵀB and c = Bᵀy once, then w -= rate (2/n) (G w - c) per
    epoch. The layer-batched `gmdh._fit_weights` must match it bit for bit;
    it is not the code that was replaced, so it differs from
    oracle_fit_weights in the last bits."""
    B = _basis(kind, cols)
    y = np.asarray(targets, dtype=float)
    if cfg.method == "least_squares":
        return oracle_least_squares_fit(B, y)
    n = y.shape[0]
    G, c = B.T @ B, B.T @ y
    rng = np.random.default_rng(seed)
    best = None
    for restart in range(cfg.restarts):
        w = rng.uniform(-0.5, 0.5, size=B.shape[1])
        for _ in range(cfg.epochs):
            w -= cfg.learning_rate * (2.0 / n) * (G @ w - c)
        if not np.isfinite(w).all():
            raise TrainingError("polynomial weights diverged; lower the learning rate")
        sse = float(np.sum((B @ w - y) ** 2))
        if best is None or sse < best[0]:
            best = (sse, restart, w)
    return best[2]


def oracle_train_gmdh_layered(train, val, cfg: GmdhConfig = GmdhConfig(),
                              fit_weights=oracle_fit_weights) -> PolyNetwork:
    """Layer-wise exhaustive growth with exterior-criterion selection.

    Layer 1 fits every pairing of input features on the fitting subset and
    keeps the `survivors` best by held-out sum-squared error; later layers
    pair the survivors. Growth stops when a new layer's best candidate no
    longer improves, and the best neuron of the last retained layer becomes
    the output. Neurons the output never references are pruned.
    """
    XA, XB, yA, yB = _subsets(train, val)
    m = train.n_features
    if not 0.4 <= train.n_rows / max(val.n_rows, 1) <= 2.5:
        warnings.warn("fitting and validation subsets differ a lot in size; "
                      "the selection criterion works best when they are comparable",
                      stacklevel=2)

    kept = []            # retained neurons across layers, creation order
    colsA, colsB = [], []  # per retained neuron: outputs on both subsets
    layer_scores = []
    prev_layer = None    # indices into kept of the previous layer's survivors
    n_keep = cfg.survivors if cfg.survivors is not None \
        else max(1, min(64, round(0.4 * count_candidates(m))))

    for layer in range(1, cfg.max_layers + 1):
        if layer == 1:
            pair_cols = [(("x", a), ("x", b)) for a, b in combinations(range(m), 2)]
        else:
            if len(prev_layer) < 2:
                break
            pair_cols = [(("n", a), ("n", b)) for a, b in combinations(prev_layer, 2)]

        candidates = []
        for ci, (ra, rb) in enumerate(pair_cols):
            inA = [XA[:, ra[1]] if ra[0] == "x" else colsA[ra[1]],
                   XA[:, rb[1]] if rb[0] == "x" else colsA[rb[1]]]
            inB = [XB[:, ra[1]] if ra[0] == "x" else colsB[ra[1]],
                   XB[:, rb[1]] if rb[0] == "x" else colsB[rb[1]]]
            w = fit_weights(cfg.kind, inA, yA, cfg, derive_seed(cfg.seed, layer, ci))
            nrn = SupportingNeuron(cfg.kind, (ra, rb), w, layer=layer)
            outB = _basis(cfg.kind, inB) @ w
            nrn.criterion = exterior_criterion(outB, yB)
            candidates.append((ci, nrn, _basis(cfg.kind, inA) @ w, outB))

        order = sorted(candidates, key=lambda c: (c[1].criterion, c[0]))
        best_cr = order[0][1].criterion
        if layer_scores and best_cr >= layer_scores[-1]:
            break
        layer_scores.append(best_cr)
        this_layer = []
        for ci, nrn, outA, outB in order[:n_keep]:
            nrn.survivor = True
            kept.append(nrn)
            colsA.append(outA)
            colsB.append(outB)
            this_layer.append(len(kept) - 1)
        prev_layer = this_layer

    if not kept:
        raise TrainingError("no layer could be grown")
    output = prev_layer[0]   # survivors are sorted best-first
    net = PolyNetwork(kept, output, layer_scores)
    return oracle_pruned(net)


def oracle_train_gmdh_roulette(train, val, cfg: GmdhConfig = GmdhConfig(), seed=None,
                               fit_weights=oracle_fit_weights) -> PolyNetwork:
    """Randomized growth: accepted neurons join the selectable pool.

    Every feature first gets a one-input neuron whose validation accuracy
    seeds the roulette pool. Each attempt draws a pair of distinct pool
    members with probability proportional to accuracy, fits a two-input
    candidate on them, and accepts it only when it beats both parents; an
    accepted neuron's output becomes selectable for later pairings. The
    final model is the pool member with the best validation accuracy.
    """
    XA, XB, yA, yB = _subsets(train, val)
    m = train.n_features
    if seed is None:
        seed = cfg.seed

    neurons, colsA, colsB = [], [], []

    def add(nrn, outA, outB):
        nrn.accuracy = float(np.mean((outB >= 0.5).astype(int) == val.labels))
        neurons.append(nrn)
        colsA.append(outA)
        colsB.append(outB)
        return nrn.accuracy

    pool = []  # accuracy per pool member; member k is neurons[k], and
    #            members below m stand in for the raw features themselves
    for i in range(m):
        w = fit_weights("linear", [XA[:, i]], yA, cfg, derive_seed(seed, 0, i))
        nrn = SupportingNeuron("linear", (("x", i),), w, layer=1)
        acc = add(nrn, _basis("linear", [XA[:, i]]) @ w, _basis("linear", [XB[:, i]]) @ w)
        pool.append(acc)

    rng = np.random.default_rng(derive_seed(seed, 1))

    for attempt in range(cfg.attempts):
        a = np.asarray(pool, dtype=float)
        probs = a / a.sum() if a.sum() > 0 else np.full(len(pool), 1.0 / len(pool))
        pair = None
        for _ in range(10):
            i = int(rng.choice(len(pool), p=probs))
            j = int(rng.choice(len(pool), p=probs))
            if i != j:
                pair = (i, j)
                break
        if pair is None:
            continue
        i, j = pair
        refs, inA, inB = [], [], []
        for p in (i, j):
            if p < m:
                refs.append(("x", p))
                inA.append(XA[:, p])
                inB.append(XB[:, p])
            else:
                refs.append(("n", p))
                inA.append(colsA[p])
                inB.append(colsB[p])
        w = fit_weights(cfg.kind, inA, yA, cfg, derive_seed(seed, 2, attempt))
        nrn = SupportingNeuron(cfg.kind, tuple(refs), w,
                               layer=1 + max(neurons[p].layer for p in (i, j)),
                               survivor=True)
        outB = _basis(cfg.kind, inB) @ w
        ac = float(np.mean((outB >= 0.5).astype(int) == val.labels))
        if ac > max(pool[i], pool[j]):
            add(nrn, _basis(cfg.kind, inA) @ w, outB)
            pool.append(ac)

    output = int(np.argmax(pool))
    net = PolyNetwork(neurons, output, [])
    return oracle_pruned(net)


def oracle_pruned(net: PolyNetwork) -> PolyNetwork:
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
        copy = SupportingNeuron(nrn.kind, inputs, nrn.weights, nrn.layer, nrn.survivor)
        copy.criterion, copy.accuracy = nrn.criterion, nrn.accuracy
        pruned.append(copy)
    return PolyNetwork(pruned, remap[net.output], list(net.layer_scores))


def gmdh_data(seed, n=90, features=5):
    """Fitting and validation halves of a small surrogate-EEG problem."""
    ds, _ = gen_surrogate_eeg(n, relevant=2, irrelevant=features - 2, seed=seed,
                              separation=1.0)
    half = n // 2
    names = ds.feature_names
    return (Dataset(ds.features[:half], ds.labels[:half], names, 2),
            Dataset(ds.features[half:], ds.labels[half:], names, 2))


def model_bytes(net, method, tmp_path):
    """The model file `save_model` writes for a polynomial network, named
    f1, f2, ... up to its highest referenced column."""
    m = max(net.referenced_features()) + 1
    path = tmp_path / f"{method}.json"
    save_model(path, ModelBundle(method, net, NormParams(np.zeros(m), np.ones(m)),
                                 tuple(f"f{j + 1}" for j in range(m)), ("0", "1")))
    return path.read_bytes()


GMDH_CONFIGS = [
    dict(kind=kind, method=method, survivors=survivors)
    for kind in ("bilinear", "linear")
    for method in ("gradient", "least_squares")
    for survivors in (None, 3)
]


# The Gram-form descent sums in another order than the row-by-row descent
# it replaced, so gradient-fitted weights are compared with that descent
# within a tolerance. Measured: below 1e-14 relative on the models here and
# on the benchmark's seed-3 eeg-grow models, and up to 3e-8 on single fits at
# rate 0.5, where the descent runs close to its stability limit and
# amplifies rounding.
MODEL_RTOL = 1e-9
FIT_RTOL = 1e-6


def assert_weights_close(got, want, rtol):
    """Elementwise within rtol, and within rtol of the largest weight."""
    want = np.asarray(want)
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.max(np.abs(want)))


class Grown(NamedTuple):
    got: PolyNetwork           # production, unpruned
    want: PolyNetwork          # oracle, unpruned
    got_pruned: PolyNetwork    # gmdh._pruned(got), what production returns
    want_pruned: PolyNetwork   # oracle_pruned(want), what the oracle returns


def grow_both(monkeypatch, train, oracle, *args, **oracle_kwargs) -> Grown:
    """A network grown by production and by the oracle, both left unpruned so
    that every survivor and every accepted neuron is compared, and then each
    pruned by its own side's pruning."""
    prune, oracle_prune = gmdh._pruned, oracle_pruned
    monkeypatch.setattr(gmdh, "_pruned", lambda net: net)
    monkeypatch.setitem(globals(), "oracle_pruned", lambda net: net)
    got, want = train(*args), oracle(*args, **oracle_kwargs)
    return Grown(got, want, prune(got), oracle_prune(want))


def assert_same_network(got, want, tmp_path, rtol=None):
    """The same output, layer count, and neurons with the same kind, inputs,
    layer, survivor flag and roulette accuracy, in the same order; weights,
    criteria and layer scores bit-identical (rtol None, which also compares
    the model files) or within rtol."""
    assert got.output == want.output
    assert len(got.layer_scores) == len(want.layer_scores)
    assert [(n.kind, n.inputs, n.layer, n.survivor) for n in got.neurons] == \
        [(n.kind, n.inputs, n.layer, n.survivor) for n in want.neurons]
    np.testing.assert_array_equal([n.accuracy for n in got.neurons],
                                  [n.accuracy for n in want.neurons])
    if rtol is None:
        np.testing.assert_array_equal([n.criterion for n in got.neurons],
                                      [n.criterion for n in want.neurons])
        assert model_bytes(got, "gmdh-layered", tmp_path) == \
            model_bytes(want, "gmdh-layered", tmp_path)
        return
    np.testing.assert_allclose([n.criterion for n in got.neurons],
                               [n.criterion for n in want.neurons], rtol=rtol)
    np.testing.assert_allclose(got.layer_scores, want.layer_scores, rtol=rtol)
    for g, w in zip(got.neurons, want.neurons):
        assert_weights_close(g.weights, w.weights, rtol)


def assert_same_growth(grown: Grown, tmp_path, rtol=None):
    """assert_same_network on the unpruned networks and on the pruned ones,
    the networks train_gmdh_* return and save_model writes."""
    assert_same_network(grown.got, grown.want, tmp_path, rtol)
    assert_same_network(grown.got_pruned, grown.want_pruned, tmp_path, rtol)


def gradient_rtol(cfg):
    return MODEL_RTOL if cfg.method == "gradient" else None


class TestGmdhOracle:
    """Production growth against the code it replaced: bit-identical with
    least squares, the same structure and close weights with gradient
    descent."""

    @pytest.mark.parametrize("config", GMDH_CONFIGS,
                             ids=lambda c: "-".join(str(v) for v in c.values()))
    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_layered_matches_oracle(self, config, seed, tmp_path, monkeypatch):
        train, val = gmdh_data(seed)
        cfg = GmdhConfig(epochs=40, restarts=2, seed=seed, **config)
        grown = grow_both(monkeypatch, train_gmdh_layered, oracle_train_gmdh_layered,
                              train, val, cfg)
        assert_same_growth(grown, tmp_path, gradient_rtol(cfg))

    @pytest.mark.parametrize("config", GMDH_CONFIGS[::2],
                             ids=lambda c: "-".join(str(v) for v in c.values()))
    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_roulette_matches_oracle(self, config, seed, tmp_path, monkeypatch):
        train, val = gmdh_data(seed)
        cfg = GmdhConfig(attempts=40, epochs=40, restarts=2, seed=seed, **config)
        grown = grow_both(monkeypatch, train_gmdh_roulette, oracle_train_gmdh_roulette,
                              train, val, cfg)
        assert_same_growth(grown, tmp_path, gradient_rtol(cfg))

    def test_cases_grow_past_the_first_layer(self):
        # the oracle comparisons above only cover neuron-to-neuron inputs if
        # some of their networks reach a second layer
        layered = [len(train_gmdh_layered(*gmdh_data(seed), GmdhConfig(
            method="least_squares", seed=seed)).layer_scores) for seed in (0, 3, 8)]
        roulette = [max(n.layer for n in train_gmdh_roulette(*gmdh_data(seed), GmdhConfig(
            attempts=40, method="least_squares", seed=seed)).neurons) for seed in (0, 3, 8)]
        assert max(layered) >= 2 and max(roulette) >= 3, (layered, roulette)


def oracle_fit_loss(weights, inputs, targets):
    """Mean squared error of the sigmoid output over the rows of `inputs`."""
    out = oracle_sigmoid(weights[0] + inputs @ weights[1:])
    return float(np.mean((out - targets) ** 2))


def oracle_fit_gradient(weights, inputs, targets):
    """Analytic gradient of fit_loss with respect to the weights."""
    out = oracle_sigmoid(weights[0] + inputs @ weights[1:])
    common = 2.0 * (out - targets) * out * (1.0 - out) / targets.shape[0]
    g = np.empty_like(np.asarray(weights, dtype=float))
    g[0] = common.sum()
    g[1:] = inputs.T @ common
    return g


def oracle_fit_neuron(neuron: SigmoidNeuron, inputs, targets, cfg: FitConfig) -> SigmoidNeuron:
    """Fit the neuron's weights by batch gradient descent.

    Runs cfg.restarts descents from weights drawn uniformly in [-0.5, 0.5]
    and keeps the restart with the lowest training sum-squared error;
    deterministic for a fixed cfg.seed.
    """
    U = np.atleast_2d(np.asarray(inputs, dtype=float))
    y = np.asarray(targets, dtype=float)
    if U.shape[1] != neuron.p:
        raise DataError(f"expected {neuron.p} input columns, got {U.shape[1]}")
    if U.shape[0] != y.shape[0]:
        raise DataError("inputs and targets disagree on row count")
    if U.shape[0] < 2:
        raise DataError("need at least 2 training rows")
    if not (np.isfinite(U).all() and np.isfinite(y).all()):
        raise TrainingError("non-finite values in training data")
    if np.unique(y).size < 2:
        raise TrainingError("targets are single-class; nothing to separate")

    rng = np.random.default_rng(cfg.seed)
    best = None
    for restart in range(cfg.restarts):
        w = rng.uniform(-0.5, 0.5, size=neuron.p + 1)
        for _ in range(cfg.epochs):
            w -= cfg.learning_rate * oracle_fit_gradient(w, U, y)
        if not np.isfinite(w).all():
            raise TrainingError("weights diverged to non-finite values")
        sse = oracle_fit_loss(w, U, y) * y.shape[0]
        if best is None or sse < best[0]:
            best = (sse, restart, w)
    return SigmoidNeuron(neuron.bindings, best[2])


def oracle_fit_single_features(train, val, cfg):
    """Fit a one-input neuron on every column and rank the columns by its
    validation error, ties to the lower index. Returns (feature order,
    errors in that order, per-column (validation error, fitted neuron))."""
    singles = []
    for j in range(train.n_features):
        nrn = SigmoidNeuron((("x", j),))
        fitted = oracle_fit_neuron(nrn, train.features[:, [j]], train.labels,
                                   replace(cfg, seed=derive_seed(cfg.seed, 0, j)))
        sv = oracle_sigmoid(fitted.weights[0] + val.features[:, j] * fitted.weights[1])
        err = float(np.mean((sv >= cfg.decision_threshold).astype(int) != val.labels))
        singles.append((err, fitted))
    order = tuple(sorted(range(train.n_features), key=lambda j: (singles[j][0], j)))
    return order, tuple(singles[j][0] for j in order), singles


def oracle_train_ecnn(train, val, cfg: FitConfig = FitConfig()) -> CascadeNetwork:
    """Grow a cascade network while validation error strictly decreases.

    Walks the ranked feature pool once; each candidate neuron sees the
    anchor, the next-ranked feature, and all previously accepted outputs.
    Deterministic for a fixed cfg.seed.
    """
    if train.class_count != 2:
        raise DataError("cascade training requires binary labels")
    if train.n_features < 2:
        raise DataError("need at least 2 features")
    if val.n_rows == 0:
        raise DataError("empty validation set")

    order, errors, singles = oracle_fit_single_features(train, val, cfg)
    anchor = order[0]
    base_err, base_neuron = singles[anchor]

    net = CascadeNetwork(
        anchor=anchor, feature_order=order, single_errors=errors,
        base_neuron=base_neuron, base_score=base_err, threshold=cfg.decision_threshold,
    )

    Xtr, Xva = train.features, val.features
    ztr, zva = [], []
    incumbent = base_err
    for h in range(1, len(order)):
        feat = order[h]
        bindings = [("x", anchor), ("x", feat)] + [("z", t) for t in range(len(net.neurons))]
        U_tr = np.column_stack([Xtr[:, anchor], Xtr[:, feat]] + ztr)
        candidate = oracle_fit_neuron(SigmoidNeuron(tuple(bindings)), U_tr, train.labels,
                                      replace(cfg, seed=derive_seed(cfg.seed, 1, h)))
        U_va = np.column_stack([Xva[:, anchor], Xva[:, feat]] + zva)
        out_va = oracle_sigmoid(candidate.weights[0] + U_va @ candidate.weights[1:])
        c1 = float(np.mean((out_va >= cfg.decision_threshold).astype(int) != val.labels))
        if c1 < incumbent:   # only a strict improvement is accepted
            net.neurons.append(candidate)
            net.accepted_features.append(feat)
            net.accepted_scores.append(c1)
            ztr.append(oracle_sigmoid(candidate.weights[0] + U_tr @ candidate.weights[1:]))
            zva.append(out_va)
            incumbent = c1
    return net


def fit_one(nrn, inputs, targets, cfg):
    """fit_neuron's fit of the one candidate nrn, seeded by cfg.seed."""
    return fit_neuron([nrn], [inputs], targets, [cfg.seed], cfg)[0]


def outcome(fn, *args):
    """What a call gives: ("ok", value) or ("raised", exception type, text)."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return "ok", fn(*args)
    except (DataError, TrainingError) as exc:
        return "raised", type(exc), str(exc)


def neuron_key(nrn):
    return nrn.bindings, nrn.weights.dtype, nrn.weights.tobytes()


# Rows that matter: 7 keeps every sum short, 801 is the paper-width fitting
# subset of eeg-grow. A rate of 1e30 on inputs near 1e300 diverges on the
# first epoch (a rate that is not finite is refused).
ROWS = st.sampled_from([7, 8, 31, 801])
RATES = st.sampled_from([0.1, 2.0, 40.0, 1e30])


def descent_problem(data_seed, n, p, scale, single_class=False):
    rng = np.random.default_rng(data_seed)
    U = rng.normal(0.0, scale, size=(n, p))
    y = (U.sum(axis=1) + rng.normal(0.0, 1.0, n) > 0).astype(float)
    y[:2] = (0.0, 1.0)
    if single_class:
        y[:] = 1.0
    return U, y


class TestStackedDescentOracle:
    @settings(max_examples=80, deadline=None)
    @given(data_seed=st.integers(0, 2**32 - 1), n=ROWS, p=st.integers(1, 8),
           restarts=st.integers(1, 5), epochs=st.integers(1, 25), rate=RATES,
           scale=st.sampled_from([0.5, 3.0, 1e300]), seed=st.integers(0, 2**32 - 1))
    def test_fit_neuron_matches_oracle(self, data_seed, n, p, restarts, epochs, rate,
                                       scale, seed):
        U, y = descent_problem(data_seed, n, p, scale)
        cfg = FitConfig(learning_rate=rate, epochs=epochs, restarts=restarts, seed=seed)
        nrn = SigmoidNeuron(tuple(("x", j) for j in range(p)))
        got = outcome(fit_one, nrn, U, y, cfg)
        want = outcome(oracle_fit_neuron, nrn, U, y, cfg)
        if want[0] == "ok":
            assert got[0] == "ok" and neuron_key(got[1]) == neuron_key(want[1])
        else:
            assert got == want

    @pytest.mark.parametrize("case, error", [
        ("single_class", "targets are single-class; nothing to separate"),
        ("nan_input", "non-finite values in training data"),
        ("inf_input", "non-finite values in training data"),
        ("diverges", "weights diverged to non-finite values"),
        ("one_row", "need at least 2 training rows"),
    ])
    @pytest.mark.parametrize("restarts", [1, 2, 5])
    def test_fit_neuron_errors_match_oracle(self, case, error, restarts):
        U, y = descent_problem(4, 30, 3, 1.0, single_class=case == "single_class")
        if case == "nan_input":
            U[5, 1] = np.nan
        if case == "inf_input":
            U[7, 0] = -np.inf
        if case == "one_row":
            U, y = U[:1], y[:1]
        if case == "diverges":
            U *= 1e300
        rate = 1e30 if case == "diverges" else 0.1
        cfg = FitConfig(learning_rate=rate, epochs=5, restarts=restarts, seed=1)
        nrn = SigmoidNeuron((("x", 0), ("x", 1), ("x", 2)))
        got = outcome(fit_one, nrn, U, y, cfg)
        assert got == outcome(oracle_fit_neuron, nrn, U, y, cfg)
        assert got[1:] == ((DataError if case == "one_row" else TrainingError), error)

    @pytest.mark.parametrize("restarts", [1, 2, 5])
    def test_fit_neuron_fits_each_candidate_as_alone(self, restarts):
        # the inputs are column slices of one matrix; the oracle's bits follow
        # the layout of its inputs, fit_neuron's do not: it descends on a
        # C-contiguous copy
        U, y = descent_problem(15, 31, 9, 1.0)
        nrns = [SigmoidNeuron(tuple(("x", j) for j in range(3 * i, 3 * i + 3)))
                for i in range(3)]
        inputs = [U[:, 3 * i:3 * i + 3] for i in range(3)]
        seeds = [derive_seed(2, 1, h) for h in range(3)]
        cfg = FitConfig(learning_rate=2.0, epochs=10, restarts=restarts)
        got = [neuron_key(g) for g in fit_neuron(nrns, inputs, y, seeds, cfg)]
        assert got == [neuron_key(fit_one(nrn, U_i, y, replace(cfg, seed=seed)))
                       for nrn, U_i, seed in zip(nrns, inputs, seeds)]
        assert got == [neuron_key(oracle_fit_neuron(nrn, np.ascontiguousarray(U_i), y,
                                                    replace(cfg, seed=seed)))
                       for nrn, U_i, seed in zip(nrns, inputs, seeds)]

    @pytest.mark.parametrize("faults, error", [
        (("nan", "columns"), (TrainingError, "non-finite values in training data")),
        (("columns", "nan"), (DataError, "expected 3 input columns, got 2")),
    ])
    def test_fit_neuron_checks_the_candidates_in_order(self, faults, error):
        U, y = descent_problem(16, 31, 3, 1.0)
        bad = {"nan": np.where(np.arange(3) == 1, np.nan, U), "columns": U[:, :2]}
        nrn = SigmoidNeuron((("x", 0), ("x", 1), ("x", 2)))
        cfg = FitConfig(epochs=5, restarts=2)
        got = outcome(fit_neuron, [nrn] * 3, [U] + [bad[f] for f in faults], y, [1, 2, 3], cfg)
        assert got[1:] == error

    @pytest.mark.parametrize("p, seeds", [((3, 2), [1, 2]), ((3, 3), [1]), ((), [])])
    def test_fit_neuron_needs_one_input_count_and_one_seed_per_candidate(self, p, seeds):
        U, y = descent_problem(16, 31, 3, 1.0)
        nrns = [SigmoidNeuron(tuple(("x", j) for j in range(k))) for k in p]
        got = outcome(fit_neuron, nrns, [U[:, :k] for k in p], y, seeds, FitConfig())
        assert got[:2] == ("raised", DataError)
        assert "one seed per candidate" in got[2]

    def test_gradient_and_loss_stack_matches_oracle(self):
        U, y = descent_problem(9, 801, 4, 1.0)
        W = np.random.default_rng(3).uniform(-2.0, 2.0, size=(6, 5))
        G, L = fit_gradient(W, U, y), fit_loss(W, U, y)
        assert G.shape == W.shape and L.shape == (6,)
        for k in range(6):
            assert G[k].tobytes() == oracle_fit_gradient(W[k].copy(), U, y).tobytes()
            assert L[k] == oracle_fit_loss(W[k].copy(), U, y)
            assert fit_gradient(W[k], U, y).tobytes() == G[k].tobytes()
            assert type(fit_loss(W[k], U, y)) is float

    @settings(max_examples=60, deadline=None)
    @given(data_seed=st.integers(0, 2**32 - 1), n=ROWS, n_val=st.sampled_from([3, 40]),
           m=st.integers(1, 8), restarts=st.integers(1, 5), epochs=st.integers(1, 20),
           rate=RATES, constant=st.booleans(), twin=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_ranking_matches_oracle(self, data_seed, n, n_val, m, restarts, epochs, rate,
                                    constant, twin, seed):
        train, val = ranking_data(data_seed, n, n_val, m, constant, twin)
        cfg = FitConfig(learning_rate=rate, epochs=epochs, restarts=restarts, seed=seed)
        got = outcome(cascade._fit_single_features, train, val, cfg)
        want = outcome(oracle_fit_single_features, train, val, cfg)
        assert ranking_key(got) == ranking_key(want)

    def test_ranking_with_a_constant_column_and_tied_errors(self):
        train, val = ranking_data(5, 801, 40, 6, constant=True, twin=True)
        for restarts in (1, 2, 5):
            cfg = FitConfig(epochs=30, restarts=restarts, seed=2)
            got = cascade._fit_single_features(train, val, cfg)
            want = oracle_fit_single_features(train, val, cfg)
            assert ranking_key(("ok", got)) == ranking_key(("ok", want))
            errors = got[1]
            assert len(set(errors)) < len(errors), errors   # some errors tie

    @pytest.mark.parametrize("case, error", [
        ("single_class", "targets are single-class; nothing to separate"),
        ("single_class_and_nan_later", "targets are single-class; nothing to separate"),
        ("nan_first_column", "non-finite values in training data"),
        ("nan_later_column", "non-finite values in training data"),
        ("diverges", "weights diverged to non-finite values"),
        ("one_row", "need at least 2 training rows"),
    ])
    def test_ranking_errors_match_oracle(self, case, error):
        train, val = ranking_data(6, 31, 10, 4, False, False)
        X, y = train.features.copy(), train.labels.copy()
        if case.startswith("single_class"):
            y[:] = 1
        if case == "nan_first_column":
            X[3, 0] = np.nan
        if case in ("nan_later_column", "single_class_and_nan_later"):
            X[3, 2] = np.inf
        if case == "one_row":
            X, y = X[:1], y[:1]
        if case == "diverges":
            X *= 1e300
        train = Dataset(X, y, train.feature_names, 2)
        rate = 1e30 if case == "diverges" else 0.1
        cfg = FitConfig(learning_rate=rate, epochs=5, restarts=2, seed=0)
        got = outcome(cascade._fit_single_features, train, val, cfg)
        assert got == outcome(oracle_fit_single_features, train, val, cfg)
        assert got[1:] == ((DataError if case == "one_row" else TrainingError), error)

    @settings(max_examples=80, deadline=None)
    @given(data_seed=st.integers(0, 2**32 - 1), n=ROWS,
           shape=st.sampled_from([("linear", 1), ("linear", 2), ("bilinear", 2)]),
           method=st.sampled_from(["gradient", "gradient", "least_squares"]),
           restarts=st.integers(1, 5), epochs=st.integers(1, 30),
           rate=st.sampled_from([0.05, 0.5, 1e3]), seed=st.integers(0, 2**32 - 1),
           key=st.tuples(st.integers(0, 10), st.integers(0, 3000)))
    def test_fit_weights_matches_oracle(self, data_seed, n, shape, method, restarts, epochs,
                                        rate, seed, key):
        kind, inputs = shape
        U, y = descent_problem(data_seed, n, inputs, 1.0)
        cols = [U[:, i] for i in range(inputs)]
        cfg = GmdhConfig(kind=kind, method=method, learning_rate=rate, epochs=epochs,
                         restarts=restarts, seed=seed)
        got = outcome(lambda: _fit_weights(_basis(kind, cols)[None], y, cfg, [key])[0])
        want = outcome(oracle_fit_weights, kind, cols, y, cfg, derive_seed(seed, *key))
        gram = outcome(gram_fit_weights, kind, cols, y, cfg, derive_seed(seed, *key))
        assert_same_fit(got, want, gram, method)

    @settings(max_examples=40, deadline=None)
    @given(data_seed=st.integers(0, 2**32 - 1), n=ROWS, m=st.integers(1, 8),
           restarts=st.integers(1, 5), epochs=st.integers(1, 30),
           rate=st.sampled_from([0.05, 0.5, 1e3]), seed=st.integers(0, 2**32 - 1))
    def test_roulette_seeding_stack_matches_oracle(self, data_seed, n, m, restarts, epochs,
                                                   rate, seed):
        XA, yA = descent_problem(data_seed, n, m, 1.0)
        cfg = GmdhConfig(learning_rate=rate, epochs=epochs, restarts=restarts, seed=seed)
        BA = np.stack([_basis("linear", [XA[:, i]]) for i in range(m)])
        got = outcome(lambda: _fit_weights(BA, yA, cfg, [(0, i) for i in range(m)]))
        want, gram = (outcome(lambda fit=fit: np.stack([
            fit("linear", [XA[:, i]], yA, cfg, derive_seed(seed, 0, i)) for i in range(m)]))
            for fit in (oracle_fit_weights, gram_fit_weights))
        assert_same_fit(got, want, gram, cfg.method)


def assert_same_fit(got, want, gram, method):
    """got ends as the row-by-row oracle `want` does; on success its weights
    are bit-identical to the one-candidate Gram descent `gram`, and to
    `want` with least squares or within FIT_RTOL of it with gradient
    descent."""
    if want[0] != "ok":
        assert got == want == gram
        return
    assert got[0] == gram[0] == "ok"
    assert got[1].tobytes() == gram[1].tobytes()
    if method == "least_squares":
        assert got[1].tobytes() == want[1].tobytes()
    else:
        assert_weights_close(got[1], want[1], FIT_RTOL)


def ranking_data(data_seed, n, n_val, m, constant, twin):
    """Training and validation sets for the ranking; `constant` makes the
    last column constant, `twin` copies column 0 into column 1."""
    rng = np.random.default_rng(data_seed)
    X = rng.normal(size=(n + n_val, m))
    y = (X[:, 0] + rng.normal(0.0, 1.5, n + n_val) > 0).astype(int)
    y[:2] = (0, 1)
    if constant:
        X[:, -1] = 0.75
    if twin and m > 1:
        X[:, 1] = X[:, 0]
    names = tuple(f"f{j}" for j in range(m))
    return (Dataset(X[:n], y[:n], names, 2), Dataset(X[n:], y[n:], names, 2))


def ranking_key(result):
    if result[0] != "ok":
        return result
    order, errors, singles = result[1]
    return order, errors, [(err, neuron_key(nrn)) for err, nrn in singles]


def cascade_bytes(net, tmp_path):
    """The model file `save_model` writes for a cascade network, its columns
    named f1, f2, ... (the ranking covers every column)."""
    m = len(net.feature_order)
    path = tmp_path / "ecnn.json"
    save_model(path, ModelBundle("ecnn", net, NormParams(np.zeros(m), np.ones(m)),
                                 tuple(f"f{j + 1}" for j in range(m)), ("0", "1")))
    return path.read_bytes()


class TestBaseNeuronScores:
    """A cascade without accepted neurons scores through its base neuron's
    SigmoidNeuron.outputs, a matmul with an inner dimension of 1, where it
    once took sigmoid(w[0] + X[:, anchor] * w[1]). The two sums can differ
    only in the sign of a zero, and the sigmoid maps either zero to 0.5."""

    def test_signed_zeros(self):
        column = np.array([0.0, -0.0, 1.5, -2.0, 5e-324, -1e300, np.inf])
        X = np.column_stack([np.full(column.size, 7.0), column])
        signs_differ = False
        for w in product([0.0, -0.0, 0.75, -3.0], repeat=2):
            w = np.array(w)
            net = CascadeNetwork(anchor=1, feature_order=(1, 0), single_errors=(0.1, 0.2),
                                 base_neuron=SigmoidNeuron((("x", 1),), w), base_score=0.1)
            with np.errstate(invalid="ignore"):
                former = w[0] + X[:, 1] * w[1]
                now = w[0] + X[:, [1]] @ w[1:]
                assert net.scores(X).tobytes() == oracle_sigmoid(former).tobytes()
            signs_differ |= (np.signbit(former) != np.signbit(now)).any()
        assert signs_differ   # some zero sum does carry another sign


class TestStackedModels:
    """Whole models trained through the stacked fits against the same models
    trained through the per-fit oracles."""

    @pytest.mark.parametrize("restarts", [1, 2, 5])
    def test_ecnn(self, restarts, tmp_path):
        train, val = gmdh_data(3, n=160, features=6)
        cfg = FitConfig(learning_rate=2.0, epochs=40, restarts=restarts, seed=3)
        got = cascade_bytes(cascade.train_ecnn(train, val, cfg), tmp_path)
        want_net = oracle_train_ecnn(train, val, cfg)
        assert want_net.neurons   # the walk accepted a neuron, so it is covered too
        assert got == cascade_bytes(want_net, tmp_path)

    @pytest.mark.parametrize("restarts", [1, 2, 5])
    def test_gradient_gmdh_layered(self, restarts, tmp_path, monkeypatch):
        train, val = gmdh_data(3)
        cfg = GmdhConfig(epochs=40, restarts=restarts, seed=3)
        grown = grow_both(monkeypatch, train_gmdh_layered, oracle_train_gmdh_layered,
                              train, val, cfg)
        assert_same_growth(grown, tmp_path, MODEL_RTOL)

    @pytest.mark.parametrize("restarts", [1, 2, 5])
    def test_gmdh_roulette(self, restarts, tmp_path, monkeypatch):
        train, val = gmdh_data(3)
        cfg = GmdhConfig(attempts=40, epochs=40, restarts=restarts, seed=3)
        grown = grow_both(monkeypatch, train_gmdh_roulette, oracle_train_gmdh_roulette,
                              train, val, cfg)
        assert_same_growth(grown, tmp_path, MODEL_RTOL)


def walk_data(seed, n, noise, big=None):
    """Fitting and validation halves of a table whose column 0 predicts the
    labels and whose column 1 is column 0's noise: useless alone, decisive
    next to it, so the walk accepts its candidate wherever it ranks among
    the noise columns that follow. With `big`, column 2 is noise too, save
    one fitting row of label 0 that holds `big`."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    e = rng.normal(0.0, 1.0, n)
    cols = [y + e, e + rng.normal(0.0, 0.3, n)]
    if big is not None:
        cols.append(rng.normal(size=n))
        cols[-1][0], y[0] = big, 0
    X = np.column_stack(cols + [rng.normal(size=(n, noise))])
    names = tuple(f"f{j}" for j in range(X.shape[1]))
    half = n // 2
    return (Dataset(X[:half], y[:half], names, 2), Dataset(X[half:], y[half:], names, 2))


class Chunk(NamedTuple):
    neurons: list
    inputs: list
    seeds: list
    error: Exception | None


def record_chunks(monkeypatch):
    """Log each call the walk makes to fit_neuron as a Chunk; the ranking's
    call, which fits one-input neurons, is left out."""
    log, fit = [], cascade.fit_neuron

    def logged(neurons, inputs, targets, seeds, cfg):
        if neurons[0].p == 1:
            return fit(neurons, inputs, targets, seeds, cfg)
        try:
            fitted = fit(neurons, inputs, targets, seeds, cfg)
        except (DataError, TrainingError, FloatingPointError) as exc:
            log.append(Chunk(neurons, inputs, seeds, exc))
            raise
        log.append(Chunk(neurons, inputs, seeds, None))
        return fitted

    monkeypatch.setattr(cascade, "fit_neuron", logged)
    return log


def walk_cap(train, cfg):
    return STACK_ELEMENTS // (train.n_rows * cfg.restarts)


def logged_fit(fails):
    """A fit for in_order that logs the items of each call and gives item k
    as 10 * k; a stack holding an item of `fails` fails as it says, and so
    does such an item fitted alone, unless its failure is "overflow", which
    only overflows."""
    calls = []

    def fit(ks):
        calls.append(list(ks))
        for k in ks:
            if fails.get(k) == "error":
                raise TrainingError(f"item {k} failed")
            if fails.get(k) == "overflow":
                np.float64(1e308) * 10.0
        return [10 * k for k in ks]

    return fit, calls


class TestInOrder:
    """`_util.in_order`, the rule every stacked fit follows: the results and
    the errors of fitting one item at a time, in order."""

    def test_a_stack_that_fits_is_fitted_once(self):
        fit, calls = logged_fit({})
        assert list(in_order(fit, 4)) == [0, 10, 20, 30]
        assert calls == [[0, 1, 2, 3]]

    def test_earlier_items_are_yielded_then_the_failing_one_raises(self):
        fit, calls = logged_fit({2: "error", 3: "error"})
        got = []
        with pytest.raises(TrainingError, match="item 2 failed"):
            for result in in_order(fit, 4):
                got.append(result)
        assert got == [0, 10]
        assert calls == [[0, 1, 2, 3], [0], [1], [2]]

    def test_a_floating_point_error_in_the_stack_falls_back_to_single_fits(self):
        fit, calls = logged_fit({1: "overflow"})
        with np.errstate(over="ignore"):
            assert list(in_order(fit, 3)) == [0, 10, 20]
        assert calls == [[0, 1, 2], [0], [1], [2]]

    def test_a_single_fit_keeps_the_callers_settings(self):
        fit, calls = logged_fit({0: "overflow"})
        with np.errstate(over="warn"), pytest.warns(RuntimeWarning, match="overflow"):
            assert list(in_order(fit, 1)) == [0]
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            list(in_order(fit, 1))
        assert calls == [[0], [0]]

    def test_the_consumer_keeps_its_own_settings(self):
        fit, _ = logged_fit({})
        with np.errstate(over="ignore"):
            for _ in in_order(fit, 2):
                np.float64(1e308) * 10.0   # overflows, and nothing is raised

    def test_items_after_the_consumer_stops_are_never_fitted(self):
        fit, calls = logged_fit({3: "error"})
        for result in in_order(fit, 5):
            if result == 10:
                break
        assert calls == [[0, 1, 2, 3, 4], [0], [1]]


# Column 2 of walk_data(seed, 80, 8, big=1e300) at a learning rate of 1e23:
# a start that weighs the column positively misclassifies its 1e300 row by so
# much that the first step sends the weight to -inf, and the fit diverges; a
# negative start only overflows on that row. A fitting chunk that holds
# column 2's candidate then fails, and the walk retries it one at a time.
BIG = dict(n=80, noise=8, big=1e300)
BIG_RATE = 1e23


class TestChunkedWalk:
    """The chunked cascade walk against oracle_train_ecnn, the walk that fits
    one candidate at a time: the same model file, or the same error at the
    same candidate, wherever the accepted candidate sits in its chunk and
    whatever becomes of the fits dropped behind it."""

    @pytest.mark.parametrize("data_seed, size, position", [
        (0, 1, 0), (24, 2, 0), (8, 2, 1), (7, 4, 0), (54, 4, 1), (39, 4, 2), (4, 4, 3)])
    @pytest.mark.parametrize("restarts", [1, 2, 5])
    def test_accept_at_every_position_of_a_chunk(self, data_seed, size, position, restarts,
                                                 tmp_path, monkeypatch):
        train, val = walk_data(data_seed, 160, 10)
        cfg = FitConfig(learning_rate=2.0, epochs=40, restarts=restarts, seed=data_seed)
        log = record_chunks(monkeypatch)
        net = cascade.train_ecnn(train, val, cfg)
        assert cascade_bytes(net, tmp_path) == \
            cascade_bytes(oracle_train_ecnn(train, val, cfg), tmp_path)
        chunks = walk_chunks(net.feature_order, net.accepted_features, walk_cap(train, cfg))
        assert (size, position) in chunks
        assert [len(c.neurons) for c in log] == [k for k, _ in chunks]

    @pytest.mark.parametrize("cap", [1, 3])
    @pytest.mark.parametrize("restarts", [1, 2, 5])
    def test_capped_chunks(self, cap, restarts, tmp_path, monkeypatch):
        train, val = walk_data(4, 160, 10)
        cfg = FitConfig(learning_rate=2.0, epochs=40, restarts=restarts, seed=4)
        monkeypatch.setattr(cascade, "STACK_ELEMENTS", cap * train.n_rows * restarts)
        log = record_chunks(monkeypatch)
        net = cascade.train_ecnn(train, val, cfg)
        assert cascade_bytes(net, tmp_path) == \
            cascade_bytes(oracle_train_ecnn(train, val, cfg), tmp_path)
        chunks = walk_chunks(net.feature_order, net.accepted_features, cap)
        assert [len(c.neurons) for c in log] == [k for k, _ in chunks]
        assert max(k for k, _ in chunks) == cap

    @pytest.mark.parametrize("restarts, data_seed", [(1, 137), (2, 266), (5, 2886)])
    def test_a_fit_failing_behind_the_accepted_one_is_dropped(self, restarts, data_seed,
                                                              tmp_path, monkeypatch):
        train, val = walk_data(data_seed, **BIG)
        cfg = FitConfig(learning_rate=BIG_RATE, epochs=20, restarts=restarts, seed=data_seed)
        log = record_chunks(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"):
            net = cascade.train_ecnn(train, val, cfg)
            want = oracle_train_ecnn(train, val, cfg)
        assert cascade_bytes(net, tmp_path) == cascade_bytes(want, tmp_path)
        # a chunk failed where column 2's candidate sat behind the accepted one
        failed = [c for c in log if c.error is not None]
        feats = [[nrn.bindings[1][1] for nrn in c.neurons] for c in failed]
        k = next(k for k, f in enumerate(feats)
                 if 2 in f and set(f[:f.index(2)]) & set(net.accepted_features))
        i = feats[k].index(2)
        alone = outcome(oracle_fit_neuron, failed[k].neurons[i], failed[k].inputs[i],
                        train.labels, replace(cfg, seed=failed[k].seeds[i]))
        # with one restart column 2's start weight is the same in every chunk,
        # and here negative, so its dropped fit only overflows
        assert alone[0] == ("ok" if restarts == 1 else "raised")

    @pytest.mark.parametrize("restarts, data_seed", [(1, 2), (2, 7), (5, 194)])
    def test_a_diverging_candidate_the_walk_reaches_raises_the_oracles_error(
            self, restarts, data_seed, monkeypatch):
        train, val = walk_data(data_seed, **BIG)
        cfg = FitConfig(learning_rate=BIG_RATE, epochs=20, restarts=restarts, seed=data_seed)
        fit, calls = oracle_fit_neuron, []

        def logged_oracle(nrn, inputs, targets, cfg):
            calls.append((nrn.bindings, cfg.seed))
            return fit(nrn, inputs, targets, cfg)

        monkeypatch.setitem(globals(), "oracle_fit_neuron", logged_oracle)
        log = record_chunks(monkeypatch)
        got = outcome(cascade.train_ecnn, train, val, cfg)
        assert got == outcome(oracle_train_ecnn, train, val, cfg)
        assert got[1:] == (TrainingError, "weights diverged to non-finite values")
        last = log[-1]
        assert len(last.neurons) == 1 and last.neurons[0].bindings[1] == ("x", 2)
        assert (last.neurons[0].bindings, last.seeds[0]) == calls[-1]
        assert any(len(c.neurons) > 1 and c.error is not None for c in log)


    @pytest.mark.parametrize("restarts, data_seed", [(1, 0), (2, 1), (5, 3)])
    def test_the_ranking_raises_the_first_failing_columns_error(self, restarts, data_seed):
        # Column 1's fit diverges on its 1e300 row of label 0; column 3 holds
        # an inf, which the data check refuses. Fitting one column at a time
        # meets column 1 first.
        train, val = walk_data(data_seed, 80, 8)
        X, y = train.features.copy(), train.labels.copy()
        X[np.flatnonzero(y == 0)[0], 1] = 1e300
        X[5, 3] = np.inf
        train = Dataset(X, y, train.feature_names, 2)
        cfg = FitConfig(learning_rate=BIG_RATE, epochs=20, restarts=restarts, seed=data_seed)
        got = outcome(cascade.train_ecnn, train, val, cfg)
        assert got == outcome(oracle_train_ecnn, train, val, cfg)
        assert got[1:] == (TrainingError, "weights diverged to non-finite values")


class TestLayerBatchedGmdh:
    """Growth that fits a layer's candidates as one stack (and roulette's
    pool seeding as one, its attempts one by one) against gram_fit_weights
    fitting one candidate at a time: bit-identical models, also when a layer
    spans several chunks."""

    @pytest.mark.parametrize("chunk", [1, 4, gmdh.CHUNK])
    @pytest.mark.parametrize("restarts", [1, 2, 5])
    @pytest.mark.parametrize("method", ["gradient", "least_squares"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_layered(self, kind, method, restarts, chunk, tmp_path, monkeypatch):
        train, val = gmdh_data(1)   # grows a second layer in every case
        cfg = GmdhConfig(kind=kind, method=method, epochs=40, restarts=restarts, seed=1)
        monkeypatch.setattr(gmdh, "CHUNK", chunk)
        grown = grow_both(monkeypatch, train_gmdh_layered, oracle_train_gmdh_layered,
                              train, val, cfg, fit_weights=gram_fit_weights)
        assert len(grown.got.layer_scores) >= 2
        assert_same_growth(grown, tmp_path)

    @pytest.mark.parametrize("restarts", [1, 2, 5])
    @pytest.mark.parametrize("method", ["gradient", "least_squares"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_roulette(self, kind, method, restarts, tmp_path, monkeypatch):
        train, val = gmdh_data(1)
        cfg = GmdhConfig(kind=kind, method=method, attempts=40, epochs=40, restarts=restarts,
                         seed=1)
        grown = grow_both(monkeypatch, train_gmdh_roulette, oracle_train_gmdh_roulette,
                              train, val, cfg, fit_weights=gram_fit_weights)
        assert max(n.layer for n in grown.got.neurons) >= 2
        assert_same_growth(grown, tmp_path)

    @pytest.mark.parametrize("chunk", [1, 3, gmdh.CHUNK])
    @pytest.mark.parametrize("first", ["criterion", "fit", "least_squares"])
    def test_first_failure_raised_in_candidate_order(self, first, chunk, monkeypatch, capfd):
        # Candidate 0 pairs columns 0 and 1, candidate 2 columns 0 and 3. A
        # huge value in one validation row of a column makes its candidate's
        # criterion overflow; a column of huge fitting values makes its
        # candidate's descent diverge, or, scaled by 1e200, overflows its
        # least-squares normal equations, where LAPACK prints to stdout. Only
        # the candidate fitted first may make itself heard.
        train, val = gmdh_data(4, features=4)
        XA, XB = train.features.copy(), val.features.copy()
        late, early = (1, 3) if first == "fit" else (3, 1)
        XA[:, late] *= 1e200 if first == "least_squares" else 1e6
        XB[0, early] = 1e300
        train = Dataset(XA, train.labels, train.feature_names, 2)
        val = Dataset(XB, val.labels, val.feature_names, 2)
        cfg = GmdhConfig(epochs=40, restarts=2, seed=4,
                         method="least_squares" if first == "least_squares" else "gradient")
        monkeypatch.setattr(gmdh, "CHUNK", chunk)
        got = outcome(train_gmdh_layered, train, val, cfg)
        assert got == outcome(oracle_train_gmdh_layered, train, val, cfg)
        assert got == outcome(lambda: oracle_train_gmdh_layered(
            train, val, cfg, fit_weights=gram_fit_weights))
        assert got[1:] == (TrainingError, "polynomial weights diverged; lower the learning rate"
                           if first == "fit" else "held-out error of a fitted neuron is not "
                           "finite; lower the learning rate")
        assert capfd.readouterr() == ("", "")


def least_squares_stack(data_seed, n, q, elements):
    """Designs (len(elements), n, q) with a constant first column; each
    element is regular, has twin columns (singular), nearly twin columns
    (ill-conditioned), a zero column, a nan, an inf or values near 1e200."""
    rng = np.random.default_rng(data_seed)
    B = rng.normal(size=(len(elements), n, q))
    B[..., 0] = 1.0
    for b, element in zip(B, elements):
        if element == "twin":
            b[:, -1] = b[:, 1]
        if element == "near_twin":
            b[:, -1] = b[:, 1] * (1 + 1e-9)
        if element == "zero":
            b[:, -1] = 0.0
        if element == "nan":
            b[n // 2, -1] = np.nan
        if element == "inf":
            b[0, 1] = np.inf
        if element == "huge":
            b[:, 1:] *= 1e200
    return B, (rng.random(n) > 0.5).astype(float)


class TestStackedLeastSquares:
    @settings(max_examples=120, deadline=None)
    @given(data_seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3, 4, 7, 600, 601, 1333]),
           q=st.integers(2, 4),
           elements=st.lists(st.sampled_from(["regular", "regular", "twin", "near_twin",
                                               "zero", "nan", "inf", "huge"]),
                             min_size=1, max_size=6))
    def test_matches_oracle_element_by_element(self, data_seed, n, q, elements):
        B, y = least_squares_stack(data_seed, n, q, elements)
        got = outcome(least_squares_fit, B, y)
        want = outcome(lambda: np.stack([oracle_least_squares_fit(b, y) for b in B]))
        if want[0] == "ok":
            assert got[0] == "ok" and got[1].tobytes() == want[1].tobytes()
        else:
            assert got == want

    @pytest.mark.parametrize("n", [7, 600, 601, 1333])
    def test_singular_element_takes_the_jitter_branch_alone(self, n):
        B, y = least_squares_stack(n, n, 4, ["regular", "twin", "near_twin", "zero", "regular"])
        got = least_squares_fit(B, y)
        for b, w in zip(B, got):
            assert w.tobytes() == oracle_least_squares_fit(b, y).tobytes()
            assert w.tobytes() == least_squares_fit(b, y).tobytes()


@dataclass(eq=False)
class TrainingCurve:
    """Per-epoch classification errors; best_epoch is the argmin of the
    validation error (first occurrence)."""

    train_errors: list
    val_errors: list
    best_epoch: int


def oracle_fnn_forward(hidden_w, output_w, X):
    """Former FnnModel.forward: output activations on the rows of X."""
    H = oracle_sigmoid(oracle_augment(X) @ hidden_w.T)
    return oracle_sigmoid(oracle_augment(H) @ output_w.T)


def oracle_fnn_predict_classes(hidden_w, output_w, X):
    """Former FnnModel.predict_classes, at its threshold of 0.5."""
    out = oracle_fnn_forward(hidden_w, output_w, X)
    if out.shape[1] == 1:
        return (out[:, 0] >= 0.5).astype(int)
    return np.argmax(out, axis=1)


def oracle_fnn_gradients(hidden_w, output_w, X, T):
    """Backpropagated gradients of fnn_loss for both weight matrices."""
    Xa = oracle_augment(X)
    H = oracle_sigmoid(Xa @ hidden_w.T)
    Ha = oracle_augment(H)
    O = oracle_sigmoid(Ha @ output_w.T)
    n = X.shape[0]
    d_out = 2.0 * (O - T) * O * (1.0 - O) / n
    g_out = d_out.T @ Ha
    d_hid = (d_out @ output_w[:, 1:]) * H * (1.0 - H)
    g_hid = d_hid.T @ Xa
    return g_hid, g_out


def oracle_train_fnn(train, val, hidden, cfg: FnnConfig = FnnConfig()):
    """Batch gradient descent with early stopping at the validation minimum.

    Each restart draws fresh uniform [-0.5, 0.5] weights, descends for up
    to max_epochs (stopping `patience` epochs past the running validation
    minimum), and snapshots the weights at that minimum. A restart whose
    loss turns non-finite is abandoned and counted as failed. The restart
    with the lowest snapshot validation error wins.

    Returns (model, TrainingCurve of the winning restart).
    """
    if hidden < 1:
        raise DataError("need at least 1 hidden neuron")
    r = train.class_count
    T_tr = _targets(train.labels, r)
    T_va = _targets(val.labels, r)
    out_units = T_tr.shape[1]
    m = train.n_features

    best = None
    for restart in range(cfg.restarts):
        rng = np.random.default_rng(derive_seed(cfg.seed, restart))
        w_hid = rng.uniform(-0.5, 0.5, size=(hidden, m + 1))
        w_out = rng.uniform(-0.5, 0.5, size=(out_units, hidden + 1))

        def errors():
            e_tr = float(np.mean(oracle_fnn_predict_classes(w_hid, w_out, train.features)
                                 != train.labels))
            e_va = float(np.mean(oracle_fnn_predict_classes(w_hid, w_out, val.features)
                                 != val.labels))
            return e_tr, e_va

        e_tr, e_va = errors()
        curve_tr, curve_va = [e_tr], [e_va]
        best_epoch, best_val = 0, e_va
        snapshot = (w_hid.copy(), w_out.copy())
        failed = False
        for epoch in range(1, cfg.max_epochs + 1):
            g_hid, g_out = oracle_fnn_gradients(w_hid, w_out, train.features, T_tr)
            w_hid -= cfg.learning_rate * g_hid
            w_out -= cfg.learning_rate * g_out
            if not (np.isfinite(w_hid).all() and np.isfinite(w_out).all()):
                failed = True
                break
            e_tr, e_va = errors()
            curve_tr.append(e_tr)
            curve_va.append(e_va)
            if e_va < best_val:
                best_val = e_va
                best_epoch = epoch
                snapshot = (w_hid.copy(), w_out.copy())
            if epoch - best_epoch >= cfg.patience:
                break
        if failed:
            continue
        if best is None or best_val < best[0]:
            curve = TrainingCurve(curve_tr, curve_va, best_epoch)
            best = (best_val, restart, snapshot, curve)
    if best is None:
        raise TrainingError("every restart diverged to non-finite loss")
    _, _, (w_hid, w_out), curve = best
    return FnnModel(w_hid, w_out, r), curve


# (data seed, classes, hidden, config): both class layouts; a run early
# stopping cuts short and a run that uses every epoch; a learning rate at
# which restart 0 diverges and a later restart does not; and one at which
# every restart diverges
FNN_CASES = {
    "binary-patience": (20, 2, 3, FnnConfig(max_epochs=400, patience=15, restarts=3, seed=21)),
    "binary-every-epoch": (22, 2, 2, FnnConfig(max_epochs=60, patience=61, restarts=2, seed=23)),
    "3-class-patience": (24, 3, 3, FnnConfig(max_epochs=400, patience=15, restarts=3, seed=25)),
    "3-class-every-epoch": (26, 3, 4, FnnConfig(learning_rate=2.0, max_epochs=60, patience=61,
                                                restarts=2, seed=27)),
    "one-restart-diverges": (1, 2, 2, FnnConfig(learning_rate=1e166, max_epochs=40,
                                                patience=10, restarts=3, seed=4)),
    "every-restart-diverges": (1, 2, 2, FnnConfig(learning_rate=1e300, max_epochs=40,
                                                  patience=10, restarts=3, seed=4)),
}


def fnn_data(data_seed, classes):
    ds = gen_blobs(30 * classes, classes=classes, seed=data_seed, spread=1.0)
    return split(ds, SplitSpec((0.5, 0.5), seed=data_seed + 1))


def val_error(model, val):
    return float(np.mean(model.predict_classes(val.features) != val.labels))


class TestFnnOracle:
    @pytest.mark.parametrize("case", list(FNN_CASES))
    def test_matches_oracle(self, case):
        data_seed, classes, hidden, cfg = FNN_CASES[case]
        tr, va = fnn_data(data_seed, classes)
        want = outcome(oracle_train_fnn, tr, va, hidden, cfg)
        got = outcome(train_fnn, tr, va, hidden, cfg)
        if case == "every-restart-diverges":
            assert want[0] == "raised" and want[1] is TrainingError
            assert got == want
            return
        assert want[0] == got[0] == "ok"
        (w_model, curve), model = want[1], got[1]
        assert model.hidden_weights.tobytes() == w_model.hidden_weights.tobytes()
        assert model.output_weights.tobytes() == w_model.output_weights.tobytes()
        assert model.class_count == w_model.class_count == classes
        # the case is what its name says
        epochs_run = len(curve.val_errors) - 1
        if case.endswith("every-epoch"):
            assert epochs_run == cfg.max_epochs
        elif case.endswith("patience"):
            assert epochs_run < cfg.max_epochs
        else:
            first_alone = outcome(oracle_train_fnn, tr, va, hidden, replace(cfg, restarts=1))
            assert first_alone[0] == "raised" and first_alone[1] is TrainingError

    @pytest.mark.parametrize("case", [c for c in FNN_CASES if "diverges" not in c])
    def test_returned_model_sits_at_the_oracle_curve_minimum(self, case):
        data_seed, classes, hidden, cfg = FNN_CASES[case]
        tr, va = fnn_data(data_seed, classes)
        _, curve = oracle_train_fnn(tr, va, hidden, cfg)
        err = val_error(train_fnn(tr, va, hidden, cfg), va)
        assert err == curve.val_errors[curve.best_epoch]
        assert curve.best_epoch == int(np.argmin(curve.val_errors))   # the first minimum
        assert err <= curve.val_errors[-1]


def chunks_of(k):
    """`_util.stack_chunks` with a fixed k stack elements per chunk."""
    return lambda count, per_element: [slice(i, min(i + k, count)) for i in range(0, count, k)]


class TestStackChunks:
    """Stacks descended in chunks against the per-fit oracles: chunking must
    not change a bit, also where a chunk boundary splits the restarts of one
    column, key or net, and a diverging element raises the oracle's error."""

    def test_chunks_cover_the_stack_within_the_budget(self):
        budget = STACK_ELEMENTS
        for count in (1, 5, 100):
            for per_element in (1, 7, budget // 3, budget, budget * 5):
                chunks = stack_chunks(count, per_element)
                assert [i for s in chunks for i in range(s.start, s.stop)] == list(range(count))
                assert all(s.stop > s.start for s in chunks)
                assert all((s.stop - s.start) * per_element <= budget
                           for s in chunks if s.stop - s.start > 1)
                assert all((s.stop - s.start + 1) * per_element > budget
                           for s in chunks[:-1])

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("scale, rate", [(1.0, 2.0), (1e300, 1e30)])
    def test_fit_neuron(self, k, scale, rate, monkeypatch):
        U, y = descent_problem(11, 31, 3, scale)
        cfg = FitConfig(learning_rate=rate, epochs=10, restarts=5, seed=6)
        nrn = SigmoidNeuron((("x", 0), ("x", 1), ("x", 2)))
        want = outcome(oracle_fit_neuron, nrn, U, y, cfg)
        monkeypatch.setattr(neuron, "stack_chunks", chunks_of(k))
        got = outcome(fit_one, nrn, U, y, cfg)
        if want[0] == "ok":
            assert got[0] == "ok" and neuron_key(got[1]) == neuron_key(want[1])
        else:
            assert got == want

    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("scale, rate", [(1.0, 2.0), (1e300, 1e30)])
    def test_fit_neuron_one_input_matrix_each(self, k, scale, rate, monkeypatch):
        # three neurons of three inputs each, as a chunked cascade walk would
        # fit its candidates: each matches its own oracle fit
        U, y = descent_problem(14, 31, 9, scale)
        inputs = [U[:, 3 * i:3 * i + 3] for i in range(3)]
        seeds = [derive_seed(6, 1, h) for h in range(3)]
        cfg = FitConfig(learning_rate=rate, epochs=10, restarts=3, seed=6)
        nrn = SigmoidNeuron((("x", 0), ("x", 1), ("x", 2)))
        want = [outcome(oracle_fit_neuron, nrn, np.ascontiguousarray(inputs[i]), y,
                        replace(cfg, seed=seed)) for i, seed in enumerate(seeds)]
        monkeypatch.setattr(neuron, "stack_chunks", chunks_of(k))
        got = outcome(fit_neuron, [nrn] * 3, inputs, y, seeds, cfg)
        if all(w[0] == "ok" for w in want):
            assert got[0] == "ok"
            assert [neuron_key(g) for g in got[1]] == [neuron_key(w[1]) for w in want]
        else:
            assert got == next(w for w in want if w[0] != "ok")

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_ranking(self, k, monkeypatch):
        train, val = ranking_data(12, 31, 10, 4, constant=True, twin=True)
        cfg = FitConfig(learning_rate=2.0, epochs=15, restarts=3, seed=7)
        want = outcome(oracle_fit_single_features, train, val, cfg)
        monkeypatch.setattr(neuron, "stack_chunks", chunks_of(k))
        assert ranking_key(outcome(cascade._fit_single_features, train, val, cfg)) == \
            ranking_key(want)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_fit_weights(self, k, monkeypatch):
        XA, yA = descent_problem(13, 31, 4, 1.0)
        cfg = GmdhConfig(epochs=20, restarts=3, seed=8)
        pairs = [(0, 1), (1, 3), (2, 3)]
        B = np.stack([_basis("bilinear", [XA[:, a], XA[:, b]]) for a, b in pairs])
        want = np.stack([gram_fit_weights("bilinear", [XA[:, a], XA[:, b]], yA, cfg,
                                          derive_seed(8, 1, ci)) for ci, (a, b) in enumerate(pairs)])
        monkeypatch.setattr(gmdh, "stack_chunks", chunks_of(k))
        got = _fit_weights(B, yA, cfg, [(1, ci) for ci in range(len(pairs))])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("case", list(FNN_CASES))
    def test_fnn(self, case, k, monkeypatch):
        data_seed, classes, hidden, cfg = FNN_CASES[case]
        tr, va = fnn_data(data_seed, classes)
        want = outcome(oracle_train_fnn, tr, va, hidden, cfg)
        monkeypatch.setattr(baseline, "stack_chunks", chunks_of(k))
        got = outcome(train_fnn, tr, va, hidden, cfg)
        if want[0] != "ok":
            assert got == want
            return
        model, w_model = got[1], want[1][0]
        assert model.hidden_weights.tobytes() == w_model.hidden_weights.tobytes()
        assert model.output_weights.tobytes() == w_model.output_weights.tobytes()
