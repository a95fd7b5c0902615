"""Rewritten kernels against the code they replaced.

`oracle_train_pocket_ratchet`, `oracle_sigmoid`, `oracle_search_threshold`
and `oracle_predict_classes` are the former bodies of
`linear.train_pocket_ratchet`, `neuron.sigmoid`, `ruletree.search_threshold`
and `ruletree.RuleTree.predict_classes`, kept verbatim as the reference
(apart from their names). The rewrites only drop repeated work, so they must
give bit-identical results: the same pocketed weights and traces, the same
sigmoid bytes, nan and signed zero included, the same threshold bytes,
polarity and error count, and the same rule-tree labels.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evonets._util import augment
from evonets.dataset import Dataset, gen_blobs
from evonets.errors import DataError
from evonets.linear import (LinearMachine, PocketState, ThermalSchedule, thermal_c,
                            train_pocket_ratchet)
from evonets.neuron import SIGMOID_CLAMP, sigmoid
from evonets.ruletree import RuleNode, RuleTree, classify_rule, extract_rules, search_threshold


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

    for epoch in range(epochs):
        for i in rng.integers(0, n, size=n):
            xa = X[i]
            pred = int(np.argmax(W @ xa))
            q = int(y[i])
            if pred != q:
                if correction == "thermal":
                    k = float((W[q] - W[pred]) @ xa) / (2.0 * float(xa @ xa)) + sched.epsilon
                    amount = thermal_c(sched.beta, k)
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

    @settings(max_examples=40, deadline=None)
    @given(classes=st.integers(2, 4), n=st.integers(1, 40), features=st.integers(1, 3),
           data_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**32 - 1),
           epochs=st.one_of(st.none(), st.integers(1, 6)),
           c=st.sampled_from([0.05, 1.0, 3.0]), use_ratchet=st.booleans(),
           correction=st.sampled_from(["fixed", "thermal"]),
           beta=st.sampled_from([0.02, 2.0]), warm=st.booleans())
    def test_matches_oracle_on_random_problems(self, classes, n, features, data_seed,
                                               seed, epochs, c, use_ratchet,
                                               correction, beta, warm):
        rng = np.random.default_rng(data_seed)
        # a coarse grid makes exact score ties, which argmax breaks by index
        X = np.round(rng.standard_normal((n, features)), 1)
        y = rng.integers(0, classes, size=n)
        ds = Dataset(X, y, tuple(f"x{j}" for j in range(features)), classes)
        W0 = rng.standard_normal((classes, features + 1)) if warm \
            else np.zeros((classes, features + 1))
        kw = dict(epochs=epochs, c=c, seed=seed, use_ratchet=use_ratchet,
                  correction=correction, thermal=ThermalSchedule(beta=beta))
        got = train_pocket_ratchet(LinearMachine(W0.copy()), ds, **kw)
        want = oracle_train_pocket_ratchet(LinearMachine(W0.copy()), ds, **kw)
        assert_same_pocket(got, want)


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


def oracle_search_threshold(values0, values1):
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
        candidates = (pooled[:-1] + pooled[1:]) / 2.0
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
# two values near 1.7e308 overflow their midpoint to inf.
BASES = [0.0, -0.0, 1.0, -2.5, 0.1, 5e-324, 1e-300, 1.7e308, -1.7e308]


@st.composite
def threshold_sides(draw):
    base = draw(st.sampled_from(BASES))
    value = st.one_of(st.integers(-3, 3).map(float),
                      st.integers(-4, 4).map(lambda k: ulp_step(base, k)),
                      st.sampled_from([0.0, -0.0, 1.7e308, -1.7e308]))
    return (draw(st.lists(value, min_size=1, max_size=25)),
            draw(st.lists(value, min_size=1, max_size=25)))


def assert_same_threshold(values0, values1):
    with np.errstate(over="ignore"):
        got = search_threshold(values0, values1)
        want = oracle_search_threshold(values0, values1)
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
        tree = RuleTree(root, ("a", "b"))
        X = np.array([[0.0, 0.0], [-0.0, -0.5], [5e-324, -1.0], [-5e-324, -0.4],
                      [np.nan, -1.0], [np.inf, np.nan], [-np.inf, -np.inf]])
        assert tree.predict_classes(X).tobytes() == oracle_predict_classes(tree, X).tobytes()
        assert tree.predict_classes(X[0]).tolist() == oracle_predict_classes(tree, X[0]).tolist()

    def test_no_rows(self):
        tree = extract_rules([[0.0], [1.0]], [[2.0], [3.0]], [0])
        got = tree.predict_classes(np.empty((0, 1)))
        want = oracle_predict_classes(tree, np.empty((0, 1)))
        assert got.dtype == want.dtype and got.shape == want.shape == (0,)
