"""Rewritten kernels against the code they replaced.

`oracle_train_pocket_ratchet`, `oracle_sigmoid`, `oracle_search_threshold`,
`oracle_predict_classes`, `oracle_train_gmdh_layered`,
`oracle_train_gmdh_roulette` and `oracle_pruned` are the former bodies of
`linear.train_pocket_ratchet`, `neuron.sigmoid`, `ruletree.search_threshold`,
`ruletree.RuleTree.predict_classes`, `gmdh.train_gmdh_layered`,
`gmdh.train_gmdh_roulette` and `gmdh._pruned`, kept verbatim as the reference
(apart from their names). The rewrites only drop repeated work or repeated
code, so they must give bit-identical results: the same pocketed weights and
traces, the same sigmoid bytes, nan and signed zero included, the same
threshold bytes, polarity and error count, the same rule-tree labels, and the
same saved polynomial-network model files.
"""

import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evonets._util import augment, derive_seed
from evonets.dataset import Dataset, NormParams, gen_blobs, gen_surrogate_eeg
from evonets.errors import DataError, TrainingError
from evonets.gmdh import (GmdhConfig, PolyNetwork, SupportingNeuron, _basis,
                          _binary_targets, _fit_weights, count_candidates,
                          train_gmdh_layered, train_gmdh_roulette)
from evonets.linear import (LinearMachine, PocketState, ThermalSchedule, thermal_c,
                            train_pocket_ratchet)
from evonets.modelio import ModelBundle, save_model
from evonets.neuron import SIGMOID_CLAMP, exterior_criterion, sigmoid
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


def oracle_train_gmdh_layered(train, val, cfg: GmdhConfig = GmdhConfig()) -> PolyNetwork:
    """Layer-wise exhaustive growth with exterior-criterion selection.

    Layer 1 fits every pairing of input features on the fitting subset and
    keeps the `survivors` best by held-out sum-squared error; later layers
    pair the survivors. Growth stops when a new layer's best candidate no
    longer improves, and the best neuron of the last retained layer becomes
    the output. Neurons the output never references are pruned.
    """
    m = train.n_features
    if m < 2:
        raise DataError("need at least 2 features")
    yA = _binary_targets(train)
    yB = _binary_targets(val)
    if val.n_rows == 0:
        raise DataError("empty validation set")
    if not 0.4 <= train.n_rows / max(val.n_rows, 1) <= 2.5:
        warnings.warn("fitting and validation subsets differ a lot in size; "
                      "the selection criterion works best when they are comparable",
                      stacklevel=2)

    XA, XB = train.features, val.features
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
            w = _fit_weights(cfg.kind, inA, yA, cfg, derive_seed(cfg.seed, layer, ci))
            nrn = SupportingNeuron(cfg.kind, (ra, rb), w, layer=layer)
            outB = _basis(cfg.kind, inB) @ w
            nrn.criterion = exterior_criterion(lambda _x, o=outB: o, XB, yB).value
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
    net = PolyNetwork(kept, output, layer_scores, train.feature_names)
    return oracle_pruned(net)


def oracle_train_gmdh_roulette(train, val, cfg: GmdhConfig = GmdhConfig(), seed=None) -> PolyNetwork:
    """Randomized growth: accepted neurons join the selectable pool.

    Every feature first gets a one-input neuron whose validation accuracy
    seeds the roulette pool. Each attempt draws a pair of distinct pool
    members with probability proportional to accuracy, fits a two-input
    candidate on them, and accepts it only when it beats both parents; an
    accepted neuron's output becomes selectable for later pairings. The
    final model is the pool member with the best validation accuracy.
    """
    m = train.n_features
    if m < 2:
        raise DataError("need at least 2 features")
    yA = _binary_targets(train)
    yB = _binary_targets(val)
    if val.n_rows == 0:
        raise DataError("empty validation set")
    if seed is None:
        seed = cfg.seed

    XA, XB = train.features, val.features
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
        w = _fit_weights("linear", [XA[:, i]], yA, cfg, derive_seed(seed, 0, i))
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
        w = _fit_weights(cfg.kind, inA, yA, cfg, derive_seed(seed, 2, attempt))
        nrn = SupportingNeuron(cfg.kind, tuple(refs), w,
                               layer=1 + max(neurons[p].layer for p in (i, j)),
                               survivor=True)
        outB = _basis(cfg.kind, inB) @ w
        ac = float(np.mean((outB >= 0.5).astype(int) == val.labels))
        if ac > max(pool[i], pool[j]):
            add(nrn, _basis(cfg.kind, inA) @ w, outB)
            pool.append(ac)

    output = int(np.argmax(pool))
    net = PolyNetwork(neurons, output, [], train.feature_names)
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
    return PolyNetwork(pruned, remap[net.output], list(net.layer_scores), net.feature_names)


def gmdh_data(seed, n=90, features=5):
    """Fitting and validation halves of a small surrogate-EEG problem."""
    ds, _ = gen_surrogate_eeg(n, relevant=2, irrelevant=features - 2, seed=seed,
                              separation=1.0)
    half = n // 2
    names = ds.feature_names
    return (Dataset(ds.features[:half], ds.labels[:half], names, 2),
            Dataset(ds.features[half:], ds.labels[half:], names, 2))


def model_bytes(net, method, tmp_path):
    """The model file `save_model` writes for a polynomial network."""
    m = len(net.feature_names)
    path = tmp_path / f"{method}.json"
    save_model(path, ModelBundle(method, net, NormParams(np.zeros(m), np.ones(m)),
                                 net.feature_names, ("0", "1")))
    return path.read_bytes()


GMDH_CONFIGS = [
    dict(kind=kind, method=method, survivors=survivors)
    for kind in ("bilinear", "linear")
    for method in ("gradient", "least_squares")
    for survivors in (None, 3)
]


class TestGmdhOracle:
    @pytest.mark.parametrize("config", GMDH_CONFIGS,
                             ids=lambda c: "-".join(str(v) for v in c.values()))
    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_layered_matches_oracle(self, config, seed, tmp_path):
        train, val = gmdh_data(seed)
        cfg = GmdhConfig(epochs=40, restarts=2, seed=seed, **config)
        got = train_gmdh_layered(train, val, cfg)
        want = oracle_train_gmdh_layered(train, val, cfg)
        assert [n.criterion for n in got.neurons] == [n.criterion for n in want.neurons]
        assert model_bytes(got, "gmdh-layered", tmp_path) == \
            model_bytes(want, "gmdh-layered", tmp_path)

    @pytest.mark.parametrize("config", GMDH_CONFIGS[::2],
                             ids=lambda c: "-".join(str(v) for v in c.values()))
    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_roulette_matches_oracle(self, config, seed, tmp_path):
        train, val = gmdh_data(seed)
        cfg = GmdhConfig(attempts=40, epochs=40, restarts=2, seed=seed, **config)
        got = train_gmdh_roulette(train, val, cfg)
        want = oracle_train_gmdh_roulette(train, val, cfg)
        assert [n.accuracy for n in got.neurons] == [n.accuracy for n in want.neurons]
        assert model_bytes(got, "gmdh-roulette", tmp_path) == \
            model_bytes(want, "gmdh-roulette", tmp_path)

    def test_cases_grow_past_the_first_layer(self):
        # the oracle comparisons above only cover neuron-to-neuron inputs if
        # some of their networks reach a second layer
        layered = [len(train_gmdh_layered(*gmdh_data(seed), GmdhConfig(
            method="least_squares", seed=seed)).layer_scores) for seed in (0, 3, 8)]
        roulette = [max(n.layer for n in train_gmdh_roulette(*gmdh_data(seed), GmdhConfig(
            attempts=40, method="least_squares", seed=seed)).neurons) for seed in (0, 3, 8)]
        assert max(layered) >= 2 and max(roulette) >= 3, (layered, roulette)
