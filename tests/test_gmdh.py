"""Polynomial networks: candidate counting, evaluation, growth, rendering."""

import numpy as np
import pytest

from evonets.dataset import Dataset, SplitSpec, gen_surrogate_eeg, gen_xor, split
from evonets.errors import DataError, TrainingError
from evonets.gmdh import (GmdhConfig, PolyNetwork, SupportingNeuron,
                          count_candidates, gmdh_to_dot, to_polynomial_text,
                          train_gmdh_layered, train_gmdh_roulette)
from evonets.neuron import FitConfig

# Reference coefficient sets for a three-neuron artifact-classification network.
CHAIN = [
    ((("x", 10), ("x", 68)), [0.6965, 0.3916, 0.2484, -0.2312]),
    ((("n", 0), ("x", 72)), [0.3863, 0.5648, 0.5418, -0.4847]),
    ((("n", 1), ("x", 75)), [0.1914, 0.7763, 0.2378, -0.2042]),
]


LABELS = ("0", "1")


def column_names(m):
    """x1, x2, ..., xm: the names the fixtures are rendered with."""
    return tuple(f"x{j + 1}" for j in range(m))


def chain_network():
    neurons = [SupportingNeuron("bilinear", inputs, weights, layer=k + 1, survivor=True)
               for k, (inputs, weights) in enumerate(CHAIN)]
    return PolyNetwork(neurons, 2, [])


def neuron_value(nrn, *values):
    """Raw output of a lone neuron whose inputs are the given feature values."""
    return float(PolyNetwork([nrn], 0).raw_outputs(np.array([values]))[0])


def raw_output(net, x):
    """Raw network output for one example."""
    return float(net.raw_outputs(np.asarray(x, dtype=float)[None, :])[0])


def interpret(net, x):
    """Independent brute-force interpreter over the network structure."""
    values = []
    for nrn in net.neurons:
        ins = [x[r] if t == "x" else values[r] for t, r in nrn.inputs]
        v = nrn.weights[0] + nrn.weights[1] * ins[0]
        if len(ins) == 2:
            v += nrn.weights[2] * ins[1]
        if nrn.kind == "bilinear":
            v += nrn.weights[3] * ins[0] * ins[1]
        values.append(v)
    return values[net.output]


# Reference coefficient sets for an 11-neuron, 7-input artifact recognizer
# over 72 features (the deeper companion of the 3-neuron network above).
DEEP = [
    ((("x", 4), ("x", 56)), [0.9049, -0.1707, -0.1616, 0.0339], 1),
    ((("x", 4), ("x", 27)), [0.9023, -0.2128, -0.1389, 0.0438], 1),
    ((("x", 5), ("x", 61)), [0.9268, -0.1828, -0.1195, 0.0233], 1),
    ((("x", 5), ("x", 20)), [0.9323, -0.2057, -0.0461, 0.0246], 1),
    ((("x", 4), ("x", 54)), [0.9247, -0.1822, -0.0951, 0.0196], 1),
    ((("n", 0), ("n", 3)), [0.0590, 0.2810, 0.3055, 0.3670], 2),
    ((("n", 1), ("n", 2)), [0.0225, 0.4144, 0.3812, 0.1878], 2),
    ((("n", 0), ("n", 4)), [0.0609, 0.2917, 0.2738, 0.3880], 2),
    ((("n", 5), ("n", 6)), [0.0551, 0.3033, 0.3896, 0.2540], 3),
    ((("n", 6), ("n", 7)), [0.0579, 0.4058, 0.2834, 0.2549], 3),
    ((("n", 8), ("n", 9)), [-0.0400, 0.6196, 0.5702, -0.1504], 4),
]


def deep_network():
    neurons = [SupportingNeuron("bilinear", ins, w, layer=layer, survivor=True)
               for ins, w, layer in DEEP]
    return PolyNetwork(neurons, 10, [])


class TestCounting:
    def test_four_features(self):
        assert count_candidates(4) == 6

    def test_two_features(self):
        assert count_candidates(2) == 1

    def test_seventy_two_features(self):
        assert count_candidates(72) == 2556

    def test_too_few(self):
        with pytest.raises(DataError):
            count_candidates(1)


class TestEvaluation:
    def test_zero_input_exposes_bias(self):
        nrn = SupportingNeuron("bilinear", (("x", 0), ("x", 1)), CHAIN[0][1])
        assert neuron_value(nrn, 0.0, 0.0) == pytest.approx(0.6965, abs=1e-15)

    def test_unit_input_sums_coefficients(self):
        nrn = SupportingNeuron("bilinear", (("x", 0), ("x", 1)), CHAIN[0][1])
        assert neuron_value(nrn, 1.0, 1.0) == pytest.approx(1.1053, abs=1e-12)

    def test_linear_kind(self):
        nrn = SupportingNeuron("linear", (("x", 0), ("x", 1)), [0.0, 1.0, 1.0])
        assert neuron_value(nrn, 2.0, 3.0) == 5.0

    def test_bilinear_is_affine_in_v1_for_fixed_v2(self):
        nrn = SupportingNeuron("bilinear", (("x", 0), ("x", 1)), [0.3, -1.2, 0.7, 2.1])
        v2 = 0.8
        y0 = neuron_value(nrn, -1.0, v2)
        y1 = neuron_value(nrn, 0.0, v2)
        y2 = neuron_value(nrn, 1.0, v2)
        assert y1 == pytest.approx((y0 + y2) / 2, abs=1e-12)


class TestLayeredGrowth:
    def test_recovers_exact_bilinear_target(self):
        # labels are exactly 0.5 + 0.5 * x0 * x1 on sign-valued inputs, so a
        # bilinear pairing of the first two columns can fit them perfectly
        rng = np.random.default_rng(0)
        signs = rng.choice([-1.0, 1.0], size=(400, 2))
        noise = rng.uniform(-1, 1, size=(400, 3))
        X = np.column_stack([signs, noise])
        labels = (0.5 + 0.5 * X[:, 0] * X[:, 1]).astype(int)
        ds = Dataset(X, labels, tuple("abcde"), 2)
        tr, va = split(ds, SplitSpec((0.5, 0.5), seed=1))
        net = train_gmdh_layered(tr, va, GmdhConfig(method="least_squares", seed=0))
        out = net.neurons[net.output]
        assert set(r for t, r in out.inputs if t == "x") == {0, 1}
        assert out.criterion < 1e-6
        err = np.mean(net.predict_classes(ds.features) != ds.labels)
        assert err == 0.0

    def test_exact_function_fit_reaches_tiny_criterion(self):
        # real-valued targets generated by a bilinear polynomial of (x0, x1)
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, size=(300, 5))
        target = 0.2 + 0.4 * X[:, 0] + 0.3 * X[:, 1] - 0.7 * X[:, 0] * X[:, 1]
        labels = (target >= 0.5).astype(int)
        ds = Dataset(X, labels, tuple("abcde"), 2)
        tr, va = split(ds, SplitSpec((0.5, 0.5), seed=2))
        # fit against the continuous construction by swapping in real targets
        from evonets.gmdh import _basis, _fit_weights
        cfg = GmdhConfig(method="least_squares")
        cols = [tr.features[:, 0], tr.features[:, 1]]
        w = _fit_weights(_basis("bilinear", cols)[None], 0.2 + 0.4 * cols[0] + 0.3 * cols[1]
                         - 0.7 * cols[0] * cols[1], cfg, [(0,)])[0]
        np.testing.assert_allclose(w, [0.2, 0.4, 0.3, -0.7], atol=1e-9)

    def test_max_layers_one(self):
        ds = gen_xor(200, seed=1)
        tr, va = split(ds, SplitSpec((0.5, 0.5), seed=0))
        net = train_gmdh_layered(tr, va, GmdhConfig(max_layers=1, method="least_squares"))
        assert max(n.layer for n in net.neurons) == 1
        assert len(net.layer_scores) == 1

    def test_layer_scores_strictly_decrease(self):
        ds, _ = gen_surrogate_eeg(600, relevant=3, irrelevant=3, seed=5)
        tr, va = split(ds, SplitSpec((0.5, 0.5), seed=6))
        net = train_gmdh_layered(tr, va, GmdhConfig(method="least_squares", seed=1))
        assert all(b < a for a, b in zip(net.layer_scores, net.layer_scores[1:]))

    def test_survivors_have_smallest_criteria(self):
        # with survivors=2 the two kept first-layer neurons must be the best two
        ds, _ = gen_surrogate_eeg(400, relevant=2, irrelevant=2, seed=7)
        tr, va = split(ds, SplitSpec((0.5, 0.5), seed=8))
        cfg = GmdhConfig(method="least_squares", survivors=2, max_layers=1)
        net = train_gmdh_layered(tr, va, cfg)
        from itertools import combinations
        from evonets.gmdh import _basis, _fit_weights
        crs = []
        for ci, (a, b) in enumerate(combinations(range(tr.n_features), 2)):
            cols = [tr.features[:, a], tr.features[:, b]]
            w = _fit_weights(_basis("bilinear", cols)[None], tr.labels.astype(float), cfg,
                             [(0,)])[0]
            outB = _basis("bilinear", [va.features[:, a], va.features[:, b]]) @ w
            crs.append(float(np.sum((outB - va.labels) ** 2)))
        kept = sorted(n.criterion for n in net.neurons)
        assert kept == pytest.approx(sorted(crs)[:len(kept)], abs=1e-9)

    def test_binary_labels_required(self):
        X = np.random.default_rng(0).normal(size=(30, 3))
        ds = Dataset(X, np.arange(30) % 3, ("a", "b", "c"), 3)
        with pytest.raises(DataError):
            train_gmdh_layered(ds, ds, GmdhConfig())


def rows(features, class_count, n=30):
    X = np.random.default_rng(0).normal(size=(n, features))
    return Dataset(X, np.arange(n) % 2, tuple(f"f{j}" for j in range(features)), class_count)


@pytest.mark.parametrize("train, val, message", [
    # each input also breaks every later check, so the first check must win
    (rows(1, 3), rows(1, 3, n=0), "need at least 2 features"),
    (rows(2, 3), rows(2, 3, n=0), "requires binary labels"),
    (rows(2, 2), rows(2, 3, n=0), "requires binary labels"),
    (rows(2, 2), rows(2, 2, n=0), "empty validation set"),
])
@pytest.mark.parametrize("grow", [train_gmdh_layered, train_gmdh_roulette])
def test_both_growths_check_their_data_alike(grow, train, val, message):
    with pytest.raises(DataError, match=message):
        grow(train, val, GmdhConfig(method="least_squares"))


@pytest.mark.parametrize("setting, message", [
    ({"learning_rate": 0.0}, "learning_rate must be positive"),
    ({"learning_rate": float("nan")}, "learning_rate must be positive"),
    ({"epochs": 0}, "epochs must be at least 1"),
    ({"restarts": 0}, "restarts must be at least 1"),
])
def test_descent_settings_checked_as_in_fit_config(setting, message):
    for config in (GmdhConfig, FitConfig):
        with pytest.raises(DataError, match=message):
            config(**setting)


class TestRouletteGrowth:
    def test_zero_attempts_degenerates_to_best_single(self):
        ds = gen_xor(200, seed=2)
        tr, va = split(ds, SplitSpec((0.5, 0.5), seed=3))
        net = train_gmdh_roulette(tr, va, GmdhConfig(attempts=0, method="least_squares"))
        assert len(net.neurons) == 1
        assert len(net.neurons[0].inputs) == 1

    def test_deterministic(self):
        ds, _ = gen_surrogate_eeg(300, relevant=2, irrelevant=3, seed=9)
        tr, va = split(ds, SplitSpec((0.5, 0.5), seed=10))
        cfg = GmdhConfig(attempts=40, method="least_squares", seed=11)
        a = train_gmdh_roulette(tr, va, cfg)
        b = train_gmdh_roulette(tr, va, cfg)
        assert to_polynomial_text(a, tr.feature_names, LABELS) == \
            to_polynomial_text(b, tr.feature_names, LABELS)

    def test_validation_never_worse_than_best_single(self):
        ds, _ = gen_surrogate_eeg(600, relevant=3, irrelevant=5, seed=12)
        tr, va = split(ds, SplitSpec((0.5, 0.5), seed=13))
        cfg = GmdhConfig(attempts=100, method="least_squares", seed=14)
        net = train_gmdh_roulette(tr, va, cfg)
        err_net = np.mean(net.predict_classes(va.features) != va.labels)

        best_single = None
        from evonets.gmdh import _basis, _fit_weights
        for i in range(tr.n_features):
            w = _fit_weights(_basis("linear", [tr.features[:, i]])[None], tr.labels.astype(float),
                             cfg, [(0, i)])[0]
            out = _basis("linear", [va.features[:, i]]) @ w
            err = np.mean((out >= 0.5).astype(int) != va.labels)
            best_single = err if best_single is None else min(best_single, err)
        assert err_net <= best_single + 1e-12


class TestPrediction:
    def test_chain_network_at_zero_input(self):
        net = chain_network()
        raw = raw_output(net, np.zeros(76))
        assert raw == pytest.approx(0.79666806816, abs=1e-12)
        assert net.predict_classes(np.zeros((1, 76)))[0] == 1

    def test_first_neuron_bias_at_zero_input(self):
        net = chain_network()
        first = PolyNetwork(net.neurons, 0, [])
        assert raw_output(first, np.zeros(76)) == pytest.approx(0.6965, abs=1e-15)

    def test_single_reference_neuron_at_zero_input(self):
        nrn = SupportingNeuron("bilinear", (("x", 0), ("x", 1)), CHAIN[0][1],
                               survivor=True)
        net = PolyNetwork([nrn], 0, [])
        raw = raw_output(net, np.zeros(2))
        assert raw == pytest.approx(0.6965, abs=1e-15)
        assert net.predict_classes(np.zeros((1, 2)))[0] == 1

    def test_matches_brute_force_interpreter(self):
        net = chain_network()
        rng = np.random.default_rng(15)
        for _ in range(50):
            x = rng.uniform(-1, 1, size=76)
            raw = raw_output(net, x)
            assert raw == pytest.approx(interpret(net, x), abs=1e-12)

    def test_deep_fixture_zero_input_chain(self):
        # frozen by feeding the bias chain forward with plain arithmetic
        net = deep_network()
        raw = raw_output(net, np.zeros(72))
        assert raw == pytest.approx(0.9012671384984285, abs=1e-12)
        assert net.predict_classes(np.zeros((1, 72)))[0] == 1

    def test_deep_fixture_matches_interpreter(self):
        net = deep_network()
        rng = np.random.default_rng(16)
        for _ in range(50):
            x = rng.uniform(-1, 1, size=72)
            raw = raw_output(net, x)
            assert raw == pytest.approx(interpret(net, x), abs=1e-12)

    def test_empty_network_rejected(self):
        net = PolyNetwork([], 0, [])
        with pytest.raises(TrainingError, match="untrained"):
            net.raw_outputs(np.zeros((1, 3)))

    def test_missing_feature_rejected(self):
        net = chain_network()
        with pytest.raises(DataError, match="at least 76"):
            net.raw_outputs(np.zeros((1, 10)))


class TestPruning:
    def test_pruning_preserves_predictions(self):
        from evonets.gmdh import _pruned
        # dead neuron 1 is never referenced by the output chain
        n0 = SupportingNeuron("bilinear", (("x", 0), ("x", 1)), [0.1, 0.2, 0.3, 0.4])
        dead = SupportingNeuron("bilinear", (("x", 0), ("x", 2)), [9.0, 9.0, 9.0, 9.0])
        n2 = SupportingNeuron("bilinear", (("n", 0), ("x", 2)), [0.5, -0.6, 0.7, -0.8])
        net = PolyNetwork([n0, dead, n2], 2, [])
        slim = _pruned(net)
        assert len(slim.neurons) == 2
        rng = np.random.default_rng(16)
        X = rng.uniform(-1, 1, size=(30, 3))
        np.testing.assert_allclose(slim.raw_outputs(X), net.raw_outputs(X), atol=0)


class TestText:
    def test_three_equations(self):
        text = to_polynomial_text(chain_network(), column_names(76), LABELS)
        assert len(text.splitlines()) == 3

    def test_reference_first_line_format(self):
        first = to_polynomial_text(chain_network(), column_names(76), LABELS).splitlines()[0]
        assert "0.6965 + 0.3916" in first
        assert "- 0.2312" in first
        assert "x11" in first and "x69" in first

    def test_topological_listing(self):
        lines = to_polynomial_text(chain_network(), column_names(76), LABELS).splitlines()
        names = [ln.split(" = ")[0] for ln in lines]
        for k, line in enumerate(lines):
            rhs = line.split(" = ")[1]
            for later in names[k + 1:]:
                assert later not in rhs

    def test_deep_fixture_renders_eleven_equations(self):
        text = to_polynomial_text(deep_network(), column_names(72), LABELS)
        lines = text.splitlines()
        assert len(lines) == 11
        assert lines[0].startswith("y1(1) = 0.9049 - 0.1707*x5 - 0.1616*x57")
        assert lines[5].startswith("y1(2) = 0.0590 + 0.2810*y1(1) + 0.3055*y4(1)")
        assert lines[10].startswith("y1(4) = -0.0400 + 0.6196*y1(3)")
        # every name referenced on a right-hand side is defined earlier
        names = [ln.split(" = ")[0] for ln in lines]
        for k, line in enumerate(lines):
            rhs = line.split(" = ")[1]
            for later in names[k + 1:]:
                assert later not in rhs

    def test_dot_marks_survivors(self):
        dot = gmdh_to_dot(chain_network(), column_names(76), LABELS)
        assert "fillcolor=gray80" in dot
        assert dot.count("->") >= 6
