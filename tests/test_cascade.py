"""Cascade growth: ranking, relevance gating, prediction, description."""

from dataclasses import replace

import numpy as np
import pytest

from evonets.cascade import (CascadeNetwork, describe_cascade, predict_cascade,
                             rank_single_features, relevance_check, train_ecnn,
                             cascade_to_dot)
from evonets.dataset import Dataset, SplitSpec, gen_surrogate_eeg, split
from evonets.errors import DataError
from evonets.neuron import FitConfig, SigmoidNeuron

CFG = FitConfig(learning_rate=1.0, epochs=150, restarts=1, seed=0)


def separable_dataset(seed=0, n=200, noise_features=5):
    """One perfectly separating column among pure-noise columns."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    X = rng.standard_normal((n, noise_features + 1))
    X[:, 0] = np.where(y == 1, 1.0, -1.0) * rng.uniform(0.5, 1.5, n)
    names = tuple(f"f{j}" for j in range(noise_features + 1))
    return Dataset(X, y, names, 2)


def two_neuron_fixture():
    """A hand-built network: z1(anchor, f1), z2(anchor, f2, z1)."""
    n1 = SigmoidNeuron((("x", 0), ("x", 1)), [0.0, 2.0, 1.0])
    n2 = SigmoidNeuron((("x", 0), ("x", 2), ("z", 0)), [0.1, -1.0, 0.5, 3.0])
    base = SigmoidNeuron((("x", 0),), [0.0, 1.0])
    return CascadeNetwork(
        anchor=0, feature_order=(0, 1, 2), single_errors=(0.2, 0.3, 0.4),
        base_neuron=base, base_score=0.2, neurons=[n1, n2],
        accepted_features=[1, 2], accepted_scores=[0.15, 0.10],
        feature_names=("AbsPowBeta2", "AbsPowAlphaC4", "AbsPowDeltaC3"),
    )


class TestRanking:
    def test_separating_feature_ranked_first(self):
        ds = separable_dataset(seed=1)
        tr, va = split(ds, SplitSpec((0.5, 0.5), seed=0))
        order, errors, best = rank_single_features(tr, va, CFG)
        assert order[0] == 0
        assert best == errors[0] == min(errors)
        assert list(errors) == sorted(errors)

    def test_single_feature_rejected(self):
        ds = Dataset(np.arange(8.0)[:, None], [0, 1] * 4, ("a",), 2)
        with pytest.raises(DataError, match="at least 2 features"):
            rank_single_features(ds, ds, CFG)

    def test_tie_breaks_by_column_index(self):
        # identical duplicate columns give identical errors
        rng = np.random.default_rng(3)
        y = rng.integers(0, 2, 100)
        col = np.where(y == 1, 1.0, -1.0)
        X = np.column_stack([col, col, col])
        ds = Dataset(X, y, ("a", "b", "c"), 2)
        order, errors, _ = rank_single_features(ds, ds, CFG)
        assert errors[0] == errors[1] == errors[2]
        assert order == (0, 1, 2)


class TestRelevance:
    def test_strict_improvement_accepts(self):
        assert relevance_check(0.3, 0.5) is True

    def test_equality_rejects(self):
        assert relevance_check(0.5, 0.5) is False

    def test_worse_rejects(self):
        assert relevance_check(0.6, 0.5) is False


class TestTraining:
    def test_anchor_only_informative_adds_nothing(self):
        # anchor reaches validation error 0; nothing can strictly improve on it
        ds = separable_dataset(seed=5, n=300)
        tr, va = split(ds, SplitSpec((0.5, 0.5), seed=1))
        net = train_ecnn(tr, va, CFG)
        assert net.anchor == 0
        assert net.base_score == 0.0
        assert net.neurons == []
        assert net.selected_features == (0,)

    def test_deterministic(self):
        ds, _ = gen_surrogate_eeg(300, relevant=2, irrelevant=4, seed=2)
        tr, va = split(ds, SplitSpec((0.5, 0.5), seed=3))
        a = train_ecnn(tr, va, CFG, seed=42)
        b = train_ecnn(tr, va, CFG, seed=42)
        assert describe_cascade(a) == describe_cascade(b)
        for na, nb in zip(a.neurons, b.neurons):
            np.testing.assert_array_equal(na.weights, nb.weights)

    def test_ranks_once_with_the_seed_argument(self, monkeypatch):
        import evonets.cascade as cascade
        ds, _ = gen_surrogate_eeg(300, relevant=2, irrelevant=4, seed=2)
        tr, va = split(ds, SplitSpec((0.5, 0.5), seed=3))
        calls = []
        fit = cascade._fit_single_features

        def counted(*args):
            calls.append(args[-1])
            return fit(*args)

        monkeypatch.setattr(cascade, "_fit_single_features", counted)
        net = train_ecnn(tr, va, CFG, seed=42)
        assert calls == [42]
        ranked = rank_single_features(tr, va, replace(CFG, seed=42))
        assert (net.feature_order, net.single_errors, net.base_score) == ranked
        again = train_ecnn(tr, va, replace(CFG, seed=42))
        assert describe_cascade(again) == describe_cascade(net)
        assert again.base_neuron.weights.tobytes() == net.base_neuron.weights.tobytes()

    def test_structural_invariants(self):
        ds, _ = gen_surrogate_eeg(600, relevant=3, irrelevant=6, seed=4)
        tr, va = split(ds, SplitSpec((0.5, 0.5), seed=5))
        net = train_ecnn(tr, va, CFG)
        # accepted scores strictly decrease and start below the base score
        scores = [net.base_score] + list(net.accepted_scores)
        assert all(b < a for a, b in zip(scores, scores[1:]))
        # neuron t has exactly t + 2 bindings
        for t, nrn in enumerate(net.neurons):
            assert len(nrn.bindings) == t + 2
        assert net.final_score <= net.base_score

    def test_selects_informative_features(self):
        ds, informative = gen_surrogate_eeg(1500, relevant=4, irrelevant=20, seed=6)
        tr, va = split(ds, SplitSpec((2 / 3, 1 / 3), seed=7, stratified=True))
        net = train_ecnn(tr, va, FitConfig(learning_rate=2.0, epochs=300,
                                           restarts=1, seed=0))
        hits = set(net.selected_features) & set(informative)
        assert len(hits) >= 3

    def test_multiclass_rejected(self):
        X = np.random.default_rng(0).normal(size=(30, 3))
        ds = Dataset(X, np.arange(30) % 3, ("a", "b", "c"), 3)
        with pytest.raises(DataError):
            train_ecnn(ds, ds, CFG)


class TestPrediction:
    def test_zero_weight_network_scores_half(self):
        base = SigmoidNeuron((("x", 0),), [0.0, 0.0])
        n1 = SigmoidNeuron((("x", 0), ("x", 1)), [0.0, 0.0, 0.0])
        net = CascadeNetwork(0, (0, 1), (0.5, 0.5), base, 0.5, [n1], [1], [0.4])
        _, score = predict_cascade(net, np.array([3.0, -2.0]))
        assert score == 0.5

    def test_hand_computed_single_neuron(self):
        base = SigmoidNeuron((("x", 0),), [0.0, 2.0])
        net = CascadeNetwork(0, (0,), (0.1,), base, 0.1)
        cls, score = predict_cascade(net, np.array([1.0]))
        assert score == pytest.approx(0.8807970779778823, abs=1e-15)
        assert cls == 1

    def test_matches_stepwise_interpreter(self):
        net = two_neuron_fixture()
        rng = np.random.default_rng(9)
        for _ in range(50):
            x = rng.uniform(-2, 2, size=3)
            # brute-force interpretation, one neuron at a time
            z = {}
            for t, nrn in enumerate(net.neurons):
                acc = nrn.weights[0]
                for w, (kind, ref) in zip(nrn.weights[1:], nrn.bindings):
                    acc += w * (x[ref] if kind == "x" else z[ref])
                z[t] = 1.0 / (1.0 + np.exp(-acc))
            expected = z[len(net.neurons) - 1]
            _, got = predict_cascade(net, x)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_missing_feature_rejected(self):
        net = two_neuron_fixture()
        with pytest.raises(DataError):
            predict_cascade(net, np.array([1.0]))


class TestDescription:
    def test_line_count_matches_neurons(self):
        net = two_neuron_fixture()
        lines = describe_cascade(net).splitlines()
        assert len(lines) == 2

    def test_second_line_references_first_hidden_output(self):
        net = two_neuron_fixture()
        lines = describe_cascade(net).splitlines()
        assert lines[1].startswith("z2")
        assert "z1" in lines[1]

    def test_feature_names_propagate(self):
        net = two_neuron_fixture()
        text = describe_cascade(net)
        assert "AbsPowBeta2" in text
        assert "AbsPowDeltaC3" in text

    def test_accuracies_increase_down_the_listing(self):
        net = two_neuron_fixture()
        assert "0.8500" in describe_cascade(net).splitlines()[0]
        assert "0.9000" in describe_cascade(net).splitlines()[1]

    def test_dot_contains_all_nodes(self):
        net = two_neuron_fixture()
        dot = cascade_to_dot(net)
        assert dot.startswith("digraph")
        for tag in ("z1", "z2", "AbsPowBeta2"):
            assert tag in dot


class TestRejectedCandidatesDoNotMatter:
    def test_predictions_depend_only_on_accepted_neurons(self):
        # same accepted structure built with different rejected histories
        net_a = two_neuron_fixture()
        net_b = two_neuron_fixture()
        net_b.feature_order = (0, 2, 1)     # a different trial order
        net_b.single_errors = (0.2, 0.4, 0.3)
        rng = np.random.default_rng(10)
        X = rng.uniform(-1, 1, size=(20, 3))
        np.testing.assert_array_equal(net_a.predict_classes(X), net_b.predict_classes(X))
