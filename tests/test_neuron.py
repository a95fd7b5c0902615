"""Single-neuron primitives: sigmoid, fitters, error measures."""

import numpy as np
import pytest

from evonets.cascade import CascadeNetwork
from evonets.errors import DataError, TrainingError
from evonets.neuron import (CandidateScore, FitConfig, SigmoidNeuron, exterior_criterion,
                            fit_gradient, fit_loss, fit_neuron, least_squares_fit, sigmoid)


def make_neuron(p, weights=None):
    return SigmoidNeuron(tuple(("x", j) for j in range(p)), weights)


def neuron_output(neuron, inputs):
    """Output of a neuron bound to features 0..p-1 for one input row, read
    through a cascade network made of that neuron alone."""
    net = CascadeNetwork(0, tuple(range(neuron.p)), (), neuron, 0.0, [neuron],
                         list(range(1, neuron.p)))
    return float(net.scores(np.asarray(inputs, dtype=float)[None, :])[0])


class TestSigmoid:
    def test_zero_weights_give_half(self):
        n = make_neuron(3, [0.0, 0.0, 0.0, 0.0])
        assert neuron_output(n, [1.0, -2.0, 7.0]) == 0.5

    def test_unit_case(self):
        n = make_neuron(1, [0.0, 1.0])
        assert neuron_output(n, [1.0]) == pytest.approx(0.7310585786300049, abs=1e-15)

    def test_saturation_is_clamped(self):
        n = make_neuron(1, [50.0, 0.0])
        out = neuron_output(n, [0.0])
        assert out <= 1 - 1e-12
        low = make_neuron(1, [-50.0, 0.0])
        assert neuron_output(low, [0.0]) >= 1e-12

    def test_length_mismatch(self):
        n = make_neuron(2, [0.0, 1.0, 1.0])
        with pytest.raises(DataError):
            neuron_output(n, [1.0])

    def test_symmetry(self):
        # sigma(z) + sigma(-z) = 1 away from the clamp region
        z = np.linspace(-25, 25, 2001)
        np.testing.assert_allclose(sigmoid(z) + sigmoid(-z), 1.0, atol=1e-12)

    def test_monotone_in_each_weight(self):
        # sign of a finite difference in any single weight matches the input sign
        rng = np.random.default_rng(0)
        for _ in range(10):
            w = rng.uniform(-2, 2, size=4)
            u = rng.uniform(-2, 2, size=3)
            n0 = make_neuron(3, w)
            base = neuron_output(n0, u)
            for i in range(4):
                w2 = w.copy()
                w2[i] += 1e-6
                delta = neuron_output(make_neuron(3, w2), u) - base
                driver = 1.0 if i == 0 else u[i - 1]
                if abs(driver) > 1e-9:
                    assert np.sign(delta) == np.sign(driver)


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(7)
        U = rng.uniform(-2, 2, size=(30, 3))
        y = rng.integers(0, 2, size=30).astype(float)
        for _ in range(20):
            w = rng.uniform(-2, 2, size=4)
            g = fit_gradient(w, U, y)
            h = 1e-6
            for i in range(4):
                wp, wm = w.copy(), w.copy()
                wp[i] += h
                wm[i] -= h
                fd = (fit_loss(wp, U, y) - fit_loss(wm, U, y)) / (2 * h)
                assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-10)


class TestFitNeuron:
    def test_separable_1d_fits_perfectly(self):
        # class 0 below -0.25, class 1 above +0.25: margin >= 0.5
        rng = np.random.default_rng(1)
        x0 = rng.uniform(-2, -0.25, size=30)
        x1 = rng.uniform(0.25, 2, size=30)
        U = np.concatenate([x0, x1])[:, None]
        y = np.concatenate([np.zeros(30), np.ones(30)])
        fitted = fit_neuron(make_neuron(1), U, y, FitConfig(seed=3))
        out = sigmoid(fitted.weights[0] + U[:, 0] * fitted.weights[1])
        assert np.array_equal((out >= 0.5).astype(int), y.astype(int))

    def test_single_class_targets_rejected(self):
        U = np.arange(10, dtype=float)[:, None]
        with pytest.raises(TrainingError):
            fit_neuron(make_neuron(1), U, np.ones(10), FitConfig())

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(2)
        U = rng.normal(size=(40, 2))
        y = (U[:, 0] + U[:, 1] > 0).astype(float)
        cfg = FitConfig(restarts=1, seed=123)
        a = fit_neuron(make_neuron(2), U, y, cfg)
        b = fit_neuron(make_neuron(2), U, y, cfg)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_non_finite_inputs_rejected(self):
        U = np.array([[1.0], [np.nan]])
        with pytest.raises(TrainingError):
            fit_neuron(make_neuron(1), U, np.array([0.0, 1.0]), FitConfig())


class TestLeastSquares:
    def test_recovers_exact_linear_weights(self):
        v1 = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        v2 = np.array([1.0, 0.0, 2.0, 1.0, 3.0])
        y = 1.0 + 2.0 * v1
        B = np.column_stack([np.ones(5), v1, v2])
        w = least_squares_fit(B, y)
        np.testing.assert_allclose(w, [1.0, 2.0, 0.0], atol=1e-9)

    def test_fewer_rows_than_terms_rejected(self):
        with pytest.raises(DataError):
            least_squares_fit(np.ones((2, 3)), np.ones(2))

    def test_duplicate_column_recovers_via_jitter(self):
        v = np.array([0.0, 1.0, 2.0, 3.0])
        B = np.column_stack([np.ones(4), v, v])
        w = least_squares_fit(B, 2 * v + 1)
        assert np.isfinite(w).all()
        np.testing.assert_allclose(B @ w, 2 * v + 1, atol=1e-6)

    def test_residual_orthogonal_to_columns(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            B = rng.normal(size=(30, 4))
            y = rng.normal(size=30)
            w = least_squares_fit(B, y)
            residual = B @ w - y
            assert np.abs(B.T @ residual).max() < 1e-8


class TestExteriorCriterion:
    def test_exact_fit_scores_zero(self):
        y = np.array([0.0, 1.0, 1.0])
        score = exterior_criterion(lambda X: y, None, y)
        assert score.value == 0.0
        assert score.kind == "exterior_criterion_sse"

    def test_half_half_case(self):
        score = exterior_criterion(lambda X: np.array([0.5, 0.5]), None,
                                   np.array([0.0, 1.0]))
        assert score.value == pytest.approx(0.5, abs=1e-15)

    def test_matches_brute_force_resummation(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            out = rng.normal(size=20)
            y = rng.integers(0, 2, 20).astype(float)
            score = exterior_criterion(lambda X, o=out: o, None, y)
            brute = sum((float(o) - float(t)) ** 2 for o, t in zip(out, y))
            assert abs(score.value - brute) < 1e-12

    def test_positive_unless_exact(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            y = rng.integers(0, 2, 15).astype(float)
            out = y + rng.normal(0, 0.3, 15)
            score = exterior_criterion(lambda X, o=out: o, None, y)
            assert (score.value == 0.0) == bool(np.all(out == y))
            assert score.value > 0.0

    def test_empty_validation_rejected(self):
        with pytest.raises(DataError):
            exterior_criterion(lambda X: [], None, [])

    @pytest.mark.parametrize("out", [[1e200, 0.0], [np.inf, 0.0], [np.nan, 0.0]])
    def test_non_finite_error_is_a_training_error(self, out):
        # a diverged fit's outputs square past a float: a failed fit, not bad data
        with pytest.raises(TrainingError, match="held-out error .* is not finite"):
            exterior_criterion(lambda X: np.array(out), None, np.array([0.0, 1.0]))

    def test_negative_score_rejected(self):
        with pytest.raises(DataError):
            CandidateScore(-0.1, "exterior_criterion_sse")
