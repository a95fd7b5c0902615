"""Feed-forward baseline."""

import numpy as np
import pytest

from evonets._util import augment
from evonets.baseline import FnnConfig, FnnModel, fnn_gradients, train_fnn
from evonets.dataset import SplitSpec, gen_blobs, gen_xor, split
from evonets.errors import DataError
from oracles import fnn_loss


class TestGradients:
    def test_backprop_matches_central_differences(self):
        rng = np.random.default_rng(6)
        X = augment(rng.uniform(-1, 1, size=(12, 3)))   # both take augmented rows
        T = rng.integers(0, 2, size=(12, 1)).astype(float)
        for _ in range(20):
            w_hid = rng.uniform(-1, 1, size=(2, 4))
            w_out = rng.uniform(-1, 1, size=(1, 3))
            g_hid, g_out = fnn_gradients(w_hid, w_out, X, T)
            h = 1e-6
            for mat, grad in ((w_hid, g_hid), (w_out, g_out)):
                idx = (rng.integers(mat.shape[0]), rng.integers(mat.shape[1]))
                up, down = mat.copy(), mat.copy()
                up[idx] += h
                down[idx] -= h
                if mat is w_hid:
                    fd = (fnn_loss(up, w_out, X, T) - fnn_loss(down, w_out, X, T)) / (2 * h)
                else:
                    fd = (fnn_loss(w_hid, up, X, T) - fnn_loss(w_hid, down, X, T)) / (2 * h)
                assert grad[idx] == pytest.approx(fd, rel=1e-5, abs=1e-10)


class TestTraining:
    def test_separable_data_reaches_zero_validation_error(self):
        wins = 0
        for seed in range(10):
            ds = gen_blobs(120, classes=2, seed=seed, spread=0.5)
            tr, va = split(ds, SplitSpec((0.5, 0.5), seed=seed))
            model = train_fnn(tr, va, hidden=2,
                              cfg=FnnConfig(max_epochs=500, restarts=2, seed=seed))
            if np.mean(model.predict_classes(va.features) != va.labels) == 0.0:
                wins += 1
        assert wins >= 9

    def test_continuous_xor_with_four_hidden_neurons(self):
        # Quadrant parity cannot be represented by two hidden ridges plus a
        # linear output (the combination needed is XNOR of two half-planes,
        # which is not linearly separable), so the smallest workable hidden
        # layer holds one detector per quadrant.
        ds = gen_xor(400, seed=7)
        tr, va = split(ds, SplitSpec((0.5, 0.5), seed=8))
        model = train_fnn(tr, va, hidden=4,
                          cfg=FnnConfig(learning_rate=2.0, max_epochs=2000,
                                        patience=2000, restarts=10, seed=9))
        acc = np.mean(model.predict_classes(tr.features) == tr.labels)
        assert acc >= 0.95

    def test_multiclass_output_layout(self):
        ds = gen_blobs(90, classes=3, seed=16, spread=0.5)
        tr, va = split(ds, SplitSpec((0.5, 0.5), seed=17))
        model = train_fnn(tr, va, hidden=2, cfg=FnnConfig(max_epochs=200, restarts=1, seed=18))
        assert model.output_weights.shape[0] == 3


class TestPrediction:
    def test_zero_weights_score_half(self):
        model = FnnModel(np.zeros((2, 3)), np.zeros((1, 3)), 2)
        x = np.array([[1.0, -1.0]])
        assert model.forward(x)[0, 0] == 0.5
        assert model.predict_classes(x)[0] == 1  # 0.5 >= threshold

    def test_single_input_scalar_case(self):
        # one hidden unit passing the input through steep weights, output
        # replicating the single-neuron arithmetic: w0=0, w=1 on the hidden value
        model = FnnModel(np.array([[0.0, 1000.0]]), np.array([[0.0, 1.0]]), 2)
        score = model.forward(np.array([[1.0]]))[0, 0]
        # hidden saturates to 1, output = sigmoid(1)
        assert score == pytest.approx(0.7310585786300049, abs=1e-9)

    def test_dimension_mismatch_rejected(self):
        model = FnnModel(np.zeros((2, 3)), np.zeros((1, 3)), 2)
        with pytest.raises(DataError, match="expected 2 features"):
            model.forward(np.array([[1.0]]))

    def test_matches_forward_oracle(self):
        rng = np.random.default_rng(19)
        model = FnnModel(rng.normal(size=(3, 4)), rng.normal(size=(2, 4)), 3)
        for _ in range(50):
            x = rng.uniform(-1, 1, size=3)
            hidden = 1 / (1 + np.exp(-(model.hidden_weights[:, 0]
                                       + model.hidden_weights[:, 1:] @ x)))
            out = 1 / (1 + np.exp(-(model.output_weights[:, 0]
                                    + model.output_weights[:, 1:] @ hidden)))
            cls = model.predict_classes(x[None, :])[0]
            assert cls == int(np.argmax(out))
            assert model.forward(x[None, :])[0, cls] == pytest.approx(out.max(), abs=1e-12)
