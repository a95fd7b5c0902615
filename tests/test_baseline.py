"""Feed-forward baseline and principal component preprocessing."""

import numpy as np
import pytest

from evonets.baseline import (FnnConfig, FnnModel, fnn_gradients, fnn_loss,
                              pca_fit, train_fnn)
from evonets.dataset import SplitSpec, gen_blobs, gen_xor, split
from evonets.errors import DataError


class TestPca:
    def test_rank_one_data_needs_one_component(self):
        rng = np.random.default_rng(0)
        x1 = rng.normal(size=200)
        X = np.column_stack([x1, 2 * x1])
        t = pca_fit(X, variance_level=0.95)
        assert t.retained == 1
        assert t.explained[0] == pytest.approx(1.0, abs=1e-12)

    def test_isotropic_gaussian_splits_evenly(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(10000, 2))
        t = pca_fit(X, variance_level=1.0)
        assert t.retained == 2
        assert t.explained[0] == pytest.approx(0.5, abs=0.05)
        assert t.explained[1] == pytest.approx(0.5, abs=0.05)

    def test_components_orthonormal(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(300, 5)) @ rng.normal(size=(5, 5))
        t = pca_fit(X, variance_level=1.0)
        gram = t.components @ t.components.T
        np.testing.assert_allclose(gram, np.eye(t.retained), atol=1e-8)

    def test_projected_covariance_is_diagonal(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(400, 4)) @ rng.normal(size=(4, 4))
        t = pca_fit(X, variance_level=1.0)
        Z = t.transform(X)
        C = np.cov(Z, rowvar=False, bias=True)
        off = C - np.diag(np.diag(C))
        assert np.abs(off).max() < 1e-8

    def test_explained_fractions_non_increasing(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(200, 6)) * np.array([5, 4, 3, 2, 1, 0.5])
        t = pca_fit(X, variance_level=1.0)
        assert all(b <= a + 1e-12 for a, b in zip(t.explained, t.explained[1:]))

    def test_full_reconstruction(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(50, 3))
        t = pca_fit(X, variance_level=1.0)
        back = t.inverse_transform(t.transform(X))
        np.testing.assert_allclose(back, X, atol=1e-10)

    def test_constant_data_rejected(self):
        with pytest.raises(DataError):
            pca_fit(np.ones((10, 2)))


class TestGradients:
    def test_backprop_matches_central_differences(self):
        rng = np.random.default_rng(6)
        X = rng.uniform(-1, 1, size=(12, 3))
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
            _, curve = train_fnn(tr, va, hidden=2,
                                 cfg=FnnConfig(max_epochs=500, restarts=2, seed=seed))
            if min(curve.val_errors) == 0.0:
                wins += 1
        assert wins >= 9

    def test_continuous_xor_with_four_hidden_neurons(self):
        # Quadrant parity cannot be represented by two hidden ridges plus a
        # linear output (the combination needed is XNOR of two half-planes,
        # which is not linearly separable), so the smallest workable hidden
        # layer holds one detector per quadrant.
        ds = gen_xor(400, seed=7)
        tr, va = split(ds, SplitSpec((0.5, 0.5), seed=8))
        model, _ = train_fnn(tr, va, hidden=4,
                             cfg=FnnConfig(learning_rate=2.0, max_epochs=2000,
                                           patience=2000, restarts=10, seed=9))
        acc = np.mean(model.predict_classes(tr.features) == tr.labels)
        assert acc >= 0.95

    def test_snapshot_reproduces_recorded_minimum(self):
        ds = gen_blobs(150, classes=2, seed=10, spread=1.5)
        tr, va = split(ds, SplitSpec((0.5, 0.5), seed=11))
        model, curve = train_fnn(tr, va, hidden=3, cfg=FnnConfig(max_epochs=300,
                                                                 restarts=2, seed=12))
        err = np.mean(model.predict_classes(va.features) != va.labels)
        assert err == curve.val_errors[curve.best_epoch]
        assert curve.best_epoch == int(np.argmin(curve.val_errors))

    def test_early_stopped_error_never_worse_than_final(self):
        ds = gen_blobs(150, classes=3, seed=13, spread=1.2)
        tr, va = split(ds, SplitSpec((0.5, 0.5), seed=14))
        _, curve = train_fnn(tr, va, hidden=3, cfg=FnnConfig(max_epochs=300,
                                                             restarts=1, seed=15))
        assert curve.val_errors[curve.best_epoch] <= curve.val_errors[-1]

    def test_multiclass_output_layout(self):
        ds = gen_blobs(90, classes=3, seed=16, spread=0.5)
        tr, va = split(ds, SplitSpec((0.5, 0.5), seed=17))
        model, _ = train_fnn(tr, va, hidden=2, cfg=FnnConfig(max_epochs=200,
                                                             restarts=1, seed=18))
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
