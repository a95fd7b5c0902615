"""Comparison baseline: a one-hidden-layer sigmoid network trained by
batch backpropagation with early stopping and restarts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import augment, derive_seed
from .errors import DataError, TrainingError
from .neuron import check_descent, sigmoid

__all__ = ["FnnModel", "FnnConfig", "train_fnn", "describe_fnn"]


@dataclass(frozen=True)
class FnnConfig:
    learning_rate: float = 0.5
    max_epochs: int = 2000
    patience: int = 100
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        # max_epochs is what --epochs sets, so it is reported as epochs
        check_descent(self.learning_rate, self.max_epochs, self.restarts)
        if self.patience < 1:
            raise DataError("patience must be at least 1")


@dataclass(eq=False)
class FnnModel:
    """Fully connected net with one sigmoid hidden layer.

    Binary problems use a single sigmoid output thresholded at 0.5;
    multi-class problems use one output per class and argmax.
    """

    hidden_weights: np.ndarray   # (h, m + 1)
    output_weights: np.ndarray   # (o, h + 1)
    class_count: int
    threshold: float = 0.5

    def forward(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.hidden_weights.shape[1] - 1:
            raise DataError(f"expected {self.hidden_weights.shape[1] - 1} features, "
                            f"got {X.shape[1]}")
        H = sigmoid(augment(X) @ self.hidden_weights.T)
        return sigmoid(augment(H) @ self.output_weights.T)

    def predict_classes(self, X):
        out = self.forward(X)
        if out.shape[1] == 1:
            return (out[:, 0] >= self.threshold).astype(int)
        return np.argmax(out, axis=1)


def _targets(labels, class_count):
    if class_count == 2:
        return labels.astype(float)[:, None]
    T = np.zeros((labels.shape[0], class_count))
    T[np.arange(labels.shape[0]), labels] = 1.0
    return T


def fnn_loss(hidden_w, output_w, X, T):
    """Mean squared error over rows and output units."""
    H = sigmoid(augment(X) @ hidden_w.T)
    O = sigmoid(augment(H) @ output_w.T)
    return float(np.mean(np.sum((O - T) ** 2, axis=1)))


def fnn_gradients(hidden_w, output_w, X, T):
    """Backpropagated gradients of fnn_loss for both weight matrices."""
    Xa = augment(X)
    H = sigmoid(Xa @ hidden_w.T)
    Ha = augment(H)
    O = sigmoid(Ha @ output_w.T)
    n = X.shape[0]
    d_out = 2.0 * (O - T) * O * (1.0 - O) / n
    g_out = d_out.T @ Ha
    d_hid = (d_out @ output_w[:, 1:]) * H * (1.0 - H)
    g_hid = d_hid.T @ Xa
    return g_hid, g_out


def train_fnn(train, val, hidden, cfg: FnnConfig = FnnConfig()):
    """Batch gradient descent with early stopping at the validation minimum.

    Each restart draws fresh uniform [-0.5, 0.5] weights, descends for up
    to max_epochs (stopping `patience` epochs past the running validation
    minimum), and snapshots the weights at that minimum. A restart whose
    loss turns non-finite is abandoned and counted as failed. The restart
    with the lowest snapshot validation error wins.

    Returns the winning restart's model.
    """
    if hidden < 1:
        raise DataError("need at least 1 hidden neuron")
    r = train.class_count
    T_tr = _targets(train.labels, r)
    m = train.n_features

    best = None
    for restart in range(cfg.restarts):
        rng = np.random.default_rng(derive_seed(cfg.seed, restart))
        w_hid = rng.uniform(-0.5, 0.5, size=(hidden, m + 1))
        w_out = rng.uniform(-0.5, 0.5, size=(T_tr.shape[1], hidden + 1))
        model = FnnModel(w_hid, w_out, r)   # sees the in-place descent below

        def val_error():
            return float(np.mean(model.predict_classes(val.features) != val.labels))

        best_epoch, best_val = 0, val_error()
        snapshot = (w_hid.copy(), w_out.copy())
        diverged = False
        for epoch in range(1, cfg.max_epochs + 1):
            g_hid, g_out = fnn_gradients(w_hid, w_out, train.features, T_tr)
            w_hid -= cfg.learning_rate * g_hid
            w_out -= cfg.learning_rate * g_out
            if not (np.isfinite(w_hid).all() and np.isfinite(w_out).all()):
                diverged = True
                break
            e_va = val_error()
            if e_va < best_val:
                best_val = e_va
                best_epoch = epoch
                snapshot = (w_hid.copy(), w_out.copy())
            if epoch - best_epoch >= cfg.patience:
                break
        if not diverged and (best is None or best_val < best[0]):
            best = (best_val, snapshot)
    if best is None:
        raise TrainingError("every restart diverged to non-finite loss")
    w_hid, w_out = best[1]
    return FnnModel(w_hid, w_out, r)


def describe_fnn(model: FnnModel) -> str:
    """Plain weight dump, one line per unit: there is no compact closed form."""
    lines = [f"hidden[{k}]: " + " ".join(f"{v!r}" for v in row)
             for k, row in enumerate(model.hidden_weights)]
    lines += [f"output[{k}]: " + " ".join(f"{v!r}" for v in row)
              for k, row in enumerate(model.output_weights)]
    return "\n".join(lines)
