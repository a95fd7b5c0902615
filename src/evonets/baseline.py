"""Comparison baseline: a one-hidden-layer sigmoid network trained by
batch backpropagation with early stopping and restarts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import augment, derive_seed, stack_chunks
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
        return _forward(self.hidden_weights, self.output_weights, augment(X))

    def predict_classes(self, X):
        return _classes(self.forward(X), self.threshold)


def _forward(hidden_w, output_w, Xa):
    """Output activations on the augmented rows Xa (n, m + 1) of one net, or
    of a stack of nets (k, h, m + 1), (k, o, h + 1) as (k, n, o)."""
    H = sigmoid(Xa @ np.swapaxes(hidden_w, -1, -2))
    return sigmoid(augment(H) @ np.swapaxes(output_w, -1, -2))


def _classes(out, threshold=0.5):
    """Class per row of forward's output: the single sigmoid output against
    threshold, or the argmax over one output per class."""
    if out.shape[-1] == 1:
        return (out[..., 0] >= threshold).astype(int)
    return np.argmax(out, axis=-1)


def _targets(labels, class_count):
    if class_count == 2:
        return labels.astype(float)[:, None]
    T = np.zeros((labels.shape[0], class_count))
    T[np.arange(labels.shape[0]), labels] = 1.0
    return T


def fnn_gradients(hidden_w, output_w, Xa, T):
    """Backpropagated gradients of the mean squared error over rows and output
    units for both weight matrices, on the augmented rows Xa.

    The weights are one net's, or a stack of nets as for _forward, which
    gives a stack of gradients. A stacked np.matmul runs the same BLAS call
    on each element as a single product does, so every net of a stack gets
    the bits its own call gives.
    """
    H = sigmoid(Xa @ np.swapaxes(hidden_w, -1, -2))
    Ha = augment(H)
    O = sigmoid(Ha @ np.swapaxes(output_w, -1, -2))
    # d_out = 2 (O - T) O (1 - O) / n and d_hid = (d_out W_out) H (1 - H),
    # built in place in that order
    d_out = O - T
    d_out *= 2.0
    d_out *= O
    np.subtract(1.0, O, out=O)
    d_out *= O
    d_out /= Xa.shape[0]
    g_out = np.swapaxes(d_out, -1, -2) @ Ha
    d_hid = d_out @ output_w[..., 1:]
    d_hid *= H
    np.subtract(1.0, H, out=H)
    d_hid *= H
    g_hid = np.swapaxes(d_hid, -1, -2) @ Xa
    return g_hid, g_out


def train_fnn(train, val, hidden, cfg: FnnConfig = FnnConfig()):
    """Batch gradient descent with early stopping at the validation minimum.

    Each restart draws fresh uniform [-0.5, 0.5] weights, descends for up
    to max_epochs (stopping `patience` epochs past the running validation
    minimum), and snapshots the weights at that minimum. A restart whose
    loss turns non-finite is abandoned and counted as failed. The first
    restart with the strictly lowest snapshot validation error wins.

    The restarts descend together as one stack (in chunks of at most
    STACK_ELEMENTS per-row elements), each bit-identical to a descent of its
    own; a restart leaves the stack when it stops. Returns the winning
    restart's model.
    """
    if hidden < 1:
        raise DataError("need at least 1 hidden neuron")
    T = _targets(train.labels, train.class_count)
    Xa, Xva = augment(train.features), augment(val.features)
    # a restart's widest per-row temporaries, on the larger row set, and its
    # hidden weights
    units = max(hidden, T.shape[1]) + 1
    per_restart = max(Xa.shape[0], Xva.shape[0]) * units + hidden * Xa.shape[1]
    best = None
    for chunk in stack_chunks(cfg.restarts, per_restart):
        for result in _descend_restarts(range(chunk.start, chunk.stop), hidden,
                                        Xa, T, Xva, val.labels, cfg):
            if result is not None and (best is None or result[0] < best[0]):
                best = result
    if best is None:
        raise TrainingError("every restart diverged to non-finite loss")
    return FnnModel(best[1], best[2], train.class_count)


def _descend_restarts(restarts, hidden, Xa, T, Xva, labels, cfg):
    """Descend the given restarts as one stack with early stopping. Returns,
    in restart order, each one's (lowest validation error, hidden weights,
    output weights at it), or None for a restart that diverged."""
    draws = []
    for restart in restarts:
        rng = np.random.default_rng(derive_seed(cfg.seed, restart))
        draws.append((rng.uniform(-0.5, 0.5, size=(hidden, Xa.shape[1])),
                      rng.uniform(-0.5, 0.5, size=(T.shape[1], hidden + 1))))
    W_hid = np.stack([d[0] for d in draws])
    W_out = np.stack([d[1] for d in draws])

    def val_errors():
        return np.mean(_classes(_forward(W_hid, W_out, Xva)) != labels, axis=-1)

    best_val = val_errors()
    best_epoch = np.zeros(len(draws), dtype=int)
    snap_hid, snap_out = W_hid.copy(), W_out.copy()
    diverged = np.zeros(len(draws), dtype=bool)
    live = np.arange(len(draws))   # the restart each stack element descends
    # a diverging descent overflows; each epoch's weights are checked
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(1, cfg.max_epochs + 1):
            g_hid, g_out = fnn_gradients(W_hid, W_out, Xa, T)
            g_hid *= cfg.learning_rate
            g_out *= cfg.learning_rate
            W_hid -= g_hid
            W_out -= g_out
            finite = np.isfinite(W_hid).all(axis=(1, 2)) & np.isfinite(W_out).all(axis=(1, 2))
            diverged[live[~finite]] = True
            e_va = val_errors()
            better = finite & (e_va < best_val[live])
            improved = live[better]
            best_val[improved] = e_va[better]
            best_epoch[improved] = epoch
            snap_hid[improved] = W_hid[better]
            snap_out[improved] = W_out[better]
            stay = finite & (epoch - best_epoch[live] < cfg.patience)
            if not stay.all():
                live, W_hid, W_out = live[stay], W_hid[stay], W_out[stay]
                if live.size == 0:
                    break
    return [None if diverged[i] else (float(best_val[i]), snap_hid[i], snap_out[i])
            for i in range(len(draws))]


def describe_fnn(model: FnnModel, feature_names, label_names) -> str:
    """Plain weight dump, one line per unit: there is no compact closed form."""
    lines = [f"hidden[{k}]: " + " ".join(f"{v!r}" for v in row)
             for k, row in enumerate(model.hidden_weights)]
    lines += [f"output[{k}]: " + " ".join(f"{v!r}" for v in row)
              for k, row in enumerate(model.output_weights)]
    return "\n".join(lines)
