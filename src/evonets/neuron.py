"""Shared single-neuron machinery.

A neuron here is a logistic unit over a small set of bound inputs, where a
binding is either a feature column ("x", j) or the output of an earlier
neuron ("z", q). The constructive learners fit these units one at a time,
score them on held-out data, and keep only the ones that help.

Also hosts the two generic fitters (batch gradient descent and ordinary
least squares via normal equations) and the held-out sum-squared-error
criterion used for candidate selection in polynomial networks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, TrainingError

SIGMOID_CLAMP = 1e-12

SCORE_KINDS = ("validation_error_fraction", "exterior_criterion_sse")


def sigmoid(z):
    """Numerically stable logistic, clamped to [1e-12, 1 - 1e-12].

    Clamping keeps saturated outputs strictly inside (0, 1) so sum-squared
    criteria downstream stay finite and class decisions remain defined.
    """
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    # e = exp(-|z|), so z >= 0 gets 1 / (1 + exp(-z)) and z < 0 gets
    # exp(z) / (1 + exp(z)); minimum keeps a nan's sign where -abs would not
    e = np.exp(np.minimum(z, -z))
    out = np.where(z >= 0, 1.0, e) / (1.0 + e)
    out = np.clip(out, SIGMOID_CLAMP, 1.0 - SIGMOID_CLAMP)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class FitConfig:
    """Knobs for fitting a single neuron.

    method: "gradient" (batch descent on squared error of the sigmoid
    output) or "least_squares" (linear-in-weights neurons only).
    """

    method: str = "gradient"
    learning_rate: float = 0.1
    epochs: int = 200
    restarts: int = 5
    seed: int = 0
    decision_threshold: float = 0.5

    def __post_init__(self):
        if self.method not in ("gradient", "least_squares"):
            raise DataError(f"unknown fit method '{self.method}'")
        if self.learning_rate <= 0:
            raise DataError("learning_rate must be positive")
        if self.epochs < 1:
            raise DataError("epochs must be at least 1")
        if self.restarts < 1:
            raise DataError("restarts must be at least 1")
        if not 0.0 < self.decision_threshold < 1.0:
            raise DataError("decision_threshold must lie in (0, 1)")


@dataclass(frozen=True)
class CandidateScore:
    """A non-negative candidate quality value plus what it measures."""

    value: float
    kind: str

    def __post_init__(self):
        if self.kind not in SCORE_KINDS:
            raise DataError(f"unknown score kind '{self.kind}'")
        if not np.isfinite(self.value) or self.value < 0:
            raise DataError("score value must be finite and non-negative")


@dataclass(eq=False)
class SigmoidNeuron:
    """Logistic unit: weights[0] is the bias, weights[1 + i] pairs with
    bindings[i]; each binding references a feature column or an earlier
    neuron's output, so networks built from these stay acyclic."""

    bindings: tuple
    weights: np.ndarray | None = None

    def __post_init__(self):
        self.bindings = tuple((str(kind), int(ref)) for kind, ref in self.bindings)
        for kind, _ in self.bindings:
            if kind not in ("x", "z"):
                raise DataError(f"unknown binding kind '{kind}'")
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=float)
            if self.weights.shape != (len(self.bindings) + 1,):
                raise DataError("weight length must be binding count + 1")

    @property
    def p(self):
        return len(self.bindings)


def sigmoid_out(neuron: SigmoidNeuron, inputs):
    """Output of a fitted neuron for one resolved input vector."""
    u = np.asarray(inputs, dtype=float)
    if u.shape != (neuron.p,):
        raise DataError(f"expected {neuron.p} inputs, got {u.shape}")
    w = neuron.weights
    return float(sigmoid(w[0] + u @ w[1:]))


def fit_loss(weights, inputs, targets):
    """Mean squared error of the sigmoid output over the rows of `inputs`."""
    out = sigmoid(weights[0] + inputs @ weights[1:])
    return float(np.mean((out - targets) ** 2))


def fit_gradient(weights, inputs, targets):
    """Analytic gradient of fit_loss with respect to the weights."""
    out = sigmoid(weights[0] + inputs @ weights[1:])
    common = 2.0 * (out - targets) * out * (1.0 - out) / targets.shape[0]
    g = np.empty_like(np.asarray(weights, dtype=float))
    g[0] = common.sum()
    g[1:] = inputs.T @ common
    return g


def fit_neuron(neuron: SigmoidNeuron, inputs, targets, cfg: FitConfig) -> SigmoidNeuron:
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
    if cfg.method != "gradient":
        raise DataError("fit_neuron is the gradient fitter; use least_squares_fit "
                        "for linear-in-weights neurons")

    rng = np.random.default_rng(cfg.seed)
    best = None
    for restart in range(cfg.restarts):
        w = rng.uniform(-0.5, 0.5, size=neuron.p + 1)
        for _ in range(cfg.epochs):
            w -= cfg.learning_rate * fit_gradient(w, U, y)
        if not np.isfinite(w).all():
            raise TrainingError("weights diverged to non-finite values")
        sse = fit_loss(w, U, y) * y.shape[0]
        if best is None or sse < best[0]:
            best = (sse, restart, w)
    return replace_weights(neuron, best[2])


def replace_weights(neuron: SigmoidNeuron, weights) -> SigmoidNeuron:
    return SigmoidNeuron(neuron.bindings, np.asarray(weights, dtype=float))


def classification_error(predict, data):
    """Fraction of rows whose predicted class differs from the label.

    `predict` maps the full feature matrix to a vector of class indices;
    `data` is a Dataset.
    """
    if data.n_rows == 0:
        raise DataError("empty data")
    pred = np.asarray(predict(data.features), dtype=int)
    return float(np.mean(pred != data.labels))


def least_squares_fit(design, targets):
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


def exterior_criterion(predict, validation_inputs, targets) -> CandidateScore:
    """Sum-squared error of an already-fitted neuron on held-out rows.

    This is the selection criterion polynomial-network growth uses: it is
    computed on data the weights never saw, so it punishes candidates that
    merely memorized the fitting subset.
    """
    y = np.asarray(targets, dtype=float)
    if y.size == 0:
        raise DataError("empty validation set")
    out = np.asarray(predict(validation_inputs), dtype=float)
    return CandidateScore(float(np.sum((out - y) ** 2)), "exterior_criterion_sse")
