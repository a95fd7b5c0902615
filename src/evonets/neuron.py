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

from ._util import first_lowest
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


def check_descent(learning_rate, epochs, restarts):
    """Reject restarted-descent settings that cannot train; FitConfig,
    GmdhConfig and FnnConfig all call this."""
    if not learning_rate > 0:   # also refuses NaN
        raise DataError("learning_rate must be positive")
    if not np.isfinite(learning_rate):
        raise DataError("learning_rate must be finite")
    if epochs < 1:
        raise DataError("epochs must be at least 1")
    if restarts < 1:
        raise DataError("restarts must be at least 1")


@dataclass(frozen=True)
class FitConfig:
    """Knobs for fitting a single neuron by batch gradient descent."""

    learning_rate: float = 0.1
    epochs: int = 200
    restarts: int = 5
    seed: int = 0
    decision_threshold: float = 0.5

    def __post_init__(self):
        check_descent(self.learning_rate, self.epochs, self.restarts)
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


def fit_loss(weights, inputs, targets):
    """Mean squared error of the sigmoid output over the rows of `inputs`.

    weights is (p+1,) for one neuron, or (k, p+1) for a stack of k neurons
    descended together; inputs is (n, p), shared by the whole stack, or
    (k, n, p) with one input matrix per stack element. More leading stack
    axes work the same way, with the inputs' broadcasting against the
    weights'. A stack gives one loss per element, 1-D weights a float.
    """
    loss = np.mean((_outputs(np.asarray(weights, dtype=float), inputs) - targets) ** 2,
                   axis=-1)
    return float(loss) if loss.ndim == 0 else loss


def fit_gradient(weights, inputs, targets):
    """Analytic gradient of fit_loss with respect to the weights, in the
    weights' shape: (p+1,) or (k, p+1), with inputs as for fit_loss.

    A stacked np.matmul runs the same BLAS call on each stack element as a
    single `inputs @ w` does, and the sums run along the last, contiguous
    axis, so every element of a stack is bit-identical to its own 1-D call.
    """
    weights = np.asarray(weights, dtype=float)
    out = _outputs(weights, inputs)
    common = 2.0 * (out - targets) * out * (1.0 - out) / targets.shape[0]
    g = np.empty_like(weights)
    g[..., 0] = common.sum(axis=-1)
    g[..., 1:] = (np.swapaxes(inputs, -1, -2) @ common[..., None])[..., 0]
    return g


def _outputs(weights, inputs):
    return sigmoid(weights[..., :1] + (inputs @ weights[..., 1:, None])[..., 0])


def fit_data(inputs, targets, p):
    """fit_neuron's checks on its training data, in their order; returns the
    inputs as an (n, p) float matrix and the targets as floats."""
    U = np.atleast_2d(np.asarray(inputs, dtype=float))
    y = np.asarray(targets, dtype=float)
    if U.shape[1] != p:
        raise DataError(f"expected {p} input columns, got {U.shape[1]}")
    if U.shape[0] != y.shape[0]:
        raise DataError("inputs and targets disagree on row count")
    if U.shape[0] < 2:
        raise DataError("need at least 2 training rows")
    if not (np.isfinite(U).all() and np.isfinite(y).all()):
        raise TrainingError("non-finite values in training data")
    if np.unique(y).size < 2:
        raise TrainingError("targets are single-class; nothing to separate")
    return U, y


def descend(weights, inputs, targets, cfg: FitConfig):
    """Run cfg.epochs of batch gradient descent on every neuron of a stack at
    once, in place (shapes as for fit_loss, weights with one leading axis or
    more). Returns each element's training sum-squared error; raises when any
    element diverged."""
    for _ in range(cfg.epochs):
        weights -= cfg.learning_rate * fit_gradient(weights, inputs, targets)
    if not np.isfinite(weights).all():
        raise TrainingError("weights diverged to non-finite values")
    return fit_loss(weights, inputs, targets) * targets.shape[0]


def fit_neuron(neuron: SigmoidNeuron, inputs, targets, cfg: FitConfig) -> SigmoidNeuron:
    """Fit the neuron's weights by batch gradient descent.

    Runs cfg.restarts descents from weights drawn uniformly in [-0.5, 0.5]
    and keeps the first restart with the strictly lowest training
    sum-squared error; deterministic for a fixed cfg.seed. The restarts are
    descended together as one (cfg.restarts, p+1) stack, each one
    bit-identical to a descent of its own.
    """
    U, y = fit_data(inputs, targets, neuron.p)
    rng = np.random.default_rng(cfg.seed)
    W = rng.uniform(-0.5, 0.5, size=(cfg.restarts, neuron.p + 1))
    sse = descend(W, U, y, cfg)
    return replace_weights(neuron, W[first_lowest(sse)])


def replace_weights(neuron: SigmoidNeuron, weights) -> SigmoidNeuron:
    return SigmoidNeuron(neuron.bindings, np.asarray(weights, dtype=float))


def least_squares_fit(design, targets):
    """Solve min_w ||design @ w - targets||^2 via the normal equations.

    The caller supplies the full design matrix (constant column included):
    (n, q) for one fit, giving (q,), or a stack (k, n, q) of designs sharing
    the targets, giving (k, q). A ridge jitter of 1e-10 is added to the
    diagonal of a system that is singular or badly conditioned; if that
    still fails, the fit errors out. A stack is solved in one batched call
    (the stacked products and LAPACK calls run the same kernels on each
    element), and again element by element when some element is singular,
    so every element is bit-identical to its own call.
    """
    B = np.atleast_2d(np.asarray(design, dtype=float))
    y = np.asarray(targets, dtype=float)
    q = B.shape[-1]
    if B.shape[-2] < q:
        raise DataError(f"need at least {q} rows to fit {q} basis terms")
    Bt = np.swapaxes(B, -1, -2)
    A = Bt @ B
    b = Bt @ y
    if A.ndim == 2:
        return _solve_normal(A, b)
    try:
        jitter = np.linalg.cond(A) > 1e12
        jittered = np.where(jitter[:, None, None], A + 1e-10 * np.eye(q), A) \
            if jitter.any() else A
        w = np.linalg.solve(jittered, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        return np.stack([_solve_normal(a, v) for a, v in zip(A, b)])
    if not np.isfinite(w).all():
        raise TrainingError("least-squares weights are not finite")
    return w


def _solve_normal(A, b):
    """One system of least_squares_fit's normal equations, jittered as it says."""
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
    with np.errstate(over="ignore", invalid="ignore"):
        sse = float(np.sum((out - y) ** 2))
    if not np.isfinite(sse):
        raise TrainingError("held-out error of a fitted neuron is not finite; "
                            "lower the learning rate")
    return CandidateScore(sse, "exterior_criterion_sse")
