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

from ._util import first_lowest, shown, stack_chunks
from .errors import DataError, TrainingError

SIGMOID_CLAMP = 1e-12


def sigmoid(z):
    """Numerically stable logistic, clamped to [1e-12, 1 - 1e-12].

    Clamping keeps saturated outputs strictly inside (0, 1) so sum-squared
    criteria downstream stay finite and class decisions remain defined.
    """
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    # e = exp(-|z|), so z >= 0 gets 1 / (1 + exp(-z)) and z < 0 gets
    # exp(z) / (1 + exp(z)); minimum keeps a nan's sign where -abs would not.
    # As e lies in [0, 1], the numerator max(e, z >= 0) is exactly 1 for
    # z >= 0 and e (a nan's own bits too) otherwise: np.where's choice
    # without its branch per element. The steps run in place on two
    # temporaries; the clamp is np.clip's maximum-then-minimum.
    e = np.negative(z)
    np.minimum(z, e, out=e)
    np.exp(e, out=e)
    out = np.maximum(e, z >= 0)
    e += 1.0
    out /= e
    # The clamp changes nothing when every e = 1 + exp(-|z|) is at least
    # 1 + 2e-12: for z >= 0, 1 / e <= 1 - 1.99e-12, and for z < 0,
    # exp(-|z|) / e >= 1.99e-12 while it stays at most 0.5, so every output
    # already lies inside [1e-12, 1 - 1e-12]. A nan or an infinite z fails
    # the test (its e is nan or exactly 1) and is clamped as before.
    if not (e.size and e.min() >= 1.0 + 2e-12):
        np.maximum(out, SIGMOID_CLAMP, out=out)
        np.minimum(out, 1.0 - SIGMOID_CLAMP, out=out)
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
                raise DataError(f"unknown binding kind {shown(kind)}")
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=float)
            if self.weights.shape != (len(self.bindings) + 1,):
                raise DataError("weight length must be binding count + 1")

    @property
    def p(self):
        return len(self.bindings)

    def inputs(self, X, zs=()):
        """(n, p) input matrix: binding i's column of X, or output in zs."""
        return np.column_stack([X[:, ref] if kind == "x" else zs[ref]
                                for kind, ref in self.bindings])

    def outputs(self, X, zs=()):
        """Sigmoid output on each row of X, as fit_loss scores it."""
        return _outputs(self.weights, self.inputs(X, zs))


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
    # common = 2 (out - y) out (1 - out) / n, built in place in that order
    common = out - targets
    common *= 2.0
    common *= out
    np.subtract(1.0, out, out=out)
    common *= out
    common /= targets.shape[0]
    g = np.empty_like(weights)
    g[..., 0] = common.sum(axis=-1)
    g[..., 1:] = (np.swapaxes(inputs, -1, -2) @ common[..., None])[..., 0]
    return g


def _outputs(weights, inputs):
    # With one input, a product replaces the matmul, whose inner dimension
    # of 1 takes numpy's slow non-BLAS loop. The two sums differ only in the
    # sign of a zero, and the sigmoid maps either zero to the same 0.5.
    if inputs.shape[-1] == 1:
        s = inputs[..., 0] * weights[..., 1:]
    else:
        s = (inputs @ weights[..., 1:, None])[..., 0]
    s += weights[..., :1]
    return sigmoid(s)


# fit_neuron looks for stack elements at a fixed point every _FREEZE_STRIDE-th
# epoch: looking every epoch made a one-candidate 300-epoch fit about 14%
# slower. An element found later takes at most seven more steps, each of which
# returns its weights unchanged, so the stride changes no bit.
_FREEZE_STRIDE = 8


def _unmoved(new, old):
    """Which rows of a weight stack a step left bit for bit the same. A
    `-0.0 -> +0.0` step is a move, and a nan that keeps its bits is not."""
    return (new.view(np.int64) == old.view(np.int64)).all(axis=-1)


def fit_neuron(neurons, inputs, targets, seeds, cfg: FitConfig):
    """Fit candidate neurons, which bind the same number of inputs, by batch
    gradient descent: neuron i on inputs[i] with seed seeds[i]. Returns one
    fitted SigmoidNeuron per candidate.

    Each candidate's data is checked in turn. Each seed draws cfg.restarts
    starts uniformly in [-0.5, 0.5]; all (neuron, restart) elements descend
    as one stack, in chunks of at most STACK_ELEMENTS per-row elements, on
    C-contiguous copies of the inputs, so each candidate gets the bits a call
    with it alone gives. An element that an epoch leaves bit for bit
    unchanged is at a fixed point and leaves the stack, as every later epoch
    would return the same weights. Any diverged element raises. Each neuron
    keeps its first restart with the strictly lowest training sum-squared
    error.
    """
    if not len(neurons) == len(inputs) == len(seeds) > 0 \
            or len({nrn.p for nrn in neurons}) > 1:
        raise DataError("need one input matrix and one seed per candidate, "
                        "and candidates that bind the same number of inputs")
    y = np.asarray(targets, dtype=float)
    stack = []
    for nrn, U in zip(neurons, inputs):
        U = np.ascontiguousarray(np.atleast_2d(np.asarray(U, dtype=float)))
        if U.shape[1] != nrn.p:
            raise DataError(f"expected {nrn.p} input columns, got {U.shape[1]}")
        if U.shape[0] != y.shape[0]:
            raise DataError("inputs and targets disagree on row count")
        if U.shape[0] < 2:
            raise DataError("need at least 2 training rows")
        if not (np.isfinite(U).all() and np.isfinite(y).all()):
            raise TrainingError("non-finite values in training data")
        if np.unique(y).size < 2:
            raise TrainingError("targets are single-class; nothing to separate")
        stack.append(U)
    stack = np.stack(stack)
    k, r, p = len(seeds), cfg.restarts, neurons[0].p
    W = np.concatenate([np.random.default_rng(seed).uniform(-0.5, 0.5, size=(r, p + 1))
                        for seed in seeds])
    sse = np.empty(k * r)
    for s in stack_chunks(k * r, y.shape[0]):   # element e fits neuron e // r
        live = np.arange(s.start, s.stop)
        w, U = W[live], stack[live // r]
        u = U
        for epoch in range(1, cfg.epochs + 1):
            last = w.copy() if epoch % _FREEZE_STRIDE == 0 else None
            g = fit_gradient(w, u, y)
            g *= cfg.learning_rate
            w -= g
            if last is not None and (frozen := _unmoved(w, last)).any():
                # a step depends only on the element's own weights and data,
                # so every later epoch would return these weights too
                W[live[frozen]] = w[frozen]
                live, w, u = live[~frozen], w[~frozen], u[~frozen]
                if not live.size:
                    break
        W[live] = w
        if not np.isfinite(W[s]).all():
            raise TrainingError("weights diverged to non-finite values")
        sse[s] = fit_loss(W[s], U, y) * y.shape[0]
    best = W.reshape(k, r, p + 1)[np.arange(k), [first_lowest(e) for e in sse.reshape(k, r)]]
    return [SigmoidNeuron(nrn.bindings, w) for nrn, w in zip(neurons, best)]


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


def exterior_criterion(outputs, targets) -> float:
    """Sum-squared error of an already-fitted neuron's outputs on held-out rows.

    This is the selection criterion polynomial-network growth uses: it is
    computed on data the weights never saw, so it punishes candidates that
    merely memorized the fitting subset.
    """
    y = np.asarray(targets, dtype=float)
    if y.size == 0:
        raise DataError("empty validation set")
    with np.errstate(over="ignore", invalid="ignore"):
        sse = float(np.sum((np.asarray(outputs, dtype=float) - y) ** 2))
    if not np.isfinite(sse):
        raise TrainingError("held-out error of a fitted neuron is not finite; "
                            "lower the learning rate")
    return sse
