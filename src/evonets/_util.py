"""Small shared helpers: deterministic seed derivation, input augmentation,
the restart pick, the chunking of descent stacks, the in-order rule of a
stacked fit, DOT name quoting and the bounded repr that error messages
echo."""

from contextlib import suppress

import numpy as np

from .errors import DataError, TrainingError

_MASK64 = 0xFFFFFFFFFFFFFFFF


def derive_seed(seed, *key):
    """Deterministic child seed from a base seed and integer tags.

    Uses numpy's SeedSequence so the derivation is stable across runs and
    platforms (unlike the builtin hash, which is salted per process).
    """
    ss = np.random.SeedSequence([int(seed) & _MASK64, *[int(k) for k in key]])
    return int(ss.generate_state(1, np.uint64)[0])


def augment(X):
    """Prepend the constant input x0 = 1 to each row of X, or to each row of
    every matrix in a stack (..., n, m)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Xa = np.empty(X.shape[:-1] + (X.shape[-1] + 1,))
    Xa[..., 0] = 1.0
    Xa[..., 1:] = X
    return Xa


def first_lowest(values):
    """Index of the first strictly lowest value, as a running `v < best` scan
    keeps it: a later tie never wins, a NaN never does, and a NaN in first
    place is never displaced."""
    best = 0
    for i in range(1, len(values)):
        if values[i] < values[best]:
            best = i
    return best


# Every stack of independent descents (fit_neuron's neurons and restarts, GMDH
# candidates, FNN restarts) is descended in chunks whose per-row
# temporaries hold at most this many float64 elements (256 KiB each), so
# memory does not grow with --restarts. The elements are independent, so the
# chunking changes no bit.
STACK_ELEMENTS = 1 << 15


def stack_chunks(count, per_element):
    """Consecutive slices covering range(count), each taking as many stack
    elements as fit in STACK_ELEMENTS at per_element elements each (at least
    one)."""
    step = max(1, STACK_ELEMENTS // max(1, per_element))
    return [slice(i, min(i + step, count)) for i in range(0, count, step)]


def in_order(fit, count):
    """Yield the results of fit(range(count)) in order, as a loop fitting one
    item at a time gives them, errors and warnings included.

    fit(ks) fits the items ks as one stack and returns a list of their
    results in the order of ks, each the result of fitting that item alone.
    A stack of more than one item is fitted with floating-point overflow and
    invalid values raised. When it fails that way, or with a DataError or
    TrainingError, each item is fitted alone, as it is reached, under the
    caller's floating-point settings: an error is raised, and a warning
    shown, only for an item the one-at-a-time loop fits, after every earlier
    item has been yielded, and no item after the consumer stops is fitted.
    """
    stack = None
    if count > 1:
        with suppress(DataError, TrainingError, FloatingPointError), \
                np.errstate(over="raise", invalid="raise"):
            stack = fit(range(count))
    for k in range(count):
        yield from fit(range(k, k + 1)) if stack is None else stack[k:k + 1]


def shown(value):
    """repr(value) cut to 40 characters, so a huge value keeps its error one
    short line."""
    text = repr(value)
    return text if len(text) <= 40 else text[:40] + "..."


def dot_escape(name):
    """A column or class name as the inside of a DOT quoted string: each
    backslash and double quote gets a backslash before it, so the string ends
    where it should and renders as the name. Other names come out unchanged."""
    return name.replace("\\", "\\\\").replace('"', '\\"')
