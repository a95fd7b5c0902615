"""Small shared helpers: deterministic seed derivation, input augmentation,
the restart pick, the chunking of descent stacks, DOT name quoting and the
bounded repr that error messages echo."""

import numpy as np

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
