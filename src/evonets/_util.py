"""Small shared helpers: deterministic seed derivation, input augmentation and
the restart pick."""

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
    """Prepend the constant input x0 = 1 to each row of X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.column_stack([np.ones(X.shape[0]), X])


def first_lowest(values):
    """Index of the first strictly lowest value, as a running `v < best` scan
    keeps it: a later tie never wins, a NaN never does, and a NaN in first
    place is never displaced."""
    best = 0
    for i in range(1, len(values)):
        if values[i] < values[best]:
            best = i
    return best
