"""Machine-speed probe used to rescale timings.

On a shared host the same work can take 40% longer for a few seconds at a
time. A short fixed kernel, timed between operations, tracks that drift: an
operation's wall time multiplied by REFERENCE_S / (probe time around it) is
the time it would have taken at the reference speed. Both raw and rescaled
times are reported; the gated metrics use the rescaled ones.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Probe time at the reference speed: the median of back-to-back probes over a minute
# on a 2-vCPU Intel Xeon VM at 2.1 GHz with Python 3.11.7 and numpy 2.4.6.
REFERENCE_S = 0.0058

_X = np.random.default_rng(0).standard_normal((512, 8))


def _kernel():
    """Interpreter-bound loop plus a small logistic descent, the two kinds of
    work the benchmark's operations are made of."""
    acc = 0
    for i in range(30000):
        acc += i * i % 7
    w = np.zeros(8)
    for _ in range(250):
        s = 1.0 / (1.0 + np.exp(-(_X @ w)))
        w += 1e-3 * (_X.T @ (s - 0.5))
    return acc, w


def probe():
    """Seconds the kernel takes now: the faster of two runs, so that a
    single interruption does not count as a slow machine."""
    best = float("inf")
    for _ in range(2):
        start = perf_counter()
        _kernel()
        best = min(best, perf_counter() - start)
    return best


class Clock:
    """Rescales measured intervals to the reference speed, using the mean of
    the probes taken just before and just after each interval."""

    def __init__(self):
        self.last = probe()

    def scaled(self, seconds):
        now = probe()
        value = seconds * REFERENCE_S / ((self.last + now) / 2.0)
        self.last = now
        return value
