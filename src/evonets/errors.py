"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: usage problems exit 1,
DataError exits 2, TrainingError exits 3.
"""


class DataError(ValueError):
    """Malformed, missing, or incompatible input data."""


class ScoreOverflow(DataError):
    """A model's class scores overflow a float, so no class wins."""


class TrainingError(RuntimeError):
    """A fit could not be completed (degenerate targets, divergence, ...)."""


class UsageError(Exception):
    """Bad command-line invocation."""
