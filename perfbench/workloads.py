"""Workload definitions: generated inputs, the models each pass trains, and
the ceilings their held-out errors must stay under.

Inputs come only from the workload seed. Each dataset is one draw, split by
rows into the training CSV and the held-out CSV, so both halves share the
same informative columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Table:
    """One generated dataset: column names plus train and held-out rows."""

    names: tuple
    x_train: np.ndarray
    y_train: tuple
    x_held: np.ndarray
    y_held: tuple


@dataclass(frozen=True)
class Model:
    """One `evonets train` call; ceiling is the highest held-out error the
    benchmark accepts from the model it writes."""

    name: str
    method: str
    data: str
    flags: tuple
    ceiling: float


@dataclass(frozen=True)
class Rules:
    """One `evonets extract-rules` call from a trained binary model."""

    source: str
    ceiling: float


@dataclass(frozen=True)
class Workload:
    name: str
    make_data: object
    models: tuple
    rules: tuple

    def set_up(self, seed, directory):
        """Write <table>.train.csv and <table>.held.csv for every table."""
        tables = self.make_data(seed)
        for key, t in tables.items():
            write_csv(directory / f"{key}.train.csv", t.names, t.x_train, t.y_train)
            write_csv(directory / f"{key}.held.csv", t.names, t.x_held, t.y_held)
        return tables


def _rng(seed, salt):
    return np.random.default_rng([int(seed), salt])


def surrogate_eeg(rng, n, relevant, irrelevant, classes, separation):
    """Standard-normal columns; a few informative ones get a class-dependent
    mean shift of separation * (label / (classes - 1) - 1/2)."""
    m = relevant + irrelevant
    labels = rng.integers(0, classes, size=n)
    X = rng.standard_normal((n, m))
    informative = np.sort(rng.permutation(m)[:relevant])
    X[:, informative] += (separation * (labels / (classes - 1) - 0.5))[:, None]
    return X, labels, informative


def blobs(rng, n, classes, spread, noise_features, radius=3.0):
    """Gaussian blobs on a circle in the first two columns, balanced classes,
    followed by standard-normal noise columns."""
    labels = rng.permutation(np.arange(n) % classes)
    angle = 2.0 * np.pi * labels / classes
    X = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
    X = X + rng.normal(0.0, spread, size=(n, 2))
    return np.column_stack([X, rng.standard_normal((n, noise_features))]), labels


def _table(X, labels, n_train, columns=None, n_held=None):
    """Rows [0, n_train) train; the next n_held rows (default: all the rest)
    are held out."""
    columns = list(range(X.shape[1])) if columns is None else sorted(columns)
    end = None if n_held is None else n_train + n_held
    names = tuple(f"f{j + 1}" for j in columns)
    y = tuple(str(int(v)) for v in labels)
    return Table(names, X[:n_train, columns], y[:n_train],
                 X[n_train:end, columns], y[n_train:end])


def write_csv(path, names, X, labels):
    """CSV with the label column `y` last; floats in repr form so that parsing
    them back gives the same bits."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(names + ("y",)) + "\n")
        for row, label in zip(X.tolist(), labels):
            fh.write(",".join(map(repr, row)) + "," + label + "\n")


# ---------------------------------------------------------------- eeg-grow

def _subsets(X, y, n_train, informative, widths):
    """Tables over the informative columns plus the first noise columns, keyed
    by width; widths maps each width to its held-out row count (None: all)."""
    noise = [j for j in range(X.shape[1]) if j not in set(informative)]
    return {f"eeg{w}": _table(X, y, n_train, list(informative) + noise[:w - len(informative)],
                              n_held)
            for w, n_held in widths.items()}


def _grow_data(seed):
    X, y, informative = surrogate_eeg(_rng(seed, 1), 1200 + 12000, 4, 68, 2, 1.0)
    return _subsets(X, y, 1200, informative, {72: 2000, 20: 12000})


EEG_GROW = Workload(
    name="eeg-grow",
    make_data=_grow_data,
    models=(
        Model("ecnn", "ecnn", "eeg72",
              ("--learning-rate", "2.0", "--epochs", "300", "--restarts", "1"), 0.30),
        Model("gmdh-roulette", "gmdh-roulette", "eeg72",
              ("--attempts", "60", "--restarts", "3"), 0.40),
        Model("fnn", "fnn", "eeg72", ("--restarts", "2", "--epochs", "300", "--patience", "300"),
              0.35),
        Model("gmdh-layered-gd", "gmdh-layered", "eeg20", ("--max-layers", "1", "--restarts", "2"),
              0.35),
        Model("gmdh-layered-ls", "gmdh-layered", "eeg72",
              ("--fit-method", "least-squares", "--max-layers", "1"), 0.35),
    ),
    rules=(Rules("gmdh-layered-gd", 0.40), Rules("gmdh-layered-ls", 0.40)),
)


# ------------------------------------------------------------ blobs-pocket

# Pocket work per draw depends on the data: the ratchet re-scores the whole
# training set whenever a run outlasts the pocketed one. Three independent
# replicates per pass average that out across seeds.
POCKET_REPLICATES = 3


def _pocket_data(seed):
    tables = {}
    for r in range(POCKET_REPLICATES):
        X3, y3 = blobs(_rng(seed, 20 + r), 240 + 5000, 3, 1.5, 4)
        X2, y2 = blobs(_rng(seed, 30 + r), 240 + 5000, 2, 2.0, 2)
        Xe, ye, _ = surrogate_eeg(_rng(seed, 40 + r), 240 + 5000, 3, 2, 3, 2.0)
        tables[f"blobs3-{r}"] = _table(X3, y3, 240)
        tables[f"blobs2-{r}"] = _table(X2, y2, 240)
        tables[f"eeg3-{r}"] = _table(Xe, ye, 240)
    return tables


BLOBS_POCKET = Workload(
    name="blobs-pocket",
    make_data=_pocket_data,
    models=tuple(
        model
        for r in range(POCKET_REPLICATES)
        for model in (
            Model(f"lm-fixed-{r}", "lm", f"blobs3-{r}", (), 0.30),
            Model(f"lm-thermal-{r}", "lm", f"blobs2-{r}", ("--correction", "thermal"), 0.30),
            Model(f"pairwise-induce-{r}", "pairwise-dt", f"blobs3-{r}",
                  ("--attempts", "2", "--test-epochs", "10"), 0.30),
            Model(f"pairwise-sfs-{r}", "pairwise-dt", f"eeg3-{r}",
                  ("--pair-trainer", "sfs", "--test-epochs", "10"), 0.45),
        )
    ),
    rules=tuple(Rules(f"lm-thermal-{r}", 0.35) for r in range(POCKET_REPLICATES)),
)


# ------------------------------------------------------------- eeg-explain

def _explain_data(seed):
    X, y, informative = surrogate_eeg(_rng(seed, 5), 1200 + 12000, 4, 68, 2, 1.0)
    return _subsets(X, y, 1200, informative, {72: None, 20: None, 4: None})


EEG_EXPLAIN = Workload(
    name="eeg-explain",
    make_data=_explain_data,
    models=(
        Model("ecnn", "ecnn", "eeg72",
              ("--learning-rate", "2.0", "--epochs", "100", "--restarts", "1"), 0.35),
        Model("gmdh-roulette", "gmdh-roulette", "eeg72",
              ("--fit-method", "least-squares", "--attempts", "1000"), 0.35),
        Model("ruletree", "ruletree", "eeg20", (), 0.45),
        Model("lm", "lm", "eeg4", ("--epochs", "20"), 0.35),
    ),
    rules=(Rules("lm", 0.40),),
)


WORKLOADS = {w.name: w for w in (EEG_GROW, BLOBS_POCKET, EEG_EXPLAIN)}
