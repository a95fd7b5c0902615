"""Memory of the restart stacks does not grow with --restarts.

ecnn's ranking and candidate fits, gmdh-roulette's pool seeding and fnn's
restarts each descend as a stack of independent fits, in chunks of at most
`_util.STACK_ELEMENTS` per-row elements. Through `cli.main` on a 72-feature
table of eeg-grow's size, the peak of the traced allocations (numpy's
included) at 64 restarts must stay within twice the peak at 4.
"""

import tracemalloc

import pytest

from evonets import cli


@pytest.fixture(scope="module")
def eeg72(tmp_path_factory):
    path = tmp_path_factory.mktemp("eeg") / "eeg72.csv"
    assert cli.main(["generate", "surrogate-eeg", "--n", "1200", "--seed", "3",
                     "--out", str(path)]) == 0
    return path


def peak_mb(argv):
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("method, flags", [
    ("ecnn", ()),
    ("gmdh-roulette", ("--attempts", "2")),
    ("fnn", ()),
])
def test_peak_memory_does_not_grow_with_restarts(method, flags, eeg72, tmp_path, capsys):
    peaks = [peak_mb(["train", "--method", method, "--data", str(eeg72), "--epochs", "2",
                      "--restarts", str(restarts), *flags,
                      "--out", str(tmp_path / f"{restarts}.json")])
             for restarts in (4, 64)]
    assert peaks[1] <= 2 * peaks[0], peaks
