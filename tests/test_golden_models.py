"""Golden model files: every method, trained through the command line on small
generated data, writes the same bytes and prints the same report.

The hashes pin the model files exactly, so a refactor that claims to keep
the arithmetic can show it. A change that means to alter a model updates
the hash here and says why. They were recorded with numpy 2.4.6 on x86-64
Linux; a BLAS that sums in another order writes other bytes.
"""

import hashlib

import pytest

from evonets.cli import main

DATA = {
    "xor": ("xor", "--n", "240", "--seed", "3"),
    "eeg": ("surrogate-eeg", "--n", "300", "--relevant", "3", "--irrelevant", "5",
            "--separation", "1.5", "--seed", "4"),
    "eeg4": ("surrogate-eeg", "--n", "300", "--classes", "4", "--relevant", "3",
             "--irrelevant", "3", "--seed", "5"),
    "blobs": ("blobs", "--n", "150", "--classes", "3", "--seed", "4", "--spread", "1.5"),
}

# method -> (data set, extra train flags, SHA-256 of the model file, train
# stdout lines before its model= line)
GOLDEN = {
    "ecnn": ("eeg", ("--epochs", "100", "--restarts", "3"),
        "18ba3a85b684f1fc7a3801dcd6390cb972ca2f776e0e907ca301b112c41ca751", [
        "method=ecnn",
        "rows=300 train_rows=201 val_rows=99",
        "train_error=0.14427860696517414",
        "val_error=0.15151515151515152",
        "data_error=0.14666666666666667",
    ]),
    "gmdh-layered": ("eeg", ("--epochs", "60", "--restarts", "2"),
        "570c35fbc114659f51c8fe1278ad9bf1c48b56629b320b883e2fa254b70f898b", [
        "method=gmdh-layered",
        "rows=300 train_rows=201 val_rows=99",
        "train_error=0.12437810945273632",
        "val_error=0.09090909090909091",
        "data_error=0.11333333333333333",
    ]),
    "gmdh-roulette": ("xor", ("--attempts", "20", "--epochs", "40", "--restarts", "2"),
        "c8f7e3e87e748225ae845051cd396a377f282810ad9bab32ffa33ea4d32caf92", [
        "method=gmdh-roulette",
        "rows=240 train_rows=161 val_rows=79",
        "train_error=0.049689440993788817",
        "val_error=0.06329113924050633",
        "data_error=0.05416666666666667",
    ]),
    "lm": ("blobs", ("--epochs", "20"),
        "4b4b04eee2ea210cd494e6f87ce9747e4b7b31ae23b5c28a75aa970c1426fb20", [
        "method=lm",
        "rows=150 train_rows=102 val_rows=48",
        "train_error=0.049019607843137254",
        "val_error=0.0625",
        "data_error=0.05333333333333334",
    ]),
    "pairwise-dt": ("eeg4", ("--attempts", "3", "--test-epochs", "8"),
        "4bba109fdade20afbe5c10f078455ab008765e1e5128e5ba3eb10fdc10284742", [
        "method=pairwise-dt",
        "rows=300 train_rows=201 val_rows=99",
        "train_error=0.4228855721393035",
        "val_error=0.3434343434343434",
        "data_error=0.39666666666666667",
        "pair=0/1 error=0.20833333333333337 features=1",
        "pair=0/2 error=0.10416666666666663 features=2",
        "pair=0/3 error=0.22448979591836737 features=3",
        "pair=1/2 error=0.040000000000000036 features=3",
        "pair=1/3 error=0.11764705882352944 features=3",
        "pair=2/3 error=0.27450980392156865 features=2",
    ]),
    "ruletree": ("xor", (),
        "06bcd6be563c25fb1d9c2f26cffbf70964d1937878abe414c2c896b86415951e", [
        "method=ruletree",
        "rows=240 train_rows=161 val_rows=79",
        "train_error=0.36645962732919257",
        "val_error=0.379746835443038",
        "data_error=0.37083333333333335",
    ]),
    "fnn": ("xor", ("--epochs", "600", "--restarts", "3"),
        "6efc8faee5c5f3fbfa525f5c58b210aaacd251e5e7763c70567275a81b39d482", [
        "method=fnn",
        "rows=240 train_rows=161 val_rows=79",
        "train_error=0.34782608695652173",
        "val_error=0.3670886075949367",
        "data_error=0.3541666666666667",
    ]),
}


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, argv in DATA.items():
        paths[name] = root / f"{name}.csv"
        assert main(["generate", *argv, "--out", str(paths[name])]) == 0
    return paths


@pytest.mark.parametrize("method", list(GOLDEN))
def test_model_bytes_and_report_unchanged(method, data, tmp_path, capsys):
    source, flags, sha256, report = GOLDEN[method]
    out = tmp_path / "m.json"
    capsys.readouterr()
    assert main(["train", "--method", method, "--data", str(data[source]), "--seed", "7",
                 *flags, "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == f"model={out}"
    assert lines[:-1] == report
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256
