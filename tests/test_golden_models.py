"""Golden model files: every method, trained through the command line on small
generated data, writes the same bytes and prints the same report, and its
text and DOT exports and extracted rules read the same.

The hashes pin the model files exactly, so a refactor that claims to keep
the arithmetic can show it. A change that means to alter a model updates
the hash here and says why. They were recorded with numpy 2.4.6 on x86-64
Linux; a BLAS that sums in another order writes other bytes.

Models are written and read through relative paths from one working
directory, because a rule file stores the path of the model it came from.
"""

import contextlib
import hashlib
import io

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

# run name -> (method, data set, extra train flags, SHA-256 of the model file
# `<run name>.json`, train stdout lines before its model= line)
GOLDEN = {
    "ecnn": ("ecnn", "eeg", ("--epochs", "100", "--restarts", "3"),
        "18ba3a85b684f1fc7a3801dcd6390cb972ca2f776e0e907ca301b112c41ca751", [
        "method=ecnn",
        "rows=300 train_rows=201 val_rows=99",
        "train_error=0.14427860696517414",
        "val_error=0.15151515151515152",
        "data_error=0.14666666666666667",
    ]),
    "gmdh-layered": ("gmdh-layered", "eeg", ("--epochs", "60", "--restarts", "2"),
        "570c35fbc114659f51c8fe1278ad9bf1c48b56629b320b883e2fa254b70f898b", [
        "method=gmdh-layered",
        "rows=300 train_rows=201 val_rows=99",
        "train_error=0.12437810945273632",
        "val_error=0.09090909090909091",
        "data_error=0.11333333333333333",
    ]),
    "gmdh-roulette": ("gmdh-roulette", "xor", ("--attempts", "20", "--epochs", "40", "--restarts", "2"),
        "c8f7e3e87e748225ae845051cd396a377f282810ad9bab32ffa33ea4d32caf92", [
        "method=gmdh-roulette",
        "rows=240 train_rows=161 val_rows=79",
        "train_error=0.049689440993788817",
        "val_error=0.06329113924050633",
        "data_error=0.05416666666666667",
    ]),
    "lm": ("lm", "blobs", ("--epochs", "20"),
        "4b4b04eee2ea210cd494e6f87ce9747e4b7b31ae23b5c28a75aa970c1426fb20", [
        "method=lm",
        "rows=150 train_rows=102 val_rows=48",
        "train_error=0.049019607843137254",
        "val_error=0.0625",
        "data_error=0.05333333333333334",
    ]),
    "lm-thermal": ("lm", "blobs", ("--epochs", "20", "--correction", "thermal"),
        "0ed3eb2ba01d3aeb4e70e96c3bddee67aad476689f0b7bdb7b39d9cd9116c9b8", [
        "method=lm",
        "rows=150 train_rows=102 val_rows=48",
        "train_error=0.049019607843137254",
        "val_error=0.0625",
        "data_error=0.05333333333333334",
    ]),
    "pairwise-dt": ("pairwise-dt", "eeg4", ("--attempts", "3", "--test-epochs", "8"),
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
    "pairwise-dt-sfs-no-ratchet": ("pairwise-dt", "eeg4",
                                   ("--pair-trainer", "sfs", "--no-ratchet",
                                    "--test-epochs", "8"),
        "f86af0949ef45be69b047459f94e53b43152ec3a21c97120af801e255a35e59f", [
        "method=pairwise-dt",
        "rows=300 train_rows=201 val_rows=99",
        "train_error=0.42786069651741293",
        "val_error=0.3939393939393939",
        "data_error=0.4166666666666667",
        "pair=0/1 error=0.22916666666666663 features=4",
        "pair=0/2 error=0.10416666666666663 features=3",
        "pair=0/3 error=0.20408163265306123 features=2",
        "pair=1/2 error=0.040000000000000036 features=2",
        "pair=1/3 error=0.13725490196078427 features=6",
        "pair=2/3 error=0.3137254901960784 features=5",
    ]),
    "ruletree": ("ruletree", "xor", (),
        "06bcd6be563c25fb1d9c2f26cffbf70964d1937878abe414c2c896b86415951e", [
        "method=ruletree",
        "rows=240 train_rows=161 val_rows=79",
        "train_error=0.36645962732919257",
        "val_error=0.379746835443038",
        "data_error=0.37083333333333335",
    ]),
    "fnn": ("fnn", "xor", ("--epochs", "600", "--restarts", "3"),
        "6efc8faee5c5f3fbfa525f5c58b210aaacd251e5e7763c70567275a81b39d482", [
        "method=fnn",
        "rows=240 train_rows=161 val_rows=79",
        "train_error=0.34782608695652173",
        "val_error=0.3670886075949367",
        "data_error=0.3541666666666667",
    ]),
}


# run name -> SHA-256 of `export --format text` and of `export --format dot` stdout
# (None: the method has no DOT form, and the export exits 1)
EXPORTS = {
    "ecnn": (
        "db178b8654ec3e155669b396f6a2ad884bb64ccd049b8f25bc227c8bc3e449f5",
        "99d59e6290129d089485fb38442692371ecd03567b40b859de2a8c50d820b103"),
    "gmdh-layered": (
        "6cb68eb84d07ac717b245cd1c967f73bcedda83f6ecd6767cfbc9b998b1dbe78",
        "a23d0c21851ec9df53d425366664c772a68d53cbc860e2aa774f782e6c2a7ff8"),
    "gmdh-roulette": (
        "0f1404eb99b1d7d480ca6eca60dddf2e623ff4c7604f75074da25aa28e86beca",
        "e4a5c6b175bb554b48349c3d21084997a3bd70c61a67b92652db8031815c8b93"),
    "lm": (
        "17a6a300fb70f4190d615730dc27bc7d7213d5d565783591aea5b75490a41a9b",
        "3ece67c339bdedfc52c6892e5a33fcd9e04794faac87f7992f90acea39097474"),
    "pairwise-dt": (
        "dc5883660a86f964cda072e672593b3f52bb9a20b575e2dbad159777055bdd7c",
        "2ee72362ba3e23d0808936cc14f6bf1462ba87d38330b84ed1466faac6b05d3b"),
    "ruletree": (
        "a4f8e86e886ca79366e963e0ffd51d78384f0f8cae5fc70f8209fd60996a14f7",
        "bd13bdd788d478213f830af53572c936b4c3a88a1801d7054395fe169632ad04"),
    "fnn": (
        "ed8f26e09f8c208a4fcf7fc965fbc90dcbeed95c06748ecbb1e69defba645560",
        None),
}

# run name of a binary model -> SHA-256 of `extract-rules` stdout and of the
# rule file, with the model's own training data
RULES = {
    "ecnn": (
        "265833b58b757ffe1bfad88e29c4f008f69a15c68d091f69cf4a0cf4501b9cad",
        "560995400165ab36f90dc56907a77076244328f6b0c6c9851939fcdf912c8389"),
    "gmdh-layered": (
        "379750c6601f5cecc55b7cc7a91a262a7bc50f740a9cce344614c0a268c13cbc",
        "a2de3bea91a05b083d42013b50489c16a79c10a87790cbaaf2b46fbf09007caf"),
    "gmdh-roulette": (
        "9e0cbfbb3bcb335369c98a808a0444c3afed3f0e7a382304e8ae7c154629f275",
        "4ceb6969411689cef166cd129eeaa5528893297ed3d26993b485c0319ea5728a"),
    "fnn": (
        "31a9dfd5edbc1da062193624a672b1d6d35ed38ff86191939c38fc8b4c048ea7",
        "51c2ea032b8fcdda626cf71f3f8f48e4ccb4f3b7e3b1a126cd3c8d9a6c92c033"),
}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _run(argv):
    """Exit code and stdout of one command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A working directory holding the data sets and every run's model
    (`<run name>.json`), with each training's stdout lines."""
    root = tmp_path_factory.mktemp("golden")
    reports = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        for name, argv in DATA.items():
            assert _run(["generate", *argv, "--out", f"{name}.csv"])[0] == 0
        for run, (method, source, flags, _, _) in GOLDEN.items():
            code, out = _run(["train", "--method", method, "--data", f"{source}.csv",
                              "--seed", "7", *flags, "--out", f"{run}.json"])
            assert code == 0
            reports[run] = out.splitlines()
    return root, reports


@pytest.mark.parametrize("run", list(GOLDEN))
def test_model_bytes_and_report_unchanged(run, workdir):
    root, reports = workdir
    _, _, _, sha256, report = GOLDEN[run]
    lines = reports[run]
    assert lines[-1] == f"model={run}.json"
    assert lines[:-1] == report
    assert _sha256((root / f"{run}.json").read_bytes()) == sha256


@pytest.mark.parametrize("run", list(EXPORTS))
@pytest.mark.parametrize("fmt", ["text", "dot"])
def test_export_unchanged(run, fmt, workdir, monkeypatch):
    monkeypatch.chdir(workdir[0])
    sha256 = EXPORTS[run][fmt == "dot"]
    code, out = _run(["export", "--model", f"{run}.json", "--format", fmt])
    assert (code, bool(out)) == ((0, True) if sha256 else (1, False))
    if sha256:
        assert _sha256(out.encode()) == sha256


@pytest.mark.parametrize("run", list(RULES))
def test_extracted_rules_unchanged(run, workdir, monkeypatch):
    monkeypatch.chdir(workdir[0])
    source = GOLDEN[run][1]
    code, out = _run(["extract-rules", "--model", f"{run}.json",
                      "--data", f"{source}.csv", "--out", f"{run}-rules.json"])
    assert code == 0
    rules = (workdir[0] / f"{run}-rules.json").read_bytes()
    assert (_sha256(out.encode()), _sha256(rules)) == RULES[run]
