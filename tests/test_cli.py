"""Command-line surface: generation, training, evaluation, export, rules."""

import copy
import csv
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import evonets
from evonets.cli import _load_for_model, main
from evonets.dataset import (Dataset, NormParams, SplitSpec, load_csv, normalize_zscore,
                             save_csv, split)
from evonets.linear import LinearMachine, train_pocket_ratchet
from evonets.modelio import METHODS, ModelBundle, load_model, save_model


def run(*argv):
    return main(list(argv))


@pytest.fixture
def xor_csv(tmp_path):
    p = tmp_path / "xor.csv"
    assert run("generate", "xor", "--n", "240", "--seed", "3", "--out", str(p)) == 0
    return p


@pytest.fixture
def blob_csv(tmp_path):
    p = tmp_path / "blobs.csv"
    assert run("generate", "blobs", "--n", "150", "--classes", "3", "--seed", "4",
               "--spread", "0.8", "--out", str(p)) == 0
    return p


@pytest.fixture
def pocket_blob_csv(tmp_path):
    # pair tests trained here at c = 1e307 keep finite weights but score
    # some rows beyond a float
    p = tmp_path / "pocket-blobs.csv"
    assert run("generate", "blobs", "--n", "200", "--seed", "1", "--out", str(p)) == 0
    return p


OVERFLOW = "generated features overflow a float; use a smaller spread or radius"


class TestGenerate:
    def test_xor_file_shape(self, tmp_path, capsys):
        p = tmp_path / "a.csv"
        assert run("generate", "xor", "--n", "1000", "--seed", "7", "--out", str(p)) == 0
        lines = p.read_text().splitlines()
        assert lines[0] == "x1,x2,y"
        assert len(lines) == 1001

    def test_byte_identical_for_same_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("generate", "xor", "--n", "200", "--seed", "9", "--out", str(a))
        run("generate", "xor", "--n", "200", "--seed", "9", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_kind_is_usage_error(self, tmp_path, capsys):
        code = run("generate", "spirals", "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "usage" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("kind, flag, message", [
        ("blobs", "--spread=-1", "spread must be finite and non-negative"),
        ("blobs", "--spread=nan", "spread must be finite and non-negative"),
        ("blobs", "--spread=inf", "spread must be finite and non-negative"),
        ("blobs", "--radius=inf", "radius must be finite"),
        ("blobs", "--radius=nan", "radius must be finite"),
        ("surrogate-eeg", "--separation=nan", "separation must be finite"),
        ("surrogate-eeg", "--separation=inf", "separation must be finite"),
        ("surrogate-eeg", "--separation=-inf", "separation must be finite"),
        ("xor", "--seed=-1", "seed must be non-negative"),
        ("blobs", "--seed=-1", "seed must be non-negative"),
        ("surrogate-eeg", "--seed=-1", "seed must be non-negative"),
        ("surrogate-eeg", "--n=-5", "need at least 1 row"),
        ("surrogate-eeg", "--n=0", "need at least 1 row"),
        ("surrogate-eeg", "--irrelevant=-3", "irrelevant column count must be non-negative"),
        ("blobs", "--spread=1e308", OVERFLOW),
        ("blobs", "--radius=1.7976e308 --spread=1e305", OVERFLOW),
        # 0 is a class count like any other, not a request for the default
        ("blobs", "--classes=0", "need at least 2 classes"),
        ("surrogate-eeg", "--classes=0", "need at least 2 classes"),
    ])
    def test_bad_generator_setting_exits_2(self, kind, flag, message, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run("generate", kind, "--n", "30", *flag.split(), "--out", str(out)) == 2
        assert capsys.readouterr() == ("", f"data error: {message}\n")
        assert not out.exists()

    def test_unwritable_path_exits_2(self, tmp_path, capsys):
        code = run("generate", "xor", "--n", "10", "--seed", "0",
                   "--out", str(tmp_path / "no" / "such" / "dir" / "x.csv"))
        assert code == 2
        assert "data error" in capsys.readouterr().err


class TestMemoryError:
    """Memory exhaustion exits 2 with one line and no traceback."""

    def test_refused_allocation(self, tmp_path, capsys):
        """numpy refuses the 7.28 TiB of a trillion labels at once, so this
        allocates nothing."""
        out = tmp_path / "x.csv"
        assert run("generate", "surrogate-eeg", "--n", "1000000000000",
                   "--out", str(out)) == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.count("\n") == 1
        assert err.startswith("data error: out of memory (Unable to allocate 7.28 TiB")
        assert not out.exists()

    def test_learner_out_of_memory(self, xor_csv, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("evonets.cli.train_ecnn", exhausted)
        assert run("train", "--method", "ecnn", "--data", str(xor_csv),
                   "--out", str(tmp_path / "m.json")) == 2
        assert capsys.readouterr() == ("", "data error: out of memory\n")

    # The child gets at most 1 GiB of address space before it imports numpy,
    # so the allocation a flag sizes is refused there instead of being
    # granted and then taking the host's memory.
    LIMITED = ("import resource, sys\n"
               "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
               "from evonets.cli import main\n"
               "sys.exit(main(sys.argv[1:]))\n")

    @pytest.mark.parametrize("flags", [("--method", "ecnn", "--restarts", "100000000"),
                                       ("--method", "gmdh-layered", "--restarts", "100000000",
                                        "--max-layers", "1"),
                                       ("--method", "fnn", "--hidden", "100000000")])
    def test_a_flag_sized_allocation_under_an_address_space_limit(self, tmp_path, flags):
        """A learner whose --restarts or --hidden asks for more memory than
        the process may have exits 2 with one line, on a 300-row, 72-feature
        file. (fnn's --restarts is left out: its chunks keep memory bounded,
        so it only runs long.)"""
        pytest.importorskip("resource")
        data = tmp_path / "eeg.csv"
        assert run("generate", "surrogate-eeg", "--n", "300", "--relevant", "4",
                   "--irrelevant", "68", "--seed", "0", "--out", str(data)) == 0
        src = str(Path(evonets.__file__).parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
        child = subprocess.run([sys.executable, "-c", self.LIMITED, "train", "--data", str(data),
                                "--out", str(tmp_path / "m.json"), *flags],
                               capture_output=True, text=True, env=env, timeout=300)
        assert (child.returncode, child.stdout) == (2, ""), child.stderr
        assert child.stderr.count("\n") == 1, child.stderr
        assert child.stderr.startswith("data error: out of memory ("), child.stderr
        assert not (tmp_path / "m.json").exists()


class TestGeneratorTable:
    """`generate` takes exactly the flags the kind reads (READS), refusing every
    other kind's, and leaves each default to the kind's gen_* function."""

    READS = {
        "xor": set(),
        "blobs": {"classes", "spread", "radius"},
        "surrogate-eeg": {"relevant", "irrelevant", "classes", "separation"},
    }
    # a value each kind-specific generate flag accepts
    VALUES = {"classes": "3", "spread": "0.5", "radius": "2.0", "relevant": "2",
              "irrelevant": "3", "separation": "1.5"}
    # the generate flags every kind reads
    COMMON = {"help", "kind", "n", "seed", "out"}

    def test_one_generator_per_kind(self):
        from evonets import cli

        actions = cli._build_parser()._subparsers._group_actions[0].choices["generate"]._actions
        assert list(next(a for a in actions if a.dest == "kind").choices) == \
            list(cli.GENERATORS)
        # the entries name every other generate flag, and no flag the parser lacks;
        # each defaults to None, so every generator default lives in its gen_* signature
        kind_flags = [a for a in actions if a.dest not in self.COMMON]
        assert {f for g in cli.GENERATORS.values() for f in g.flags} == \
            {a.dest for a in kind_flags}
        assert all(a.default is None for a in kind_flags)
        assert {k: set(g.flags) for k, g in cli.GENERATORS.items()} == self.READS
        assert set(self.VALUES) == {a.dest for a in kind_flags}

    @pytest.mark.parametrize("kind", list(READS))
    @pytest.mark.parametrize("flag", list(VALUES))
    def test_flag_is_read_or_refused(self, kind, flag, tmp_path, capsys):
        # a flag the kind reads generates; any other is a usage error before any
        # work, naming the flag and the kind, with nothing written and nothing on stdout
        out = tmp_path / "data.csv"
        code = run("generate", kind, "--n", "40", "--out", str(out), f"--{flag}",
                   self.VALUES[flag])
        stdout, err = capsys.readouterr()
        if flag in self.READS[kind]:
            assert code == 0, err
            assert out.exists()
        else:
            assert code == 1
            assert stdout == ""
            assert err.startswith(f"usage error: --{flag} is not read by kind '{kind}'\n")
            assert list(tmp_path.iterdir()) == []


class TestUnwritableOut:
    """An --out (or train's --report) that is empty or a directory, or whose
    parent is missing or a file, exits 2 with the error the write would give,
    before any input is read or any work done, and prints nothing on stdout."""

    @pytest.fixture
    def model(self, xor_csv, tmp_path, capsys):
        path = tmp_path / "m.json"
        assert run("train", "--method", "lm", "--epochs", "40", "--data", str(xor_csv),
                   "--out", str(path)) == 0
        capsys.readouterr()
        return path

    @pytest.mark.parametrize("where", ["empty", "directory", "missing parent", "file parent"])
    @pytest.mark.parametrize("verb", ["train", "train --report", "evaluate", "export",
                                      "extract-rules", "generate"])
    def test_refused_before_any_work(self, verb, where, model, xor_csv, tmp_path, capsys,
                                     monkeypatch):
        from evonets import cli

        (tmp_path / "file").write_text("")
        out = {"empty": "", "directory": tmp_path, "missing parent": tmp_path / "no" / "out",
               "file parent": tmp_path / "file" / "out"}[where]
        with pytest.raises(OSError) as write_error:
            open(out, "w").close()

        def refuse(*args, **kwargs):
            raise AssertionError("input read before the output path was checked")

        for name in ("load_csv", "load_model"):
            monkeypatch.setattr(cli, name, refuse)
        monkeypatch.setitem(cli.GENERATORS, "surrogate-eeg",
                            cli.GENERATORS["surrogate-eeg"]._replace(fit=refuse))
        argv = {
            "train": ("train", "--method", "ecnn", "--data", str(xor_csv), "--out"),
            "train --report": ("train", "--method", "pairwise-dt", "--data", str(xor_csv),
                               "--out", str(tmp_path / "pairwise.json"), "--report"),
            "evaluate": ("evaluate", "--model", str(model), "--data", str(xor_csv), "--out"),
            "export": ("export", "--model", str(model), "--format", "text", "--out"),
            "extract-rules": ("extract-rules", "--model", str(model), "--data", str(xor_csv),
                              "--out"),
            "generate": ("generate", "surrogate-eeg", "--n", "40", "--out"),
        }[verb]
        assert run(*argv, str(out)) == 2
        assert capsys.readouterr() == ("", f"data error: {write_error.value}\n")


class TestOutputNamesAnotherFile:
    """An --out or --report that names a file the command reads, or its other
    output, under any spelling of the path, is a usage error naming both
    flags: it exits 1 before any input is read, writes nothing and prints
    nothing on stdout."""

    @pytest.fixture
    def model(self, xor_csv, tmp_path, capsys):
        path = tmp_path / "m.json"
        assert run("train", "--method", "lm", "--epochs", "40", "--data", str(xor_csv),
                   "--out", str(path)) == 0
        capsys.readouterr()
        return path

    @pytest.mark.parametrize("spelling", ["same", "dotted", "symlink"])
    @pytest.mark.parametrize("verb, flag, same_as", [
        ("train", "--out", "--data"),
        ("train", "--report", "--data"),
        ("train", "--report", "--out"),
        ("evaluate", "--out", "--data"),
        ("evaluate", "--out", "--model"),
        ("export", "--out", "--model"),
        ("extract-rules", "--out", "--data"),
        ("extract-rules", "--out", "--model"),
    ])
    def test_refused_before_any_work(self, verb, flag, same_as, spelling, model, xor_csv,
                                     tmp_path, capsys, monkeypatch):
        from evonets import cli

        def refuse(*args, **kwargs):
            raise AssertionError("input read before the output paths were checked")

        for name in ("load_csv", "load_model"):
            monkeypatch.setattr(cli, name, refuse)
        paths = {"--data": str(xor_csv), "--model": str(model),
                 "--out": str(tmp_path / "out"), "--report": str(tmp_path / "report.csv")}
        target = paths[same_as]
        if spelling == "dotted":
            (tmp_path / "sub").mkdir()
            paths[flag] = str(tmp_path / "sub" / ".." / Path(target).name)
        elif spelling == "symlink":
            (tmp_path / "link").symlink_to(target)
            paths[flag] = str(tmp_path / "link")
        else:
            paths[flag] = target
        argv = {
            "train": ("train", "--method", "pairwise-dt", "--data", "--out", "--report"),
            "evaluate": ("evaluate", "--model", "--data", "--out"),
            "export": ("export", "--format", "text", "--model", "--out"),
            "extract-rules": ("extract-rules", "--model", "--data", "--out"),
        }[verb]
        argv = [a for arg in argv for a in ((arg, paths[arg]) if arg in paths else (arg,))]
        before = {p: Path(p).read_bytes() for p in (str(xor_csv), str(model))}

        assert run(*argv) == 1
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith(f"usage error: {flag} and {same_as} name the same file "
                              f"'{paths[flag]}'\n")
        assert {p: Path(p).read_bytes() for p in before} == before
        assert not (tmp_path / "out").exists() and not (tmp_path / "report.csv").exists()

    def test_pairwise_report_over_its_model(self, blob_csv, tmp_path, capsys, monkeypatch):
        # the same path given twice once left the report where the model should be
        monkeypatch.chdir(tmp_path)
        assert run("train", "--method", "pairwise-dt", "--data", str(blob_csv),
                   "--attempts", "2", "--test-epochs", "5", "--out", "m.json",
                   "--report", "m.json") == 1
        assert capsys.readouterr().err.startswith(
            "usage error: --report and --out name the same file 'm.json'\n")
        assert not (tmp_path / "m.json").exists()


class TestTrain:
    def test_gmdh_on_xor_reports_low_error(self, xor_csv, tmp_path, capsys):
        model = tmp_path / "m.json"
        code = run("train", "--method", "gmdh-layered", "--kind", "bilinear",
                   "--data", str(xor_csv), "--out", str(model), "--seed", "7")
        assert code == 0
        out = capsys.readouterr().out
        train_error = float(out.split("train_error=")[1].splitlines()[0])
        assert train_error < 0.05
        assert model.exists()

    def test_pairwise_reports_three_units(self, blob_csv, tmp_path, capsys):
        model = tmp_path / "m.json"
        report = tmp_path / "pairs.csv"
        code = run("train", "--method", "pairwise-dt", "--data", str(blob_csv),
                   "--out", str(model), "--seed", "5", "--attempts", "4",
                   "--test-epochs", "10", "--report", str(report))
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("pair=") == 3
        lines = report.read_text().splitlines()
        assert lines[0] == "class_i,class_j,error,feature_count"
        assert len(lines) == 4

    def test_missing_data_file_exits_2(self, tmp_path):
        assert run("train", "--method", "lm", "--data", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "m.json")) == 2

    def test_unknown_method_is_usage_error(self, xor_csv, tmp_path):
        assert run("train", "--method", "magic", "--data", str(xor_csv),
                   "--out", str(tmp_path / "m.json")) == 1

    @pytest.mark.parametrize("method", ["lm", "ecnn"])
    def test_report_without_pair_units_is_usage_error(self, method, xor_csv, tmp_path,
                                                      capsys, monkeypatch):
        # only pairwise-dt has pair units to report; the flag is refused before
        # the data is read
        from evonets import cli

        def refuse(*args, **kwargs):
            raise AssertionError("data read before --report was refused")

        monkeypatch.setattr(cli, "load_csv", refuse)
        out, report = tmp_path / "m.json", tmp_path / "r.csv"
        assert run("train", "--method", method, "--data", str(xor_csv), "--out", str(out),
                   "--report", str(report)) == 1
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith(f"usage error: --report is not read by method '{method}'\n")
        assert not out.exists() and not report.exists()

    def test_learner_warning_prints_as_one_line(self, xor_csv, tmp_path, capsys):
        # a 9:1 split makes gmdh-layered warn; the warning changes nothing else
        argv = ("train", "--method", "gmdh-layered", "--data", str(xor_csv),
                "--split", "9/10:1/10", "--epochs", "20", "--restarts", "1", "--out")
        quiet = tmp_path / "quiet.json"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert run(*argv, str(quiet)) == 0
        quiet_out = capsys.readouterr().out
        out = tmp_path / "m.json"
        assert run(*argv, str(out)) == 0
        stdout, err = capsys.readouterr()
        assert err == ("warning: fitting and validation subsets differ a lot in size; the "
                       "selection criterion works best when they are comparable\n")
        assert stdout == quiet_out.replace(str(quiet), str(out))
        assert out.read_bytes() == quiet.read_bytes()

    def test_numpy_warning_still_raises_under_an_error_filter(self, tmp_path, monkeypatch):
        from evonets import cli

        monkeypatch.setattr(cli, "cmd_generate", lambda args: np.log(np.zeros(1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(RuntimeWarning, match="divide by zero"):
                run("generate", "xor", "--out", str(tmp_path / "x.csv"))

    @pytest.mark.parametrize("method,extra", [
        ("ecnn", ("--epochs", "60", "--restarts", "1")),
        ("gmdh-layered", ()),
        ("gmdh-roulette", ("--attempts", "25",)),
        ("lm", ("--epochs", "40",)),
        ("pairwise-dt", ("--attempts", "3", "--test-epochs", "8")),
        ("ruletree", ()),
        ("fnn", ("--epochs", "60", "--restarts", "2")),
    ])
    def test_every_method_trains_and_round_trips(self, xor_csv, tmp_path,
                                                 method, extra):
        model_path = tmp_path / f"{method}.json"
        code = run("train", "--method", method, "--data", str(xor_csv),
                   "--out", str(model_path), "--seed", "11", *extra)
        assert code == 0
        bundle = load_model(model_path)
        assert bundle.method == method
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(100, 2))
        before = bundle.predict_csv_features(X)
        resaved = tmp_path / "resaved.json"
        save_model(resaved, bundle)
        assert resaved.read_bytes() == model_path.read_bytes()
        again = load_model(resaved)
        np.testing.assert_array_equal(before, again.predict_csv_features(X))


@pytest.fixture
def eeg_csv(tmp_path):
    p = tmp_path / "eeg.csv"
    assert run("generate", "surrogate-eeg", "--n", "300", "--relevant", "3", "--irrelevant",
               "5", "--separation", "1.5", "--seed", "4", "--out", str(p)) == 0
    return p


@pytest.fixture
def eeg4_csv(tmp_path):
    p = tmp_path / "eeg4.csv"
    assert run("generate", "surrogate-eeg", "--n", "300", "--classes", "4", "--relevant", "3",
               "--irrelevant", "3", "--seed", "5", "--out", str(p)) == 0
    return p


def _threshold_used(doc, data):
    assert doc["payload"]["threshold"] == 0.35


def _hidden_units(doc, data):
    assert len(doc["payload"]["hidden_weights"]) == 3


def _features_capped(doc, data):
    assert all(len(t["features"]) == 1 for t in doc["payload"]["tests"])


def _one_survivor(doc, data):
    # one survivor leaves layer 2 nothing to pair, so growth stops after layer 1
    assert [n["layer"] for n in doc["payload"]["neurons"]] == [1]


def _unstratified_split(doc, data):
    # the stored normalization is fitted on the fit rows of the plain split
    ds = load_csv(data, "y")
    fit_rows = split(ds, SplitSpec((2 / 3, 1 / 3), seed=3, stratified=False))[0]
    stratified = split(ds, SplitSpec((2 / 3, 1 / 3), seed=3, stratified=True))[0]
    mean = doc["normalization"]["mean"]
    assert mean == list(normalize_zscore(fit_rows)[1].mean)
    assert mean != list(normalize_zscore(stratified)[1].mean)


class TestTrainFlags:
    """Train flags that take a non-default value reach the learner and the
    model file's provenance."""

    @pytest.mark.parametrize("method, data, flags, recorded, took_effect", [
        ("ecnn", "xor_csv", ("--threshold", "0.35", "--epochs", "40", "--restarts", "1"),
         {"threshold": 0.35}, _threshold_used),
        ("fnn", "xor_csv", ("--hidden", "3", "--epochs", "40", "--restarts", "1"),
         {"hidden": 3}, _hidden_units),
        ("pairwise-dt", "eeg4_csv", ("--max-features", "1", "--attempts", "3",
                                     "--test-epochs", "8"),
         {"max_features": 1}, _features_capped),
        ("gmdh-layered", "eeg_csv", ("--survivors", "1", "--fit-method", "least-squares"),
         {"survivors": 1}, _one_survivor),
        ("gmdh-layered", "eeg_csv", ("--no-stratify", "--fit-method", "least-squares"),
         {"stratified": False}, _unstratified_split),
    ])
    def test_flag_is_recorded_and_takes_effect(self, method, data, flags, recorded,
                                               took_effect, request, tmp_path, capsys):
        data = request.getfixturevalue(data)
        model = tmp_path / "m.json"
        assert run("train", "--method", method, "--data", str(data), "--seed", "3",
                   "--out", str(model), *flags) == 0
        doc = json.loads(model.read_text())
        provenance = doc["provenance"]
        for key, value in recorded.items():
            assert (provenance if key == "stratified" else provenance["config"])[key] == value
        took_effect(doc, data)


class TestRejectedSettings:
    """A setting no learner can train with exits 2 with one line, whichever
    method receives it, and writes no model."""

    @pytest.mark.parametrize("method", ["gmdh-layered", "gmdh-roulette"])
    @pytest.mark.parametrize("flag, message", [
        ("--restarts=0", "restarts must be at least 1"),
        ("--epochs=0", "epochs must be at least 1"),
        ("--learning-rate=-1", "learning_rate must be positive"),
    ])
    def test_descent_setting_rejected_by_gmdh(self, method, flag, message, xor_csv,
                                              tmp_path, capsys):
        out = tmp_path / "m.json"
        assert run("train", "--method", method, flag, "--data", str(xor_csv),
                   "--out", str(out)) == 2
        assert capsys.readouterr().err == f"data error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag, message", [
        ("--learning-rate=nan", "learning_rate must be positive"),
        ("--learning-rate=0", "learning_rate must be positive"),
        ("--epochs=0", "epochs must be at least 1"),
        ("--restarts=0", "restarts must be at least 1"),
        ("--patience=0", "patience must be at least 1"),
    ])
    def test_descent_setting_rejected_by_fnn(self, flag, message, xor_csv, tmp_path,
                                             capsys):
        out = tmp_path / "m.json"
        assert run("train", "--method", "fnn", flag, "--data", str(xor_csv),
                   "--out", str(out)) == 2
        assert capsys.readouterr().err == f"data error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("method", [
        ("ecnn",), ("gmdh-layered", "--fit-method", "gradient"),
        ("gmdh-layered", "--fit-method", "least-squares"), ("gmdh-roulette",), ("fnn",)],
        ids=["ecnn", "gmdh-layered-gradient", "gmdh-layered-least-squares",
             "gmdh-roulette", "fnn"])
    @pytest.mark.parametrize("rate", ["inf", "1e400"])
    def test_learning_rate_not_finite_rejected(self, method, rate, xor_csv, tmp_path,
                                               capsys):
        out = tmp_path / "m.json"
        assert run("train", "--method", *method, f"--learning-rate={rate}",
                   "--data", str(xor_csv), "--out", str(out)) == 2
        assert capsys.readouterr().err == "data error: learning_rate must be finite\n"
        assert not out.exists()

    @pytest.mark.parametrize("c", ["0", "-1", "nan"])
    def test_c_not_positive_rejected_by_lm(self, c, blob_csv, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert run("train", "--method", "lm", f"--c={c}", "--data", str(blob_csv),
                   "--out", str(out)) == 2
        assert capsys.readouterr().err == "data error: correction amount c must be positive\n"
        assert not out.exists()

    @pytest.mark.parametrize("method", ["lm", "pairwise-dt"])
    @pytest.mark.parametrize("c", ["inf", "1e400"])
    def test_c_not_finite_rejected(self, method, c, pocket_blob_csv, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert run("train", "--method", method, f"--c={c}", "--data", str(pocket_blob_csv),
                   "--out", str(out)) == 2
        assert capsys.readouterr().err == "data error: correction amount c must be finite\n"
        assert not out.exists()

    @pytest.mark.parametrize("method", ["ecnn", "gmdh-layered", "gmdh-roulette", "lm",
                                        "pairwise-dt", "ruletree", "fnn"])
    def test_negative_seed_rejected(self, method, xor_csv, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert run("train", "--method", method, "--seed=-1", "--data", str(xor_csv),
                   "--out", str(out)) == 2
        assert capsys.readouterr().err == "data error: seed must be non-negative\n"
        assert not out.exists()

    @pytest.mark.parametrize("fractions", ["nan:1", "1:nan", "nan:nan"])
    def test_nan_split_rejected(self, fractions, xor_csv, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert run("train", "--method", "lm", "--split", fractions, "--data", str(xor_csv),
                   "--out", str(out)) == 2
        assert capsys.readouterr().err == "data error: every split fraction must be positive\n"
        assert not out.exists()


class TestPocketOverflow:
    """A correction amount so large that the pocketed weights overflow exits 3
    with one line and writes no model; one just short of that trains a model
    that evaluates. Neither lets a numpy warning through."""

    @pytest.mark.parametrize("method, extra, message", [
        ("lm", (), "pocket weights overflowed"),
        ("pairwise-dt", (), "pair test weights overflowed"),
        ("pairwise-dt", ("--pair-trainer", "sfs"), "pair test weights overflowed"),
    ])
    def test_overflowing_pocket_is_a_training_error(self, method, extra, message,
                                                    pocket_blob_csv, tmp_path, capsys):
        out = tmp_path / "m.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("train", "--method", method, "--c=1e308", *extra,
                       "--data", str(pocket_blob_csv), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err == f"training error: {message}; use a smaller correction amount c\n"
        assert not out.exists()

    @pytest.mark.parametrize("method", ["lm", "pairwise-dt"])
    def test_large_finite_pocket_trains_and_evaluates(self, method, pocket_blob_csv,
                                                      tmp_path, capsys):
        out = tmp_path / "m.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("train", "--method", method, "--c=1e307",
                       "--data", str(pocket_blob_csv), "--out", str(out)) == 0
            assert run("evaluate", "--model", str(out), "--data", str(pocket_blob_csv)) == 0
        assert capsys.readouterr().err == ""


class TestScoreOverflow:
    """At c = 1e308 the lm pockets of seeds 3 and 5 on these blobs keep
    finite weights whose scores on the training rows overflow a float. Train
    exits 3 and writes no model; evaluate refuses such a model with exit 2.
    Neither lets a numpy warning through."""

    @pytest.fixture
    def overflow_csv(self, tmp_path):
        p = tmp_path / "overflow-blobs.csv"
        assert run("generate", "blobs", "--n", "300", "--classes", "3", "--seed", "2",
                   "--spread", "2.5", "--out", str(p)) == 0
        return p

    @pytest.mark.parametrize("seed", [3, 5])
    def test_train_exits_3(self, seed, overflow_csv, tmp_path, capsys):
        out = tmp_path / "m.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("train", "--method", "lm", "--c=1e308", "--seed", str(seed),
                       "--data", str(overflow_csv), "--out", str(out)) == 3
        assert capsys.readouterr().err == (
            "training error: linear machine scores overflow on the training data; "
            "use a smaller correction amount c\n")
        assert not out.exists()

    @pytest.mark.parametrize("seed", [3, 5])
    def test_evaluate_exits_2(self, seed, overflow_csv, tmp_path, capsys):
        # the model train wrote before it checked the scores: the pocketed
        # machine of the same run, trained as cmd_train trains it
        ds = load_csv(overflow_csv, "y")
        tr, _ = split(ds, SplitSpec((2 / 3, 1 / 3), seed=seed, stratified=True))
        _, norm = normalize_zscore(tr)
        lm, _ = train_pocket_ratchet(LinearMachine.zeros(3, 2), norm.apply_dataset(tr),
                                     c=1e308, seed=seed)
        assert np.isfinite(lm.weights).all()
        model = tmp_path / "m.json"
        save_model(model, ModelBundle("lm", lm, norm, ds.feature_names, ds.label_names))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("evaluate", "--model", str(model), "--data", str(overflow_csv)) == 2
        assert capsys.readouterr() == (
            "", f"data error: {model}: its scores overflow on {overflow_csv}\n")


class TestDescentDivergence:
    """A learning rate that makes a gradient fit diverge exits 3 with one line
    and writes no model, and lets no numpy warning through."""

    @pytest.mark.parametrize("method, rate, message", [
        ("gmdh-layered", "2", "polynomial weights diverged"),
        ("gmdh-layered", "5", "held-out error of a fitted neuron is not finite"),
        ("gmdh-roulette", "1e20", "polynomial weights diverged"),
        ("fnn", "1e300", "every restart diverged"),
    ])
    def test_diverging_descent_is_a_training_error(self, method, rate, message, tmp_path,
                                                   capsys):
        data, out = tmp_path / "eeg.csv", tmp_path / "m.json"
        assert run("generate", "surrogate-eeg", "--n", "300", "--relevant", "3",
                   "--irrelevant", "5", "--seed", "2", "--out", str(data)) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("train", "--method", method, "--learning-rate", rate,
                       "--data", str(data), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"training error: {message}") and err.count("\n") == 1, err
        assert not out.exists()


def zscore_overflow_csv(path, shape):
    """A 60-row table of columns a, b and c whose z-scoring overflows: with
    shape "column", c alternates +-1.7e308, so its fit rows' mean and sd
    overflow; with shape "cell", c is small save one 1.7e308 cell in a row
    that the default split makes a validation row, where its z-score is inf."""
    rng = np.random.default_rng(5)
    y = np.arange(60) % 2
    X = np.column_stack([y + rng.normal(0, 0.5, 60), rng.normal(0, 1, 60),
                         rng.uniform(-0.05, 0.05, 60)])
    if shape == "column":
        X[:, 2] = np.where(np.arange(60) % 3, 1.7e308, -1.7e308)
    else:
        ds = Dataset(X, y, ("a", "b", "c"), 2)
        _, va = split(ds, SplitSpec((2 / 3, 1 / 3), stratified=True))
        X[int(np.flatnonzero((X == va.features[0]).all(axis=1))[0]), 2] = 1.7e308
    save_csv(Dataset(X, y, ("a", "b", "c"), 2), path)
    return path


class TestZscoreOverflowOnTrain:
    """Data whose z-scoring overflows is refused before any method trains: exit
    2, one line, no model file, and no numpy warning."""

    @pytest.mark.parametrize("method", ["ecnn", "gmdh-layered", "gmdh-roulette", "lm",
                                        "pairwise-dt", "ruletree", "fnn"])
    @pytest.mark.parametrize("shape", ["column", "cell"])
    def test_refused(self, method, shape, tmp_path, capsys):
        data = zscore_overflow_csv(tmp_path / "big.csv", shape)
        out = tmp_path / "m.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("train", "--method", method, "--data", str(data),
                       "--out", str(out)) == 2
        assert capsys.readouterr() == ("", (
            "data error: column 'c': its mean or sd overflows a float\n" if shape == "column"
            else f"data error: {data}: its normalization overflows on some rows\n"))
        assert not out.exists()


class TestDeterminism:
    @pytest.mark.parametrize("method,extra", [
        ("ecnn", ("--epochs", "60", "--restarts", "1")),
        ("gmdh-layered", ()),
        ("gmdh-roulette", ("--attempts", "25",)),
        ("lm", ("--epochs", "40",)),
        ("pairwise-dt", ("--attempts", "3", "--test-epochs", "8")),
        ("fnn", ("--epochs", "60", "--restarts", "2")),
    ])
    def test_fixed_seed_gives_byte_identical_models(self, xor_csv, tmp_path,
                                                    method, extra):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run("train", "--method", method, "--data", str(xor_csv),
                       "--out", str(out), "--seed", "13", *extra) == 0
        assert a.read_bytes() == b.read_bytes()


class TestEvaluate:
    def test_self_evaluation_matches_training_report(self, xor_csv, tmp_path, capsys):
        model = tmp_path / "m.json"
        run("train", "--method", "gmdh-layered", "--data", str(xor_csv),
            "--out", str(model), "--seed", "2")
        train_out = capsys.readouterr().out
        data_error = train_out.split("data_error=")[1].splitlines()[0]
        assert run("evaluate", "--model", str(model), "--data", str(xor_csv)) == 0
        eval_out = capsys.readouterr().out
        eval_error = eval_out.split("error=")[1].splitlines()[0]
        assert eval_error == data_error

    def test_confusion_matrix_invariants(self, xor_csv, tmp_path, capsys):
        model = tmp_path / "m.json"
        out_csv = tmp_path / "confusion.csv"
        run("train", "--method", "gmdh-layered", "--data", str(xor_csv),
            "--out", str(model), "--seed", "2")
        capsys.readouterr()
        assert run("evaluate", "--model", str(model), "--data", str(xor_csv),
                   "--out", str(out_csv)) == 0
        reported_error = float(capsys.readouterr().out.split("error=")[1].splitlines()[0])
        rows = out_csv.read_text().splitlines()
        assert len(rows) == 3  # header + 2 classes
        matrix = np.array([[int(c) for c in row.split(",")[1:]] for row in rows[1:]])
        assert matrix.sum() == 240
        # row sums equal class support, off-diagonal sum equals the error count
        bundle = load_model(model)
        ds, _ = _load_for_model(model, bundle, xor_csv)
        support = [int(np.sum(ds.labels == k)) for k in range(2)]
        assert list(matrix.sum(axis=1)) == support
        off_diag = matrix.sum() - np.trace(matrix)
        assert reported_error == pytest.approx(off_diag / 240, abs=1e-15)

    def test_group_by_distributions(self, tmp_path, capsys):
        # two recordings, one mostly class 1, the other mostly class 0
        rng = np.random.default_rng(6)
        X = rng.uniform(-1, 1, size=(100, 1))
        y = (X[:, 0] > 0).astype(int)
        rec = np.where(np.arange(100) < 50, "A", "B")
        train = tmp_path / "train.csv"
        save_csv(Dataset(X, y, ("f1",), 2), train)
        data = tmp_path / "grouped.csv"
        with open(data, "w") as fh:
            fh.write("f1,rec,y\n")
            for xi, ri, yi in zip(X[:, 0], rec, y):
                fh.write(f"{float(xi)!r},{ri},{yi}\n")
        model = tmp_path / "m.json"
        assert run("train", "--method", "ruletree", "--data", str(train),
                   "--out", str(model), "--seed", "0") == 0
        capsys.readouterr()
        assert run("evaluate", "--model", str(model), "--data", str(data),
                   "--group-by", "rec") == 0
        out = capsys.readouterr().out
        assert "group=A" in out and "group=B" in out
        assert "p=" in out

    def test_stored_normalization_equals_manual_pipeline(self, xor_csv, tmp_path, capsys):
        model = tmp_path / "m.json"
        run("train", "--method", "gmdh-layered", "--data", str(xor_csv),
            "--out", str(model), "--seed", "2")
        capsys.readouterr()
        bundle = load_model(model)
        # the evaluation reader z-scores the rows as the model file says
        ds, _ = _load_for_model(model, bundle, xor_csv)
        raw = load_csv(xor_csv, "y").features
        np.testing.assert_array_equal(ds.features, bundle.norm.apply(raw))
        via_bundle = bundle.predict_csv_features(raw)
        manual = bundle.model.predict_classes(ds.features)
        np.testing.assert_array_equal(via_bundle, manual)

    def test_mismatched_columns_exit_2_with_name(self, xor_csv, tmp_path, capsys):
        model = tmp_path / "m.json"
        run("train", "--method", "gmdh-layered", "--data", str(xor_csv),
            "--out", str(model), "--seed", "2")
        capsys.readouterr()
        other = tmp_path / "other.csv"
        other.write_text("x1,zz,y\n0.1,0.2,0\n0.3,0.4,1\n")
        assert run("evaluate", "--model", str(model), "--data", str(other)) == 2
        err = capsys.readouterr().err
        assert "zz" in err or "x2" in err


class TestExport:
    def test_gmdh_text_matches_library_rendering(self, xor_csv, tmp_path, capsys):
        from evonets.gmdh import to_polynomial_text
        model = tmp_path / "m.json"
        run("train", "--method", "gmdh-layered", "--data", str(xor_csv),
            "--out", str(model), "--seed", "2")
        capsys.readouterr()
        assert run("export", "--model", str(model), "--format", "text") == 0
        printed = capsys.readouterr().out.rstrip("\n")
        bundle = load_model(model)
        assert printed == to_polynomial_text(bundle.model, bundle.feature_names,
                                             bundle.label_names)

    def test_ecnn_dot_structure(self, xor_csv, tmp_path, capsys):
        model = tmp_path / "m.json"
        run("train", "--method", "ecnn", "--data", str(xor_csv), "--out", str(model),
            "--seed", "3", "--epochs", "60", "--restarts", "1")
        capsys.readouterr()
        assert run("export", "--model", str(model), "--format", "dot") == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "->" in out

    def test_fnn_text_dump_but_no_dot(self, xor_csv, tmp_path, capsys):
        model = tmp_path / "m.json"
        run("train", "--method", "fnn", "--data", str(xor_csv), "--out", str(model),
            "--seed", "3", "--epochs", "40", "--restarts", "1")
        capsys.readouterr()
        assert run("export", "--model", str(model), "--format", "text") == 0
        assert "hidden[0]" in capsys.readouterr().out
        assert run("export", "--model", str(model), "--format", "dot") == 1

    def test_export_to_file(self, xor_csv, tmp_path):
        model = tmp_path / "m.json"
        run("train", "--method", "gmdh-layered", "--data", str(xor_csv),
            "--out", str(model), "--seed", "2")
        out = tmp_path / "net.dot"
        assert run("export", "--model", str(model), "--format", "dot",
                   "--out", str(out)) == 0
        assert out.read_text().startswith("digraph")


# a DOT quoted string: characters other than a quote or backslash, or a backslash
# and the character it escapes
QUOTED = r'"((?:[^"\\]|\\.)*)"'


class TestDotNames:
    """A column or class name holding a double quote or a backslash is escaped
    in every DOT export: each quoted string ends where it should and reads
    back as the name."""

    FEATURES = ('a"b', 'c\\')   # a quote inside, a backslash at the end
    LABELS = ('say "no"', 'back\\slash')
    # names that need no escaping, one per feature and label
    PLAIN = ("<f0>", "<f1>"), ("<l0>", "<l1>")

    @pytest.mark.parametrize("method", [m for m, row in METHODS.items()
                                        if row.to_dot is not None])
    def test_every_quoted_string_reads_back(self, method, xor_csv, tmp_path, capsys):
        # the xor rows under those names: header and class cells
        data = tmp_path / "names.csv"
        with xor_csv.open(newline="") as src, data.open("w", newline="") as dst:
            rows, out = csv.reader(src), csv.writer(dst)
            next(rows)
            out.writerow([*self.FEATURES, "y"])
            out.writerows([*x, self.LABELS[int(y)]] for *x, y in rows)
        model = tmp_path / "m.json"
        assert run("train", "--method", method, "--data", str(data), "--out", str(model)) == 0
        capsys.readouterr()
        assert run("export", "--model", str(model), "--format", "dot") == 0
        dot = capsys.readouterr().out.rstrip("\n")

        bundle = load_model(model)
        assert bundle.feature_names == self.FEATURES
        assert set(bundle.label_names) == set(self.LABELS)
        plain = METHODS[method].to_dot(bundle.model, *self.PLAIN)
        names = dict(zip(self.PLAIN[0] + self.PLAIN[1],
                         bundle.feature_names + bundle.label_names))
        # the same statements, with each quoted string unescaping to the plain
        # rendering's string under the real names
        assert re.sub(QUOTED, '""', dot) == re.sub(QUOTED, '""', plain)
        unescaped = [re.sub(r"\\(.)", r"\1", s) for s in re.findall(QUOTED, dot)]
        expected = [re.sub("<[fl][01]>", lambda m: names[m.group()], s)
                    for s in re.findall(QUOTED, plain)]
        assert unescaped == expected
        assert re.search("<[fl][01]>", plain)   # some name is printed


class TestExtractRules:
    def test_pipeline_on_separable_data(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        x0 = rng.uniform(-2, 0.6, 80)
        x1 = rng.uniform(1.4, 3.0, 80)
        noise = rng.normal(size=160)
        X = np.column_stack([np.concatenate([x0, x1]), noise])
        y = np.concatenate([np.zeros(80, int), np.ones(80, int)])
        data = tmp_path / "gap.csv"
        save_csv(Dataset(X, y, ("depth", "noise"), 2), data)

        model = tmp_path / "m.json"
        assert run("train", "--method", "ecnn", "--data", str(data), "--out",
                   str(model), "--seed", "4", "--epochs", "80", "--restarts", "1") == 0
        capsys.readouterr()
        rules = tmp_path / "rules.json"
        assert run("extract-rules", "--model", str(model), "--data", str(data),
                   "--out", str(rules)) == 0
        out = capsys.readouterr().out
        assert "if depth >" in out
        assert "rule_error=" in out
        bundle = load_model(rules)
        assert bundle.method == "ruletree"
        # the extracted tree is a standalone model: evaluate it on the same
        # file and expect the clean separation to survive the distillation
        assert run("evaluate", "--model", str(rules), "--data", str(data)) == 0
        eval_out = capsys.readouterr().out
        assert float(eval_out.split("error=")[1].splitlines()[0]) == 0.0

    def test_constant_model_exits_3(self, tmp_path, capsys):
        # a linear machine with all-zero weights predicts class 0 everywhere,
        # so class 1 has no correctly classified rows
        rng = np.random.default_rng(9)
        X = rng.normal(size=(40, 2))
        y = np.array([0, 1] * 20)
        data = tmp_path / "two.csv"
        save_csv(Dataset(X, y, ("a", "b"), 2), data)
        lm = LinearMachine(np.zeros((2, 3)))
        bundle = ModelBundle("lm", lm, NormParams(np.zeros(2), np.ones(2)),
                             ("a", "b"), ("0", "1"))
        model = tmp_path / "zero.json"
        save_model(model, bundle)
        assert run("extract-rules", "--model", str(model), "--data", str(data),
                   "--out", str(tmp_path / "r.json")) == 3
        assert "correctly classified" in capsys.readouterr().err

    def test_multiclass_model_rejected(self, blob_csv, tmp_path, capsys):
        model = tmp_path / "m.json"
        run("train", "--method", "lm", "--data", str(blob_csv), "--out", str(model),
            "--seed", "5", "--epochs", "30")
        capsys.readouterr()
        assert run("extract-rules", "--model", str(model), "--data", str(blob_csv),
                   "--out", str(tmp_path / "r.json")) == 2



class TestRuleFileSourcePath:
    """A rule file names its source model by a path relative to the rule
    file's own directory, so its bytes do not depend on where the files sit."""

    @pytest.fixture
    def model(self, xor_csv, tmp_path, capsys):
        path = tmp_path / "trained.json"
        assert run("train", "--method", "gmdh-layered", "--fit-method", "least-squares",
                   "--data", str(xor_csv), "--out", str(path)) == 0
        capsys.readouterr()
        return path

    @staticmethod
    def extract(model, data, out):
        assert run("extract-rules", "--model", str(model), "--data", str(data),
                   "--out", str(out)) == 0
        return json.loads(Path(out).read_text())["provenance"]["source_model"]

    def test_same_bytes_under_any_parent_directory(self, model, xor_csv, tmp_path):
        rule_files = []
        for parent in ("a", "b/deeper"):
            work = tmp_path / parent / "work"
            work.mkdir(parents=True)
            for src in (model, xor_csv):
                (work / src.name).write_bytes(src.read_bytes())
            assert self.extract(work / model.name, work / xor_csv.name,
                                work / "rules.json") == model.name
            rule_files.append((work / "rules.json").read_bytes())
        assert rule_files[0] == rule_files[1]

    def test_model_in_a_sibling_directory(self, model, xor_csv, tmp_path):
        (tmp_path / "models").mkdir()
        (tmp_path / "rules").mkdir()
        moved = tmp_path / "models" / "m.json"
        moved.write_bytes(model.read_bytes())
        assert self.extract(moved, xor_csv, tmp_path / "rules" / "r.json") == "../models/m.json"


class TestCsvInput:
    """CSV faults exit 2 with a one-line message; a byte-order mark is no name."""

    @pytest.fixture
    def model(self, xor_csv, tmp_path, capsys):
        path = tmp_path / "m.json"
        assert run("train", "--method", "lm", "--epochs", "40", "--data", str(xor_csv),
                   "--out", str(path)) == 0
        capsys.readouterr()
        return path

    def verb_argv(self, verb, data, model, tmp_path):
        out = str(tmp_path / "out.json")
        if verb == "train":
            return ("train", "--method", "ruletree", "--data", str(data), "--out", out)
        if verb == "evaluate":
            return ("evaluate", "--model", str(model), "--data", str(data))
        return ("extract-rules", "--model", str(model), "--data", str(data), "--out", out)

    @staticmethod
    def assert_one_line_data_error(capsys, *fragments):
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1, err
        for fragment in fragments:
            assert fragment in err

    @pytest.mark.parametrize("verb", ["train", "evaluate", "extract-rules"])
    def test_non_utf8_file_exits_2(self, verb, model, tmp_path, capsys):
        data = tmp_path / "latin1.csv"
        data.write_bytes(b"x1,x2,y\n0.5,0.25,1\n-0.5,0.25,0\n0.1,0.2,caf\xe9\n")
        assert run(*self.verb_argv(verb, data, model, tmp_path)) == 2
        self.assert_one_line_data_error(capsys, "latin1.csv: not valid UTF-8", "0xe9")

    @pytest.mark.parametrize("verb,header", [
        ("evaluate", "x1,x1,x2,y"),
        ("extract-rules", "x1,x1,x2,y"),
        ("train", "x1,x2,y,y"),
    ])
    def test_duplicate_column_exits_2(self, verb, header, model, tmp_path, capsys):
        data = tmp_path / "dup.csv"
        data.write_text(header + "\n999,0.5,0.5,1\n0.5,-0.5,-0.5,0\n")
        assert run(*self.verb_argv(verb, data, model, tmp_path)) == 2
        self.assert_one_line_data_error(capsys, "appears more than once")

    def test_byte_order_mark_is_not_part_of_a_name(self, xor_csv, tmp_path, capsys):
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + xor_csv.read_bytes())
        models = {}
        for name, data in (("plain", xor_csv), ("bom", bom)):
            models[name] = tmp_path / f"{name}.json"
            assert run("train", "--method", "gmdh-layered", "--data", str(data),
                       "--out", str(models[name]), "--seed", "2") == 0
        assert run("evaluate", "--model", str(models["plain"]), "--data", str(bom)) == 0
        assert run("evaluate", "--model", str(models["bom"]), "--data", str(xor_csv)) == 0
        outputs = capsys.readouterr().out.split("rows=")
        assert outputs[-1] == outputs[-2]
        docs = [json.loads(models[name].read_text()) for name in ("plain", "bom")]
        for doc in docs:
            del doc["provenance"]["dataset_sha256"]
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("verb", ["train", "evaluate", "extract-rules"])
    def test_error_names_the_physical_line(self, verb, newline, model, tmp_path, capsys):
        # quoted labels span lines 2-3 and 6-7, so the bad row starts on line 6
        data = tmp_path / "multiline.csv"
        data.write_bytes(newline.join(["x1,x2,y", '0.5,0.25,"1', '"', "-0.5,0.25,0", "",
                                       'oops,0.2,"1', '"', ""]).encode())
        assert run(*self.verb_argv(verb, data, model, tmp_path)) == 2
        self.assert_one_line_data_error(capsys, "line 6, column 'x1': non-numeric value 'oops'")

    @pytest.mark.parametrize("cell", ["1" * 200000, '"' + "a" * 200000 + '"'],
                             ids=["plain", "quoted"])
    @pytest.mark.parametrize("verb", ["train", "evaluate", "extract-rules"])
    def test_oversized_cell_exits_2(self, verb, cell, model, tmp_path, capsys):
        # csv's field size limit stays; a cell over it names its line
        data = tmp_path / "oversized.csv"
        data.write_text(f"x1,x2,y\n1,2,0\n3,4,1\n{cell},5,0\n")
        assert run(*self.verb_argv(verb, data, model, tmp_path)) == 2
        self.assert_one_line_data_error(capsys, "oversized.csv: line 4: field larger than")


class TestModelFile:
    # true and 1.0 compare equal to 1 in Python, but are not format_version 1
    @pytest.mark.parametrize("version", [99, True, 1.0, "1"])
    def test_unknown_format_version_rejected(self, version, xor_csv, tmp_path):
        model = tmp_path / "m.json"
        run("train", "--method", "gmdh-layered", "--data", str(xor_csv),
            "--out", str(model), "--seed", "2")
        doc = json.loads(model.read_text())
        doc["format_version"] = version
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run("evaluate", "--model", str(bad), "--data", str(xor_csv)) == 2

    def test_provenance_recorded(self, xor_csv, tmp_path):
        model = tmp_path / "m.json"
        run("train", "--method", "gmdh-layered", "--data", str(xor_csv),
            "--out", str(model), "--seed", "21")
        doc = json.loads(model.read_text())
        assert doc["provenance"]["seed"] == 21
        assert len(doc["provenance"]["dataset_sha256"]) == 64
        assert doc["label_column"] == "y"


def _set_norm(doc, key, value):
    doc["normalization"][key] = value
    return doc


# Each turns a valid model document into one whose envelope is malformed.
MALFORMED_ENVELOPES = {
    "document is a list": lambda doc: [doc],
    "feature_names missing": lambda doc: {k: v for k, v in doc.items()
                                          if k != "feature_names"},
    "label_names missing": lambda doc: {k: v for k, v in doc.items() if k != "label_names"},
    "normalization missing": lambda doc: {k: v for k, v in doc.items()
                                          if k != "normalization"},
    "sd not numbers": lambda doc: _set_norm(doc, "sd", ["1", "1"]),
    "mean and sd shorter than features": lambda doc: _set_norm(
        _set_norm(doc, "mean", [0.0]), "sd", [1.0]),
    "mean longer than features": lambda doc: _set_norm(doc, "mean", [0.0, 0.0, 0.0]),
    "mean NaN": lambda doc: _set_norm(doc, "mean", [float("nan"), 0.0]),
    "mean too large for a float": lambda doc: _set_norm(doc, "mean", [10**400, 0.0]),
    "sd Infinity": lambda doc: _set_norm(doc, "sd", [float("inf"), 1.0]),
    "sd zero": lambda doc: _set_norm(doc, "sd", [0.0, 1.0]),
    "sd negative": lambda doc: _set_norm(doc, "sd", [1.0, -2.0]),
    "payload a list": lambda doc: {**doc, "payload": []},
    "feature_names repeated": lambda doc: {**doc, "feature_names": ["x1", "x1"]},
    "label_names repeated": lambda doc: {**doc, "label_names": ["0", "0"]},
    "label_column missing": lambda doc: {k: v for k, v in doc.items() if k != "label_column"},
    "label_column 5": lambda doc: {**doc, "label_column": 5},
    "label_column null": lambda doc: {**doc, "label_column": None},
    "label_column a list": lambda doc: {**doc, "label_column": ["y"]},
    "label_column a feature's name": lambda doc: {**doc, "label_column": "x1"},
}


def _set_root(doc, **changes):
    doc["payload"]["root"].update(changes)
    return doc


# Each turns a valid 2-feature, 2-class ruletree document into one whose
# payload does not fit its envelope.
MALFORMED_RULETREES = {
    "feature out of range": lambda doc: _set_root(doc, feature=9),
    "feature negative": lambda doc: _set_root(doc, feature=-1),
    "feature a float": lambda doc: _set_root(doc, feature=0.0),
    "threshold nan": lambda doc: _set_root(doc, threshold=float("nan")),
    "threshold a string": lambda doc: _set_root(doc, threshold="0.5"),
    "threshold beyond a float": lambda doc: _set_root(doc, threshold=10**400),
    "high_is_one a string": lambda doc: _set_root(doc, high_is_one="yes"),
    "leaf class 5": lambda doc: _set_root(doc, low={"class": 5}),
    "leaf class true": lambda doc: _set_root(doc, high={"class": True}),
    "child empty": lambda doc: _set_root(doc, high={}),
    "child missing": lambda doc: {**doc, "payload": {"root": {
        k: v for k, v in doc["payload"]["root"].items() if k != "low"}}},
    "root missing": lambda doc: {**doc, "payload": {}},
    "three label_names": lambda doc: {**doc, "label_names": ["0", "1", "2"]},
}


def _set_neuron(doc, k, **changes):
    doc["payload"]["neurons"][k].update(changes)
    return doc


def _set_payload(doc, **changes):
    doc["payload"].update(changes)
    return doc


# Each turns a valid 2-feature gmdh-roulette document, whose third and output
# neuron takes the first two as inputs, into one whose payload does not fit
# its envelope.
MALFORMED_GMDH = {
    "neurons missing": lambda doc: {**doc, "payload": {"output": 0, "layer_scores": []}},
    "neurons empty": lambda doc: _set_payload(doc, neurons=[]),
    "neuron a list": lambda doc: _set_payload(doc, neurons=[[]]),
    "output 999": lambda doc: _set_payload(doc, output=999),
    "output negative": lambda doc: _set_payload(doc, output=-1),
    "output a string": lambda doc: _set_payload(doc, output="2"),
    "input to a later neuron": lambda doc: _set_neuron(doc, 1, inputs=[["n", 2], ["x", 0]]),
    "input to itself": lambda doc: _set_neuron(doc, 2, inputs=[["n", 2], ["n", 0]]),
    "x index 99": lambda doc: _set_neuron(doc, 0, inputs=[["x", 99], ["x", 1]]),
    "x index negative": lambda doc: _set_neuron(doc, 0, inputs=[["x", -1], ["x", 1]]),
    "x index a float": lambda doc: _set_neuron(doc, 0, inputs=[["x", 0.0], ["x", 1]]),
    "input kind z": lambda doc: _set_neuron(doc, 0, inputs=[["z", 0], ["x", 1]]),
    "input not a pair": lambda doc: _set_neuron(doc, 0, inputs=[["x", 0, 1], ["x", 1]]),
    "inputs missing": lambda doc: _set_neuron(doc, 0, inputs=None),
    "three inputs": lambda doc: _set_neuron(doc, 0, inputs=[["x", 0], ["x", 1], ["x", 1]]),
    "kind unknown": lambda doc: _set_neuron(doc, 0, kind="cubic"),
    "kind missing": lambda doc: _set_neuron(doc, 0, kind=None),
    "three weights for bilinear": lambda doc: _set_neuron(doc, 0, weights=[0.5, 0.1, 0.2]),
    "weights not numbers": lambda doc: _set_neuron(doc, 0, weights=["1", 0.0, 0.0, 0.0]),
    "weight NaN": lambda doc: _set_neuron(doc, 0, weights=[float("nan"), 0.0, 0.0, 0.0]),
    "layer a string": lambda doc: _set_neuron(doc, 0, layer="1"),
    "layer zero": lambda doc: _set_neuron(doc, 0, layer=0),
    "survivor a number": lambda doc: _set_neuron(doc, 0, survivor=1),
    "layer_scores missing": lambda doc: {**doc, "payload": {
        k: v for k, v in doc["payload"].items() if k != "layer_scores"}},
    "layer score Infinity": lambda doc: _set_payload(doc, layer_scores=[float("inf")]),
}

# Each turns a valid 2-feature, 2-class lm document into one whose payload
# does not fit its envelope.
MALFORMED_LMS = {
    "weights missing": lambda doc: {**doc, "payload": {}},
    "one label name": lambda doc: {**doc, "label_names": ["0"]},
    "weights 2 x 2": lambda doc: {**doc, "payload": {"weights": [[1.0, 0.0], [0.0, 1.0]]}},
    "weights ragged": lambda doc: {**doc, "payload": {"weights": [[1.0, 0.0, 0.0], [0.0]]}},
    "weights not numbers": lambda doc: {**doc, "payload": {
        "weights": [["1", 0.0, 0.0], [0.0, 1.0, 0.0]]}},
    "weights a number": lambda doc: {**doc, "payload": {"weights": 1.0}},
    "weight beyond a float": lambda doc: {**doc, "payload": {
        "weights": [[10**400, 0.0, 0.0], [0.0, 1.0, 0.0]]}},
    "weight NaN": lambda doc: {**doc, "payload": {
        "weights": [[float("nan"), 0.0, 0.0], [0.0, 1.0, 0.0]]}},
}


def _without(doc, key):
    del doc["payload"][key]
    return doc


def _set_test(doc, k, **changes):
    doc["payload"]["tests"][k].update(changes)
    return doc


def _set_tests(doc, tests):
    doc["payload"]["tests"] = tests
    return doc


# Each turns a valid 2-feature, 3-class pairwise-dt document, with tests for
# the pairs 0/1, 0/2 and 1/2 in that order, into one whose payload does not
# fit its envelope.
MALFORMED_PAIRWISE = {
    "test without features": lambda doc: _set_test(doc, 0, features=[], weights=[0.5]),
    "tests missing": lambda doc: _without(doc, "tests"),
    "tests an object": lambda doc: _set_payload(doc, tests={}),
    "test a list": lambda doc: _set_tests(doc, [[]] + doc["payload"]["tests"][1:]),
    "a pair missing": lambda doc: _set_tests(doc, doc["payload"]["tests"][:2]),
    "a pair twice": lambda doc: _set_tests(doc, [doc["payload"]["tests"][0]] * 3),
    "an extra test": lambda doc: _set_tests(doc, doc["payload"]["tests"] * 2),
    "pair 1/0": lambda doc: _set_test(doc, 0, i=1, j=0),
    "pair 1/3": lambda doc: _set_test(doc, 2, j=3),
    "i a float": lambda doc: _set_test(doc, 0, i=0.0),
    "j null": lambda doc: _set_test(doc, 0, j=None),
    "classes 2": lambda doc: _set_payload(doc, classes=2),
    "classes a string": lambda doc: _set_payload(doc, classes="3"),
    "classes missing": lambda doc: _without(doc, "classes"),
    "features 0 and 99": lambda doc: _set_test(doc, 0, features=[0, 99],
                                               weights=[0.1, 0.2, 0.3]),
    "feature negative": lambda doc: _set_test(doc, 0, features=[-1], weights=[0.1, 0.2]),
    "feature a float": lambda doc: _set_test(doc, 0, features=[0.0], weights=[0.1, 0.2]),
    "features repeated": lambda doc: _set_test(doc, 0, features=[1, 1],
                                               weights=[0.1, 0.2, 0.3]),
    "features null": lambda doc: _set_test(doc, 0, features=None),
    "weights short": lambda doc: _set_test(doc, 0, features=[0, 1], weights=[0.1, 0.2]),
    "weight Infinity": lambda doc: _set_test(doc, 0, features=[0],
                                             weights=[float("inf"), 0.2]),
    "weights null": lambda doc: _set_test(doc, 1, weights=None),
    "accuracy a string": lambda doc: _set_test(doc, 0, accuracy="x"),
    "accuracy NaN": lambda doc: _set_test(doc, 2, accuracy=float("nan")),
    "accuracy null": lambda doc: _set_test(doc, 0, accuracy=None),
}


def _set_base_neuron(doc, **changes):
    doc["payload"]["base_neuron"].update(changes)
    return doc


# Each turns a valid 4-feature ecnn document (anchor 2; neuron 0 bound to
# x2 and x0, neuron 1 to x2, x3 and z0) into one whose payload does not fit
# its envelope.
MALFORMED_ECNN = {
    "anchor missing": lambda doc: _without(doc, "anchor"),
    "anchor 99": lambda doc: _set_payload(doc, anchor=99),
    "anchor a string": lambda doc: _set_payload(doc, anchor="2"),
    "neuron bound to a later z": lambda doc: _set_neuron(
        doc, 0, bindings=[["x", 2], ["z", 1]]),
    "neuron bound to itself": lambda doc: _set_neuron(
        doc, 1, bindings=[["x", 2], ["x", 3], ["z", 1]]),
    "neuron bound to x 99": lambda doc: _set_neuron(
        doc, 1, bindings=[["x", 2], ["x", 99], ["z", 0]]),
    "binding kind n": lambda doc: _set_neuron(doc, 0, bindings=[["x", 2], ["n", 0]]),
    "binding not a pair": lambda doc: _set_neuron(
        doc, 0, bindings=[["x", 2], ["x", 0, 1]]),
    "binding index a float": lambda doc: _set_neuron(
        doc, 0, bindings=[["x", 2], ["x", 0.0]]),
    "bindings empty": lambda doc: _set_neuron(doc, 0, bindings=[], weights=[0.1]),
    "weights short": lambda doc: _set_neuron(doc, 1, weights=[0.1, 0.2, 0.3]),
    "weight NaN": lambda doc: _set_neuron(doc, 0, weights=[float("nan"), 0.0, 0.0]),
    "weights missing": lambda doc: _set_neuron(doc, 0, weights=None),
    "neuron a list": lambda doc: _set_payload(doc, neurons=[[]]),
    "neurons missing": lambda doc: _without(doc, "neurons"),
    "base_neuron bound to x 99": lambda doc: _set_base_neuron(doc, bindings=[["x", 99]]),
    "base_neuron on another feature": lambda doc: _set_base_neuron(doc, bindings=[["x", 0]]),
    "base_neuron missing": lambda doc: _without(doc, "base_neuron"),
    "feature_order index 99": lambda doc: _set_payload(doc, feature_order=[2, 0, 3, 99]),
    "single_errors short": lambda doc: _set_payload(doc, single_errors=[0.1]),
    "accepted_features short": lambda doc: _set_payload(doc, accepted_features=[0]),
    "accepted feature 99": lambda doc: _set_payload(doc, accepted_features=[0, 99]),
    "accepted_scores strings": lambda doc: _set_payload(doc, accepted_scores=["0.1", "0.2"]),
    "base_score missing": lambda doc: _without(doc, "base_score"),
    "threshold 1.5": lambda doc: _set_payload(doc, threshold=1.5),
    "threshold missing": lambda doc: _without(doc, "threshold"),
    "three label_names": lambda doc: {**doc, "label_names": ["0", "1", "2"]},
}

# Each turns a valid 2-feature, 2-class fnn document with 4 hidden units
# into one whose payload does not fit its envelope.
MALFORMED_FNN = {
    "hidden_weights [[1.0]]": lambda doc: _set_payload(doc, hidden_weights=[[1.0]]),
    "hidden_weights missing": lambda doc: _without(doc, "hidden_weights"),
    "hidden_weights empty": lambda doc: _set_payload(doc, hidden_weights=[]),
    "hidden row ragged": lambda doc: _set_payload(
        doc, hidden_weights=doc["payload"]["hidden_weights"][:3] + [[0.1, 0.2]]),
    "hidden weight a string": lambda doc: _set_payload(
        doc, hidden_weights=[["1", 0.0, 0.0]] * 4),
    "hidden weight Infinity": lambda doc: _set_payload(
        doc, hidden_weights=[[float("inf"), 0.0, 0.0]] * 4),
    "output_weights two rows": lambda doc: _set_payload(
        doc, output_weights=doc["payload"]["output_weights"] * 2),
    "output row too short": lambda doc: _set_payload(doc, output_weights=[[0.1, 0.2]]),
    "output_weights missing": lambda doc: _without(doc, "output_weights"),
    "classes 3": lambda doc: _set_payload(doc, classes=3),
    "classes a string": lambda doc: _set_payload(doc, classes="2"),
    "threshold zero": lambda doc: _set_payload(doc, threshold=0),
    "threshold missing": lambda doc: _without(doc, "threshold"),
}


# Each sets a name that the error message repeats to one holding a newline:
# case -> (model fixture, data fixture, edit).
NEWLINE_NAMES = {
    "method": ("model", "xor_csv", lambda doc: {**doc, "method": "lm\nx"}),
    "gmdh kind": ("gmdh", "xor_csv", lambda doc: _set_neuron(doc, 0, kind="cubic\nx")),
    "gmdh input kind": ("gmdh", "xor_csv", lambda doc: _set_neuron(
        doc, 2, inputs=[["n\nx", 1], ["n", 0]])),
    "ecnn binding kind": ("ecnn", "eeg_csv", lambda doc: _set_neuron(
        doc, 1, bindings=[["x", 2], ["x", 3], ["z\nx", 0]])),
}


def _paths(node, prefix=()):
    """Key or index path of every value inside a JSON document."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


# replacement values: wrong types, out-of-range and non-finite numbers, and
# bindings to a later neuron
FUZZ_VALUES = st.one_of(
    st.integers(-3, 100),
    st.sampled_from([None, "1", True, 0.5, 1.5, -0.0, 10**400, float("nan"), float("inf"),
                     [], {}, ["z", 1], ["z", 5], ["x", 99], [["x", 0]], [["z", 0]], [[1.0]],
                     [1.0, 2.0]]),
)


@st.composite
def mutated_documents(draw, doc):
    """The document with one to three values dropped or replaced."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        # half the edits land in the payload
        in_payload = [p for p in paths if p[0] == "payload" and len(p) > 1]
        path = draw(st.sampled_from(in_payload if in_payload and draw(st.booleans())
                                    else paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(draw(FUZZ_VALUES))
    return doc


def nested_ruletree(depth):
    """The text of a 2-feature ruletree model file whose nodes nest `depth`
    deep through their low sides; json.dumps cannot write so deep a
    document."""
    node = '{"feature": 0, "threshold": 0.5, "high_is_one": true, "high": {"class": 1}, "low": '
    return ('{"format_version": 1, "method": "ruletree", "feature_names": ["x1", "x2"], '
            '"label_names": ["0", "1"], "label_column": "y", "provenance": {}, '
            '"normalization": {"mean": [0.0, 0.0], "sd": [1.0, 1.0]}, '
            '"payload": {"root": ' + node * depth + '{"class": 0}' + "}" * depth + "}}")


# method -> (fixture of a trained model file, fixture of data it evaluates)
FUZZED_MODELS = {
    "ecnn": ("ecnn", "eeg_csv"),
    "fnn": ("fnn", "xor_csv"),
    "lm": ("model", "xor_csv"),
    "ruletree": ("ruletree", "xor_csv"),
    "pairwise-dt": ("pairwise", "blob_csv"),
    "gmdh-roulette": ("gmdh", "xor_csv"),
    "gmdh-layered": ("gmdh_layered", "xor_csv"),
}


class TestMalformedModelFile:
    """A model file whose envelope or payload cannot be read exits 2 with one
    line."""

    @pytest.fixture
    def model(self, xor_csv, tmp_path, capsys):
        path = tmp_path / "m.json"
        assert run("train", "--method", "lm", "--epochs", "40", "--data", str(xor_csv),
                   "--out", str(path)) == 0
        capsys.readouterr()
        return path

    @pytest.fixture
    def ruletree(self, xor_csv, tmp_path, capsys):
        path = tmp_path / "rules.json"
        assert run("train", "--method", "ruletree", "--data", str(xor_csv),
                   "--out", str(path)) == 0
        capsys.readouterr()
        return path

    @pytest.fixture
    def pairwise(self, blob_csv, tmp_path, capsys):
        path = tmp_path / "pairwise.json"
        assert run("train", "--method", "pairwise-dt", "--attempts", "3", "--test-epochs",
                   "8", "--data", str(blob_csv), "--out", str(path)) == 0
        capsys.readouterr()
        tests = json.loads(path.read_text())["payload"]["tests"]
        assert [(t["i"], t["j"]) for t in tests] == [(0, 1), (0, 2), (1, 2)]
        return path

    @pytest.fixture
    def gmdh(self, xor_csv, tmp_path, capsys):
        path = tmp_path / "gmdh.json"
        assert run("train", "--method", "gmdh-roulette", "--fit-method", "least-squares",
                   "--attempts", "20", "--data", str(xor_csv), "--out", str(path)) == 0
        capsys.readouterr()
        assert json.loads(path.read_text())["payload"]["neurons"][2]["inputs"] == \
            [["n", 1], ["n", 0]]
        return path

    @pytest.fixture
    def gmdh_layered(self, xor_csv, tmp_path, capsys):
        path = tmp_path / "gmdh-layered.json"
        assert run("train", "--method", "gmdh-layered", "--fit-method", "least-squares",
                   "--data", str(xor_csv), "--out", str(path)) == 0
        capsys.readouterr()
        return path

    @pytest.fixture
    def eeg_csv(self, tmp_path):
        path = tmp_path / "eeg.csv"
        assert run("generate", "surrogate-eeg", "--n", "240", "--relevant", "3",
                   "--irrelevant", "1", "--separation", "1.5", "--seed", "4",
                   "--out", str(path)) == 0
        return path

    @pytest.fixture
    def ecnn(self, eeg_csv, tmp_path, capsys):
        path = tmp_path / "ecnn.json"
        assert run("train", "--method", "ecnn", "--epochs", "60", "--restarts", "2",
                   "--data", str(eeg_csv), "--out", str(path)) == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())["payload"]
        assert payload["anchor"] == 2
        assert [n["bindings"] for n in payload["neurons"]] == \
            [[["x", 2], ["x", 0]], [["x", 2], ["x", 3], ["z", 0]]]
        return path

    @pytest.fixture
    def fnn(self, xor_csv, tmp_path, capsys):
        path = tmp_path / "fnn.json"
        assert run("train", "--method", "fnn", "--epochs", "50", "--restarts", "1",
                   "--data", str(xor_csv), "--out", str(path)) == 0
        capsys.readouterr()
        return path

    def assert_rejected(self, verb, doc, data, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(*self.verb_argv(verb, bad, data, tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {bad}: ") and err.count("\n") == 1, err

    @staticmethod
    def verb_argv(verb, model, data, tmp_path):
        if verb == "evaluate":
            return ("evaluate", "--model", str(model), "--data", str(data))
        if verb == "export":
            return ("export", "--model", str(model), "--format", "text")
        return ("extract-rules", "--model", str(model), "--data", str(data),
                "--out", str(tmp_path / "rules.json"))

    @pytest.mark.parametrize("verb", ["evaluate", "export", "extract-rules"])
    @pytest.mark.parametrize("fault", list(MALFORMED_ENVELOPES))
    def test_malformed_envelope_exits_2(self, fault, verb, model, xor_csv, tmp_path,
                                        capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(MALFORMED_ENVELOPES[fault](json.loads(model.read_text()))))
        assert run(*self.verb_argv(verb, bad, xor_csv, tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {bad}: ") and err.count("\n") == 1, err
        if fault.startswith("label_column"):   # the model file is blamed, not the data
            assert err.startswith(f"data error: {bad}: label_column "), err

    # extract-rules refuses a ruletree whatever its payload, so it is not a case here
    @pytest.mark.parametrize("verb", ["evaluate", "export"])
    @pytest.mark.parametrize("fault", list(MALFORMED_RULETREES))
    def test_malformed_ruletree_payload_exits_2(self, fault, verb, ruletree, xor_csv,
                                                tmp_path, capsys):
        doc = MALFORMED_RULETREES[fault](json.loads(ruletree.read_text()))
        self.assert_rejected(verb, doc, xor_csv, tmp_path, capsys)

    @pytest.mark.parametrize("verb", ["evaluate", "export", "extract-rules"])
    @pytest.mark.parametrize("fault", list(MALFORMED_LMS))
    def test_malformed_lm_payload_exits_2(self, fault, verb, model, xor_csv, tmp_path,
                                          capsys):
        doc = MALFORMED_LMS[fault](json.loads(model.read_text()))
        self.assert_rejected(verb, doc, xor_csv, tmp_path, capsys)

    @pytest.mark.parametrize("verb", ["evaluate", "export", "extract-rules"])
    @pytest.mark.parametrize("fault", list(MALFORMED_PAIRWISE))
    def test_malformed_pairwise_payload_exits_2(self, fault, verb, pairwise, blob_csv,
                                                tmp_path, capsys):
        doc = MALFORMED_PAIRWISE[fault](json.loads(pairwise.read_text()))
        self.assert_rejected(verb, doc, blob_csv, tmp_path, capsys)

    @pytest.mark.parametrize("verb", ["evaluate", "export", "extract-rules"])
    @pytest.mark.parametrize("fault", list(MALFORMED_GMDH))
    def test_malformed_gmdh_payload_exits_2(self, fault, verb, gmdh, xor_csv, tmp_path,
                                            capsys):
        doc = MALFORMED_GMDH[fault](json.loads(gmdh.read_text()))
        self.assert_rejected(verb, doc, xor_csv, tmp_path, capsys)

    @pytest.mark.parametrize("verb", ["evaluate", "export", "extract-rules"])
    @pytest.mark.parametrize("fault", list(MALFORMED_ECNN))
    def test_malformed_ecnn_payload_exits_2(self, fault, verb, ecnn, eeg_csv, tmp_path,
                                            capsys):
        doc = MALFORMED_ECNN[fault](json.loads(ecnn.read_text()))
        self.assert_rejected(verb, doc, eeg_csv, tmp_path, capsys)

    @pytest.mark.parametrize("verb", ["evaluate", "export", "extract-rules"])
    @pytest.mark.parametrize("fault", list(MALFORMED_FNN))
    def test_malformed_fnn_payload_exits_2(self, fault, verb, fnn, xor_csv, tmp_path,
                                           capsys):
        doc = MALFORMED_FNN[fault](json.loads(fnn.read_text()))
        self.assert_rejected(verb, doc, xor_csv, tmp_path, capsys)

    def test_fnn_hidden_weights_error_names_the_field(self, fnn, xor_csv, tmp_path, capsys):
        doc = MALFORMED_FNN["hidden_weights [[1.0]]"](json.loads(fnn.read_text()))
        self.assert_rejected("evaluate", doc, xor_csv, tmp_path, capsys)
        bad = tmp_path / "bad.json"
        run(*self.verb_argv("evaluate", bad, xor_csv, tmp_path))
        assert "fnn hidden_weights must be" in capsys.readouterr().err

    @pytest.mark.parametrize("case", list(NEWLINE_NAMES))
    def test_name_with_a_newline_is_quoted(self, case, request, tmp_path, capsys):
        fixture, data, edit = NEWLINE_NAMES[case]
        doc = edit(json.loads(request.getfixturevalue(fixture).read_text()))
        self.assert_rejected("evaluate", doc, request.getfixturevalue(data), tmp_path, capsys)

    def test_nested_ruletree_text_is_a_model(self, xor_csv, tmp_path, capsys):
        model = tmp_path / "nested.json"
        model.write_text(nested_ruletree(40))
        assert load_model(model).model.root.low_child.low_child.feature == 0
        assert run(*self.verb_argv("evaluate", model, xor_csv, tmp_path)) == 0

    # nesting this deep exceeds the interpreter's recursion limit while parsing
    @pytest.mark.parametrize("verb", ["evaluate", "export", "extract-rules"])
    @pytest.mark.parametrize("depth", [995, 5000])
    def test_deeply_nested_model_exits_2(self, depth, verb, xor_csv, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(nested_ruletree(depth))
        assert run(*self.verb_argv(verb, bad, xor_csv, tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {bad}: not valid JSON (") and err.count("\n") == 1

    @pytest.mark.parametrize("verb", ["evaluate", "export", "extract-rules"])
    def test_integer_too_long_to_convert_exits_2(self, verb, model, xor_csv, tmp_path,
                                                 capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(model.read_text().replace('"provenance": {',
                                                 '"provenance": {"n": ' + "1" * 5000 + ", "))
        assert run(*self.verb_argv(verb, bad, xor_csv, tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {bad}: not valid JSON (") and err.count("\n") == 1

    def test_ecnn_feature_pool_comes_from_the_bindings(self, ecnn, eeg_csv, tmp_path):
        """extract-rules splits on the columns the neurons bind (x2, x0 and
        x3 here), whatever the file's accepted_features record says."""
        doc = json.loads(ecnn.read_text())
        assert doc["payload"]["accepted_features"] == [0, 3]
        doc["payload"]["accepted_features"] = [3, 3]
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc))
        pools = []
        for model in (ecnn, edited):
            rules = tmp_path / "rules.json"
            assert run(*self.verb_argv("extract-rules", model, eeg_csv, tmp_path)) == 0
            pools.append(json.loads(rules.read_text())["provenance"]["feature_pool"])
        assert pools == [[2, 0, 3], [2, 0, 3]]

    @pytest.mark.parametrize("method", list(FUZZED_MODELS))
    def test_mutated_model_files_exit_0_or_2(self, method, request, tmp_path, capsys):
        """Dropped keys, swapped types, out-of-range ints and bindings to later
        neurons give exit 0, or 2 with one line and no traceback, from
        evaluate and export; extract-rules may also refuse a valid model
        with a one-line training error (exit 3)."""
        model_fixture, data_fixture = FUZZED_MODELS[method]
        model = request.getfixturevalue(model_fixture)
        data = request.getfixturevalue(data_fixture)
        assert json.loads(model.read_text())["method"] == method
        valid = json.loads(model.read_text())
        bad = tmp_path / "bad.json"

        @given(doc=mutated_documents(valid),
               verb=st.sampled_from(["evaluate", "export", "extract-rules"]))
        @settings(max_examples=150, deadline=None, database=None,
                  suppress_health_check=[HealthCheck.too_slow])
        def probe(doc, verb):
            bad.write_text(json.dumps(doc))
            capsys.readouterr()
            code = run(*self.verb_argv(verb, bad, data, tmp_path))
            err = capsys.readouterr().err
            assert "Traceback" not in err
            if code == 0:
                assert err == ""
            elif code == 3 and verb == "extract-rules":
                assert err.startswith("training error: ") and err.count("\n") == 1, err
            else:
                assert code == 2 and err.startswith("data error: "), (code, err)
                assert err.count("\n") == 1, err

        probe()

    def test_normalization_overflow_rejected_by_extract_rules(self, model, xor_csv,
                                                              tmp_path, capsys):
        # a tiny sd scales every nonzero x1 to +-inf; the reader refuses the rows
        doc = _set_norm(json.loads(model.read_text()), "sd", [1e-320, 1.0])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(*self.verb_argv("extract-rules", bad, xor_csv, tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {bad}: its normalization overflows on {xor_csv}")
        assert err.count("\n") == 1, err
        assert not (tmp_path / "rules.json").exists()

    def test_normalization_overflow_rejected_by_evaluate(self, model, xor_csv, tmp_path,
                                                         capsys):
        # the file loads (the sd is positive and finite), but z-scoring overflows
        doc = _set_norm(json.loads(model.read_text()), "sd", [1e-320, 1.0])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert load_model(bad).norm.sd[0] == 1e-320
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(*self.verb_argv("evaluate", bad, xor_csv, tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {bad}: its normalization overflows on {xor_csv}")
        assert err.count("\n") == 1, err

    @pytest.mark.parametrize("verb", ["evaluate", "export", "extract-rules"])
    def test_non_utf8_model_exits_2(self, verb, model, xor_csv, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(model.read_bytes().replace(b'"y"', b'"\xe9"'))
        assert run(*self.verb_argv(verb, bad, xor_csv, tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {bad}: not valid JSON") and err.count("\n") == 1
