"""Command-line surface: generation, training, evaluation, export, rules."""

import json
import warnings

import numpy as np
import pytest

from evonets.cli import main
from evonets.dataset import Dataset, save_csv
from evonets.linear import LinearMachine
from evonets.modelio import ModelBundle, load_model, save_model
from evonets.dataset import NormParams


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

    def test_unwritable_path_exits_2(self, tmp_path, capsys):
        code = run("generate", "xor", "--n", "10", "--seed", "0",
                   "--out", str(tmp_path / "no" / "such" / "dir" / "x.csv"))
        assert code == 2
        assert "data error" in capsys.readouterr().err


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
        from evonets.dataset import load_csv
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
        ds = load_csv(xor_csv, "y", label_order=bundle.label_names)
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
        from evonets.dataset import load_csv
        model = tmp_path / "m.json"
        run("train", "--method", "gmdh-layered", "--data", str(xor_csv),
            "--out", str(model), "--seed", "2")
        capsys.readouterr()
        bundle = load_model(model)
        ds = load_csv(xor_csv, "y", label_order=bundle.label_names)
        via_bundle = bundle.predict_csv_features(ds.features)
        manual = bundle.model.predict_classes(bundle.norm.apply(ds.features))
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
        assert printed == to_polynomial_text(load_model(model).model)

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

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("verb", ["train", "evaluate", "extract-rules"])
    def test_error_names_the_physical_line(self, verb, newline, model, tmp_path, capsys):
        # the quoted label spans lines 2-3, so the bad cell sits on line 6
        data = tmp_path / "multiline.csv"
        data.write_bytes(newline.join(["x1,x2,y", '0.5,0.25,"1', '"', "-0.5,0.25,0", "",
                                       "oops,0.2,1", ""]).encode())
        assert run(*self.verb_argv(verb, data, model, tmp_path)) == 2
        self.assert_one_line_data_error(capsys, "line 6, column 'x1': non-numeric value 'oops'")


class TestModelFile:
    def test_unknown_format_version_rejected(self, xor_csv, tmp_path):
        model = tmp_path / "m.json"
        run("train", "--method", "gmdh-layered", "--data", str(xor_csv),
            "--out", str(model), "--seed", "2")
        doc = json.loads(model.read_text())
        doc["format_version"] = 99
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
    "payload a list": lambda doc: {**doc, "payload": []},
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

    def test_normalization_overflow_rejected_by_extract_rules(self, model, xor_csv,
                                                              tmp_path, capsys):
        # a tiny sd scales every nonzero x1 to +-inf, which reaches the threshold search
        doc = _set_norm(json.loads(model.read_text()), "sd", [1e-320, 1.0])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(*self.verb_argv("extract-rules", bad, xor_csv, tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: threshold search needs finite values")
        assert err.count("\n") == 1, err
        assert not (tmp_path / "rules.json").exists()

    @pytest.mark.parametrize("verb", ["evaluate", "export", "extract-rules"])
    def test_non_utf8_model_exits_2(self, verb, model, xor_csv, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(model.read_bytes().replace(b'"y"', b'"\xe9"'))
        assert run(*self.verb_argv(verb, bad, xor_csv, tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {bad}: not valid JSON") and err.count("\n") == 1
