"""Model persistence: lossless JSON round trips for every family."""

import json

import numpy as np
import pytest

from evonets.baseline import FnnModel
from evonets.cascade import CascadeNetwork
from evonets.dataset import NormParams
from evonets.errors import DataError
from evonets.gmdh import PolyNetwork, SupportingNeuron
from evonets.linear import LinearMachine, LinearTest, PairwiseTree
from evonets.modelio import ModelBundle, load_model, save_model
from evonets.neuron import SigmoidNeuron
from evonets.ruletree import RuleNode, RuleTree

NORM2 = NormParams(np.array([0.25, -1.5]), np.array([1.1, 0.7]))


def round_trip(tmp_path, bundle, width):
    path = tmp_path / "model.json"
    save_model(path, bundle)
    loaded = load_model(path)
    rng = np.random.default_rng(99)
    X = rng.uniform(-2, 2, size=(64, width))
    np.testing.assert_array_equal(bundle.predict_csv_features(X),
                                  loaded.predict_csv_features(X))
    again = tmp_path / "again.json"
    save_model(again, loaded)
    assert path.read_bytes() == again.read_bytes()
    return loaded


class TestRoundTrips:
    def test_cascade_with_accepted_neurons(self, tmp_path):
        base = SigmoidNeuron((("x", 0),), [0.1, 1.3])
        n1 = SigmoidNeuron((("x", 0), ("x", 1)), [0.5, -2.0, 1.7])
        n2 = SigmoidNeuron((("x", 0), ("x", 1), ("z", 0)), [0.0, 0.3, -0.6, 2.2])
        net = CascadeNetwork(0, (0, 1), (0.3, 0.4), base, 0.3, [n1, n2],
                             [1, 1], [0.2, 0.1])
        bundle = ModelBundle("ecnn", net, NORM2, ("a", "b"), ("no", "yes"))
        loaded = round_trip(tmp_path, bundle, 2)
        assert loaded.model.accepted_scores == [0.2, 0.1]

    def test_cascade_fallback_without_accepted_neurons(self, tmp_path):
        base = SigmoidNeuron((("x", 1),), [-0.4, 2.5])
        net = CascadeNetwork(1, (1, 0), (0.2, 0.5), base, 0.2)
        bundle = ModelBundle("ecnn", net, NORM2, ("a", "b"), ("0", "1"))
        loaded = round_trip(tmp_path, bundle, 2)
        assert loaded.model.neurons == []

    def test_polynomial_network_with_single_input_output(self, tmp_path):
        # a roulette run can end on a one-input neuron
        nrn = SupportingNeuron("linear", (("x", 1),), [0.2, -0.9], layer=1)
        net = PolyNetwork([nrn], 0, [])
        bundle = ModelBundle("gmdh-roulette", net, NORM2, ("a", "b"), ("0", "1"))
        loaded = round_trip(tmp_path, bundle, 2)
        assert loaded.model.neurons[0].kind == "linear"

    def test_linear_machine(self, tmp_path):
        lm = LinearMachine(np.array([[0.1, -2.0, 0.5], [0.0, 1.0, -1.0],
                                     [-0.3, 0.2, 2.0]]))
        bundle = ModelBundle("lm", lm, NORM2, ("a", "b"), ("x", "y", "z"))
        round_trip(tmp_path, bundle, 2)

    def test_pairwise_tree(self, tmp_path):
        tlus = {
            (0, 1): LinearTest((0,), [0.5, 1.0], 0.9),
            (0, 2): LinearTest((1,), [-0.5, 2.0], 0.8),
            (1, 2): LinearTest((0, 1), [0.0, 1.0, -1.0], 0.7),
        }
        tree = PairwiseTree(3, tlus)
        bundle = ModelBundle("pairwise-dt", tree, NORM2, ("a", "b"),
                             ("p", "q", "r"))
        loaded = round_trip(tmp_path, bundle, 2)
        assert loaded.model.tlus[(1, 2)].features == (0, 1)

    def test_rule_tree_nested(self, tmp_path):
        inner = RuleNode(1, 0.25, False, low_label=1, high_label=0)
        root = RuleNode(0, -0.75, True, low_child=inner, high_label=1)
        tree = RuleTree(root)
        bundle = ModelBundle("ruletree", tree, NORM2, ("a", "b"), ("0", "1"))
        loaded = round_trip(tmp_path, bundle, 2)
        assert loaded.model.root.low_child.feature == 1

    def test_fnn(self, tmp_path):
        rng = np.random.default_rng(5)
        model = FnnModel(rng.normal(size=(3, 3)), rng.normal(size=(1, 4)), 2)
        bundle = ModelBundle("fnn", model, NORM2, ("a", "b"), ("0", "1"))
        round_trip(tmp_path, bundle, 2)


class TestValidation:
    def test_unknown_method_rejected_on_save(self, tmp_path):
        bundle = ModelBundle("mystery", object(), NORM2, ("a", "b"), ("0", "1"))
        with pytest.raises(DataError):
            save_model(tmp_path / "m.json", bundle)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="missing model file"):
            load_model(tmp_path / "nope.json")

    def test_truncated_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"format_version": 1, "method"')
        with pytest.raises(DataError, match="not valid JSON"):
            load_model(p)

    def test_wrong_version(self, tmp_path):
        lm = LinearMachine(np.zeros((2, 3)))
        bundle = ModelBundle("lm", lm, NORM2, ("a", "b"), ("0", "1"))
        p = tmp_path / "m.json"
        save_model(p, bundle)
        doc = json.loads(p.read_text())
        doc["format_version"] = 2
        p.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="format_version"):
            load_model(p)

    @pytest.mark.parametrize("keys, value, field", [
        (("payload", "root", "threshold"), 10**400, "ruletree node threshold"),
        (("payload", "root", "threshold"), 10**3999, "ruletree node threshold"),
        (("payload", "root", "feature"), 10**3999, "ruletree node feature"),
        (("payload", "root", "low", "class"), -10**3999, "ruletree leaf class"),
        (("format_version",), 10**3999, "unsupported format_version"),
    ], ids=["threshold 10**400", "threshold of 4000 digits", "feature of 4000 digits",
            "leaf class of 4000 digits", "format_version of 4000 digits"])
    def test_huge_value_is_cut_in_the_error(self, tmp_path, monkeypatch, keys, value, field):
        """A value far beyond its field's range (4000 digits stay under
        Python's integer conversion limit) gives a one-line error of under
        200 characters that still names the field."""
        monkeypatch.chdir(tmp_path)
        tree = RuleTree(RuleNode(0, -0.75, True, low_label=0, high_label=1))
        save_model("m.json", ModelBundle("ruletree", tree, NORM2, ("a", "b"), ("0", "1")))
        doc = json.loads((tmp_path / "m.json").read_text())
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(DataError) as info:
            load_model("m.json")
        message = str(info.value)
        assert message.startswith(f"m.json: {field} ") and "\n" not in message
        assert len(message) < 200, message

    @staticmethod
    def cascade_bundle():
        base = SigmoidNeuron((("x", 0),), [0.1, 1.3])
        n1 = SigmoidNeuron((("x", 0), ("x", 1)), [0.5, -2.0, 1.7])
        n2 = SigmoidNeuron((("x", 0), ("x", 1), ("z", 0)), [0.0, 0.3, -0.6, 2.2])
        net = CascadeNetwork(0, (0, 1), (0.3, 0.4), base, 0.3, [n1, n2], [1, 1], [0.2, 0.1])
        return ModelBundle("ecnn", net, NORM2, ("a", "b"), ("0", "1"))

    @staticmethod
    def gmdh_bundle():
        net = PolyNetwork([SupportingNeuron("linear", (("x", 1),), [0.2, -0.9])], 0, [])
        return ModelBundle("gmdh-roulette", net, NORM2, ("a", "b"), ("0", "1"))

    @staticmethod
    def pairwise_bundle():
        tlus = {(0, 1): LinearTest((0,), [0.5, 1.0], 0.9),
                (0, 2): LinearTest((1,), [-0.5, 2.0], 0.8),
                (1, 2): LinearTest((0, 1), [0.0, 1.0, -1.0], 0.7)}
        return ModelBundle("pairwise-dt", PairwiseTree(3, tlus), NORM2, ("a", "b"),
                           ("p", "q", "r"))

    @pytest.mark.parametrize("make, keys, value, field", [
        ("gmdh_bundle", ("payload", "neurons", 0, "kind"), "k" * 5000,
         "gmdh neuron 0: unknown neuron kind"),
        ("cascade_bundle", ("payload", "neurons", 1, "bindings", 2, 0), "k" * 5000,
         "ecnn neuron 1: unknown binding kind"),
        ("pairwise_bundle", ("payload", "tests", 0, "i"), 10**3999,
         "pairwise-dt tests: need one pairwise unit per class pair"),
    ], ids=["gmdh kind of 5000 characters", "binding kind of 5000 characters",
            "pair index of 4000 digits"])
    def test_huge_value_is_cut_in_a_model_class_error(self, tmp_path, monkeypatch, make, keys,
                                                      value, field):
        """The model classes' own checks echo a value as the field readers do:
        cut, in one line of under 200 characters that names the field."""
        monkeypatch.chdir(tmp_path)
        save_model("m.json", getattr(self, make)())
        doc = json.loads((tmp_path / "m.json").read_text())
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(DataError) as info:
            load_model("m.json")
        message = str(info.value)
        assert message.startswith(f"m.json: {field}") and "\n" not in message, message
        assert len(message) < 200, message

    def test_weights_survive_with_full_precision(self, tmp_path):
        w = [[0.1 + 1e-17, -2.0 / 3.0, np.pi], [1e-300, -1e300, 0.1234567890123456789]]
        lm = LinearMachine(np.array(w))
        bundle = ModelBundle("lm", lm, NORM2, ("a", "b"), ("0", "1"))
        p = tmp_path / "m.json"
        save_model(p, bundle)
        loaded = load_model(p)
        np.testing.assert_array_equal(loaded.model.weights, lm.weights)
