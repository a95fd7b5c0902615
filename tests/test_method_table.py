"""The per-method table in `modelio` against the dispatch it replaced.

`oracle_payload`, `oracle_restore`, `oracle_render` and `oracle_feature_pool`
are the former `modelio._payload`, `modelio._restore`, the text and dot
chains of `cli.cmd_export` and the feature-pool chain of
`cli.cmd_extract_rules`, kept verbatim as the reference (apart from their
names and the function wrapped around each chain). `_decode_rule_node` is
the rule-node decoder `oracle_restore` called, from before the decoders
checked their payloads. The table only moves that code, so payloads,
renderings and pools must be equal.

The second half guards the trainer table: every method has one trainer, and
each trainer calls its learner through the name bound in `evonets.cli`, so a
wrapper installed on that name sees the call.
"""

import json

import numpy as np
import pytest

import evonets.cli as cli
from evonets.baseline import FnnModel
from evonets.cascade import CascadeNetwork, cascade_to_dot, describe_cascade
from evonets.cli import main
from evonets.errors import DataError, UsageError
from evonets.gmdh import PolyNetwork, SupportingNeuron, gmdh_to_dot, to_polynomial_text
from evonets.linear import LinearMachine, LinearTest, PairwiseTree
from evonets.modelio import (METHODS, _decode_sigmoid_neuron, _encode_rule_node,
                             _encode_sigmoid_neuron, _floats, _matrix, load_model)
from evonets.ruletree import RuleNode, RuleTree, ruletree_to_dot, to_text


def oracle_payload(method, model):
    if method == "ecnn":
        return {
            "anchor": model.anchor,
            "feature_order": list(model.feature_order),
            "single_errors": _floats(model.single_errors),
            "base_neuron": _encode_sigmoid_neuron(model.base_neuron),
            "base_score": float(model.base_score),
            "neurons": [_encode_sigmoid_neuron(n) for n in model.neurons],
            "accepted_features": list(model.accepted_features),
            "accepted_scores": _floats(model.accepted_scores),
            "threshold": float(model.threshold),
        }
    if method in ("gmdh-layered", "gmdh-roulette"):
        return {
            "neurons": [{
                "kind": n.kind,
                "inputs": [[t, r] for t, r in n.inputs],
                "weights": _floats(n.weights),
                "layer": n.layer,
                "survivor": bool(n.survivor),
            } for n in model.neurons],
            "output": model.output,
            "layer_scores": _floats(model.layer_scores),
        }
    if method == "lm":
        return {"weights": _matrix(model.weights)}
    if method == "pairwise-dt":
        return {
            "classes": model.class_count,
            "tests": [{
                "i": i, "j": j,
                "features": list(model.tlus[(i, j)].features),
                "weights": _floats(model.tlus[(i, j)].weights),
                "accuracy": float(model.tlus[(i, j)].accuracy),
            } for (i, j) in sorted(model.tlus)],
        }
    if method == "ruletree":
        return {"root": _encode_rule_node(model.root)}
    if method == "fnn":
        return {
            "hidden_weights": _matrix(model.hidden_weights),
            "output_weights": _matrix(model.output_weights),
            "classes": model.class_count,
            "threshold": float(model.threshold),
        }
    raise DataError(f"unknown method '{method}'")


def _decode_rule_node(d):
    node = RuleNode(int(d["feature"]), float(d["threshold"]), bool(d["high_is_one"]))
    if "class" in d["low"]:
        node.low_label = int(d["low"]["class"])
    else:
        node.low_child = _decode_rule_node(d["low"])
    if "class" in d["high"]:
        node.high_label = int(d["high"]["class"])
    else:
        node.high_child = _decode_rule_node(d["high"])
    return node


def oracle_restore(method, payload, feature_names):
    if method == "ecnn":
        return CascadeNetwork(
            anchor=int(payload["anchor"]),
            feature_order=tuple(payload["feature_order"]),
            single_errors=tuple(payload["single_errors"]),
            base_neuron=_decode_sigmoid_neuron(payload["base_neuron"]),
            base_score=float(payload["base_score"]),
            neurons=[_decode_sigmoid_neuron(d) for d in payload["neurons"]],
            accepted_features=[int(f) for f in payload["accepted_features"]],
            accepted_scores=[float(s) for s in payload["accepted_scores"]],
            threshold=float(payload["threshold"]),
            feature_names=feature_names,
        )
    if method in ("gmdh-layered", "gmdh-roulette"):
        neurons = []
        for d in payload["neurons"]:
            neurons.append(SupportingNeuron(
                d["kind"], tuple((t, r) for t, r in d["inputs"]),
                np.array(d["weights"]), int(d["layer"]), bool(d["survivor"])))
        return PolyNetwork(neurons, int(payload["output"]),
                           [float(s) for s in payload["layer_scores"]], feature_names)
    if method == "lm":
        return LinearMachine(np.array(payload["weights"]))
    if method == "pairwise-dt":
        tlus = {}
        for t in payload["tests"]:
            tlus[(int(t["i"]), int(t["j"]))] = LinearTest(
                tuple(t["features"]), np.array(t["weights"]), float(t["accuracy"]))
        return PairwiseTree(int(payload["classes"]), tlus, feature_names)
    if method == "ruletree":
        return RuleTree(_decode_rule_node(payload["root"]), feature_names)
    if method == "fnn":
        return FnnModel(np.array(payload["hidden_weights"]),
                        np.array(payload["output_weights"]),
                        int(payload["classes"]), float(payload["threshold"]))
    raise DataError(f"unknown method '{method}'")


def oracle_render(bundle, fmt):
    model, method = bundle.model, bundle.method
    if fmt == "text":
        if method == "ecnn":
            out = describe_cascade(model)
        elif method in ("gmdh-layered", "gmdh-roulette"):
            out = to_polynomial_text(model)
        elif method == "lm":
            lines = []
            for k, w in enumerate(model.weights):
                terms = ", ".join([f"bias={w[0]:.4f}"] +
                                  [f"{bundle.feature_names[i]}={w[i + 1]:.4f}"
                                   for i in range(len(w) - 1)])
                lines.append(f"g_{bundle.label_names[k]}: {terms}")
            out = "\n".join(lines)
        elif method == "pairwise-dt":
            lines = []
            for (i, j) in sorted(model.tlus):
                t = model.tlus[(i, j)]
                feats = ", ".join(bundle.feature_names[f] for f in t.features)
                ws = ", ".join(f"{v:.4f}" for v in t.weights)
                lines.append(f"f_{bundle.label_names[i]}/{bundle.label_names[j]}: "
                             f"features [{feats}] weights [{ws}] "
                             f"accuracy {t.accuracy:.4f}")
            out = "\n".join(lines)
        elif method == "ruletree":
            out = to_text(model, bundle.label_names)
        else:  # fnn: plain weight dump, there is no compact closed form
            lines = [f"hidden[{k}]: " + " ".join(f"{v!r}" for v in row)
                     for k, row in enumerate(model.hidden_weights)]
            lines += [f"output[{k}]: " + " ".join(f"{v!r}" for v in row)
                      for k, row in enumerate(model.output_weights)]
            out = "\n".join(lines)
    else:
        if method == "ecnn":
            out = cascade_to_dot(model)
        elif method in ("gmdh-layered", "gmdh-roulette"):
            out = gmdh_to_dot(model)
        elif method == "ruletree":
            out = ruletree_to_dot(model, bundle.label_names)
        elif method == "lm":
            lines = ["digraph linmachine {", "  rankdir=LR;"]
            for i, name in enumerate(bundle.feature_names):
                lines.append(f'  "x{i}" [label="{name}", shape=box];')
            for k in range(model.class_count):
                lines.append(f'  "g{k}" [label="g_{bundle.label_names[k]}"];')
                for i in range(len(bundle.feature_names)):
                    lines.append(f'  "x{i}" -> "g{k}";')
            lines.append("}")
            out = "\n".join(lines)
        elif method == "pairwise-dt":
            lines = ["digraph pairwise {", "  rankdir=LR;"]
            for (i, j) in sorted(model.tlus):
                lines.append(f'  "f{i}_{j}" [label="f_{i}/{j}", shape=box];')
            for k in range(model.class_count):
                lines.append(f'  "g{k}" [label="g_{bundle.label_names[k]}"];')
            for (i, j) in sorted(model.tlus):
                lines.append(f'  "f{i}_{j}" -> "g{i}" [label="+1"];')
                lines.append(f'  "f{i}_{j}" -> "g{j}" [label="-1"];')
            lines.append("}")
            out = "\n".join(lines)
        else:
            raise UsageError(f"format 'dot' is not supported for method '{method}'")
    return out


def oracle_feature_pool(bundle, ds_n_features):
    if bundle.method == "ecnn":
        pool = list(bundle.model.selected_features)
    elif bundle.method in ("gmdh-layered", "gmdh-roulette"):
        pool = list(bundle.model.referenced_features())
    elif bundle.method == "pairwise-dt":
        pool = sorted({f for t in bundle.model.tlus.values() for f in t.features})
    else:
        pool = list(range(ds_n_features))
    return pool


DATASETS = {
    "xor": ("xor", "--n", "240", "--seed", "3"),
    "blobs": ("blobs", "--n", "150", "--classes", "3", "--seed", "4", "--spread", "0.8"),
    "eeg": ("surrogate-eeg", "--n", "240", "--relevant", "2", "--irrelevant", "3",
            "--seed", "5"),
}

TRAIN_ARGS = {
    "ecnn": ("--epochs", "60", "--restarts", "1"),
    "gmdh-layered": (),
    "gmdh-roulette": ("--attempts", "25"),
    "lm": ("--epochs", "30"),
    "pairwise-dt": ("--attempts", "3", "--test-epochs", "8"),
    "ruletree": (),
    "fnn": ("--epochs", "60", "--restarts", "2"),
}

BINARY_ONLY = {"ecnn", "gmdh-layered", "gmdh-roulette", "ruletree"}

CASES = [(method, data) for method in TRAIN_ARGS for data in DATASETS
         if not (data == "blobs" and method in BINARY_ONLY)]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Model files of every case, trained through the CLI, keyed by case."""
    root = tmp_path_factory.mktemp("table")
    data = {}
    for name, argv in DATASETS.items():
        data[name] = root / f"{name}.csv"
        assert main(["generate", *argv, "--out", str(data[name])]) == 0
    models = {}
    for method, name in CASES:
        models[method, name] = root / f"{method}-{name}.json"
        assert main(["train", "--method", method, "--data", str(data[name]),
                     "--out", str(models[method, name]), "--seed", "7",
                     *TRAIN_ARGS[method]]) == 0
    return data, models


def as_json(payload):
    return json.dumps(payload, indent=2, sort_keys=True)


def test_cases_cover_every_method():
    assert {method for method, _ in CASES} == set(METHODS)
    assert {data for _, data in CASES} == set(DATASETS)


@pytest.mark.parametrize("method,data", CASES)
class TestAgainstOracle:
    def test_encode_and_decode(self, trained, method, data):
        _, models = trained
        doc = json.loads(models[method, data].read_text())
        bundle = load_model(models[method, data])
        spec = METHODS[method]
        encoded = as_json(spec.encode(bundle.model))
        assert encoded == as_json(oracle_payload(method, bundle.model))
        assert encoded == as_json(doc["payload"])
        decoded = spec.decode(doc["payload"], bundle.feature_names, bundle.label_names)
        restored = oracle_restore(method, doc["payload"], bundle.feature_names)
        assert type(decoded) is type(restored)
        assert as_json(spec.encode(decoded)) == as_json(oracle_payload(method, restored))
        assert as_json(spec.encode(decoded)) == encoded

    @pytest.mark.parametrize("fmt", ["text", "dot"])
    def test_export(self, trained, method, data, fmt, tmp_path, capsys):
        _, models = trained
        bundle = load_model(models[method, data])
        out = tmp_path / f"out.{fmt}"
        code = main(["export", "--model", str(models[method, data]), "--format", fmt,
                     "--out", str(out)])
        try:
            expected = oracle_render(bundle, fmt)
        except UsageError as exc:
            assert code == 1
            assert capsys.readouterr().err.startswith(f"usage error: {exc}\n")
            assert METHODS[method].to_dot is None
            return
        assert code == 0
        assert out.read_text(encoding="utf-8") == expected + "\n"
        render = METHODS[method].to_text if fmt == "text" else METHODS[method].to_dot
        assert render(bundle) == expected

    def test_feature_pool(self, trained, method, data, tmp_path):
        csvs, models = trained
        bundle = load_model(models[method, data])
        expected = oracle_feature_pool(bundle, len(bundle.feature_names))
        pool_of = METHODS[method].feature_pool
        pool = list(range(len(bundle.feature_names))) if pool_of is None \
            else pool_of(bundle.model)
        assert pool == expected
        if len(bundle.label_names) != 2 or method == "ruletree":
            return
        rules = tmp_path / "rules.json"
        code = main(["extract-rules", "--model", str(models[method, data]),
                     "--data", str(csvs[data]), "--out", str(rules)])
        if code == 0:
            assert load_model(rules).provenance["feature_pool"] == expected
        else:  # a model that gets one class wholly wrong leaves nothing to distil
            assert code == 3


# The learner each trainer calls, by its name in `evonets.cli`.
LEARNER = {
    "ecnn": "train_ecnn",
    "gmdh-layered": "train_gmdh_layered",
    "gmdh-roulette": "train_gmdh_roulette",
    "lm": "train_pocket_ratchet",
    "pairwise-dt": "train_pairwise_tree",
    "ruletree": "extract_rules",
    "fnn": "train_fnn",
}


def method_choices():
    train = cli._build_parser()._subparsers._group_actions[0].choices["train"]
    return next(a.choices for a in train._actions if a.dest == "method")


def test_one_trainer_per_method():
    assert set(cli.TRAINERS) == set(METHODS) == set(LEARNER)
    assert list(method_choices()) == list(METHODS)


class Intercepted(Exception):
    pass


@pytest.mark.parametrize("method", list(METHODS))
def test_trainer_calls_learner_through_cli_name(method, tmp_path, monkeypatch):
    data = tmp_path / "xor.csv"
    assert main(["generate", *DATASETS["xor"], "--out", str(data)]) == 0
    calls = []

    def stub(*args, **kwargs):
        calls.append(method)
        raise Intercepted

    monkeypatch.setattr(cli, LEARNER[method], stub)
    with pytest.raises(Intercepted):
        main(["train", "--method", method, "--data", str(data),
              "--out", str(tmp_path / "m.json")])
    assert calls == [method]
