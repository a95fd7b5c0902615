"""Versioned JSON persistence for every trainable model.

The format is deliberately human-readable: weights are stored as plain JSON
numbers (Python's repr round-trips floats exactly, so loading reproduces
predictions bit for bit), and the envelope carries the normalization,
label mapping, and provenance needed to evaluate raw CSV data later.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .baseline import FnnModel, describe_fnn
from .cascade import CascadeNetwork, cascade_to_dot, describe_cascade
from .dataset import NormParams
from .errors import DataError
from .gmdh import PolyNetwork, SupportingNeuron, gmdh_to_dot, to_polynomial_text
from .linear import (LinearMachine, LinearTest, PairwiseTree, describe_linear_machine,
                     describe_pairwise_tree, linear_machine_to_dot, pairwise_tree_to_dot)
from .neuron import SigmoidNeuron
from .ruletree import RuleNode, RuleTree, ruletree_to_dot, to_text

FORMAT_VERSION = 1


def _floats(a):
    return [float(v) for v in np.asarray(a, dtype=float).ravel()]


def _matrix(a):
    return [[float(v) for v in row] for row in np.asarray(a, dtype=float)]


def _list_of(value, types):
    return isinstance(value, list) and all(type(v) in types for v in value)


@dataclass(eq=False)
class ModelBundle:
    """A loaded (or to-be-saved) model plus everything needed to apply it."""

    method: str
    model: object
    norm: NormParams
    feature_names: tuple
    label_names: tuple
    label_column: str = "y"
    provenance: dict | None = None

    def predict_classes(self, X_normalized):
        return self.model.predict_classes(X_normalized)

    def predict_csv_features(self, X_raw):
        return self.predict_classes(self.norm.apply(X_raw))


def _encode_sigmoid_neuron(n: SigmoidNeuron):
    return {"bindings": [[k, r] for k, r in n.bindings], "weights": _floats(n.weights)}


def _decode_sigmoid_neuron(d):
    return SigmoidNeuron(tuple((k, r) for k, r in d["bindings"]), np.array(d["weights"]))


def _encode_rule_node(node: RuleNode):
    return {
        "feature": node.feature,
        "threshold": float(node.threshold),
        "high_is_one": bool(node.high_is_one),
        "low": _encode_rule_node(node.low_child) if node.low_child else {"class": node.low_label},
        "high": _encode_rule_node(node.high_child) if node.high_child else {"class": node.high_label},
    }


def _decode_rule_node(d, n_features):
    """A test node whose 'low' and 'high' sides are test nodes or
    {"class": 0|1} leaves; anything else raises DataError."""
    if not isinstance(d, dict):
        raise DataError("ruletree node is missing or not a JSON object")
    feature, threshold, high_is_one = d.get("feature"), d.get("threshold"), d.get("high_is_one")
    if type(feature) is not int or not 0 <= feature < n_features:
        raise DataError(f"ruletree node feature {feature!r} is not a column index below "
                        f"{n_features}")
    # abs() <= max also turns away nan and integers too large for a float
    if type(threshold) not in (int, float) or not abs(threshold) <= sys.float_info.max:
        raise DataError(f"ruletree node threshold {threshold!r} is not a finite number")
    if type(high_is_one) is not bool:
        raise DataError(f"ruletree node high_is_one {high_is_one!r} is not true or false")
    node = RuleNode(feature, float(threshold), high_is_one)
    for side in ("low", "high"):
        child = d.get(side)
        if isinstance(child, dict) and "class" in child:
            label = child["class"]
            if type(label) is not int or label not in (0, 1):
                raise DataError(f"ruletree leaf class {label!r} is not 0 or 1")
            setattr(node, f"{side}_label", label)
        else:
            setattr(node, f"{side}_child", _decode_rule_node(child, n_features))
    return node


def _decode_ruletree(payload, feature_names, label_names):
    if len(label_names) != 2:
        raise DataError(f"a ruletree needs exactly 2 label_names, not {len(label_names)}")
    return RuleTree(_decode_rule_node(payload.get("root"), len(feature_names)), feature_names)


def _decode_lm(payload, feature_names, label_names):
    weights = payload.get("weights")
    rows, cols = len(label_names), len(feature_names) + 1
    if not (rows and isinstance(weights, list) and len(weights) == rows
            and all(_list_of(row, (int, float)) and len(row) == cols for row in weights)):
        raise DataError(f"lm weights must be a {rows} x {cols} matrix of numbers: one row "
                        f"per label, one column per feature plus the bias")
    return LinearMachine(np.array(weights))


def _encode_cascade(net):
    return {
        "anchor": net.anchor,
        "feature_order": list(net.feature_order),
        "single_errors": _floats(net.single_errors),
        "base_neuron": _encode_sigmoid_neuron(net.base_neuron),
        "base_score": float(net.base_score),
        "neurons": [_encode_sigmoid_neuron(n) for n in net.neurons],
        "accepted_features": list(net.accepted_features),
        "accepted_scores": _floats(net.accepted_scores),
        "threshold": float(net.threshold),
    }


def _decode_cascade(payload, feature_names, label_names):
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


def _encode_poly(net):
    return {
        "neurons": [{
            "kind": n.kind,
            "inputs": [[t, r] for t, r in n.inputs],
            "weights": _floats(n.weights),
            "layer": n.layer,
            "survivor": bool(n.survivor),
        } for n in net.neurons],
        "output": net.output,
        "layer_scores": _floats(net.layer_scores),
    }


def _decode_poly(payload, feature_names, label_names):
    neurons = [SupportingNeuron(d["kind"], tuple((t, r) for t, r in d["inputs"]),
                                np.array(d["weights"]), int(d["layer"]), bool(d["survivor"]))
               for d in payload["neurons"]]
    return PolyNetwork(neurons, int(payload["output"]),
                       [float(s) for s in payload["layer_scores"]], feature_names)


def _encode_pairwise(tree):
    return {
        "classes": tree.class_count,
        "tests": [{
            "i": i, "j": j,
            "features": list(tree.tlus[(i, j)].features),
            "weights": _floats(tree.tlus[(i, j)].weights),
            "accuracy": float(tree.tlus[(i, j)].accuracy),
        } for (i, j) in sorted(tree.tlus)],
    }


def _decode_pairwise(payload, feature_names, label_names):
    tlus = {(int(t["i"]), int(t["j"])): LinearTest(tuple(t["features"]), np.array(t["weights"]),
                                                   float(t["accuracy"]))
            for t in payload["tests"]}
    return PairwiseTree(int(payload["classes"]), tlus, feature_names)


def _encode_fnn(model):
    return {
        "hidden_weights": _matrix(model.hidden_weights),
        "output_weights": _matrix(model.output_weights),
        "classes": model.class_count,
        "threshold": float(model.threshold),
    }


def _decode_fnn(payload, feature_names, label_names):
    return FnnModel(np.array(payload["hidden_weights"]), np.array(payload["output_weights"]),
                    int(payload["classes"]), float(payload["threshold"]))


class Method(NamedTuple):
    """Everything done with a saved model of one method.

    encode maps the model to its JSON payload and decode(payload,
    feature_names, label_names) rebuilds it; the lm and ruletree decoders
    raise DataError for a payload that does not fit the envelope. to_text
    and to_dot render a ModelBundle for `export`; to_dot is None where the
    method has no graph form.
    feature_pool gives the columns a rule tree distilled from the model may
    split on; None means every column.
    """

    encode: Callable
    decode: Callable
    to_text: Callable
    to_dot: Callable | None
    feature_pool: Callable | None


_GMDH = Method(_encode_poly, _decode_poly,
               lambda b: to_polynomial_text(b.model), lambda b: gmdh_to_dot(b.model),
               lambda net: list(net.referenced_features()))

# Adding a method means one row here and one trainer in `cli.TRAINERS`.
METHODS = {
    "ecnn": Method(_encode_cascade, _decode_cascade,
                   lambda b: describe_cascade(b.model), lambda b: cascade_to_dot(b.model),
                   lambda net: list(net.selected_features)),
    "gmdh-layered": _GMDH,
    "gmdh-roulette": _GMDH,
    "lm": Method(lambda lm: {"weights": _matrix(lm.weights)}, _decode_lm,
                 lambda b: describe_linear_machine(b.model, b.feature_names, b.label_names),
                 lambda b: linear_machine_to_dot(b.model, b.feature_names, b.label_names),
                 None),
    "pairwise-dt": Method(
        _encode_pairwise, _decode_pairwise,
        lambda b: describe_pairwise_tree(b.model, b.feature_names, b.label_names),
        lambda b: pairwise_tree_to_dot(b.model, b.label_names),
        lambda tree: sorted({f for t in tree.tlus.values() for f in t.features})),
    "ruletree": Method(lambda tree: {"root": _encode_rule_node(tree.root)}, _decode_ruletree,
                       lambda b: to_text(b.model, b.label_names),
                       lambda b: ruletree_to_dot(b.model, b.label_names),
                       None),
    "fnn": Method(_encode_fnn, _decode_fnn, lambda b: describe_fnn(b.model), None, None),
}


def save_model(path, bundle: ModelBundle):
    """Serialize the bundle to deterministic, lossless JSON."""
    if bundle.method not in METHODS:
        raise DataError(f"unknown method '{bundle.method}'")
    doc = {
        "format_version": FORMAT_VERSION,
        "method": bundle.method,
        "feature_names": list(bundle.feature_names),
        "label_names": list(bundle.label_names),
        "label_column": bundle.label_column,
        "normalization": {"mean": _floats(bundle.norm.mean), "sd": _floats(bundle.norm.sd)},
        "payload": METHODS[bundle.method].encode(bundle.model),
        "provenance": bundle.provenance or {},
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_model(path) -> ModelBundle:
    p = Path(path)
    if not p.exists():
        raise DataError(f"missing model file: {path}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path}: a model file holds a JSON object, not {type(doc).__name__}")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported format_version {version!r}")
    method = doc.get("method")
    if method not in METHODS:
        raise DataError(f"{path}: unknown method '{method}'")
    for key in ("feature_names", "label_names"):
        if not _list_of(doc.get(key), (str,)):
            raise DataError(f"{path}: {key} is missing or not a list of strings")
    feature_names = tuple(doc["feature_names"])
    normalization = doc.get("normalization")
    if not (isinstance(normalization, dict) and _list_of(normalization.get("mean"), (int, float))
            and _list_of(normalization.get("sd"), (int, float))):
        raise DataError(f"{path}: normalization needs 'mean' and 'sd' lists of numbers")
    if not len(normalization["mean"]) == len(normalization["sd"]) == len(feature_names):
        raise DataError(f"{path}: normalization needs one mean and one sd for each of the "
                        f"{len(feature_names)} features")
    if not isinstance(doc.get("payload"), dict):
        raise DataError(f"{path}: payload is missing or not a JSON object")
    norm = NormParams(np.array(normalization["mean"]), np.array(normalization["sd"]))
    label_names = tuple(doc["label_names"])
    try:
        model = METHODS[method].decode(doc["payload"], feature_names, label_names)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    return ModelBundle(method, model, norm, feature_names, label_names,
                       doc.get("label_column", "y"), doc.get("provenance") or {})
