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


def _finite_numbers(value):
    # abs() <= max also turns away nan and integers too large for a float
    return _list_of(value, (int, float)) and all(abs(v) <= sys.float_info.max for v in value)


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
    return RuleTree(_decode_rule_node(payload.get("root"), len(feature_names)))


def _decode_lm(payload, feature_names, label_names):
    weights = payload.get("weights")
    rows, cols = len(label_names), len(feature_names) + 1
    if not (rows and isinstance(weights, list) and len(weights) == rows
            and all(_finite_numbers(row) and len(row) == cols for row in weights)):
        raise DataError(f"lm weights must be a {rows} x {cols} matrix of finite numbers: one "
                        f"row per label, one column per feature plus the bias")
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


def _decode_sigmoid_neuron(d, what, k, n_features):
    """A neuron bound to features below n_features and to neurons below k,
    with one finite weight per binding plus the bias."""
    bindings = d.get("bindings") if isinstance(d, dict) else None
    if not (isinstance(bindings, list) and bindings and all(
            isinstance(b, list) and len(b) == 2 and b[0] in ("x", "z") and type(b[1]) is int
            and 0 <= b[1] < (n_features if b[0] == "x" else k) for b in bindings)):
        refs = f'["x", feature below {n_features}]' + (f' or ["z", neuron below {k}]' if k else "")
        raise DataError(f"ecnn {what} bindings must be a non-empty list of {refs} pairs")
    weights = d.get("weights")
    if not (_finite_numbers(weights) and len(weights) == len(bindings) + 1):
        raise DataError(f"ecnn {what} weights must be {len(bindings) + 1} finite numbers: "
                        f"the bias and one per binding")
    return SigmoidNeuron(tuple((t, r) for t, r in bindings), np.array(weights))


def _fraction(value):
    return type(value) in (int, float) and 0 < value < 1


def _decode_cascade(payload, feature_names, label_names):
    """Neurons whose bindings name a feature or an earlier neuron, a base
    neuron on the anchor, and feature indices, scores and a threshold that
    fit them; anything else raises DataError."""
    if len(label_names) != 2:
        raise DataError(f"an ecnn needs exactly 2 label_names, not {len(label_names)}")
    m = len(feature_names)
    anchor, docs = payload.get("anchor"), payload.get("neurons")
    if type(anchor) is not int or not 0 <= anchor < m:
        raise DataError(f"ecnn anchor {anchor!r} is not a feature index below {m}")
    if not isinstance(docs, list):
        raise DataError("ecnn neurons must be a list")
    base = _decode_sigmoid_neuron(payload.get("base_neuron"), "base_neuron", 0, m)
    if base.bindings != (("x", anchor),):
        raise DataError(f"ecnn base_neuron must be bound to the anchor alone, [[\"x\", {anchor}]]")
    neurons = [_decode_sigmoid_neuron(d, f"neuron {k}", k, m) for k, d in enumerate(docs)]
    order, accepted = payload.get("feature_order"), payload.get("accepted_features")
    for key, value in (("feature_order", order), ("accepted_features", accepted)):
        if not (_list_of(value, (int,)) and all(0 <= f < m for f in value)):
            raise DataError(f"ecnn {key} must be a list of feature indices below {m}")
    single, scores = payload.get("single_errors"), payload.get("accepted_scores")
    if not (_finite_numbers(single) and len(single) == len(order)):
        raise DataError("ecnn single_errors must be finite numbers, one per feature_order entry")
    if not (len(accepted) == len(neurons) and _finite_numbers(scores)
            and len(scores) == len(neurons)):
        raise DataError("ecnn accepted_features and accepted_scores need one entry per neuron")
    base_score, threshold = payload.get("base_score"), payload.get("threshold")
    if not _finite_numbers([base_score]):
        raise DataError(f"ecnn base_score {base_score!r} is not a finite number")
    if not _fraction(threshold):
        raise DataError(f"ecnn threshold {threshold!r} is not a number between 0 and 1")
    return CascadeNetwork(
        anchor=anchor,
        feature_order=tuple(order),
        single_errors=tuple(single),
        base_neuron=base,
        base_score=float(base_score),
        neurons=neurons,
        accepted_features=list(accepted),
        accepted_scores=[float(s) for s in scores],
        threshold=float(threshold),
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


def _poly_input(ref, k, n_features):
    """Whether ref is ["x", feature index] or ["n", index of a neuron before k]."""
    return (isinstance(ref, list) and len(ref) == 2 and ref[0] in ("x", "n")
            and type(ref[1]) is int and 0 <= ref[1] < (n_features if ref[0] == "x" else k))


def _decode_poly(payload, feature_names, label_names):
    """Neurons whose inputs name a feature or an earlier neuron, with finite
    weights, an output among them and finite layer scores; anything else
    raises DataError."""
    docs = payload.get("neurons")
    if not (isinstance(docs, list) and docs and all(isinstance(d, dict) for d in docs)):
        raise DataError("gmdh neurons must be a non-empty list of objects")
    m = len(feature_names)
    neurons = []
    for k, d in enumerate(docs):
        inputs, weights, layer = d.get("inputs"), d.get("weights"), d.get("layer")
        if not (isinstance(inputs, list) and all(_poly_input(r, k, m) for r in inputs)):
            raise DataError(f"gmdh neuron {k} inputs must be [\"x\", feature below {m}] or "
                            f"[\"n\", neuron below {k}] pairs")
        if not _finite_numbers(weights):
            raise DataError(f"gmdh neuron {k} weights must be a list of finite numbers")
        if type(layer) is not int or layer < 1:
            raise DataError(f"gmdh neuron {k} layer {layer!r} is not a positive integer")
        if type(d.get("survivor")) is not bool:
            raise DataError(f"gmdh neuron {k} survivor {d.get('survivor')!r} is not true or false")
        try:
            neurons.append(SupportingNeuron(d.get("kind"), tuple((t, r) for t, r in inputs),
                                            np.array(weights, dtype=float), layer, d["survivor"]))
        except DataError as exc:
            raise DataError(f"gmdh neuron {k}: {exc}") from None
    output, scores = payload.get("output"), payload.get("layer_scores")
    if type(output) is not int or not 0 <= output < len(neurons):
        raise DataError(f"gmdh output {output!r} is not a neuron index below {len(neurons)}")
    if not _finite_numbers(scores):
        raise DataError("gmdh layer_scores must be a list of finite numbers")
    return PolyNetwork(neurons, output, [float(s) for s in scores])


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
    """`classes` equal to the label count and one test per class pair
    i < j, each on unique feature indices with one finite weight per
    feature plus the bias and a finite accuracy; anything else raises
    DataError."""
    r, m = len(label_names), len(feature_names)
    classes, docs = payload.get("classes"), payload.get("tests")
    if type(classes) is not int or classes != r or r < 2:
        raise DataError(f"pairwise-dt classes {classes!r} does not match the {r} label_names")
    pairs = r * (r - 1) // 2
    if not (isinstance(docs, list) and len(docs) == pairs
            and all(isinstance(d, dict) for d in docs)):
        raise DataError(f"pairwise-dt tests must be a list of {pairs} objects, one per "
                        f"class pair")
    tlus = {}
    for d in docs:
        i, j = d.get("i"), d.get("j")
        if not (type(i) is int and type(j) is int and 0 <= i < j < r) or (i, j) in tlus:
            raise DataError(f"pairwise-dt test pair ({i!r}, {j!r}) is not a new pair of "
                            f"class indices i < j below {r}")
        features, weights, accuracy = d.get("features"), d.get("weights"), d.get("accuracy")
        if not (_list_of(features, (int,)) and features and all(0 <= f < m for f in features)
                and len(set(features)) == len(features)):
            raise DataError(f"pairwise-dt test {i}/{j} features must be a non-empty list of "
                            f"unique feature indices below {m}")
        if not (_finite_numbers(weights) and len(weights) == len(features) + 1):
            raise DataError(f"pairwise-dt test {i}/{j} weights must be {len(features) + 1} "
                            f"finite numbers: the bias and one per feature")
        if not _finite_numbers([accuracy]):
            raise DataError(f"pairwise-dt test {i}/{j} accuracy {accuracy!r} is not a finite "
                            f"number")
        tlus[(i, j)] = LinearTest(tuple(features), np.array(weights), float(accuracy))
    return PairwiseTree(classes, tlus)


def _encode_fnn(model):
    return {
        "hidden_weights": _matrix(model.hidden_weights),
        "output_weights": _matrix(model.output_weights),
        "classes": model.class_count,
        "threshold": float(model.threshold),
    }


def _decode_fnn(payload, feature_names, label_names):
    """Hidden rows of one finite weight per feature plus the bias, output
    rows of one per hidden unit plus the bias (one row for two classes, else
    one per class), `classes` equal to the label count and a threshold
    between 0 and 1; anything else raises DataError."""
    r = len(label_names)
    hidden, output = payload.get("hidden_weights"), payload.get("output_weights")
    classes, threshold = payload.get("classes"), payload.get("threshold")
    if type(classes) is not int or classes != r or r < 2:
        raise DataError(f"fnn classes {classes!r} does not match the {r} label_names")
    cols = len(feature_names) + 1
    if not (isinstance(hidden, list) and hidden
            and all(_finite_numbers(row) and len(row) == cols for row in hidden)):
        raise DataError(f"fnn hidden_weights must be a non-empty list of rows of {cols} finite "
                        f"numbers: one per feature plus the bias")
    rows, cols = 1 if r == 2 else r, len(hidden) + 1
    if not (isinstance(output, list) and len(output) == rows
            and all(_finite_numbers(row) and len(row) == cols for row in output)):
        raise DataError(f"fnn output_weights must be a {rows} x {cols} matrix of finite "
                        f"numbers: one row per output, one column per hidden unit plus the bias")
    if not _fraction(threshold):
        raise DataError(f"fnn threshold {threshold!r} is not a number between 0 and 1")
    return FnnModel(np.array(hidden), np.array(output), classes, float(threshold))


class Method(NamedTuple):
    """Everything done with a saved model of one method.

    encode maps the model to its JSON payload and decode(payload,
    feature_names, label_names) rebuilds it, raising DataError for a payload
    that does not fit the envelope.
    to_text and to_dot render the model for `export`, given the envelope's
    feature and label names; to_dot is None where the method has no graph
    form.
    feature_pool gives the columns a rule tree distilled from the model may
    split on; None means every column.
    """

    encode: Callable
    decode: Callable
    to_text: Callable
    to_dot: Callable | None
    feature_pool: Callable | None


_GMDH = Method(_encode_poly, _decode_poly, to_polynomial_text, gmdh_to_dot,
               lambda net: list(net.referenced_features()))

# Adding a method means one row here and one trainer in `cli.TRAINERS`.
METHODS = {
    "ecnn": Method(_encode_cascade, _decode_cascade, describe_cascade, cascade_to_dot,
                   lambda net: list(net.selected_features)),
    "gmdh-layered": _GMDH,
    "gmdh-roulette": _GMDH,
    "lm": Method(lambda lm: {"weights": _matrix(lm.weights)}, _decode_lm,
                 describe_linear_machine, linear_machine_to_dot, None),
    "pairwise-dt": Method(
        _encode_pairwise, _decode_pairwise, describe_pairwise_tree, pairwise_tree_to_dot,
        lambda tree: sorted({f for t in tree.tlus.values() for f in t.features})),
    "ruletree": Method(lambda tree: {"root": _encode_rule_node(tree.root)}, _decode_ruletree,
                       to_text, ruletree_to_dot, None),
    "fnn": Method(_encode_fnn, _decode_fnn, describe_fnn, None, None),
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
    if not isinstance(method, str) or method not in METHODS:
        raise DataError(f"{path}: unknown method '{method}'")
    for key in ("feature_names", "label_names"):
        if not _list_of(doc.get(key), (str,)):
            raise DataError(f"{path}: {key} is missing or not a list of strings")
        if len(set(doc[key])) != len(doc[key]):
            raise DataError(f"{path}: {key} repeats a name")
    feature_names = tuple(doc["feature_names"])
    label_column = doc.get("label_column")
    if not isinstance(label_column, str) or label_column in feature_names:
        raise DataError(f"{path}: label_column is missing, not a string or a feature's name")
    normalization = doc.get("normalization")
    if not (isinstance(normalization, dict) and _list_of(normalization.get("mean"), (int, float))
            and _list_of(normalization.get("sd"), (int, float))):
        raise DataError(f"{path}: normalization needs 'mean' and 'sd' lists of numbers")
    mean, sd = normalization["mean"], normalization["sd"]
    if not len(mean) == len(sd) == len(feature_names):
        raise DataError(f"{path}: normalization needs one mean and one sd for each of the "
                        f"{len(feature_names)} features")
    if not (_finite_numbers(mean) and _finite_numbers(sd) and all(v > 0 for v in sd)):
        raise DataError(f"{path}: normalization needs finite means and finite, positive sds")
    if not isinstance(doc.get("payload"), dict):
        raise DataError(f"{path}: payload is missing or not a JSON object")
    norm = NormParams(np.array(mean), np.array(sd))
    label_names = tuple(doc["label_names"])
    try:
        model = METHODS[method].decode(doc["payload"], feature_names, label_names)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    return ModelBundle(method, model, norm, feature_names, label_names, label_column,
                       doc.get("provenance") or {})
