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

from ._util import shown
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


# Field readers: each returns a field's value or raises DataError naming it, `what`.

def _is_index(value, bound):
    return type(value) is int and 0 <= value < bound


def _is_finite(value):
    # abs() <= max also turns away nan and integers too large for a float
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _list(value, what, entries, ok, length=None):
    """value if it is a list, of `length` entries if given, that ok takes."""
    if not (isinstance(value, list) and length in (None, len(value)) and all(map(ok, value))):
        count = "" if length is None else f"{length} "
        raise DataError(f"{what} must be a list of {count}{entries}")
    return value


def _object(value, what):
    if not isinstance(value, dict):
        raise DataError(f"{what} is missing or not a JSON object")
    return value


def _objects(value, what):
    return _list(value, what, "JSON objects", lambda d: isinstance(d, dict))


def _flag(value, what):
    if type(value) is not bool:
        raise DataError(f"{what} {shown(value)} is not true or false")
    return value


def _index(value, bound, what):
    if not _is_index(value, bound):
        raise DataError(f"{what} {shown(value)} is not an index below {bound}")
    return value


def _indices(value, bound, what, length=None):
    return _list(value, what, f"indices below {bound}", lambda v: _is_index(v, bound), length)


def _number(value, what, fraction=False):
    """value as a float if it is finite, and strictly between 0 and 1 if fraction."""
    if not (_is_finite(value) and (not fraction or 0 < value < 1)):
        rule = "a number strictly between 0 and 1" if fraction else "a finite number"
        raise DataError(f"{what} {shown(value)} is not {rule}")
    return float(value)


def _numbers(value, what, length=None):
    return [float(v) for v in _list(value, what, "finite numbers", _is_finite, length)]


def _weight_matrix(value, rows, cols, what):
    """value as a float array of `rows` rows (if given) of `cols` finite numbers."""
    def ok(row):
        return isinstance(row, list) and len(row) == cols and all(map(_is_finite, row))
    return np.array(_list(value, what, f"rows of {cols} finite numbers", ok, rows), dtype=float)


def _units(value, tag, k, m, what):
    """["x", feature below m] or [tag, unit below k] pairs; the neuron classes check tag."""
    def ok(ref):
        return (isinstance(ref, list) and len(ref) == 2
                and _is_index(ref[1], m if ref[0] == "x" else k))
    pairs = f'["x", feature below {m}] or ["{tag}", unit below {k}] pairs'
    return tuple((t, r) for t, r in _list(value, what, pairs, ok))


def _names(value, what):
    names = tuple(_list(value, what, "strings", lambda s: type(s) is str))
    if len(set(names)) != len(names):
        raise DataError(f"{what} repeats a name")
    return names


def _classes(value, r, what):
    if type(value) is not int or value != r or r < 2:
        raise DataError(f"{what} {shown(value)} does not match the {r} label_names")
    return value


def _build(what, make, *args):
    """make(*args), with what before the message of a DataError it raises."""
    try:
        return make(*args)
    except DataError as exc:
        raise DataError(f"{what}: {exc}") from None


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


def _decode_rule_node(d, m):
    """A test node whose sides are test nodes or {"class": 0|1} leaves."""
    d = _object(d, "ruletree node")
    node = RuleNode(_index(d.get("feature"), m, "ruletree node feature"),
                    _number(d.get("threshold"), "ruletree node threshold"),
                    _flag(d.get("high_is_one"), "ruletree node high_is_one"))
    for side in ("low", "high"):
        child = d.get(side)
        if isinstance(child, dict) and "class" in child:
            setattr(node, f"{side}_label", _index(child["class"], 2, "ruletree leaf class"))
        else:
            setattr(node, f"{side}_child", _decode_rule_node(child, m))
    return node


def _decode_ruletree(payload, feature_names, label_names):
    _classes(2, len(label_names), "ruletree classes")
    return RuleTree(_decode_rule_node(payload.get("root"), len(feature_names)))


def _decode_lm(payload, feature_names, label_names):
    return LinearMachine(_weight_matrix(payload.get("weights"), len(label_names),
                                        len(feature_names) + 1, "lm weights"))


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


def _decode_sigmoid_neuron(d, what, k, m):
    """A neuron bound to one or more features below m and neurons below k."""
    bindings = _units(d.get("bindings"), "z", k, m, f"{what} bindings")
    if not bindings:
        raise DataError(f"{what} bindings must not be empty")
    return _build(what, SigmoidNeuron, bindings, _numbers(d.get("weights"), f"{what} weights"))


def _decode_cascade(payload, feature_names, label_names):
    """A base neuron on the anchor and neurons with the scores that fit them."""
    _classes(2, len(label_names), "ecnn classes")
    m = len(feature_names)
    anchor = _index(payload.get("anchor"), m, "ecnn anchor")
    base = _decode_sigmoid_neuron(_object(payload.get("base_neuron"), "ecnn base_neuron"),
                                  "ecnn base_neuron", 0, m)
    if base.bindings != (("x", anchor),):
        raise DataError(f'ecnn base_neuron must be bound to the anchor alone, [["x", {anchor}]]')
    neurons = [_decode_sigmoid_neuron(d, f"ecnn neuron {k}", k, m)
               for k, d in enumerate(_objects(payload.get("neurons"), "ecnn neurons"))]
    order = _indices(payload.get("feature_order"), m, "ecnn feature_order")
    single = _numbers(payload.get("single_errors"), "ecnn single_errors", len(order))
    accepted = _indices(payload.get("accepted_features"), m, "ecnn accepted_features",
                        len(neurons))
    scores = _numbers(payload.get("accepted_scores"), "ecnn accepted_scores", len(neurons))
    return CascadeNetwork(anchor, tuple(order), tuple(single), base,
                          _number(payload.get("base_score"), "ecnn base_score"), neurons,
                          accepted, scores,
                          _number(payload.get("threshold"), "ecnn threshold", fraction=True))


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
    """Neurons, one of them the output, and layer scores; SupportingNeuron
    checks each neuron's kind and its input and weight counts."""
    m = len(feature_names)
    neurons = []
    for k, d in enumerate(_objects(payload.get("neurons"), "gmdh neurons")):
        what, layer = f"gmdh neuron {k}", d.get("layer")
        if type(layer) is not int or layer < 1:
            raise DataError(f"{what} layer {shown(layer)} is not a positive integer")
        neurons.append(_build(what, SupportingNeuron, d.get("kind"),
                              _units(d.get("inputs"), "n", k, m, f"{what} inputs"),
                              _numbers(d.get("weights"), f"{what} weights"), layer,
                              _flag(d.get("survivor"), f"{what} survivor")))
    return PolyNetwork(neurons, _index(payload.get("output"), len(neurons), "gmdh output"),
                       _numbers(payload.get("layer_scores"), "gmdh layer_scores"))


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
    """A test per class pair; LinearTest checks each test's features and
    weights, and PairwiseTree that the pairs are each i < j once."""
    r, m = len(label_names), len(feature_names)
    classes = _classes(payload.get("classes"), r, "pairwise-dt classes")
    tlus = {}
    for d in _objects(payload.get("tests"), "pairwise-dt tests"):
        i, j = d.get("i"), d.get("j")
        # the dict would keep only the last test of a repeated pair
        if not (type(i) is int and type(j) is int) or (i, j) in tlus:
            raise DataError(f"pairwise-dt test pair ({shown(i)}, {shown(j)}) is not a new "
                            f"pair of class indices")
        what = f"pairwise-dt test {shown(i)}/{shown(j)}"
        tlus[(i, j)] = _build(what, LinearTest,
                              _indices(d.get("features"), m, f"{what} features"),
                              _numbers(d.get("weights"), f"{what} weights"),
                              _number(d.get("accuracy"), f"{what} accuracy"))
    return _build("pairwise-dt tests", PairwiseTree, classes, tlus)


def _encode_fnn(model):
    return {
        "hidden_weights": _matrix(model.hidden_weights),
        "output_weights": _matrix(model.output_weights),
        "classes": model.class_count,
        "threshold": float(model.threshold),
    }


def _decode_fnn(payload, feature_names, label_names):
    """Hidden rows of a weight per feature and output rows (one for two
    classes) of a weight per hidden unit, each plus the bias."""
    r = len(label_names)
    classes = _classes(payload.get("classes"), r, "fnn classes")
    hidden = _weight_matrix(payload.get("hidden_weights"), None, len(feature_names) + 1,
                            "fnn hidden_weights")
    if not len(hidden):
        raise DataError("fnn hidden_weights must not be empty")
    output = _weight_matrix(payload.get("output_weights"), 1 if r == 2 else r, len(hidden) + 1,
                            "fnn output_weights")
    return FnnModel(hidden, output, classes,
                    _number(payload.get("threshold"), "fnn threshold", fraction=True))


class Method(NamedTuple):
    """Everything done with a saved model of one method: encode maps the
    model to its JSON payload and decode(payload, feature_names,
    label_names) rebuilds it or raises DataError; to_text and to_dot (None
    where there is no graph form) render it for `export` with the envelope's
    names; feature_pool gives the columns `extract-rules` may split on, None
    meaning every column."""

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
    """The file's model; DataError, naming the file, if it holds none."""
    p = Path(path)
    if not p.exists():
        raise DataError(f"missing model file: {path}")
    try:
        doc = json.loads(p.read_text(encoding="utf-8"))
    # ValueError: bad UTF-8 or JSON, or an overlong integer; RecursionError: deep nesting
    except (ValueError, RecursionError) as exc:
        raise DataError(f"{path}: not valid JSON ({exc})") from None
    return _build(path, _decode_bundle, doc)


def _decode_bundle(doc):
    if not isinstance(doc, dict):
        raise DataError(f"a model file holds a JSON object, not {type(doc).__name__}")
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:   # true and 1.0 equal 1
        raise DataError(f"unsupported format_version {shown(version)}")
    method = doc.get("method")
    if not isinstance(method, str) or method not in METHODS:
        raise DataError(f"unknown method {shown(method)}")
    feature_names, label_names = (_names(doc.get(k), k) for k in ("feature_names", "label_names"))
    label_column = doc.get("label_column")
    if not isinstance(label_column, str) or label_column in feature_names:
        raise DataError("label_column is missing, not a string or a feature's name")
    normalization = _object(doc.get("normalization"), "normalization")
    mean = _numbers(normalization.get("mean"), "normalization mean", len(feature_names))
    sd = _numbers(normalization.get("sd"), "normalization sd", len(feature_names))
    if not all(v > 0 for v in sd):
        raise DataError("normalization sd must be positive")
    model = METHODS[method].decode(_object(doc.get("payload"), "payload"), feature_names,
                                   label_names)
    return ModelBundle(method, model, NormParams(np.array(mean), np.array(sd)), feature_names,
                       label_names, label_column, doc.get("provenance") or {})
