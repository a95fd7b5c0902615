"""Span tracing of evonets from outside the package.

The traced run replaces functions with timing wrappers at the names their
callers look up. Several modules bind a function at import time (`cascade`
does `from .neuron import sigmoid`), so wrapping only the defining module
would miss those calls: each binding in `WRAPS` is patched on its own.

A span is one wrapped call: [name, start, end, parent span index, op id,
tag]. Spans stay in memory for one pass and are turned into per-layer
metrics by `layer_metrics`; the last traced pass can be written out as
JSON lines.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
from collections import Counter
from time import perf_counter

NAME, START, END, PARENT, OP, TAG = range(6)


def _pocket_counts(counts, args, kwargs, result):
    train = args[1] if len(args) > 1 else kwargs["train"]
    state = result[1]
    counts["linear.pocket.draws"] += state.epochs_run * train.n_rows
    counts["linear.pocket.replacements"] += len(state.accuracy_trace) - 1


def _accepted(counts, args, kwargs, result):
    counts["cascade.accepted"] += len(result.neurons)


def _layers(counts, args, kwargs, result):
    counts["gmdh.layered.layers"] += len(result.layer_scores)


def _rows(counts, args, kwargs, result):
    counts["cli.load_for_model.rows"] += result[0].n_rows


def _model_bytes(counts, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    counts["modelio.model_bytes"] += os.path.getsize(path)


def _fit_method(args, kwargs):
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    return getattr(cfg, "method", "gradient")


# (module, attribute, span name, hook on the result, tag from the arguments).
# A dotted attribute names a method on a class of that module.
WRAPS = (
    ("cli", "load_csv", "dataset.load_csv", None, None),
    ("cli", "_load_for_model", "cli.load_for_model", _rows, None),
    ("cli", "save_model", "modelio.save_model", _model_bytes, None),
    ("cli", "load_model", "modelio.load_model", None, None),
    ("cli", "train_ecnn", "cascade.train_ecnn", _accepted, None),
    ("cli", "train_gmdh_layered", "gmdh.train_gmdh_layered", _layers, _fit_method),
    ("cli", "train_gmdh_roulette", "gmdh.train_gmdh_roulette", None, None),
    ("cli", "train_fnn", "baseline.train_fnn", None, None),
    ("cli", "train_pocket_ratchet", "linear.train_pocket_ratchet", _pocket_counts, None),
    ("cli", "train_pairwise_tree", "linear.train_pairwise_tree", None, None),
    ("cli", "extract_rules", "ruletree.extract_rules", None, None),
    ("cascade", "_fit_single_features", "cascade.rank", None, None),
    ("cascade", "fit_neuron", "neuron.fit_neuron", None, None),
    ("cascade", "sigmoid", "neuron.sigmoid", None, None),
    ("neuron", "fit_gradient", "neuron.fit_gradient", None, None),
    ("neuron", "sigmoid", "neuron.sigmoid", None, None),
    ("baseline", "sigmoid", "neuron.sigmoid", None, None),
    ("baseline", "fnn_gradients", "baseline.fnn_gradients", None, None),
    ("gmdh", "least_squares_fit", "neuron.least_squares_fit", None, None),
    ("gmdh", "exterior_criterion", "neuron.exterior_criterion", None, None),
    ("linear", "train_pocket_ratchet", "linear.train_pocket_ratchet", _pocket_counts, None),
    ("linear", "induce_dt", "linear.induce_dt", None, None),
    ("linear", "sfs_select", "linear.sfs_select", None, None),
    ("ruletree", "search_threshold", "ruletree.search_threshold", None, None),
    ("ruletree", "RuleTree.predict_classes", "ruletree.predict_classes", None, None),
)

METHODS = ("ecnn", "gmdh-layered", "gmdh-roulette", "lm", "pairwise-dt", "ruletree", "fnn")

# Per-layer metrics with their units, in report order.
LAYER_METRICS = (
    ("neuron.sigmoid.calls", "count"),
    ("neuron.sigmoid.s", "s"),
    ("neuron.fit_neuron.calls", "count"),
    ("neuron.fit_neuron.s", "s"),
    ("neuron.gradient_steps", "count"),
    ("neuron.least_squares_fit.calls", "count"),
    ("neuron.least_squares_fit.s", "s"),
    ("cascade.train_ecnn.s", "s"),
    ("cascade.rank.s", "s"),
    ("cascade.walk.s", "s"),
    ("cascade.candidates", "count"),
    ("cascade.accepted", "count"),
    ("cascade.accept_ratio", "ratio"),
    ("gmdh.train_gmdh_layered.s", "s"),
    ("gmdh.train_gmdh_roulette.s", "s"),
    ("gmdh.layered.candidates", "count"),
    ("gmdh.layered.layers", "count"),
    ("gmdh.layered.s_per_candidate", "s"),
    ("baseline.train_fnn.s", "s"),
    ("baseline.fnn_gradients.calls", "count"),
    ("linear.train_pocket_ratchet.calls", "count"),
    ("linear.train_pocket_ratchet.s", "s"),
    ("linear.pocket.draws", "count"),
    ("linear.pocket.replacements", "count"),
    ("linear.pocket.us_per_draw", "us"),
    ("linear.induce_dt.s", "s"),
    ("linear.sfs_select.s", "s"),
    ("ruletree.search_threshold.calls", "count"),
    ("ruletree.search_threshold.s", "s"),
    ("ruletree.extract_rules.s", "s"),
    ("ruletree.predict_classes.s", "s"),
    ("dataset.load_csv.calls", "count"),
    ("dataset.load_csv.s", "s"),
    ("cli.load_for_model.rows", "count"),
    ("cli.load_for_model.s", "s"),
    ("cli.self_s", "s"),
    ("modelio.save_model.s", "s"),
    ("modelio.load_model.s", "s"),
    ("modelio.model_bytes", "bytes"),
    ("trace.overhead_s", "s"),
) + tuple((f"cli.train.{m}.s", "s") for m in METHODS)

# The workload on which each layer does most of its work. The traced run
# fails when one of these reads zero there.
HEAVY = {
    "eeg-grow": (
        "neuron.sigmoid.calls", "neuron.sigmoid.s", "neuron.fit_neuron.calls",
        "neuron.fit_neuron.s", "neuron.gradient_steps", "neuron.least_squares_fit.calls",
        "neuron.least_squares_fit.s", "cascade.train_ecnn.s", "cascade.rank.s",
        "cascade.walk.s", "cascade.candidates", "cascade.accepted", "cascade.accept_ratio",
        "gmdh.train_gmdh_layered.s", "gmdh.train_gmdh_roulette.s",
        "gmdh.layered.candidates", "gmdh.layered.layers", "gmdh.layered.s_per_candidate",
        "baseline.train_fnn.s", "baseline.fnn_gradients.calls",
    ),
    "blobs-pocket": (
        "linear.train_pocket_ratchet.calls", "linear.train_pocket_ratchet.s",
        "linear.pocket.draws", "linear.pocket.replacements", "linear.pocket.us_per_draw",
        "linear.induce_dt.s", "linear.sfs_select.s",
    ),
    "eeg-explain": (
        "ruletree.search_threshold.calls", "ruletree.search_threshold.s",
        "ruletree.extract_rules.s", "ruletree.predict_classes.s",
        "cli.load_for_model.rows", "cli.load_for_model.s",
    ),
}
# Layers every workload goes through.
EVERYWHERE = ("dataset.load_csv.calls", "dataset.load_csv.s", "cli.self_s",
              "modelio.save_model.s", "modelio.load_model.s", "modelio.model_bytes")

# Layers a workload must not touch at all: the bypass side of an optimisation.
BYPASS = {
    "blobs-pocket": ("neuron.sigmoid.calls",),
    "eeg-grow": ("linear.pocket.draws",),
}


class Tracer:
    """Installs the wrappers and records spans while `active` is set."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.active = False
        self.missing = []
        self._stack = []
        self._op = None
        self._patches = []

    def install(self, package):
        for module_name, attr, name, hook, tag in WRAPS:
            owner = sys.modules.get(f"{package}.{module_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(owner, leaf, self._wrap(original, name, hook, tag))
            self._patches.append((owner, leaf, original))

    def uninstall(self):
        for owner, leaf, original in reversed(self._patches):
            setattr(owner, leaf, original)
        self._patches.clear()

    def reset(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def _wrap(self, original, name, hook, tag):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            span = [name, perf_counter(), 0.0,
                    tracer._stack[-1] if tracer._stack else -1, tracer._op,
                    tag(args, kwargs) if tag else None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                tracer._stack.pop()
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def begin_op(self, op_id, name):
        """Open the root span of one benchmark operation (one cli.main call)."""
        if not self.active:
            return
        self._op = op_id
        self._stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), 0.0, -1, op_id, None])

    def end_op(self):
        if not self.active:
            return
        self.spans[self._stack.pop()][END] = perf_counter()
        self._op = None

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "op": s[OP], "tag": s[TAG]}) + "\n")


def layer_metrics(spans, counts):
    """Per-layer metrics of one traced pass (without trace.overhead_s)."""
    busy, calls = Counter(), Counter()
    child_time = Counter()
    for s in spans:
        d = s[END] - s[START]
        busy[s[NAME]] += d
        calls[s[NAME]] += 1
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += d

    def parent_name(s):
        return spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None

    walk_fits = sum(1 for s in spans
                    if s[NAME] == "neuron.fit_neuron" and parent_name(s) == "cascade.train_ecnn")
    layered = sum(1 for s in spans if s[NAME] == "neuron.exterior_criterion")
    gradient_layered = [i for i, s in enumerate(spans)
                        if s[NAME] == "gmdh.train_gmdh_layered" and s[TAG] == "gradient"]
    gradient_s = sum(spans[i][END] - spans[i][START] for i in gradient_layered)
    gradient_idx = set(gradient_layered)
    gradient_candidates = sum(1 for s in spans if s[NAME] == "neuron.exterior_criterion"
                              and s[PARENT] in gradient_idx)
    roots = [i for i, s in enumerate(spans) if s[PARENT] < 0]
    draws = counts["linear.pocket.draws"]

    m = {
        "neuron.sigmoid.calls": calls["neuron.sigmoid"],
        "neuron.sigmoid.s": busy["neuron.sigmoid"],
        "neuron.fit_neuron.calls": calls["neuron.fit_neuron"],
        "neuron.fit_neuron.s": busy["neuron.fit_neuron"],
        "neuron.gradient_steps": calls["neuron.fit_gradient"],
        "neuron.least_squares_fit.calls": calls["neuron.least_squares_fit"],
        "neuron.least_squares_fit.s": busy["neuron.least_squares_fit"],
        "cascade.train_ecnn.s": busy["cascade.train_ecnn"],
        "cascade.rank.s": busy["cascade.rank"],
        "cascade.walk.s": busy["cascade.train_ecnn"] - busy["cascade.rank"],
        "cascade.candidates": walk_fits,
        "cascade.accepted": counts["cascade.accepted"],
        "cascade.accept_ratio": counts["cascade.accepted"] / walk_fits if walk_fits else 0.0,
        "gmdh.train_gmdh_layered.s": busy["gmdh.train_gmdh_layered"],
        "gmdh.train_gmdh_roulette.s": busy["gmdh.train_gmdh_roulette"],
        "gmdh.layered.candidates": layered,
        "gmdh.layered.layers": counts["gmdh.layered.layers"],
        "gmdh.layered.s_per_candidate":
            gradient_s / gradient_candidates if gradient_candidates else 0.0,
        "baseline.train_fnn.s": busy["baseline.train_fnn"],
        "baseline.fnn_gradients.calls": calls["baseline.fnn_gradients"],
        "linear.train_pocket_ratchet.calls": calls["linear.train_pocket_ratchet"],
        "linear.train_pocket_ratchet.s": busy["linear.train_pocket_ratchet"],
        "linear.pocket.draws": draws,
        "linear.pocket.replacements": counts["linear.pocket.replacements"],
        "linear.pocket.us_per_draw":
            busy["linear.train_pocket_ratchet"] / draws * 1e6 if draws else 0.0,
        "linear.induce_dt.s": busy["linear.induce_dt"],
        "linear.sfs_select.s": busy["linear.sfs_select"],
        "ruletree.search_threshold.calls": calls["ruletree.search_threshold"],
        "ruletree.search_threshold.s": busy["ruletree.search_threshold"],
        "ruletree.extract_rules.s": busy["ruletree.extract_rules"],
        "ruletree.predict_classes.s": busy["ruletree.predict_classes"],
        "dataset.load_csv.calls": calls["dataset.load_csv"],
        "dataset.load_csv.s": busy["dataset.load_csv"],
        "cli.load_for_model.rows": counts["cli.load_for_model.rows"],
        "cli.load_for_model.s": busy["cli.load_for_model"],
        "cli.self_s": sum(spans[i][END] - spans[i][START] - child_time[i] for i in roots),
        "modelio.save_model.s": busy["modelio.save_model"],
        "modelio.load_model.s": busy["modelio.load_model"],
        "modelio.model_bytes": counts["modelio.model_bytes"],
    }
    for method in METHODS:
        m[f"cli.train.{method}.s"] = busy[f"train.{method}"]
    return m


def median_metrics(per_pass):
    """Median of each metric over the traced passes."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


def layer_checks(workload, metrics, missing):
    """Checks of the traced run: (number of checks, failures). A failure is a
    heavy layer reading zero, a bypassed layer reading non-zero, or a wrap
    target that no longer exists."""
    heavy = HEAVY.get(workload, ()) + EVERYWHERE
    bypass = BYPASS.get(workload, ())
    problems = [f"wrap target missing: {name}" for name in missing]
    problems += [f"{k} reads 0 on {workload}, where it is heavy"
                 for k in heavy if metrics[k] <= 0]
    problems += [f"{k} = {metrics[k]} on {workload}, which must bypass it"
                 for k in bypass if metrics[k] != 0]
    return len(heavy) + len(bypass) + len(WRAPS), problems
