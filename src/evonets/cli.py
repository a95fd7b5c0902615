"""Command-line front end: generate | train | evaluate | export | extract-rules.

Exit codes: 0 success, 1 usage error, 2 data error, 3 training error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import errno
import hashlib
import os
import stat
import sys
import warnings
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .baseline import FnnConfig, train_fnn
from .cascade import FitConfig, train_ecnn
from .dataset import (Dataset, SplitSpec, gen_blobs, gen_surrogate_eeg, gen_xor,
                      load_csv, normalize_zscore, read_table, save_csv, split)
from .errors import DataError, ScoreOverflow, TrainingError, UsageError
from .gmdh import KINDS, GmdhConfig, train_gmdh_layered, train_gmdh_roulette
from .linear import (CORRECTIONS, PAIR_TRAINERS, LinearMachine, LmdtConfig, PairwiseTree,
                     aggregate_segments, train_pairwise_tree, train_pocket_ratchet)
from .modelio import METHODS, ModelBundle, load_model, save_model
from .ruletree import extract_rules, to_text


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser():
    p = _Parser(prog="evonets",
                description="Self-organizing constructive classifiers: train, "
                            "evaluate, and export readable models.")
    sub = p.add_subparsers(dest="command")

    g = sub.add_parser("generate", help="write a synthetic dataset as CSV")
    g.add_argument("kind", choices=["xor", "blobs", "surrogate-eeg"])
    g.add_argument("--n", type=int, default=1000)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    # read only by the kinds whose GENERATORS entry names them; None means not given
    g.add_argument("--classes", type=int)
    g.add_argument("--spread", type=float)
    g.add_argument("--radius", type=float)
    g.add_argument("--relevant", type=int)
    g.add_argument("--irrelevant", type=int)
    g.add_argument("--separation", type=float)

    t = sub.add_parser("train", help="train a model and save it as JSON")
    t.add_argument("--method", required=True, choices=list(METHODS))
    t.add_argument("--data", required=True)
    t.add_argument("--label", default="y")
    t.add_argument("--out", required=True, help="model file to write")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--split", default="2/3:1/3",
                   help="fit/validation fractions, e.g. 2/3:1/3")
    t.add_argument("--no-stratify", action="store_true")
    # read only by the methods whose TRAINERS entry names them; None means not given
    t.add_argument("--report", help="per-pair CSV report (pairwise-dt)")
    t.add_argument("--kind", choices=KINDS)
    t.add_argument("--fit-method", choices=["gradient", "least-squares"])
    t.add_argument("--survivors", type=int)
    t.add_argument("--max-layers", type=int)
    t.add_argument("--attempts", type=int,
                   help="roulette attempts (gmdh-roulette) or scan attempts (pairwise-dt)")
    t.add_argument("--learning-rate", type=float)
    t.add_argument("--epochs", type=int)
    t.add_argument("--restarts", type=int)
    t.add_argument("--threshold", type=float)
    t.add_argument("--hidden", type=int)
    t.add_argument("--patience", type=int)
    t.add_argument("--c", type=float)
    t.add_argument("--no-ratchet", action="store_const", const=False)  # use_ratchet's value
    t.add_argument("--correction", choices=CORRECTIONS)
    t.add_argument("--pair-trainer", choices=PAIR_TRAINERS)
    t.add_argument("--test-epochs", type=int)
    t.add_argument("--max-features", type=int)

    e = sub.add_parser("evaluate", help="apply a saved model to a CSV file")
    e.add_argument("--model", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--out", default=None, help="confusion matrix CSV")
    e.add_argument("--group-by", default=None,
                   help="column whose groups get per-group class distributions")

    x = sub.add_parser("export", help="render a saved model as text or DOT")
    x.add_argument("--model", required=True)
    x.add_argument("--format", required=True, choices=["text", "dot"])
    x.add_argument("--out", default=None)

    r = sub.add_parser("extract-rules",
                       help="distill a binary model into a threshold rule tree")
    r.add_argument("--model", required=True)
    r.add_argument("--data", required=True)
    r.add_argument("--out", required=True, help="rule-tree model file to write")
    return p


def _parse_fractions(text):
    fractions = []
    for part in text.split(":"):
        part = part.strip()
        try:
            if "/" in part:
                num, den = part.split("/")
                fractions.append(float(num) / float(den))
            else:
                fractions.append(float(part))
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"cannot parse split fraction '{part}'") from None
    if len(fractions) != 2:
        raise UsageError("--split needs exactly two fractions, e.g. 2/3:1/3")
    return tuple(fractions)


def _check_out(path):
    """Refuse an --out that cannot be written before any work is done: an
    empty path, an existing directory, or a path whose parent is missing or
    no directory. The error is the one the write would raise."""
    if not path:
        code = errno.ENOENT
    elif os.path.isdir(path):
        code = errno.EISDIR
    else:
        try:
            parent = os.stat(os.path.dirname(path) or ".")
            code = None if stat.S_ISDIR(parent.st_mode) else errno.ENOTDIR
        except OSError as exc:
            code = exc.errno
    if code is not None:
        raise OSError(code, os.strerror(code), path)


def _check_outputs(args):
    """Refuse, before any work, an --out or --report (train) that _check_out
    refuses, or that names a file the command reads or its other output."""
    seen = {}   # real path -> the first flag naming it
    for flag in ("data", "model", "out", "report"):
        path = getattr(args, flag, None)
        if path is None:
            continue
        real = os.path.realpath(path)
        if flag in ("out", "report"):
            _check_out(path)
            if real in seen:
                raise UsageError(f"--{flag} and --{seen[real]} name the same file '{path}'")
        seen.setdefault(real, flag)


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def cmd_generate(args):
    ds = GENERATORS[args.kind].fit(args.n, seed=args.seed, **_given(args))
    if isinstance(ds, tuple):   # surrogate-eeg also returns its informative columns
        ds, informative = ds
        print("informative_columns=" + ",".join(str(c) for c in informative))
    save_csv(ds, args.out)
    print(f"wrote {ds.n_rows} rows x {ds.n_features} features to {args.out}")
    return 0


def _error_of(bundle, ds):
    return float(np.mean(bundle.predict_classes(ds.features) != ds.labels))


def _provenance(cfg):
    """A learner config as the model file records it: every field but the seed,
    decision_threshold and method under their flags' names."""
    renamed = {"decision_threshold": "threshold", "method": "fit_method"}
    return {renamed.get(k, k): v for k, v in dataclasses.asdict(cfg).items() if k != "seed"}


def _given(args, **fields):
    """Given flags of args' method or kind, each under its dest or the name `fields` gives."""
    key, table = TABLES[args.command]
    return {fields.get(f, f): getattr(args, f) for f in table[getattr(args, key)].flags
            if getattr(args, f) is not None}


def _train_ecnn(args, tr, va, ds):
    cfg = FitConfig(**_given(args, threshold="decision_threshold"), seed=args.seed)
    return train_ecnn(tr, va, cfg), _provenance(cfg)


def _train_gmdh(args, tr, va, ds):
    given = _given(args, fit_method="method")
    if "method" in given:   # the config spells it least_squares
        given["method"] = given["method"].replace("-", "_")
    cfg = GmdhConfig(**given, seed=args.seed)
    grow = train_gmdh_layered if args.method == "gmdh-layered" else train_gmdh_roulette
    return grow(tr, va, cfg), _provenance(cfg)


def _train_lm(args, tr, va, ds):
    given = _given(args, no_ratchet="use_ratchet")
    epochs = given.pop("epochs", None)   # None: one epoch per training row
    cfg = LmdtConfig(**given)   # a pair test's correction settings
    config = {"epochs": epochs, "c": cfg.c, "use_ratchet": cfg.use_ratchet,
              "correction": cfg.correction}
    model, _ = train_pocket_ratchet(LinearMachine.zeros(ds.class_count, ds.n_features), tr,
                                    seed=args.seed, **config)
    return model, config


def _train_pairwise(args, tr, va, ds):
    given = _given(args, no_ratchet="use_ratchet")
    given.pop("report", None)   # cmd_train writes the report
    cfg = LmdtConfig(**given, seed=args.seed)
    return train_pairwise_tree(tr, va, cfg), _provenance(cfg)


def _train_ruletree(args, tr, va, ds):  # fitted directly on the training rows
    if ds.class_count != 2:
        raise DataError("ruletree training requires binary labels")
    return extract_rules(tr.features[tr.labels == 0], tr.features[tr.labels == 1],
                         range(ds.n_features)), {}


def _train_fnn(args, tr, va, ds):
    given = _given(args, epochs="max_epochs")
    hidden = given.pop("hidden", 4)
    cfg = FnnConfig(**given, seed=args.seed)
    return train_fnn(tr, va, hidden, cfg), {"hidden": hidden, **_provenance(cfg)}


# fit does the command's work; flags are the dests (argparse) some setting of it reads.
Entry = NamedTuple("Entry", [("fit", Callable), ("flags", tuple)])
# method -> fit(args, fit rows, validation rows, full dataset) -> (model, provenance config);
# fit calls its learner through this module's global name, so perfbench's tracer sees it.
TRAINERS = {
    "ecnn": Entry(_train_ecnn, ("learning_rate", "epochs", "restarts", "threshold")),
    "gmdh-layered": Entry(_train_gmdh, ("kind", "fit_method", "survivors", "max_layers",
                                        "learning_rate", "epochs", "restarts")),
    "gmdh-roulette": Entry(_train_gmdh, ("kind", "fit_method", "attempts",
                                         "learning_rate", "epochs", "restarts")),
    "lm": Entry(_train_lm, ("epochs", "c", "no_ratchet", "correction")),
    "pairwise-dt": Entry(_train_pairwise, ("c", "no_ratchet", "correction", "test_epochs",
                                           "pair_trainer", "max_features", "attempts",
                                           "report")),
    "ruletree": Entry(_train_ruletree, ()),
    "fnn": Entry(_train_fnn, ("learning_rate", "epochs", "restarts", "hidden", "patience")),
}
# kind -> fit(n, seed=, **given flags) -> a Dataset, or (Dataset, informative columns)
GENERATORS = {
    "xor": Entry(gen_xor, ()),
    "blobs": Entry(gen_blobs, ("classes", "spread", "radius")),
    "surrogate-eeg": Entry(gen_surrogate_eeg, ("relevant", "irrelevant", "classes",
                                               "separation")),
}
# command -> (the argument that picks the entry, the table)
TABLES = {"train": ("method", TRAINERS), "generate": ("kind", GENERATORS)}


def cmd_train(args):
    ds = load_csv(args.data, args.label)
    fractions = _parse_fractions(args.split)
    tr_raw, va_raw = split(ds, SplitSpec(fractions, seed=args.seed, stratified=not args.no_stratify))

    tr, norm = normalize_zscore(tr_raw)
    with np.errstate(over="ignore"):
        va = norm.apply_dataset(va_raw)
        full = norm.apply_dataset(ds)
    if not np.isfinite(full.features).all():
        raise DataError(f"{args.data}: its normalization overflows on some rows")

    model, config = TRAINERS[args.method].fit(args, tr, va, ds)
    pair_lines = [(i, j, 1.0 - t.accuracy, len(t.features))
                  for (i, j), t in sorted(model.tlus.items())] \
        if isinstance(model, PairwiseTree) else []

    bundle = ModelBundle(args.method, model, norm, ds.feature_names, ds.label_names,
                         args.label, provenance={
                             "seed": args.seed, "config": config,
                             "split": list(fractions),
                             "stratified": not args.no_stratify,
                             "dataset_sha256": _sha256(args.data),
                             "rows": ds.n_rows,
                         })
    try:   # finite pocketed weights can still overflow on the training rows
        errors = [_error_of(bundle, part) for part in (tr, va, full)]
    except ScoreOverflow as exc:
        raise TrainingError(f"{exc} on the training data; use a smaller correction "
                            "amount c") from None
    save_model(args.out, bundle)

    print(f"method={args.method}")
    print(f"rows={ds.n_rows} train_rows={tr.n_rows} val_rows={va.n_rows}")
    for name, error in zip(("train", "val", "data"), errors):
        print(f"{name}_error={error!r}")
    for i, j, err, nf in pair_lines:
        print(f"pair={i}/{j} error={err!r} features={nf}")
    if args.report:
        with open(args.report, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["class_i", "class_j", "error", "feature_count"])
            for i, j, err, nf in pair_lines:
                w.writerow([i, j, repr(err), nf])
    print(f"model={args.out}")
    return 0


def _load_for_model(model, bundle, path, group_by=None):
    """Read an evaluation CSV in the model's feature order, z-scored by the
    model's normalization; `model` is the model file's path.

    Columns must match the model's features exactly (plus the label column
    and, optionally, the group column); labels map through the stored
    label order. Rows the normalization turns non-finite are refused.
    """
    label_column = bundle.label_column

    def locate(header):
        if label_column not in header:
            raise DataError(f"{path}: label column '{label_column}' not found")
        if group_by is not None and group_by not in header:
            raise DataError(f"{path}: group column '{group_by}' not found")
        expected = set(bundle.feature_names)
        for h in header:
            if h not in expected and h != label_column and h != group_by:
                raise DataError(f"{path}: unexpected column '{h}' not known to the model")
        for name in bundle.feature_names:
            if name not in header:
                raise DataError(f"{path}: column '{name}' required by the model is missing")
        return ([header.index(n) for n in bundle.feature_names], header.index(label_column),
                None if group_by is None else header.index(group_by))

    label_index = {s: k for k, s in enumerate(bundle.label_names)}
    _, X, labels, groups = read_table(path, locate, label_index)
    # in place on the reader's fresh matrix: the ufuncs of NormParams.apply,
    # without its two matrix-sized temporaries
    with np.errstate(over="ignore"):
        X -= bundle.norm.mean
        X /= bundle.norm.sd
    if not np.isfinite(X).all():
        raise DataError(f"{model}: its normalization overflows on {path}")
    ds = Dataset(X, np.array(labels), bundle.feature_names,
                 len(bundle.label_names), bundle.label_names)
    return ds, groups


def _predict(model, bundle, ds, path):
    """The bundle's class per row of ds, read from path; `model` is the model
    file's path. Scores that overflow are refused, naming both files."""
    try:
        return np.asarray(bundle.predict_classes(ds.features), dtype=int)
    except ScoreOverflow:
        raise DataError(f"{model}: its scores overflow on {path}") from None


def cmd_evaluate(args):
    bundle = load_model(args.model)
    ds, groups = _load_for_model(args.model, bundle, args.data, args.group_by)
    preds = _predict(args.model, bundle, ds, args.data)
    r = len(bundle.label_names)
    error = float(np.mean(preds != ds.labels))
    confusion = np.bincount(ds.labels * r + preds, minlength=r * r).reshape(r, r)

    print(f"rows={ds.n_rows}")
    print(f"error={error!r}")
    print("confusion (rows true, columns predicted):")
    for t in range(r):
        counts = " ".join(str(c) for c in confusion[t])
        print(f"  {bundle.label_names[t]}: {counts}")
    if args.group_by is not None:
        names, group_of = np.unique(np.array(groups, dtype=object), return_inverse=True)
        for k, g in enumerate(names):
            mask = group_of == k
            dist = aggregate_segments(preds[mask], r)
            top = int(np.argmax(dist))
            text = ",".join(f"{p:.4f}" for p in dist)
            print(f"group={g} rows={int(mask.sum())} top={bundle.label_names[top]} "
                  f"p={dist[top]:.4f} dist={text}")
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["true\\pred"] + list(bundle.label_names))
            for t in range(r):
                w.writerow([bundle.label_names[t]] + [int(c) for c in confusion[t]])
    return 0


def cmd_export(args):
    bundle = load_model(args.model)
    method = METHODS[bundle.method]
    render = method.to_text if args.format == "text" else method.to_dot
    if render is None:
        raise UsageError(f"format '{args.format}' is not supported for method "
                         f"'{bundle.method}'")
    out = render(bundle.model, bundle.feature_names, bundle.label_names)
    if args.out:
        Path(args.out).write_text(out + "\n", encoding="utf-8")
    else:
        print(out)
    return 0


def cmd_extract_rules(args):
    bundle = load_model(args.model)
    if len(bundle.label_names) != 2:
        raise DataError("rule extraction supports binary models only")
    if bundle.method == "ruletree":
        raise DataError("model is already a rule tree")
    ds, _ = _load_for_model(args.model, bundle, args.data)
    X = ds.features
    preds = _predict(args.model, bundle, ds, args.data)
    correct = preds == ds.labels

    pool_of = METHODS[bundle.method].feature_pool
    pool = list(range(ds.n_features)) if pool_of is None else pool_of(bundle.model)

    X0 = X[correct & (ds.labels == 0)]
    X1 = X[correct & (ds.labels == 1)]
    if X0.shape[0] == 0 or X1.shape[0] == 0:
        raise TrainingError("one class has no correctly classified rows; "
                            "nothing to extract a rule from")
    tree = extract_rules(X0, X1, pool)

    out_bundle = ModelBundle("ruletree", tree, bundle.norm, bundle.feature_names,
                             bundle.label_names, bundle.label_column, provenance={
                                 "source_model": os.path.relpath(
                                     args.model, os.path.dirname(args.out) or "."),
                                 "source_method": bundle.method,
                                 "feature_pool": [int(v) for v in pool],
                                 "dataset_sha256": _sha256(args.data),
                             })
    save_model(args.out, out_bundle)
    tree_err = float(np.mean(tree.predict_classes(X) != ds.labels))
    print(to_text(tree, bundle.feature_names, bundle.label_names))
    print(f"rule_error={tree_err!r} source_error={float(np.mean(~correct))!r}")
    print(f"model={args.out}")
    return 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a command is required")
        if getattr(args, "seed", 0) < 0:  # numpy's generators take no negative seed
            raise DataError("seed must be non-negative")
        if args.command in TABLES:   # refuse a flag the method or kind does not read
            key, table = TABLES[args.command]
            reads = table[getattr(args, key)].flags
            for flag in sorted({f for e in table.values() for f in e.flags} - set(reads)):
                if getattr(args, flag) is not None:
                    raise UsageError(f"--{flag.replace('_', '-')} is not read by {key} "
                                     f"'{getattr(args, key)}'")
        _check_outputs(args)
        handler = {
            "generate": cmd_generate,
            "train": cmd_train,
            "evaluate": cmd_evaluate,
            "export": cmd_export,
            "extract-rules": cmd_extract_rules,
        }[args.command]
        with warnings.catch_warnings():   # a shown warning is one line, without its source
            warnings.showwarning = lambda message, *_: print(f"warning: {message}",
                                                              file=sys.stderr)
            return handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except TrainingError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return 3


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
