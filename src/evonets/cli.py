"""Command-line front end: generate | train | evaluate | export | extract-rules.

Exit codes: 0 success, 1 usage error, 2 data error, 3 training error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import sys
from pathlib import Path

import numpy as np

from .baseline import FnnConfig, train_fnn
from .cascade import FitConfig, train_ecnn
from .dataset import (Dataset, SplitSpec, gen_blobs, gen_surrogate_eeg, gen_xor,
                      load_csv, normalize_zscore, parse_rows, read_csv_rows, save_csv,
                      split)
from .errors import DataError, TrainingError, UsageError
from .gmdh import GmdhConfig, train_gmdh_layered, train_gmdh_roulette
from .linear import (LinearMachine, LmdtConfig, PairwiseTree, aggregate_segments,
                     train_pairwise_tree, train_pocket_ratchet)
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
    g.add_argument("--classes", type=int, default=None)
    g.add_argument("--spread", type=float, default=1.0)
    g.add_argument("--radius", type=float, default=3.0)
    g.add_argument("--relevant", type=int, default=4)
    g.add_argument("--irrelevant", type=int, default=68)
    g.add_argument("--separation", type=float, default=2.0)

    t = sub.add_parser("train", help="train a model and save it as JSON")
    t.add_argument("--method", required=True, choices=list(METHODS))
    t.add_argument("--data", required=True)
    t.add_argument("--label", default="y")
    t.add_argument("--out", required=True, help="model file to write")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--split", default="2/3:1/3",
                   help="fit/validation fractions, e.g. 2/3:1/3")
    t.add_argument("--no-stratify", action="store_true")
    t.add_argument("--report", default=None, help="per-pair CSV report (pairwise-dt)")
    t.add_argument("--kind", choices=["linear", "bilinear"], default="bilinear")
    t.add_argument("--fit-method", choices=["gradient", "least-squares"],
                   default="gradient")
    t.add_argument("--survivors", type=int, default=None)
    t.add_argument("--max-layers", type=int, default=10)
    t.add_argument("--attempts", type=int, default=None,
                   help="roulette attempts (gmdh-roulette) or scan attempts (pairwise-dt)")
    t.add_argument("--learning-rate", type=float, default=None)
    t.add_argument("--epochs", type=int, default=None)
    t.add_argument("--restarts", type=int, default=None)
    t.add_argument("--threshold", type=float, default=0.5)
    t.add_argument("--hidden", type=int, default=4)
    t.add_argument("--patience", type=int, default=100)
    t.add_argument("--c", type=float, default=1.0)
    t.add_argument("--no-ratchet", action="store_true")
    t.add_argument("--correction", choices=["fixed", "thermal"], default="fixed")
    t.add_argument("--pair-trainer", choices=["induce-dt", "sfs", "all-features"],
                   default="induce-dt")
    t.add_argument("--test-epochs", type=int, default=25)
    t.add_argument("--max-features", type=int, default=None)

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


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def cmd_generate(args):
    n, seed = args.n, args.seed
    if args.kind == "xor":
        ds = gen_xor(n, seed)
    elif args.kind == "blobs":
        ds = gen_blobs(n, args.classes or 3, seed, spread=args.spread, radius=args.radius)
    else:
        ds, informative = gen_surrogate_eeg(n, args.relevant, args.irrelevant,
                                            args.classes or 2, seed,
                                            separation=args.separation)
        print("informative_columns=" + ",".join(str(c) for c in informative))
    save_csv(ds, args.out)
    print(f"wrote {ds.n_rows} rows x {ds.n_features} features to {args.out}")
    return 0


def _error_of(bundle, ds):
    return float(np.mean(bundle.predict_classes(ds.features) != ds.labels))


def _flag(value, default):
    return default if value is None else value


def _train_ecnn(args, tr, va, ds):
    cfg = FitConfig(learning_rate=_flag(args.learning_rate, 0.1),
                    epochs=_flag(args.epochs, 200), restarts=_flag(args.restarts, 5),
                    seed=args.seed, decision_threshold=args.threshold)
    return train_ecnn(tr, va, cfg), {
        "learning_rate": cfg.learning_rate, "epochs": cfg.epochs,
        "restarts": cfg.restarts, "threshold": cfg.decision_threshold}


def _gmdh_config(args):
    cfg = GmdhConfig(kind=args.kind, survivors=args.survivors,
                     max_layers=args.max_layers, attempts=_flag(args.attempts, 500),
                     method=args.fit_method.replace("-", "_"),
                     learning_rate=_flag(args.learning_rate, 0.1),
                     epochs=_flag(args.epochs, 200),
                     restarts=_flag(args.restarts, 5), seed=args.seed)
    return cfg, {"kind": cfg.kind, "survivors": cfg.survivors,
                 "max_layers": cfg.max_layers, "attempts": cfg.attempts,
                 "fit_method": cfg.method, "learning_rate": cfg.learning_rate,
                 "epochs": cfg.epochs, "restarts": cfg.restarts}


def _train_gmdh_layered(args, tr, va, ds):
    cfg, config = _gmdh_config(args)
    return train_gmdh_layered(tr, va, cfg), config


def _train_gmdh_roulette(args, tr, va, ds):
    cfg, config = _gmdh_config(args)
    return train_gmdh_roulette(tr, va, cfg), config


def _train_lm(args, tr, va, ds):
    model, _ = train_pocket_ratchet(
        LinearMachine.zeros(ds.class_count, ds.n_features), tr,
        epochs=args.epochs, c=args.c, seed=args.seed,
        use_ratchet=not args.no_ratchet, correction=args.correction)
    return model, {"epochs": args.epochs, "c": args.c,
                   "use_ratchet": not args.no_ratchet, "correction": args.correction}


def _train_pairwise(args, tr, va, ds):
    cfg = LmdtConfig(c=args.c, use_ratchet=not args.no_ratchet,
                     test_epochs=args.test_epochs, correction=args.correction,
                     pair_trainer=args.pair_trainer,
                     max_features=args.max_features,
                     attempts=_flag(args.attempts, 10), seed=args.seed)
    return train_pairwise_tree(tr, va, ds.class_count, cfg), {
        "c": cfg.c, "use_ratchet": cfg.use_ratchet,
        "test_epochs": cfg.test_epochs, "correction": cfg.correction,
        "pair_trainer": cfg.pair_trainer, "max_features": cfg.max_features,
        "attempts": cfg.attempts}


def _train_ruletree(args, tr, va, ds):  # fitted directly on the training rows
    if ds.class_count != 2:
        raise DataError("ruletree training requires binary labels")
    return extract_rules(tr.features[tr.labels == 0], tr.features[tr.labels == 1],
                         range(ds.n_features), ds.feature_names), {}


def _train_fnn(args, tr, va, ds):
    cfg = FnnConfig(learning_rate=_flag(args.learning_rate, 0.5),
                    max_epochs=_flag(args.epochs, 2000), patience=args.patience,
                    restarts=_flag(args.restarts, 10), seed=args.seed)
    model, _ = train_fnn(tr, va, args.hidden, cfg)
    return model, {"hidden": args.hidden, "learning_rate": cfg.learning_rate,
                   "max_epochs": cfg.max_epochs, "patience": cfg.patience,
                   "restarts": cfg.restarts}


# method -> fn(args, fit rows, validation rows, full dataset) -> (model, provenance
# config). Each trainer calls its learner through this module's global name at call
# time, so a wrapper installed on that name (as perfbench's tracer does) sees it.
TRAINERS = {
    "ecnn": _train_ecnn,
    "gmdh-layered": _train_gmdh_layered,
    "gmdh-roulette": _train_gmdh_roulette,
    "lm": _train_lm,
    "pairwise-dt": _train_pairwise,
    "ruletree": _train_ruletree,
    "fnn": _train_fnn,
}


def cmd_train(args):
    ds = load_csv(args.data, args.label)
    fractions = _parse_fractions(args.split)
    parts = split(ds, SplitSpec(fractions, seed=args.seed, stratified=not args.no_stratify))
    tr_raw, va_raw = parts

    _, norm = normalize_zscore(tr_raw)
    tr = norm.apply_dataset(tr_raw)
    va = norm.apply_dataset(va_raw)
    full = norm.apply_dataset(ds)

    method = args.method
    model, config = TRAINERS[method](args, tr, va, ds)
    pair_lines = [(i, j, 1.0 - t.accuracy, len(t.features))
                  for (i, j), t in sorted(model.tlus.items())] \
        if isinstance(model, PairwiseTree) else []

    bundle = ModelBundle(method, model, norm, ds.feature_names, ds.label_names,
                         args.label, provenance={
                             "seed": args.seed, "config": config,
                             "split": list(fractions),
                             "stratified": not args.no_stratify,
                             "dataset_sha256": _sha256(args.data),
                             "rows": ds.n_rows,
                         })
    save_model(args.out, bundle)

    print(f"method={method}")
    print(f"rows={ds.n_rows} train_rows={tr.n_rows} val_rows={va.n_rows}")
    print(f"train_error={_error_of(bundle, tr)!r}")
    print(f"val_error={_error_of(bundle, va)!r}")
    print(f"data_error={_error_of(bundle, full)!r}")
    for i, j, err, nf in pair_lines:
        print(f"pair={i}/{j} error={err!r} features={nf}")
    if args.report and pair_lines:
        with open(args.report, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["class_i", "class_j", "error", "feature_count"])
            for i, j, err, nf in pair_lines:
                w.writerow([i, j, repr(err), nf])
    print(f"model={args.out}")
    return 0


def _load_for_model(path, bundle, group_by=None):
    """Read an evaluation CSV in the model's feature order.

    Columns must match the model's features exactly (plus the label column
    and, optionally, the group column); labels map through the stored
    label order.
    """
    header, rows = read_csv_rows(path)
    label_column = bundle.label_column
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

    col_of = {h: i for i, h in enumerate(header)}
    label_index = {s: k for k, s in enumerate(bundle.label_names)}
    X, labels = parse_rows(path, header, rows, [col_of[n] for n in bundle.feature_names],
                           col_of[label_column], label_index)
    groups = []
    if group_by is not None:
        groups = [row[col_of[group_by]].strip() for row in rows if row]
    ds = Dataset(X, np.array(labels), bundle.feature_names,
                 len(bundle.label_names), bundle.label_names)
    return ds, groups


def cmd_evaluate(args):
    bundle = load_model(args.model)
    ds, groups = _load_for_model(args.data, bundle, args.group_by)
    X = bundle.norm.apply(ds.features)
    preds = np.asarray(bundle.predict_classes(X), dtype=int)
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
    out = render(bundle)
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
    ds, _ = _load_for_model(args.data, bundle)
    with np.errstate(over="ignore"):  # the threshold search rejects what overflows
        X = bundle.norm.apply(ds.features)
    preds = np.asarray(bundle.predict_classes(X), dtype=int)
    correct = preds == ds.labels

    pool_of = METHODS[bundle.method].feature_pool
    pool = list(range(ds.n_features)) if pool_of is None else pool_of(bundle.model)

    X0 = X[correct & (ds.labels == 0)]
    X1 = X[correct & (ds.labels == 1)]
    if X0.shape[0] == 0 or X1.shape[0] == 0:
        raise TrainingError("one class has no correctly classified rows; "
                            "nothing to extract a rule from")
    tree = extract_rules(X0, X1, pool, ds.feature_names)

    out_bundle = ModelBundle("ruletree", tree, bundle.norm, bundle.feature_names,
                             bundle.label_names, bundle.label_column, provenance={
                                 "source_model": str(args.model),
                                 "source_method": bundle.method,
                                 "feature_pool": [int(v) for v in pool],
                                 "dataset_sha256": _sha256(args.data),
                             })
    save_model(args.out, out_bundle)
    tree_err = float(np.mean(tree.predict_classes(X) != ds.labels))
    print(to_text(tree, bundle.label_names))
    print(f"rule_error={tree_err!r} source_error={float(np.mean(~correct))!r}")
    print(f"model={args.out}")
    return 0


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a command is required")
        handler = {
            "generate": cmd_generate,
            "train": cmd_train,
            "evaluate": cmd_evaluate,
            "export": cmd_export,
            "extract-rules": cmd_extract_rules,
        }[args.command]
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
