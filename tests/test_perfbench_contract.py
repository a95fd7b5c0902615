"""The benchmark's tracer against the package it wraps.

`perfbench/tracer.py` times evonets by replacing functions at the names
listed in its `WRAPS`; a traced benchmark run reports any name it cannot
find. The tests here never run the benchmark, so this test loads the tracer
by path and checks that every one of those names still resolves.
"""

import importlib.util
from pathlib import Path

import evonets.cli  # noqa: F401  (the tracer wraps names in every module, cli included)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_target_resolves():
    tracer = load_tracer()
    assert tracer.WRAPS
    t = tracer.Tracer()
    t.install("evonets")
    try:
        assert t.missing == [], f"wrap targets missing from evonets: {t.missing}"
    finally:
        t.uninstall()


def traced_train(tmp_path, data, runs):
    """Per-layer metrics of training every run through cli.main with the
    tracer on, one traced op per run."""
    import evonets
    from evonets import cli

    tracer = load_tracer()
    t = tracer.Tracer()
    t.install(evonets.__name__)
    try:
        t.active = True
        for op, (name, flags) in enumerate(runs.items()):
            t.begin_op(op, f"train.{flags[1]}")
            rc = cli.main(["train", *flags, "--data", str(data),
                           "--out", str(tmp_path / f"{name}.json")])
            t.end_op()
            assert rc == 0, name
    finally:
        t.active = False
        t.uninstall()
    return tracer, tracer.layer_metrics(t.spans, t.counts)


def eeg_csv(tmp_path):
    """A 6-feature surrogate-EEG table of 240 rows."""
    from evonets import cli

    data = tmp_path / "eeg.csv"
    assert cli.main(["generate", "surrogate-eeg", "--n", "240", "--relevant", "3",
                     "--irrelevant", "3", "--separation", "1.5", "--seed", "4",
                     "--out", str(data)]) == 0
    return data


def test_every_heavy_growth_layer_is_recorded(tmp_path):
    # The traced benchmark fails when a layer it lists as heavy on eeg-grow
    # reads 0 there. Train each eeg-grow learner small through cli.main with
    # the tracer on, so that a change that stops calling one of the wrapped
    # fitters (fit_neuron, fit_gradient, _fit_single_features,
    # least_squares_fit, exterior_criterion, ...) fails here too.
    data = eeg_csv(tmp_path)
    runs = {
        "ecnn": ("--method", "ecnn", "--epochs", "60", "--restarts", "2",
                 "--learning-rate", "2.0"),
        "layered-gd": ("--method", "gmdh-layered", "--max-layers", "2", "--epochs", "20",
                       "--restarts", "2"),
        "layered-ls": ("--method", "gmdh-layered", "--fit-method", "least-squares"),
        "roulette": ("--method", "gmdh-roulette", "--attempts", "10", "--epochs", "20",
                     "--restarts", "2"),
        "fnn": ("--method", "fnn", "--epochs", "30", "--restarts", "1"),
    }
    tracer, metrics = traced_train(tmp_path, data, runs)
    unrecorded = [k for k in tracer.HEAVY["eeg-grow"] if not metrics[k] > 0]
    assert unrecorded == [], f"heavy eeg-grow layers never recorded: {unrecorded}"


def test_work_counts_match_the_work_done(tmp_path, monkeypatch):
    # A batched kernel can change how often a wrapped function runs without
    # any layer reading 0. Pin the counts to the work: ecnn ranks the features
    # with one fit_neuron call of one neuron per feature, then its walk fits
    # the ranked candidates in chunks, one fit_neuron call each, whose sizes
    # follow from the model's feature order and accepted features. It descends
    # once for the ranking and once per chunk, one fit_gradient call per epoch each
    # (every stack here is one chunk); fnn calls fnn_gradients once per
    # epoch for all its restarts, and with patience past the last epoch it
    # runs them all.
    from evonets import cascade
    from evonets.modelio import load_model
    from oracles import walk_chunks

    sizes, fit = [], cascade.fit_neuron

    def counted(neurons, *args):
        sizes.append(len(neurons))
        return fit(neurons, *args)

    monkeypatch.setattr(cascade, "fit_neuron", counted)
    data = eeg_csv(tmp_path)
    features, epochs, fnn_epochs = 6, 60, 30
    runs = {
        "ecnn": ("--method", "ecnn", "--epochs", str(epochs), "--restarts", "2",
                 "--learning-rate", "2.0"),
        "fnn": ("--method", "fnn", "--epochs", str(fnn_epochs), "--restarts", "3",
                "--patience", str(fnn_epochs + 1)),
    }
    _, metrics = traced_train(tmp_path, data, runs)
    net = load_model(tmp_path / "ecnn.json").model
    chunks = walk_chunks(net.feature_order, net.accepted_features, features)
    dropped = sum(k - pos - 1 for k, pos in chunks if pos is not None)
    # every candidate after the anchor is fitted once where it is scored, and
    # once more for each chunk that dropped its fit behind an accepted one
    assert sizes == [features] + [k for k, _ in chunks]
    assert sum(sizes[1:]) == (features - 1) + dropped
    assert metrics["cascade.candidates"] == len(chunks)
    assert metrics["neuron.gradient_steps"] == epochs * (1 + len(chunks))
    assert metrics["baseline.fnn_gradients.calls"] == fnn_epochs


def test_gmdh_stack_counts_match_the_work_done(tmp_path, monkeypatch):
    # Layered growth fits each layer's candidates in stacks of CHUNK, one
    # _fit_weights call each, and with least squares one least_squares_fit
    # call each. A stack that fell back to fitting its candidates one at a
    # time would grow the same model and only take longer, so pin the count:
    # layer 1 pairs the 6 features, each later layer pairs the 6 survivors
    # (0.4 of the 15 first-layer pairs), and growth tries one layer past the
    # last one it keeps.
    from math import comb

    from evonets import gmdh
    from evonets.modelio import load_model

    stacks, fit = [], gmdh._fit_weights

    def counted(B, y, cfg, keys):
        stacks.append((cfg.method, list(keys)))
        return fit(B, y, cfg, keys)

    monkeypatch.setattr(gmdh, "_fit_weights", counted)
    monkeypatch.setattr(gmdh, "CHUNK", 4)
    data = eeg_csv(tmp_path)
    runs = {
        "gradient": ("--method", "gmdh-layered", "--epochs", "20", "--restarts", "2"),
        "least_squares": ("--method", "gmdh-layered", "--fit-method", "least-squares"),
    }
    _, metrics = traced_train(tmp_path, data, runs)
    for method in runs:
        layers = len(load_model(tmp_path / f"{method}.json").model.layer_scores) + 1
        per_layer = [comb(6, 2)] * layers
        assert [keys for m, keys in stacks if m == method] == \
            [[(layer, ci) for ci in range(start, min(start + 4, n))]
             for layer, n in enumerate(per_layer, 1) for start in range(0, n, 4)]
    assert metrics["neuron.least_squares_fit.calls"] == \
        sum(1 for m, _ in stacks if m == "least_squares")
    assert metrics["gmdh.layered.candidates"] == sum(len(keys) for _, keys in stacks)


def blobs_csv(tmp_path):
    """A 2-feature, 3-class blobs table of 150 rows."""
    from evonets import cli

    data = tmp_path / "blobs.csv"
    assert cli.main(["generate", "blobs", "--n", "150", "--classes", "3", "--seed", "2",
                     "--out", str(data)]) == 0
    return data


def test_pocket_work_counts_match_the_work_done(tmp_path, capsys):
    # The pocket counts come from the PocketState of each train_pocket_ratchet
    # call. Without the ratchet no fixed-correction run stops early, so each
    # call draws epochs x its training rows: lm is one call on all of them,
    # and all-features pairwise-dt one call per class pair on that pair's
    # rows, which cover every training row r - 1 = 2 times.
    data = blobs_csv(tmp_path)
    epochs, pairs = 7, 3
    runs = {
        "lm": ("--method", "lm", "--epochs", str(epochs), "--no-ratchet"),
        "pairwise": ("--method", "pairwise-dt", "--pair-trainer", "all-features",
                     "--test-epochs", str(epochs), "--no-ratchet"),
    }
    capsys.readouterr()
    _, metrics = traced_train(tmp_path, data, runs)
    train_rows = {int(word.split("=")[1]) for line in capsys.readouterr().out.splitlines()
                  for word in line.split() if word.startswith("train_rows=")}
    assert len(train_rows) == 1   # both runs split the same rows the same way
    rows = train_rows.pop()
    assert metrics["linear.train_pocket_ratchet.calls"] == 1 + pairs
    assert metrics["linear.pocket.draws"] == epochs * rows + epochs * 2 * rows


def test_every_heavy_pocket_layer_is_recorded(tmp_path):
    # The same gate for blobs-pocket: a pocket rewrite that stops filling
    # PocketState.epochs_run or accuracy_trace reads 0 draws or replacements,
    # and no sigmoid may run on the way.
    data = blobs_csv(tmp_path)
    runs = {
        "lm-fixed": ("--method", "lm"),
        "lm-thermal": ("--method", "lm", "--correction", "thermal"),
        "pairwise-induce": ("--method", "pairwise-dt", "--attempts", "2",
                            "--test-epochs", "10"),
        "pairwise-sfs": ("--method", "pairwise-dt", "--pair-trainer", "sfs",
                         "--test-epochs", "10"),
    }
    tracer, metrics = traced_train(tmp_path, data, runs)
    unrecorded = [k for k in tracer.HEAVY["blobs-pocket"] if not metrics[k] > 0]
    assert unrecorded == [], f"heavy blobs-pocket layers never recorded: {unrecorded}"
    touched = {k: metrics[k] for k in tracer.BYPASS["blobs-pocket"] if metrics[k] != 0}
    assert touched == {}, f"blobs-pocket bypass layers recorded: {touched}"
