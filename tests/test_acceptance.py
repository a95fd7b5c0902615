"""Acceptance criteria, one test per criterion, with stated tolerances.

Each test prints a single PASS line (visible with pytest -s; pytest -v shows
one pass/fail line per criterion either way). Seeds are pinned, so every
number asserted here is reproducible bit for bit.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from evonets._util import augment
from evonets.baseline import FnnConfig, fnn_gradients, train_fnn
from evonets.cascade import train_ecnn
from evonets.cli import main
from evonets.dataset import (SplitSpec, gen_blobs, gen_surrogate_eeg, gen_xor,
                             normalize_zscore, split)
from evonets.gmdh import (GmdhConfig, PolyNetwork, SupportingNeuron,
                          train_gmdh_layered)
from evonets.linear import (LinearMachine, LmdtConfig, combine_pairwise,
                            train_pairwise_tree, train_pocket_ratchet)
from evonets.modelio import load_model, save_model
from evonets.neuron import FitConfig, exterior_criterion, fit_gradient, fit_loss
from evonets.ruletree import RuleNode, RuleTree, extract_rules, to_text
from oracles import classify_rule, fnn_loss


def report(name, detail=""):
    print(f"[PASS] {name}" + (f": {detail}" if detail else ""))


class TestC01PairwiseWorkedExample:
    def test_pairwise_combination_worked_example(self):
        start = time.perf_counter()
        g = combine_pairwise({(0, 1): np.array([-1]), (0, 2): np.array([+1]),
                              (1, 2): np.array([+1])}, 3)
        cls = int(np.argmax(g[0]))           # the winner, as PairwiseTree.predict_classes
        elapsed = time.perf_counter() - start
        g = tuple(g[0].tolist())
        assert g == (0.0, 2.0, -2.0)
        assert cls == 1                      # the second class, zero-based
        assert elapsed < 0.001
        report("C01 pairwise worked example", f"g={g} class={cls} {elapsed*1e6:.0f}us")


class TestC02ReferencePolynomialFixture:
    CHAIN = [
        ((("x", 10), ("x", 68)), [0.6965, 0.3916, 0.2484, -0.2312]),
        ((("n", 0), ("x", 72)), [0.3863, 0.5648, 0.5418, -0.4847]),
        ((("n", 1), ("x", 75)), [0.1914, 0.7763, 0.2378, -0.2042]),
    ]

    def network(self):
        neurons = [SupportingNeuron("bilinear", ins, w, layer=k + 1, survivor=True)
                   for k, (ins, w) in enumerate(self.CHAIN)]
        return PolyNetwork(neurons, 2, [])

    @staticmethod
    def interpret(net, x):
        """Brute-force reference evaluation, one neuron at a time."""
        vals = []
        for nrn in net.neurons:
            ins = [x[r] if t == "x" else vals[r] for t, r in nrn.inputs]
            v = nrn.weights[0] + nrn.weights[1] * ins[0] + nrn.weights[2] * ins[1] \
                + nrn.weights[3] * ins[0] * ins[1]
            vals.append(v)
        return vals[net.output]

    def test_reference_coefficients_feed_forward(self):
        start = time.perf_counter()
        net = self.network()
        zero = np.zeros(76)
        raw = net.raw_outputs(zero[None, :])[0]
        # the first neuron exposes its bias at the zero input, then the chain
        # feeds forward: 0.3863 + 0.5648 * 0.6965, then 0.1914 + 0.7763 * that
        chain0 = 0.6965
        chain1 = 0.3863 + 0.5648 * chain0
        chain2 = 0.1914 + 0.7763 * chain1
        assert self.interpret(PolyNetwork(net.neurons[:1], 0, []), zero) == chain0
        assert raw == pytest.approx(chain2, abs=1e-12)
        assert raw == pytest.approx(0.79666806816, abs=1e-12)

        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            x = rng.uniform(-1, 1, size=76)
            got = net.raw_outputs(x[None, :])[0]
            want = self.interpret(net, x)
            worst = max(worst, abs(got - want))
        elapsed = time.perf_counter() - start
        assert worst < 1e-12
        assert elapsed < 1.0
        report("C02 reference polynomial fixture",
               f"zero-input output={raw:.11f} max|diff|={worst:.2e} {elapsed:.2f}s")


class TestC03ContinuousXor:
    def test_layered_bilinear_network_solves_xor(self):
        start = time.perf_counter()
        data = gen_xor(2000, seed=1)
        train_all, test = split(data, SplitSpec((0.5, 0.5), seed=1))
        _, norm = normalize_zscore(train_all)
        train_n = norm.apply_dataset(train_all)
        test_n = norm.apply_dataset(test)
        A, B = split(train_n, SplitSpec((0.5, 0.5), seed=2))
        net = train_gmdh_layered(A, B, GmdhConfig(kind="bilinear", seed=1))
        acc = float(np.mean(net.predict_classes(test_n.features) == test_n.labels))
        elapsed = time.perf_counter() - start
        assert acc >= 0.95
        assert elapsed < 10.0
        report("C03 continuous XOR", f"test accuracy={acc:.4f} {elapsed:.2f}s")


class TestC04CascadeFeatureSelection:
    def test_selects_informative_features_and_tracks_baseline(self):
        start = time.perf_counter()
        cfg = FitConfig(learning_rate=2.0, epochs=300, restarts=1, seed=0)
        hits = 0
        errors = []
        first = None
        for s in range(20):
            data, informative = gen_surrogate_eeg(3000, 4, 68, 2, seed=100 + s)
            train_all, test = split(data, SplitSpec((2 / 3, 1 / 3), seed=s,
                                                    stratified=True))
            _, norm = normalize_zscore(train_all)
            train_n = norm.apply_dataset(train_all)
            test_n = norm.apply_dataset(test)
            A, B = split(train_n, SplitSpec((2 / 3, 1 / 3), seed=s + 1,
                                            stratified=True))
            net = train_ecnn(A, B, replace(cfg, seed=s))
            if len(set(net.selected_features) & set(informative)) >= 3:
                hits += 1
            err = float(np.mean(net.predict_classes(test_n.features) != test_n.labels))
            errors.append(err)
            if first is None:
                first = (A, B, test_n)
        assert hits >= 16, f"only {hits}/20 seeds selected >=3 informative columns"

        # baseline comparison, all 72 features, on the first seed's data
        A, B, test_n = first
        fnn = train_fnn(A, B, hidden=4, cfg=FnnConfig(restarts=3, max_epochs=500, seed=0))
        fnn_err = float(np.mean(fnn.predict_classes(test_n.features) != test_n.labels))
        elapsed = time.perf_counter() - start
        assert errors[0] <= fnn_err + 0.02
        assert float(np.mean(errors)) <= fnn_err + 0.02
        assert elapsed < 120.0
        report("C04 cascade feature selection",
               f"hits={hits}/20 ecnn_err(seed0)={errors[0]:.4f} "
               f"fnn_err={fnn_err:.4f} {elapsed:.1f}s")


class TestC05PocketRatchet:
    def test_separable_three_class_data_reaches_perfect_pocket(self):
        start = time.perf_counter()
        for s in range(10):
            ds = gen_blobs(600, classes=3, seed=200 + s, spread=0.25, radius=4.0)
            _, state = train_pocket_ratchet(LinearMachine.zeros(3, 2), ds,
                                            epochs=None, c=1.0, seed=s,
                                            use_ratchet=True)
            assert state.accuracy == 1.0, f"seed {s} pocket accuracy {state.accuracy}"
            trace = state.accuracy_trace
            assert all(b >= a for a, b in zip(trace, trace[1:]))
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0
        report("C05 pocket/ratchet", f"10/10 seeds perfect {elapsed:.1f}s")


class TestC06PairwiseTree:
    def test_three_blob_classes(self):
        start = time.perf_counter()
        data = gen_blobs(1500, classes=3, seed=7, spread=1.5, radius=3.0)
        train_all, test = split(data, SplitSpec((0.6, 0.4), seed=7, stratified=True))
        tr, va = split(train_all, SplitSpec((2 / 3, 1 / 3), seed=8, stratified=True))
        tree = train_pairwise_tree(tr, va, cfg=LmdtConfig(attempts=6, test_epochs=20,
                                                          seed=7))
        assert len(tree.tlus) == 3
        g = tree.class_scores(test.features)
        assert np.abs(g.sum(axis=1)).max() < 1e-12
        acc = float(np.mean(tree.predict_classes(test.features) == test.labels))
        elapsed = time.perf_counter() - start
        assert acc >= 0.90
        assert elapsed < 30.0
        report("C06 pairwise tree", f"test accuracy={acc:.4f} 3 units {elapsed:.1f}s")


class TestC07ExteriorCriterionOracle:
    def test_matches_direct_resummation(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for i in range(100):
            kind = "bilinear" if i % 2 == 0 else "linear"
            n_val = int(rng.integers(3, 40))
            nrn = SupportingNeuron(kind, (("x", 0), ("x", 1)),
                                   rng.uniform(-1, 1, size=4 if kind == "bilinear" else 3))
            V = rng.uniform(-1, 1, size=(n_val, 2))
            y = rng.integers(0, 2, size=n_val).astype(float)

            def predict(X, nrn=nrn):
                out = nrn.weights[0] + nrn.weights[1] * X[:, 0] + nrn.weights[2] * X[:, 1]
                if nrn.kind == "bilinear":
                    out = out + nrn.weights[3] * X[:, 0] * X[:, 1]
                return out

            score = exterior_criterion(predict(V), y)
            brute = 0.0
            for k in range(n_val):
                diff = float(predict(V[k:k + 1])[0]) - float(y[k])
                brute += diff * diff
            worst = max(worst, abs(score - brute))
        assert worst < 1e-12
        report("C07 exterior criterion oracle", f"max|diff|={worst:.2e} over 100 cases")


class TestC08RuleExtraction:
    def test_gap_fixtures_yield_single_clean_node(self):
        for seed in range(5):
            rng = np.random.default_rng(300 + seed)
            lo = rng.uniform(-3, 0.5, size=(40, 1))
            hi = rng.uniform(1.5, 4.0, size=(40, 1))
            tree = extract_rules(lo, hi, [0])
            node = tree.root
            assert node.low_child is None and node.high_child is None
            assert lo.max() < node.threshold < hi.min()
            assert all(classify_rule(tree, x) == 0 for x in lo)
            assert all(classify_rule(tree, x) == 1 for x in hi)
        report("C08a rule extraction on separable fixtures", "threshold inside gap, 0 errors")

    def test_reference_rule_shape_with_strict_boundary(self):
        node = RuleNode(feature=5, threshold=1.081, high_is_one=True)
        tree = RuleTree(node)
        text = to_text(tree, tuple(f"x{j+1}" for j in range(7)), ("normal", "artifact"))
        assert "x6 > 1.0810" in text
        x = np.zeros(7)
        x[5] = 1.2
        assert classify_rule(tree, x) == 1
        x[5] = 1.081          # boundary value goes to the low side: strict >
        assert classify_rule(tree, x) == 0
        x[5] = 1.0
        assert classify_rule(tree, x) == 0
        report("C08b rule text with strict threshold", text.replace("\n", " | "))


class TestC09DeterminismAndPersistence:
    METHODS = [
        ("ecnn", ("--epochs", "60", "--restarts", "1")),
        ("gmdh-layered", ()),
        ("gmdh-roulette", ("--attempts", "25",)),
        ("lm", ("--epochs", "40",)),
        ("pairwise-dt", ("--attempts", "3", "--test-epochs", "8")),
        ("ruletree", ()),
        ("fnn", ("--epochs", "60", "--restarts", "2")),
    ]

    def test_every_method_is_reproducible_and_round_trips(self, tmp_path):
        data = tmp_path / "xor.csv"
        assert main(["generate", "xor", "--n", "240", "--seed", "3",
                     "--out", str(data)]) == 0
        rng = np.random.default_rng(1)
        probe = rng.uniform(-1, 1, size=(100, 2))
        for method, extra in self.METHODS:
            a = tmp_path / f"{method}-a.json"
            b = tmp_path / f"{method}-b.json"
            for out in (a, b):
                code = main(["train", "--method", method, "--data", str(data),
                             "--out", str(out), "--seed", "17", *extra])
                assert code == 0, method
            assert a.read_bytes() == b.read_bytes(), f"{method} model not byte-stable"

            bundle = load_model(a)
            before = bundle.predict_csv_features(probe)
            resaved = tmp_path / f"{method}-resaved.json"
            save_model(resaved, bundle)
            after = load_model(resaved).predict_csv_features(probe)
            np.testing.assert_array_equal(before, after)
        report("C09 determinism & persistence",
               f"{len(self.METHODS)} methods byte-stable, round-trip exact")


class TestC10GradientChecks:
    def test_neuron_gradient_against_central_differences(self):
        rng = np.random.default_rng(12)
        U = rng.uniform(-2, 2, size=(25, 3))
        y = rng.integers(0, 2, size=25).astype(float)
        h = 1e-6
        for _ in range(20):
            w = rng.uniform(-2, 2, size=4)
            g = fit_gradient(w, U, y)
            for i in range(4):
                wp, wm = w.copy(), w.copy()
                wp[i] += h
                wm[i] -= h
                fd = (fit_loss(wp, U, y) - fit_loss(wm, U, y)) / (2 * h)
                assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-10)
        report("C10a neuron gradient check", "20 points within 1e-5")

    def test_backprop_gradient_against_central_differences(self):
        rng = np.random.default_rng(13)
        X = augment(rng.uniform(-1, 1, size=(10, 2)))   # both take augmented rows
        T = rng.integers(0, 2, size=(10, 1)).astype(float)
        h = 1e-6
        for _ in range(20):
            w_hid = rng.uniform(-1, 1, size=(3, 3))
            w_out = rng.uniform(-1, 1, size=(1, 4))
            g_hid, g_out = fnn_gradients(w_hid, w_out, X, T)
            i = (int(rng.integers(3)), int(rng.integers(3)))
            up, down = w_hid.copy(), w_hid.copy()
            up[i] += h
            down[i] -= h
            fd = (fnn_loss(up, w_out, X, T) - fnn_loss(down, w_out, X, T)) / (2 * h)
            assert g_hid[i] == pytest.approx(fd, rel=1e-5, abs=1e-10)
            j = (0, int(rng.integers(4)))
            up, down = w_out.copy(), w_out.copy()
            up[j] += h
            down[j] -= h
            fd = (fnn_loss(w_hid, up, X, T) - fnn_loss(w_hid, down, X, T)) / (2 * h)
            assert g_out[j] == pytest.approx(fd, rel=1e-5, abs=1e-10)
        report("C10b backprop gradient check", "20 points within 1e-5")


class TestC11PairwiseSection5:
    """Section 5: a 16-class concept induced by pairwise linear units that pick
    their own features, on the surrogate whose 6 informative columns shift by
    2/15 of a standard deviation per class. Trained on the first 800 rows of a
    draw and scored on its other 4000.

    Bounds pinned from seeds 0-12 (each trained in 4-8 s on a shared 2-vCPU
    host): held-out error 0.8525-0.8708 against chance 0.9375; 0.033-0.063
    above the nearest-mean reference, the Bayes rule for this generator; an
    informative share of 0.686-0.785 of 331-397 pair-unit picks, against a
    base rate of 6/16. `val_error` is the score that picked each unit's
    features, so it is not asserted.
    """

    CLASSES, RELEVANT, IRRELEVANT, SEPARATION = 16, 6, 10, 2.0
    TRAIN_ROWS, HELD_OUT_ROWS = 800, 4000

    @pytest.mark.parametrize("seed", [5, 0])
    def test_pair_units_pick_informative_columns(self, seed, tmp_path, capsys):
        rows = self.TRAIN_ROWS + self.HELD_OUT_ROWS
        data = tmp_path / "eeg.csv"
        assert main(["generate", "surrogate-eeg", "--n", str(rows),
                     "--classes", str(self.CLASSES), "--relevant", str(self.RELEVANT),
                     "--irrelevant", str(self.IRRELEVANT),
                     "--separation", str(self.SEPARATION), "--seed", str(seed),
                     "--out", str(data)]) == 0
        draw, informative = gen_surrogate_eeg(rows, self.RELEVANT, self.IRRELEVANT,
                                              self.CLASSES, seed,
                                              separation=self.SEPARATION)
        assert capsys.readouterr().out.startswith(
            "informative_columns=" + ",".join(map(str, informative)) + "\n")
        header, *lines = data.read_text().splitlines(keepends=True)
        train, held_out = tmp_path / "train.csv", tmp_path / "held-out.csv"
        train.write_text(header + "".join(lines[:self.TRAIN_ROWS]))
        held_out.write_text(header + "".join(lines[self.TRAIN_ROWS:]))

        model = tmp_path / "model.json"
        start = time.perf_counter()
        assert main(["train", "--method", "pairwise-dt", "--attempts", "2",
                     "--test-epochs", "5", "--data", str(train), "--out", str(model),
                     "--seed", str(seed)]) == 0
        elapsed = time.perf_counter() - start
        capsys.readouterr()
        assert main(["evaluate", "--model", str(model), "--data", str(held_out)]) == 0
        out = capsys.readouterr().out
        error = float(next(line for line in out.splitlines()
                           if line.startswith("error=")).split("=")[1])

        held = draw.take(np.arange(self.TRAIN_ROWS, rows))
        average = held.features[:, list(informative)].mean(axis=1)
        means = self.SEPARATION * (np.arange(self.CLASSES) / (self.CLASSES - 1) - 0.5)
        nearest = np.argmin(np.abs(average[:, None] - means[None, :]), axis=1)
        reference = float(np.mean(nearest != held.labels))
        picks = [f for t in load_model(model).model.tlus.values() for f in t.features]
        share = float(np.mean([f in informative for f in picks]))

        chance = 1 - 1 / self.CLASSES
        assert error <= chance - 0.04
        assert error - reference <= 0.08
        assert share >= 0.6
        assert elapsed < 60.0
        report(f"C11 pairwise Section 5 (seed {seed})",
               f"held-out error={error:.4f} nearest-mean={reference:.4f} "
               f"chance={chance:.4f} informative picks={share:.3f} of {len(picks)} "
               f"train {elapsed:.1f}s")
