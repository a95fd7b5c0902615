"""Linear machines, pocket training, feature search, pairwise combination."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evonets import linear
from evonets._util import derive_seed
from evonets.dataset import Dataset, SplitSpec, gen_blobs, split
from evonets.errors import DataError
from evonets.linear import (THERMAL_EPSILON, LinearMachine, LinearTest, LmdtConfig,
                            PairwiseTree, _correct, _fit_test, aggregate_segments,
                            combine_pairwise, induce_dt, sfs_select, thermal_correction,
                            train_pairwise_tree, train_pocket_ratchet)

QUICK = LmdtConfig(test_epochs=15, attempts=5, seed=0)


def wta(lm, x):
    """Winner-take-all class of one example, as a one-row matrix."""
    (k,) = lm.predict_classes(np.asarray(x)[None, :])
    return k


class TestWta:
    def test_sign_of_single_feature(self):
        lm = LinearMachine(np.array([[0.0, 1.0], [0.0, -1.0]]))
        assert wta(lm, np.array([3.0])) == 0
        assert wta(lm, np.array([-3.0])) == 1

    def test_all_identical_ties_to_class_zero(self):
        lm = LinearMachine(np.ones((3, 3)))
        assert wta(lm, np.array([0.5, -0.5])) == 0

    def test_common_increment_does_not_change_decision(self):
        rng = np.random.default_rng(0)
        W = rng.normal(size=(4, 5))
        lm = LinearMachine(W.copy())
        delta = rng.normal(size=5)
        shifted = LinearMachine(W + delta)
        for _ in range(20):
            x = rng.normal(size=4)
            assert wta(lm, x) == wta(shifted, x)

    def test_positive_scaling_does_not_change_decision(self):
        rng = np.random.default_rng(1)
        W = rng.normal(size=(3, 4))
        lm = LinearMachine(W.copy())
        scaled = LinearMachine(2.7 * W)
        for _ in range(20):
            x = rng.normal(size=3)
            assert wta(lm, x) == wta(scaled, x)

    def test_length_mismatch(self):
        lm = LinearMachine(np.zeros((2, 3)))
        with pytest.raises(DataError):
            wta(lm, np.array([1.0]))


class TestErrorCorrect:
    """The pocket's correction step, on the augmented input (1, x)."""

    def test_direct_arithmetic(self):
        W = np.zeros((2, 2))
        _correct(W, np.array([1.0, 2.0]), true_class=0, predicted=1, amount=1.0)
        np.testing.assert_array_equal(W[0], [1.0, 2.0])
        np.testing.assert_array_equal(W[1], [-1.0, -2.0])

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_weight_sum_conserved(self, seed):
        rng = np.random.default_rng(seed)
        W = rng.normal(size=(3, 4))
        before = W.sum(axis=0).copy()
        _correct(W, np.concatenate([[1.0], rng.normal(size=3)]), true_class=2, predicted=0,
                 amount=float(rng.uniform(0.1, 3)))
        np.testing.assert_allclose(W.sum(axis=0), before, atol=1e-12)

    @given(st.integers(2, 4), st.sampled_from(["fixed", "thermal"]),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_row_views_match_the_matrix(self, classes, correction, seed):
        # the pocket loop corrects a list of W's row views; a run of
        # corrections on them writes the same bytes as on W itself
        rng = np.random.default_rng(seed)
        W = rng.normal(size=(classes, 4)) * 10.0 ** rng.integers(-3, 4)
        V = W.copy()
        rows = list(V)
        beta = float(rng.uniform(0.01, 2.0))
        for _ in range(20):
            xa = np.concatenate([[1.0], rng.normal(size=3)])
            q, p = (int(k) for k in rng.choice(classes, size=2, replace=False))
            if correction == "thermal":
                amount = thermal_correction(beta, W[q], W[p], xa)
                assert thermal_correction(beta, rows[q], rows[p], xa) == amount
            else:
                amount = float(rng.uniform(0.1, 3.0))
            _correct(W, xa, q, p, amount)
            _correct(rows, xa, q, p, amount)
            assert V.tobytes() == W.tobytes()
        assert all(np.shares_memory(row, V) for row in rows)

    def test_zero_correction_is_identity(self):
        W = np.ones((2, 2))
        _correct(W, np.array([1.0, 1.0]), 0, 1, amount=0.0)
        np.testing.assert_array_equal(W, np.ones((2, 2)))

    def test_pocket_corrects_only_misclassified_draws(self):
        # a machine that already classifies every row is never corrected
        ds = gen_blobs(60, classes=2, seed=1, spread=0.3, radius=3.0)
        lm, state = train_pocket_ratchet(LinearMachine.zeros(2, 2), ds, seed=2)
        assert state.accuracy == 1.0
        again, state = train_pocket_ratchet(lm, ds, epochs=3, seed=5, use_ratchet=False)
        np.testing.assert_array_equal(again.weights, lm.weights)
        assert state.run_length == 3 * ds.n_rows


class TestPocket:
    def test_separable_reaches_perfect_pocket(self):
        ds = gen_blobs(240, classes=2, seed=1, spread=0.3, radius=3.0)
        lm, state = train_pocket_ratchet(LinearMachine.zeros(2, 2), ds, seed=2)
        assert state.accuracy == 1.0
        preds = lm.predict_classes(ds.features)
        assert np.mean(preds != ds.labels) == 0.0

    def test_accuracy_trace_non_decreasing_with_ratchet(self):
        ds = gen_blobs(150, classes=3, seed=3, spread=1.8)
        _, state = train_pocket_ratchet(LinearMachine.zeros(3, 2), ds,
                                        epochs=40, seed=4, use_ratchet=True)
        trace = state.accuracy_trace
        assert all(b > a for a, b in zip(trace, trace[1:]))

    def test_run_length_trace_non_decreasing_without_ratchet(self):
        ds = gen_blobs(150, classes=3, seed=5, spread=1.8)
        _, state = train_pocket_ratchet(LinearMachine.zeros(3, 2), ds,
                                        epochs=40, seed=6, use_ratchet=False)
        trace = state.run_length_trace
        assert all(b > a for a, b in zip(trace, trace[1:]))

    def test_deterministic(self):
        ds = gen_blobs(100, classes=2, seed=7, spread=1.5)
        a, _ = train_pocket_ratchet(LinearMachine.zeros(2, 2), ds, epochs=30, seed=8)
        b, _ = train_pocket_ratchet(LinearMachine.zeros(2, 2), ds, epochs=30, seed=8)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_thermal_mode_trains(self):
        ds = gen_blobs(120, classes=2, seed=9, spread=2.5)
        lm, state = train_pocket_ratchet(LinearMachine.zeros(2, 2), ds, epochs=30,
                                         seed=10, correction="thermal")
        assert state.accuracy >= 0.5

    @pytest.mark.parametrize("setting, message", [
        ({"c": 0}, "c must be positive"),
        ({"c": -1.0}, "c must be positive"),
        ({"c": float("nan")}, "c must be positive"),
        ({"c": float("inf")}, "c must be finite"),
        ({"correction": "thermall"}, "unknown correction 'thermall'"),
    ])
    def test_bad_correction_setting_rejected(self, setting, message):
        # the same check LmdtConfig makes
        ds = gen_blobs(60, classes=3, seed=0)
        with pytest.raises(DataError, match=message):
            train_pocket_ratchet(LinearMachine.zeros(3, 2), ds, epochs=2, **setting)
        with pytest.raises(DataError, match=message):
            LmdtConfig(**setting)

    def test_weight_sum_conserved_through_training(self):
        # every correction adds and subtracts the same vector, so starting
        # from zeros any weight snapshot keeps a (near-)zero column sum
        ds = gen_blobs(200, classes=3, seed=11, spread=2.0)
        lm, state = train_pocket_ratchet(LinearMachine.zeros(3, 2), ds,
                                         epochs=25, seed=12)
        np.testing.assert_allclose(lm.weights.sum(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(state.weights.sum(axis=0), 0.0, atol=1e-9)


def correction_at(beta, k):
    """thermal_correction's size at offset gap k: with xa = (1, 0) and
    w_true - w_pred = (2 (k - eps), 0), half the normalized gap plus eps is k."""
    w_true = np.array([2.0 * (k - THERMAL_EPSILON), 0.0])
    return thermal_correction(beta, w_true, np.zeros(2), np.array([1.0, 0.0]))


class TestThermal:
    def test_zero_gap_gives_unit_correction(self):
        assert correction_at(2.0, 0.0) == 1.0

    def test_worked_value(self):
        assert correction_at(2.0, 2.0) == pytest.approx(1 / 3, abs=1e-15)

    def test_bounded_and_shrinking(self):
        ks = np.linspace(0, 10, 50)
        cs = [correction_at(2.0, k) for k in ks]
        assert all(0 < c <= 1 for c in cs)
        assert all(b <= a for a, b in zip(cs, cs[1:]))

    def test_full_formula(self):
        w_true = np.array([0.0, 1.0])
        w_pred = np.array([0.0, -1.0])
        xa = np.array([1.0, 2.0])
        # k = (w_true - w_pred) . xa / (2 xa . xa) + eps = 4/10 + 0.11
        expect = 2.0 / (2.0 + 0.51**2)
        assert thermal_correction(2.0, w_true, w_pred, xa) == pytest.approx(expect, abs=1e-12)


def informative_pair_dataset(seed, n=240, noise=8):
    """Classes split by the sign of f0 + f1; alone each feature is weak."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2 + noise))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    names = tuple(f"f{j}" for j in range(2 + noise))
    return Dataset(X, y, names, 2)


class TestSfs:
    def test_recovers_informative_pair(self):
        hits = 0
        for seed in range(20):
            ds = informative_pair_dataset(seed, n=160, noise=6)
            tr, va = split(ds, SplitSpec((0.5, 0.5), seed=seed))
            test = sfs_select(tr, va, LmdtConfig(test_epochs=12, seed=seed))
            if {0, 1} <= set(test.features):
                hits += 1
        assert hits >= 16

    def test_single_feature_input(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(100, 1))
        y = (X[:, 0] > 0).astype(int)
        ds = Dataset(X, y, ("only",), 2)
        test = sfs_select(ds, ds, QUICK)
        assert test.features == (0,)

    def test_multiclass_rejected(self):
        ds = gen_blobs(60, classes=3, seed=0)
        with pytest.raises(DataError):
            sfs_select(ds, ds, QUICK)


class TestInduceDt:
    def test_attempt_range_works(self):
        ds = informative_pair_dataset(3, n=120, noise=2)
        for attempts in (5, 25):
            test = induce_dt(ds, ds, replace(QUICK, attempts=attempts, seed=1))
            assert len(test.features) >= 1

    def test_all_noise_matches_majority_rate(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(300, 5))
        y = rng.integers(0, 2, 300)
        ds = Dataset(X, y, tuple(f"f{j}" for j in range(5)), 2)
        tr, va = split(ds, SplitSpec((0.5, 0.5), seed=5))
        test = induce_dt(tr, va, replace(QUICK, attempts=8, seed=6))
        assert len(test.features) >= 1
        majority = max(np.mean(va.labels), 1 - np.mean(va.labels))
        assert abs(test.accuracy - majority) < 0.12

    def test_deterministic(self):
        ds = informative_pair_dataset(7, n=150, noise=3)
        a = induce_dt(ds, ds, replace(QUICK, attempts=6, seed=9))
        b = induce_dt(ds, ds, replace(QUICK, attempts=6, seed=9))
        assert a.features == b.features
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_feature_cap_respected(self):
        ds = informative_pair_dataset(8, n=150, noise=6)
        test = induce_dt(ds, ds, replace(QUICK, max_features=2, attempts=6, seed=10))
        assert len(test.features) <= 2

    @staticmethod
    def coins(monkeypatch, ds, cfg):
        """Run induce_dt and return the coins its generator drew, and one
        (attempt, rank, coins drawn so far, accuracy) per candidate it fitted."""
        drawn, fits = [0], []
        make, coin_seed = np.random.default_rng, derive_seed(cfg.seed, 1)

        class Counted:
            def __init__(self, rng):
                self.rng = rng

            def random(self):
                drawn[0] += 1
                return self.rng.random()

        keys = {derive_seed(cfg.seed, 2, a, r): (a, r)
                for a in range(cfg.attempts) for r in range(ds.n_features)}
        fit = linear._fit_test

        def logged(train, val, feats, cfg, seed):
            cand = fit(train, val, feats, cfg, seed)
            if seed in keys:   # not a single-feature test
                fits.append(keys[seed] + (drawn[0], cand.accuracy))
            return cand

        monkeypatch.setattr(np.random, "default_rng", lambda seed=None: (
            Counted(make(seed)) if seed == coin_seed else make(seed)))
        monkeypatch.setattr(linear, "_fit_test", logged)
        induce_dt(ds, ds, cfg)
        return drawn[0], fits

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("attempts", [1, 3, 6])
    def test_every_attempt_draws_one_coin_per_feature(self, monkeypatch, seed, attempts):
        # without a feature cap no scan stops early: attempt a draws coins
        # a*m .. (a+1)*m - 1, the one for rank r when it reaches r
        ds = informative_pair_dataset(seed, n=120, noise=4)
        m = ds.n_features
        drawn, fits = self.coins(monkeypatch, ds, replace(QUICK, attempts=attempts, seed=seed))
        assert drawn == attempts * m
        assert fits and all(so_far == a * m + r + 1 for a, r, so_far, _ in fits)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_a_feature_cap_makes_the_coins_depend_on_accepts(self, monkeypatch, seed):
        # with a cap of two features, a scan stops after its second accepted
        # candidate, so each attempt draws up to that candidate's coin
        rng = np.random.default_rng(seed)   # noise: the accepts fall anywhere
        ds = Dataset(rng.normal(size=(120, 6)), rng.integers(0, 2, 120),
                     tuple(f"f{j}" for j in range(6)), 2)
        m, attempts, cap = ds.n_features, 6, 2
        drawn, fits = self.coins(monkeypatch, ds,
                                 replace(QUICK, attempts=attempts, max_features=cap, seed=seed))
        stops = []
        for a in range(attempts):
            accepted, best, stop = 0, 0.0, m
            for r, acc in [(r, acc) for a_, r, _, acc in fits if a_ == a]:
                if acc > best:
                    accepted, best = accepted + 1, acc
                    if accepted == cap:
                        stop = r + 1
                        break
            stops.append(stop)
        assert drawn == sum(stops) < attempts * m


class TestPairwiseTree:
    def test_three_classes_give_three_units(self):
        ds = gen_blobs(150, classes=3, seed=11, spread=1.0)
        tr, va = split(ds, SplitSpec((0.5, 0.5), seed=12))
        tree = train_pairwise_tree(tr, va, cfg=QUICK)
        assert sorted(tree.tlus) == [(0, 1), (0, 2), (1, 2)]

    def test_sixteen_classes_give_120_units(self):
        ds = gen_blobs(16 * 30, classes=16, seed=13, spread=0.4, radius=8.0)
        tr, va = split(ds, SplitSpec((0.5, 0.5), seed=14, stratified=True))
        cfg = LmdtConfig(pair_trainer="all-features", test_epochs=3, seed=0)
        tree = train_pairwise_tree(tr, va, cfg=cfg)
        assert len(tree.tlus) == 120

    def test_two_classes_reduce_to_the_binary_unit(self):
        ds = gen_blobs(120, classes=2, seed=15, spread=1.0)
        tr, va = split(ds, SplitSpec((0.5, 0.5), seed=16))
        tree = train_pairwise_tree(tr, va, cfg=QUICK)
        tlu = tree.tlus[(0, 1)]
        X = ds.features
        # +1 output means class 0 (the positive side of pair (0, 1))
        tlu_pred = np.where(tlu.outputs(X) > 0, 0, 1)
        np.testing.assert_array_equal(tree.predict_classes(X), tlu_pred)

    @pytest.mark.parametrize("trainer", ["induce-dt", "sfs", "all-features"])
    def test_pair_without_validation_rows_is_scored_on_its_training_rows(self, trainer):
        ds = gen_blobs(160, classes=4, seed=21, spread=1.0)
        tr, va = split(ds, SplitSpec((0.5, 0.5), seed=22))
        keep = va.labels < 2   # classes 2 and 3 have no validation rows
        va = Dataset(va.features[keep], va.labels[keep], va.feature_names, 4)
        cfg = replace(QUICK, pair_trainer=trainer)
        got = train_pairwise_tree(tr, va, cfg=cfg).tlus[(2, 3)]

        mask = (tr.labels == 2) | (tr.labels == 3)
        pair = Dataset(tr.features[mask], (tr.labels[mask] == 2).astype(int),
                       tr.feature_names, 2)
        no_rows = Dataset(pair.features[:0], pair.labels[:0], tr.feature_names, 2)
        seed = derive_seed(cfg.seed, 2, 3)
        want = {
            "induce-dt": lambda: induce_dt(pair, no_rows, replace(cfg, seed=seed)),
            "sfs": lambda: sfs_select(pair, no_rows, replace(cfg, seed=seed)),
            "all-features": lambda: _fit_test(pair, no_rows, (0, 1), cfg, seed),
        }[trainer]()
        assert got.features == want.features
        assert got.weights.tobytes() == want.weights.tobytes()
        on_train = np.mean((got.outputs(pair.features) > 0).astype(int) == pair.labels)
        assert got.accuracy == want.accuracy == on_train

    @pytest.mark.parametrize("trainer, name", [("induce-dt", "induce_dt"),
                                               ("sfs", "sfs_select")])
    def test_pair_trainer_is_called_through_its_module_name(self, trainer, name,
                                                             monkeypatch):
        # a wrapper installed on the module name (as a tracer does) sees every pair
        import evonets.linear as linear
        ds = gen_blobs(150, classes=3, seed=11, spread=1.0)
        tr, va = split(ds, SplitSpec((0.5, 0.5), seed=12))
        fit, seeds = getattr(linear, name), []

        def counted(pair_train, pair_val, cfg):
            seeds.append(cfg.seed)
            return fit(pair_train, pair_val, cfg)

        monkeypatch.setattr(linear, name, counted)
        tree = train_pairwise_tree(tr, va, replace(QUICK, pair_trainer=trainer))
        assert seeds == [derive_seed(QUICK.seed, i, j) for i, j in sorted(tree.tlus)]

    def test_empty_pair_side_rejected(self):
        X = np.random.default_rng(0).normal(size=(10, 2))
        labels = np.array([0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
        ds = Dataset(X, labels, ("a", "b"), 3)  # class 2 never appears
        with pytest.raises(DataError, match="empty side"):
            train_pairwise_tree(ds, ds, cfg=QUICK)


def constant_tree(signs, class_count):
    """A pairwise tree whose unit (i, j) outputs signs[(i, j)] on every row:
    a one-feature test with zero slope and that sign as its bias."""
    return PairwiseTree(class_count, {p: LinearTest((0,), [float(s), 0.0])
                                      for p, s in signs.items()})


class TestCombine:
    """The fixed +/-1 vote, as the pairwise model runs it."""

    def test_worked_example(self):
        tree = constant_tree({(0, 1): -1, (0, 2): 1, (1, 2): 1}, 3)
        X = np.zeros((2, 1))
        np.testing.assert_array_equal(tree.class_scores(X), [[0.0, 2.0, -2.0]] * 2)
        assert tree.predict_classes(X).tolist() == [1, 1]

    def test_all_positive_makes_first_class_win(self):
        r = 5
        tree = constant_tree({(i, j): 1 for i in range(r) for j in range(i + 1, r)}, r)
        g = tree.class_scores(np.zeros((1, 1)))
        assert g[0, 0] == r - 1
        assert tree.predict_classes(np.zeros((1, 1))).tolist() == [0]

    def test_tie_goes_to_the_lowest_class(self):
        # a cycle 0 > 1 > 2 > 0 gives every class the score 0
        tree = constant_tree({(0, 1): 1, (0, 2): -1, (1, 2): 1}, 3)
        np.testing.assert_array_equal(tree.class_scores(np.zeros((1, 1))), [[0.0, 0.0, 0.0]])
        assert tree.predict_classes(np.zeros((1, 1))).tolist() == [0]

    @given(st.integers(2, 6), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_scores_sum_to_zero_and_are_bounded(self, r, seed):
        rng = np.random.default_rng(seed)
        tree = PairwiseTree(r, {(i, j): LinearTest((0, 1), rng.normal(size=3))
                                for i in range(r) for j in range(i + 1, r)})
        X = rng.normal(size=(40, 2))
        g = tree.class_scores(X)
        assert g.shape == (40, r)
        np.testing.assert_array_equal(g.sum(axis=1), 0.0)
        assert np.abs(g).max() <= r - 1
        # each row's scores are its units' votes, summed one row at a time
        for n in range(X.shape[0]):
            votes = np.zeros(r)
            for (i, j), t in tree.tlus.items():
                f = t.outputs(X[n:n + 1])[0]
                votes[i] += f
                votes[j] -= f
            np.testing.assert_array_equal(g[n], votes)

    def test_incomplete_map_rejected(self):
        with pytest.raises(DataError, match="missing"):
            combine_pairwise({(0, 1): np.array([1])}, class_count=3)

    @pytest.mark.parametrize("pairs, named", [
        ([(0, 1)], r"missing \[\(0, 2\), \(1, 2\)\], extra \[\]"),
        ([(0, 1), (0, 2), (1, 2), (2, 3)], r"missing \[\], extra \[\(2, 3\)\]"),
        ([(0, 1), (0, 2), (2, 1)], r"missing \[\(1, 2\)\], extra \[\(2, 1\)\]"),
    ])
    def test_tree_and_vote_name_the_same_wrong_pairs(self, pairs, named):
        message = f"need one pairwise unit per class pair; {named}"
        with pytest.raises(DataError, match=message):
            constant_tree({p: 1 for p in pairs}, 3)
        with pytest.raises(DataError, match=message):
            combine_pairwise({p: np.array([1]) for p in pairs}, class_count=3)


class TestAggregate:
    def test_fraction_of_segments(self):
        preds = [2] * 92 + [0] * 8
        dist = aggregate_segments(preds, 3)
        assert dist[2] == pytest.approx(0.92)

    def test_single_prediction(self):
        dist = aggregate_segments([1], 2)
        np.testing.assert_array_equal(dist, [0.0, 1.0])

    def test_sums_to_one(self):
        rng = np.random.default_rng(17)
        preds = rng.integers(0, 4, 57)
        assert aggregate_segments(preds, 4).sum() == pytest.approx(1.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            aggregate_segments([], 2)
