"""Dataset container, CSV ingestion, normalization, splits, and generators."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evonets.cli import _load_for_model
from evonets.dataset import (Dataset, NormParams, SplitSpec, gen_blobs, gen_surrogate_eeg,
                             gen_xor, load_csv, normalize_zscore, save_csv, split)
from evonets.errors import DataError


def write_csv(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestDatasetInvariants:
    def test_row_mismatch_rejected(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((3, 2)), [0, 1], ("a", "b"), 2)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((2, 1)), [0, 2], ("a",), 2)

    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((2, 2)), [0, 1], ("a", "a"), 2)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((2, 1)), [0, 0], ("a",), 1)


class TestLoadCsv:
    def test_first_appearance_label_mapping(self, tmp_path):
        p = write_csv(tmp_path, "f1,y\n1.0,a\n2.0,b\n3.0,a\n")
        ds = load_csv(p, "y")
        assert list(ds.labels) == [0, 1, 0]
        assert ds.class_count == 2
        assert ds.label_names == ("a", "b")

    def test_single_distinct_label_is_error(self, tmp_path):
        p = write_csv(tmp_path, "f1,y\n1.0,a\n2.0,a\n")
        with pytest.raises(DataError, match="fewer than 2 classes"):
            load_csv(p, "y")

    def test_label_column_excluded_from_features(self, tmp_path):
        p = write_csv(tmp_path, "f1,f2,y\n1,2,0\n3,4,1\n")
        ds = load_csv(p, "y")
        assert ds.feature_names == ("f1", "f2")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="missing file"):
            load_csv(tmp_path / "nope.csv", "y")

    def test_missing_label_column(self, tmp_path):
        p = write_csv(tmp_path, "f1,y\n1.0,a\n2.0,b\n")
        with pytest.raises(DataError, match="label column 'target'"):
            load_csv(p, "target")

    def test_non_numeric_cell_reports_row_and_column(self, tmp_path):
        p = write_csv(tmp_path, "f1,f2,y\n1.0,2.0,a\n1.0,oops,b\n")
        with pytest.raises(DataError, match="line 3, column 'f2'"):
            load_csv(p, "y")

    def test_non_finite_cell_rejected(self, tmp_path):
        p = write_csv(tmp_path, "f1,y\nnan,a\n1.0,b\n")
        with pytest.raises(DataError, match="line 2, column 'f1'"):
            load_csv(p, "y")

    # a stored label mapping is applied by the evaluation reader
    STORED = SimpleNamespace(norm=NormParams(0.0, 1.0), label_column="y", feature_names=("f1",),
                             label_names=("a", "b"))

    def test_pinned_label_order(self, tmp_path):
        p = write_csv(tmp_path, "f1,y\n1.0,b\n2.0,a\n")
        ds, _ = _load_for_model("m.json", self.STORED, p)
        assert list(ds.labels) == [1, 0]

    def test_pinned_label_order_rejects_unknown(self, tmp_path):
        p = write_csv(tmp_path, "f1,y\n1.0,c\n2.0,a\n")
        with pytest.raises(DataError, match="label 'c'"):
            _load_for_model("m.json", self.STORED, p)

    def test_round_trip_through_save(self, tmp_path):
        ds = gen_xor(50, seed=3)
        p = tmp_path / "xor.csv"
        save_csv(ds, p)
        back = load_csv(p, "y")
        assert np.array_equal(back.features, ds.features)


class TestNormalize:
    def test_hand_computed_column(self):
        # population sd of [1,2,3] is sqrt(2/3)
        ds = Dataset(np.array([[1.0], [2.0], [3.0]]), [0, 1, 0], ("a",), 2)
        out, params = normalize_zscore(ds)
        assert params.mean[0] == pytest.approx(2.0, abs=0)
        assert params.sd[0] == pytest.approx(0.816496580927726, abs=1e-15)
        np.testing.assert_allclose(out.features[:, 0],
                                   [-1.224744871391589, 0.0, 1.224744871391589],
                                   atol=1e-15)

    def test_constant_column_centered_only(self):
        ds = Dataset(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]), [0, 1, 0],
                     ("a", "b"), 2)
        out, params = normalize_zscore(ds)
        assert params.sd[0] == 1.0
        np.testing.assert_array_equal(out.features[:, 0], [0.0, 0.0, 0.0])

    def test_idempotent_on_normalized_input(self):
        rng = np.random.default_rng(0)
        ds = Dataset(rng.normal(3, 2, size=(40, 3)), rng.integers(0, 2, 40),
                     ("a", "b", "c"), 2)
        once, _ = normalize_zscore(ds)
        twice, _ = normalize_zscore(once)
        np.testing.assert_allclose(twice.features, once.features, atol=1e-9)

    def test_statistics_property(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            ds = Dataset(rng.normal(rng.uniform(-5, 5), rng.uniform(0.1, 4),
                                    size=(100, 4)),
                         rng.integers(0, 2, 100), ("a", "b", "c", "d"), 2)
            out, _ = normalize_zscore(ds)
            assert np.abs(out.features.mean(axis=0)).max() < 1e-9
            assert np.abs(out.features.std(axis=0) - 1).max() < 1e-9

    @pytest.mark.parametrize("column", [[1.7e308, -1.7e308, 1.7e308],
                                        [1.7e308, 1.7e308, 1.7e308],
                                        [1.7e308, 0.0, -1.7e308]])
    def test_overflowing_column_refused_by_name(self, column):
        ds = Dataset(np.column_stack([[1.0, 2.0, 3.0], column]), [0, 1, 0], ("a", "b"), 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^column 'b': its mean or sd overflows a float$"):
                normalize_zscore(ds)

    def test_too_few_rows(self):
        ds = Dataset(np.array([[1.0]]), [0], ("a",), 2)
        with pytest.raises(DataError):
            normalize_zscore(ds)


class TestSplit:
    def test_exact_division(self):
        ds = gen_xor(300, seed=0)
        a, b = split(ds, SplitSpec((2 / 3, 1 / 3), seed=5))
        assert (a.n_rows, b.n_rows) == (200, 100)

    def test_same_seed_same_assignment(self):
        ds = gen_xor(100, seed=0)
        one = split(ds, SplitSpec((0.5, 0.5), seed=9))
        two = split(ds, SplitSpec((0.5, 0.5), seed=9))
        for p1, p2 in zip(one, two):
            np.testing.assert_array_equal(p1.features, p2.features)
            np.testing.assert_array_equal(p1.labels, p2.labels)

    def test_three_rows_stratified_rounding(self):
        # floor-then-remainder-to-first gives a 2/1 split
        ds = Dataset(np.arange(3.0)[:, None], [0, 0, 1], ("a",), 2)
        a, b = split(ds, SplitSpec((0.5, 0.5), seed=1, stratified=True))
        assert (a.n_rows, b.n_rows) == (2, 1)

    @given(n=st.integers(10, 200), seed=st.integers(0, 2**32 - 1),
           frac=st.floats(0.2, 0.8), stratified=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_split_is_a_partition(self, n, seed, frac, stratified):
        base = np.arange(n, dtype=float)[:, None]
        ds = Dataset(base, (np.arange(n) % 2), ("a",), 2)
        parts = split(ds, SplitSpec((frac, 1 - frac), seed=seed, stratified=stratified))
        merged = np.sort(np.concatenate([p.features[:, 0] for p in parts]))
        np.testing.assert_array_equal(merged, base[:, 0])

    def test_stratified_proportions(self):
        ds = gen_blobs(300, classes=3, seed=2)
        a, b = split(ds, SplitSpec((2 / 3, 1 / 3), seed=0, stratified=True))
        for c in range(3):
            total = np.sum(ds.labels == c)
            got = np.sum(a.labels == c)
            assert abs(got - total * 2 / 3) <= 1

    def test_empty_part_rejected(self):
        ds = Dataset(np.arange(2.0)[:, None], [0, 1], ("a",), 2)
        with pytest.raises(DataError):
            split(ds, SplitSpec((0.9, 0.1), seed=0))

    def test_bad_fractions_rejected(self):
        with pytest.raises(DataError):
            SplitSpec((0.5, 0.4))
        with pytest.raises(DataError):
            SplitSpec((1.2, -0.2))


class TestGenerators:
    def test_xor_rows_respect_formula(self):
        ds = gen_xor(500, seed=11)
        want = (ds.features[:, 0] * ds.features[:, 1] > 0).astype(int)
        np.testing.assert_array_equal(ds.labels, want)

    def test_xor_bounds_and_reproducibility(self):
        one = gen_xor(200, seed=4)
        two = gen_xor(200, seed=4)
        np.testing.assert_array_equal(one.features, two.features)
        assert one.features.min() >= -1 and one.features.max() <= 1

    def test_surrogate_column_counts(self):
        ds, informative = gen_surrogate_eeg(500, relevant=4, irrelevant=68,
                                            classes=2, seed=7)
        assert ds.n_features == 72
        assert len(informative) == 4

    def test_surrogate_noise_columns_are_centered(self):
        n = 4000
        ds, informative = gen_surrogate_eeg(n, relevant=2, irrelevant=6,
                                            classes=2, seed=1)
        noise = [j for j in range(ds.n_features) if j not in informative]
        for j in noise:
            assert abs(ds.features[:, j].mean()) < 4 / np.sqrt(n)

    def test_surrogate_informative_columns_shift_with_class(self):
        ds, informative = gen_surrogate_eeg(4000, relevant=2, irrelevant=2,
                                            classes=2, seed=3, separation=2.0)
        for j in informative:
            gap = ds.features[ds.labels == 1, j].mean() - ds.features[ds.labels == 0, j].mean()
            assert gap == pytest.approx(2.0, abs=0.15)

    def test_surrogate_reproducible(self):
        a = gen_surrogate_eeg(100, seed=9)
        b = gen_surrogate_eeg(100, seed=9)
        np.testing.assert_array_equal(a[0].features, b[0].features)
        assert a[1] == b[1]

    def test_blobs_balanced_and_reproducible(self):
        ds = gen_blobs(90, classes=3, seed=5)
        assert [np.sum(ds.labels == c) for c in range(3)] == [30, 30, 30]
        again = gen_blobs(90, classes=3, seed=5)
        np.testing.assert_array_equal(ds.features, again.features)

    @pytest.mark.parametrize("spread, radius", [(1e308, 3.0), (1e305, 1.7976e308)])
    def test_blobs_refuse_features_that_overflow(self, spread, radius):
        with pytest.raises(DataError, match="^generated features overflow a float; use a "
                                            "smaller spread or radius$"):
            gen_blobs(30, seed=0, spread=spread, radius=radius)
