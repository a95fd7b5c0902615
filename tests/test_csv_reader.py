"""The bulk CSV reader against the row-at-a-time loops it replaced.

The bulk reader parses a clean file with loadtxt a block of lines at a
time, coding the label and group cells as it goes; a large clean file is
split at line starts among forked processes, each parsing its part in
bulk; `parse_rows` reads any other file and words every error.
`oracle_load_csv` and `oracle_load_for_model` are the former bodies of
`dataset.load_csv` and `cli._load_for_model`, kept verbatim as the reference
(less `load_csv`'s stored-label-order branch, which `_load_for_model` took
over): on every generated file the production readers must give
bit-identical features, the same labels and groups, or the same first error
message.
"""

import csv
import math
import os
import signal
import threading
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import evonets.dataset as dataset
from evonets.cli import _load_for_model, main
from evonets.dataset import Dataset, NormParams, gen_surrogate_eeg, load_csv, save_csv
from evonets.errors import DataError


def oracle_load_csv(path, label_column):
    p = Path(path)
    if not p.exists():
        raise DataError(f"missing file: {path}")
    with open(p, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DataError(f"{path}: empty file, no header row")
    header = [h.strip() for h in rows[0]]
    if label_column not in header:
        raise DataError(f"{path}: label column '{label_column}' not found in header")
    li = header.index(label_column)
    names = [h for i, h in enumerate(header) if i != li]
    if not names:
        raise DataError(f"{path}: no feature columns besides the label")

    feats, raw_labels = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(f"{path}: line {lineno}: expected {len(header)} cells, got {len(row)}")
        vals = []
        for i, cell in enumerate(row):
            if i == li:
                raw_labels.append(cell.strip())
                continue
            try:
                value = float(cell)
                if not np.isfinite(value):
                    raise ValueError
                vals.append(value)
            except ValueError:
                raise DataError(
                    f"{path}: line {lineno}, column '{header[i]}': non-numeric value '{cell.strip()}'"
                ) from None
        feats.append(vals)
    if not feats:
        raise DataError(f"{path}: no data rows")

    order, index = [], {}
    for s in raw_labels:
        if s not in index:
            index[s] = len(order)
            order.append(s)
    if len(order) < 2:
        raise DataError(f"{path}: fewer than 2 classes in column '{label_column}'")

    labels = np.array([index[s] for s in raw_labels], dtype=int)
    return Dataset(np.array(feats, dtype=float), labels, tuple(names), len(order), tuple(order))


def oracle_load_for_model(path, bundle, group_by=None):
    p = Path(path)
    if not p.exists():
        raise DataError(f"missing file: {path}")
    with open(p, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DataError(f"{path}: empty file, no header row")
    header = [h.strip() for h in rows[0]]
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
    feats, labels, groups = [], [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(f"{path}: line {lineno}: expected {len(header)} cells")
        vals = []
        for name in bundle.feature_names:
            cell = row[col_of[name]]
            try:
                value = float(cell)
                if not np.isfinite(value):
                    raise ValueError
            except ValueError:
                raise DataError(f"{path}: line {lineno}, column '{name}': "
                                f"non-numeric value '{cell.strip()}'") from None
            vals.append(value)
        feats.append(vals)
        lab = row[col_of[label_column]].strip()
        if lab not in label_index:
            raise DataError(f"{path}: line {lineno}: label '{lab}' not in the stored mapping")
        labels.append(label_index[lab])
        if group_by is not None:
            groups.append(row[col_of[group_by]].strip())
    if not feats:
        raise DataError(f"{path}: no data rows")
    ds = Dataset(np.array(feats), np.array(labels), bundle.feature_names,
                 len(bundle.label_names), bundle.label_names)
    return ds, groups


def number_cells(forms):
    return st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                     st.floats(-1e6, 1e6).map(lambda v: f"{v:.3e}"),
                     st.integers(-10**6, 10**6).map(str), st.sampled_from(forms))


# Raw cell text as it appears between commas. Mostly numbers in the forms
# float() accepts, with a minority of cells each reader must reject.
CLEAN_FORMS = ["1e-3", "1E+2", "-0", ".5", "5.", " 2.5 ", "\t7", "0001", "+1.5", "\xa01",
               "1\u3000"]
CLEAN_CELLS = number_cells(CLEAN_FORMS)
# forms float() reads and loadtxt does not
ODD_NUMBERS = ["1_0", '"3.25"', '" -4 "']
NUMBER_CELLS = number_cells(CLEAN_FORMS + ODD_NUMBERS)
# "#" ends a line for loadtxt unless comments=None; loadtxt strips \x1c-\x1f
# around a number and float() does not
BAD_CELLS = st.sampled_from(["nan", "inf", "-Infinity", "1e999", "-1e999", "1e400", "",
                             " ", "abc", '"1,5"', "1__0", "0x10", "--1", "#", "1#2", "#1",
                             "1\x1c", "\x1f2", "1\x00"])
CELLS = st.one_of(NUMBER_CELLS, NUMBER_CELLS, NUMBER_CELLS, NUMBER_CELLS, BAD_CELLS)
ODD_CELLS = st.one_of(BAD_CELLS, st.sampled_from(ODD_NUMBERS))
CLEAN_LABELS = st.sampled_from(["0", "1", " 1", "0 ", "\t1 "])
ODD_LABELS = st.sampled_from(['"1"', "a", "2", "1\x00", "\x000", "1#", "1\x1c", "  "])
LABELS = st.one_of(CLEAN_LABELS, ODD_LABELS)
GROUPS = st.sampled_from(["r1", "r2", " r3 ", "r1\x00", "\x00r2", "\tr3  ", "#r", ""])
STORED_LABELS = ("0", "1")
# z-scoring by mean 0 and sd 1 keeps every value's bits, so the evaluation
# reader, which applies a model's normalization, reads as the oracle does
IDENTITY = NormParams(0.0, 1.0)


# Rows that loadtxt reads otherwise than csv and float() do
LOADTXT_FORMS = [
    "a,y\n1,0,9\n2,1\n",            # an extra or a missing cell on the first
    "a,y\n1\n2,1\n",                # row, where loadtxt takes its width from,
    "a,y\n1,0,9\n2,1,9\n",          # or on every row
    "a,y\n1\n2\n",
    "a,y\n1,0,\n2,1\n",             # a trailing comma
    "y,a\n0,1#2\n1,2\n",            # "#", a comment unless comments=None
    "a,y\n1,0#\n2,1\n",
    "a,y\n1\x1c,0\n2,1\n",          # stripped by loadtxt, not by float()
    "y,a\n0,\x1f2\n1,2\n",
    "a,y\n1e400,0\n2,1\n",          # inf to loadtxt
    "a,y\n1,0\n \n2,1\n",           # a whitespace-only line
    "a,y\n1,0\x00\n2,1\n",          # a label's trailing NUL
    "a,y\r1,0\r\x0c\r2,1\r",
    "a,y\r\n1,0\r\n2,1\r\n3\r\n",    # a missing cell after \r\n line ends
]
# Forms at the edge of what loadtxt reads
EDGE_FORMS = [
    '"a",b,y\n1,2,0\n3,4,1\n',       # a quote anywhere
    'a,b,y\n"1",2,0\n3,4,1\n',
    "a,b,y\n1_0,2,0\n3,4,1\n",       # float() reads 1_0, loadtxt does not
    "a,b,y\r1,2, 0\r\r3,4,1 \r",    # lone \r line ends, a blank line
    "a,b,y\n1,2,0\n3,4,1",           # no final line end
    "a,b,y\r\n1,2,0\r\n\r\n3,4,1\r\n",  # \r\n line ends, a blank line
]


@st.composite
def csv_files(draw, group_allowed):
    """(CSV text, feature names, whether it has the group column 'g').

    A third of the files are clean: unquoted, with valid numbers and labels
    and no ragged or whitespace-only line, so the bulk parse takes them. A
    third are clean but for one odd cell or one ragged, whitespace-only or
    trailing-comma line, which the bulk parse must decline. The rest draw
    every line freely."""
    mode = draw(st.sampled_from(["clean", "one fault", "free"]))
    free = mode == "free"
    with_group = group_allowed and draw(st.booleans())
    names = draw(st.lists(st.sampled_from(["a", "b", "c", "d", "e"]),
                          min_size=1, max_size=4, unique=True))
    columns = names + ["y"] + (["g"] if with_group else [])
    columns = draw(st.permutations(columns))
    width = len(columns)
    forms = (lambda c: [c, f" {c} ", f'"{c}"']) if free else (lambda c: [c, f" {c} "])
    header = ",".join(draw(st.sampled_from(forms(c))) for c in columns)
    free_kinds = ["row"] * 6 + ["blank", "ragged", "space", "trailing"]

    def line(kind, clean):
        if kind == "blank":
            return ""
        if kind == "space":
            return draw(st.sampled_from([" ", "\t", "  ", "\x0c"]))
        n = width if kind in ("row", "trailing") else \
            draw(st.integers(1, width + 2).filter(lambda k: k != width))
        cells = []
        for k in range(n):
            column = columns[k] if k < width else None
            if column == "y":
                cells.append(draw(CLEAN_LABELS if clean else LABELS))
            elif column == "g":
                cells.append(draw(GROUPS))
            else:
                cells.append(draw(CLEAN_CELLS if clean else CELLS))
        return ",".join(cells) + ("," if kind == "trailing" else "")

    kinds = free_kinds if free else ["row"] * 6 + ["blank"]
    lines = [line(draw(st.sampled_from(kinds)), not free)
             for _ in range(draw(st.integers(0, 8)))]
    if mode == "one fault" and lines:
        k = draw(st.integers(0, len(lines) - 1))
        fault = draw(st.sampled_from(["cell"] * 3 + free_kinds[-3:]))
        if fault == "cell":
            cells = line("row", True).split(",")
            j = draw(st.integers(0, width - 1))
            cells[j] = draw({"y": ODD_LABELS, "g": GROUPS}.get(columns[j], ODD_CELLS))
            lines[k] = ",".join(cells)
        else:
            lines[k] = line(fault, True)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    end = newline if draw(st.integers(0, 3)) else ""
    return newline.join([header] + lines) + end, names, with_group


def outcome(read, layout=False):
    """What a reader produced: its arrays as bytes, or its error text; with
    layout, also whether its feature matrix is in row and in column order,
    which the oracles, made by np.array, need not share."""
    try:
        result = read()
    except DataError as exc:
        return ("error", str(exc))
    ds, groups = result if isinstance(result, tuple) else (result, None)
    return ("ok", ds.features.tobytes(), ds.features.shape, ds.labels.tolist(),
            ds.feature_names, ds.label_names, ds.class_count, groups) + \
        ((ds.features.flags.c_contiguous, ds.features.flags.f_contiguous) if layout else ())


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "data.csv"


SETTINGS = settings(max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


class TestMatchesOracle:
    @given(data=csv_files(group_allowed=False))
    @SETTINGS
    def test_load_csv(self, csv_path, data):
        text, _, _ = data
        csv_path.write_text(text, encoding="utf-8", newline="")
        expected = outcome(lambda: oracle_load_csv(csv_path, "y"))
        assert outcome(lambda: load_csv(csv_path, "y")) == expected

    @given(data=csv_files(group_allowed=True), shuffle=st.randoms(),
           header_fault=st.sampled_from([None, None, None, "unexpected", "missing"]),
           group_as=st.sampled_from(["own", "own", "own", "feature", "label"]))
    @SETTINGS
    def test_load_for_model(self, csv_path, data, shuffle, header_fault, group_as):
        """--group-by names the group column 'g' where the file has one, and
        otherwise nothing; or it names a feature or the label column."""
        text, names, group = data
        csv_path.write_text(text, encoding="utf-8", newline="")
        model_order = list(names)
        shuffle.shuffle(model_order)
        if header_fault == "unexpected" and len(model_order) > 1:
            model_order.pop()
        elif header_fault == "missing":
            model_order.append("z")
        bundle = SimpleNamespace(norm=IDENTITY, label_column="y",
                                 feature_names=tuple(model_order),
                                 label_names=STORED_LABELS)
        group_by = {"own": "g" if group else None, "feature": names[0], "label": "y"}[group_as]
        expected = outcome(lambda: oracle_load_for_model(csv_path, bundle, group_by))
        assert outcome(lambda: _load_for_model("m.json", bundle, csv_path, group_by)) == \
            expected

    def test_generated_files_reach_both_outcomes(self, csv_path):
        """The strategy yields parsed files as well as rejected ones."""
        seen = set()

        @given(data=csv_files(group_allowed=False))
        @settings(max_examples=200, deadline=None, database=None)
        def probe(data):
            csv_path.write_text(data[0], encoding="utf-8", newline="")
            seen.add(outcome(lambda: load_csv(csv_path, "y"))[0])

        probe()
        assert seen == {"ok", "error"}

    def test_generated_files_reach_both_paths(self, csv_path, monkeypatch):
        """Some generated files are read by the bulk parse alone, and some
        need parse_rows to word their error."""
        calls = []
        fallback = dataset.parse_rows

        def counted(*args, **kwargs):
            calls.append(1)
            return fallback(*args, **kwargs)

        monkeypatch.setattr(dataset, "parse_rows", counted)
        seen = set()

        @given(data=csv_files(group_allowed=False))
        @settings(max_examples=200, deadline=None, database=None)
        def probe(data):
            csv_path.write_text(data[0], encoding="utf-8", newline="")
            calls.clear()
            result = outcome(lambda: load_csv(csv_path, "y"))[0]
            seen.add((result, "parse_rows" if calls else "bulk"))

        probe()
        assert {("ok", "bulk"), ("error", "parse_rows")} <= seen

    @pytest.mark.parametrize("text", LOADTXT_FORMS)
    def test_forms_loadtxt_reads_are_rejected(self, csv_path, text):
        """Rows that loadtxt reads otherwise than csv and float() do give the
        oracle's result: under the stored mapping its error, under a free
        mapping also the labels kept as written ("0#", "0\\x00")."""
        csv_path.write_text(text, encoding="utf-8", newline="")
        assert outcome(lambda: load_csv(csv_path, "y")) == \
            outcome(lambda: oracle_load_csv(csv_path, "y"))
        bundle = SimpleNamespace(norm=IDENTITY, label_column="y", feature_names=("a",),
                                 label_names=STORED_LABELS)
        read = outcome(lambda: _load_for_model("m.json", bundle, csv_path))
        assert read[0] == "error"
        assert read == outcome(lambda: oracle_load_for_model(csv_path, bundle))

    @pytest.mark.parametrize("text", ["a,y\n5,1\n3,0\n", "a,b,y\n5, 1,1\n3,2 ,0\n",
                                      "a,y\n5,1\n3,2\n"])
    @pytest.mark.parametrize("group_by", ["a", "y"])
    def test_group_column_is_a_feature_or_the_label(self, csv_path, text, group_by):
        """A group column that is also a feature or the label keeps its
        stripped text as the group and its feature value or label as such;
        a label outside the stored mapping is still refused."""
        csv_path.write_text(text, encoding="utf-8", newline="")
        names = tuple(h for h in text.split("\n")[0].split(",") if h != "y")
        bundle = SimpleNamespace(norm=IDENTITY, label_column="y", feature_names=names,
                                 label_names=STORED_LABELS)
        read = outcome(lambda: _load_for_model("m.json", bundle, csv_path, group_by))
        assert read[0] == ("error" if "3,2\n" in text else "ok")
        assert read == outcome(lambda: oracle_load_for_model(csv_path, bundle, group_by))

    @pytest.mark.parametrize("text", ["", "\n", "\r\n", "\r", "a,y", "a,y\n", "a,y\r\n\r\n",
                                      "a\n1\n", "y\n0\n"])
    def test_files_without_rows(self, csv_path, text):
        """Empty files, blank headers, files without data rows and files
        without a label or feature column give the oracle's error."""
        csv_path.write_text(text, encoding="utf-8", newline="")
        read = outcome(lambda: load_csv(csv_path, "y"))
        assert read[0] == "error"
        assert read == outcome(lambda: oracle_load_csv(csv_path, "y"))
        bundle = SimpleNamespace(norm=IDENTITY, label_column="y", feature_names=("a",),
                                 label_names=STORED_LABELS)
        read = outcome(lambda: _load_for_model("m.json", bundle, csv_path))
        assert read[0] == "error"
        assert read == outcome(lambda: oracle_load_for_model(csv_path, bundle))

    @pytest.mark.parametrize("text", EDGE_FORMS)
    def test_edge_forms_read_as_the_oracle(self, csv_path, monkeypatch, text):
        """Forms at the edge of what loadtxt reads come out as the oracle reads
        them; only those with a quote or an underscore need parse_rows."""
        calls = []
        fallback = dataset.parse_rows
        monkeypatch.setattr(dataset, "parse_rows",
                            lambda *args: calls.append(1) or fallback(*args))
        csv_path.write_text(text, encoding="utf-8", newline="")
        loaded = outcome(lambda: load_csv(csv_path, "y"))
        assert loaded[0] == "ok"
        assert loaded == outcome(lambda: oracle_load_csv(csv_path, "y"))
        assert bool(calls) == ('"' in text or "_" in text)


class TestBulkPath:
    """Clean files never leave the bulk parse: with parse_rows made to
    raise, they still read, and read as the oracles read them."""

    @pytest.fixture(autouse=True)
    def no_fallback(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a clean file left the bulk parse")

        monkeypatch.setattr(dataset, "parse_rows", refuse)

    def check(self, path, feature_names, label_names, group_by=None):
        loaded = outcome(lambda: load_csv(path, "y"))
        assert loaded[0] == "ok"
        assert loaded == outcome(lambda: oracle_load_csv(path, "y"))
        bundle = SimpleNamespace(norm=IDENTITY, label_column="y",
                                 feature_names=tuple(feature_names),
                                 label_names=label_names)
        for_model = outcome(lambda: _load_for_model("m.json", bundle, path, group_by))
        assert for_model[0] == "ok"
        assert for_model == outcome(lambda: oracle_load_for_model(path, bundle, group_by))

    def test_one_loadtxt_call_per_clean_file(self, tmp_path, monkeypatch):
        """Each reader parses a clean file with one loadtxt call, which asks
        for str cells (numpy before 2.0 hands converters bytes by default)."""
        ds, _ = gen_surrogate_eeg(50, relevant=2, irrelevant=3, seed=2)
        path = tmp_path / "eeg.csv"
        save_csv(ds, path)
        calls = []
        loadtxt = np.loadtxt

        def counted(*args, **kwargs):
            calls.append(kwargs.get("encoding", "bytes"))
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counted)
        load_csv(path, "y")
        assert len(calls) == 1
        bundle = SimpleNamespace(norm=IDENTITY, label_column="y",
                                 feature_names=ds.feature_names, label_names=ds.label_names)
        _load_for_model("m.json", bundle, path)
        assert calls == [None, None]

    @pytest.mark.parametrize("text, features, stored, group_by", [
        ("y,a,b\n0,1,2\n1,3,4\n0,5,6\n", ("b", "a"), ("0", "1"), None),  # the label first
        ("a,y\n1,\n2,1\n3, \t\n", ("a",), ("", "1"), None),  # empty and whitespace-only
        ("y,a\n,1\n1,2\n \t,3\n", ("a",), ("", "1"), None),  # label cells
        ("a,y\n1,nan\n2,1e400\n3,0x1\n4, nan\n", ("a",), ("nan", "1e400", "0x1"), None),
        ("a,g,y\n1, 7 ,0\n2,\t8,1\n3,7  ,1\n", ("a",), ("0", "1"), "g"),  # groups to strip
    ])
    def test_label_and_group_forms(self, tmp_path, text, features, stored, group_by):
        """Label and group cells the converters must strip and code, labels
        that read as numbers among them."""
        path = tmp_path / "edge.csv"
        path.write_text(text, encoding="utf-8", newline="")
        self.check(path, features, stored, group_by)

    def test_save_csv_file(self, tmp_path):
        ds, _ = gen_surrogate_eeg(300, relevant=3, irrelevant=5, seed=4)
        path = tmp_path / "eeg.csv"
        save_csv(ds, path)
        assert load_csv(path, "y").features.tobytes() == ds.features.tobytes()
        self.check(path, reversed(ds.feature_names), ds.label_names)

    def test_repr_floats_with_crlf(self, tmp_path):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((60, 3)) * 10.0 ** rng.integers(-300, 300, size=(60, 3))
        X[::7, 1] = 5e-324
        X[::9, 2] = -0.0
        labels = rng.integers(0, 2, size=60)
        lines = ["a,y,b,g,c"] + [f"{a!r},{y},{b!r},{g},{c!r}"
                                 for (a, b, c), y, g in zip(X.tolist(), labels, labels * 3 + 1)]
        path = tmp_path / "crlf.csv"
        path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
        assert load_csv(path, "y").features[:, [0, 1, 3]].tobytes() == X.tobytes()
        self.check(path, ["c", "a", "b"], ("0", "1"), group_by="g")


def past_the_first_block(text, rows=200, after=0):
    """text with `rows` rows of zeros after its header, in the text's own line
    ends, so that its own rows lie past the first block of SMALL_BLOCK, and
    `after` rows of zeros after its own rows."""
    newline = "\r\n" if "\r\n" in text else "\r" if "\r" in text else "\n"
    header, rest = text.split(newline, 1)
    zeros = ",".join(["0"] * (header.count(",") + 1))
    text = newline.join([header] + [zeros] * rows) + newline + rest
    if after:
        text += ("" if text.endswith(newline) else newline) + \
            newline.join([zeros] * after) + newline
    return text


SMALL_BLOCK = 300


class TestBlocks:
    """The reader takes a file a block of text at a time. With the block cut
    to a few hundred characters, rows, faults, quotes and line ends past the
    first block read as the oracles read them."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(dataset, "_BLOCK", SMALL_BLOCK)

    @staticmethod
    def bundle(text):
        header = next(csv.reader([text.splitlines()[0]]))
        return SimpleNamespace(norm=IDENTITY, label_column="y",
                               feature_names=tuple(h for h in header if h != "y"),
                               label_names=STORED_LABELS)

    @pytest.mark.parametrize("text", LOADTXT_FORMS)
    def test_loadtxt_forms_past_the_first_block(self, csv_path, text):
        text = past_the_first_block(text)
        csv_path.write_text(text, encoding="utf-8", newline="")
        assert outcome(lambda: load_csv(csv_path, "y")) == \
            outcome(lambda: oracle_load_csv(csv_path, "y"))
        bundle = self.bundle(text)
        read = outcome(lambda: _load_for_model("m.json", bundle, csv_path))
        assert read[0] == "error"
        assert read == outcome(lambda: oracle_load_for_model(csv_path, bundle))

    @pytest.mark.parametrize("text", EDGE_FORMS)
    def test_edge_forms_past_the_first_block(self, csv_path, monkeypatch, text):
        """Only a quote or an underscore past the first block sends the file
        to parse_rows."""
        calls = []
        fallback = dataset.parse_rows
        monkeypatch.setattr(dataset, "parse_rows",
                            lambda *args: calls.append(1) or fallback(*args))
        text = past_the_first_block(text)
        csv_path.write_text(text, encoding="utf-8", newline="")
        loaded = outcome(lambda: load_csv(csv_path, "y"))
        assert loaded[0] == "ok"
        assert loaded == outcome(lambda: oracle_load_csv(csv_path, "y"))
        bundle = self.bundle(text)
        assert outcome(lambda: _load_for_model("m.json", bundle, csv_path)) == \
            outcome(lambda: oracle_load_for_model(csv_path, bundle))
        assert bool(calls) == ('"' in text or "_" in text)

    def test_clean_file_is_parsed_a_block_at_a_time(self, tmp_path, monkeypatch):
        ds, _ = gen_surrogate_eeg(200, relevant=2, irrelevant=3, seed=2)
        path = tmp_path / "eeg.csv"
        save_csv(ds, path)
        calls = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs:
                            calls.append(1) or loadtxt(*args, **kwargs))
        monkeypatch.setattr(dataset, "parse_rows", None)   # a clean file never calls it
        assert load_csv(path, "y").features.tobytes() == ds.features.tobytes()
        assert len(calls) >= path.stat().st_size // (2 * SMALL_BLOCK)
        bundle = SimpleNamespace(norm=IDENTITY, label_column="y",
                                 feature_names=ds.feature_names[::-1],
                                 label_names=ds.label_names)
        assert outcome(lambda: _load_for_model("m.json", bundle, path)) == \
            outcome(lambda: oracle_load_for_model(path, bundle))

    def test_generated_files_in_any_block_size(self, csv_path):
        """Blocks of 1 to 40 characters cut the generated files everywhere,
        also between the \\r and \\n of a line end."""
        @given(data=csv_files(group_allowed=True), block=st.integers(1, 40))
        @settings(max_examples=200, deadline=None, database=None,
                  suppress_health_check=[HealthCheck.too_slow])
        def probe(data, block):
            text, names, group = data
            csv_path.write_text(text, encoding="utf-8", newline="")
            bundle = SimpleNamespace(norm=IDENTITY, label_column="y", feature_names=tuple(names),
                                     label_names=STORED_LABELS)
            group_by = "g" if group else None
            expected = (outcome(lambda: oracle_load_csv(csv_path, "y")),
                        outcome(lambda: oracle_load_for_model(csv_path, bundle, group_by)))
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(dataset, "_BLOCK", block)
                assert (outcome(lambda: load_csv(csv_path, "y")),
                        outcome(lambda: _load_for_model("m.json", bundle, csv_path,
                                                        group_by))) == expected

        probe()

    @pytest.mark.parametrize("block", [SMALL_BLOCK, 1 << 20])
    def test_utf8_fault_wins_over_an_earlier_bad_cell(self, tmp_path, monkeypatch, capsys,
                                                      block):
        """A bad cell on line 3 and an undecodable byte on line 4000: the
        whole file is decoded before any row is read."""
        monkeypatch.setattr(dataset, "_BLOCK", block)
        lines = ["x1,x2,y", "0.5,0.25,1", "oops,0.25,0"] + ["0.1,0.2,1"] * 3997
        lines[3999] = "0.1,0.2,caf\xe9"
        path = tmp_path / "late.csv"
        path.write_bytes("\n".join(lines).encode("latin-1") + b"\n")
        assert main(["train", "--method", "lm", "--data", str(path),
                     "--out", str(tmp_path / "m.json")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "late.csv: not valid UTF-8 (byte 0xe9" in err, err


def one_process(read):
    """read() with the file parsed by one process."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataset, "SPLIT_BYTES", math.inf)
        return read()


def model_bundle(names):
    return SimpleNamespace(norm=IDENTITY, label_column="y", feature_names=tuple(names),
                           label_names=STORED_LABELS)


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# the form's own rows first, in the middle and last among 90 rows of zeros
PLACES = [(0, 90), (45, 45), (90, 0)]


class TestSplit:
    """With SPLIT_BYTES cut to one byte and two or three CPUs, a plain file is
    split at line starts into two or three parts, the first parsed by the
    parent and each other by a forked worker. Rows, faults and line ends
    placed in each part read as the oracles read them, and the matrix keeps
    the layout one process gives it."""

    @pytest.fixture(autouse=True, params=[2, 3])
    def forks(self, request, monkeypatch):
        monkeypatch.setattr(dataset, "SPLIT_BYTES", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)))
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        return forks

    @staticmethod
    def reads(path, bundle, group_by=None):
        return (lambda: load_csv(path, "y"),
                lambda: _load_for_model("m.json", bundle, path, group_by))

    def check(self, path, bundle, group_by=None):
        """Both readers give the oracles' outcomes, and one process's layout."""
        expected = (outcome(lambda: oracle_load_csv(path, "y")),
                    outcome(lambda: oracle_load_for_model(path, bundle, group_by)))
        reads = self.reads(path, bundle, group_by)
        assert tuple(outcome(read) for read in reads) == expected
        assert [outcome(read, layout=True) for read in reads] == \
            [one_process(lambda: outcome(read, layout=True)) for read in reads]

    @pytest.mark.parametrize("place", PLACES)
    @pytest.mark.parametrize("text", LOADTXT_FORMS)
    def test_loadtxt_forms_in_each_part(self, csv_path, forks, text, place):
        text = past_the_first_block(text, *place)
        csv_path.write_text(text, encoding="utf-8", newline="")
        self.check(csv_path, TestBlocks.bundle(text))
        assert bool(forks) == (not any(c in text for c in '"' + dataset._FLOAT_BLANKS))

    @pytest.mark.parametrize("place", PLACES)
    @pytest.mark.parametrize("text", EDGE_FORMS)
    def test_edge_forms_in_each_part(self, csv_path, monkeypatch, forks, text, place):
        """Only a quote or an underscore sends the file to parse_rows, and
        only a quote keeps it from being split."""
        calls = []
        fallback = dataset.parse_rows
        monkeypatch.setattr(dataset, "parse_rows",
                            lambda *args: calls.append(1) or fallback(*args))
        text = past_the_first_block(text, *place)
        csv_path.write_text(text, encoding="utf-8", newline="")
        self.check(csv_path, TestBlocks.bundle(text))
        assert outcome(lambda: load_csv(csv_path, "y"))[0] == "ok"
        assert bool(calls) == ('"' in text or "_" in text)
        assert bool(forks) == ('"' not in text)

    def test_generated_files(self, csv_path, forks):
        """Generated files, split among processes and read in blocks of 1 to
        40 characters."""
        @given(data=csv_files(group_allowed=True), block=st.integers(1, 40))
        @settings(max_examples=150, deadline=None, database=None,
                  suppress_health_check=[HealthCheck.too_slow])
        def probe(data, block):
            text, names, group = data
            csv_path.write_text(text, encoding="utf-8", newline="")
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(dataset, "_BLOCK", block)
                self.check(csv_path, model_bundle(names), "g" if group else None)

        probe()
        assert forks

    def test_a_part_of_blank_lines(self, csv_path, monkeypatch, forks):
        """A part holding only blank lines adds no rows; the file is still
        read in bulk."""
        monkeypatch.setattr(dataset, "parse_rows", None)
        csv_path.write_text("a,y\n1,0\n" + "\n" * 300 + "2,1\n", encoding="utf-8")
        self.check(csv_path, model_bundle("a"))
        assert forks

    @pytest.fixture
    def eeg_csv(self, tmp_path):
        ds, _ = gen_surrogate_eeg(300, relevant=2, irrelevant=3, seed=5)
        path = tmp_path / "eeg.csv"
        save_csv(ds, path)
        return path

    @staticmethod
    def parent_parses(monkeypatch, worker=lambda parsed: parsed):
        """The calls of _bulk_parse in this process; in a worker, what it
        returns goes through worker()."""
        parent, calls = os.getpid(), []
        bulk = dataset._bulk_parse

        def counted(*args):
            if os.getpid() == parent:
                calls.append(1)
                return bulk(*args)
            return worker(bulk(*args))

        monkeypatch.setattr(dataset, "_bulk_parse", counted)
        return calls

    def test_worker_matrices_arrive_through_pipes(self, eeg_csv, monkeypatch, forks):
        calls = self.parent_parses(monkeypatch)
        read = self.reads(eeg_csv, None)[0]
        split = outcome(read, layout=True)
        assert len(calls) == 1 and len(forks) == len(os.sched_getaffinity(0)) - 1
        assert split == one_process(lambda: outcome(read, layout=True))

    @pytest.mark.parametrize("raises", [False, True])
    def test_a_worker_leaves_by_os_exit(self, eeg_csv, tmp_path, monkeypatch, raises):
        """A worker neither returns into its caller's code, even when it
        raises SystemExit, nor flushes a buffer it inherited."""
        def exit(parsed):
            raise SystemExit(0)

        self.parent_parses(monkeypatch, exit if raises else None)
        parent = os.getpid()
        escaped = tmp_path / "escaped"
        with open(tmp_path / "buffered.txt", "w") as buffered:
            buffered.write("x")   # not yet flushed
            try:
                read = outcome(lambda: load_csv(eeg_csv, "y"), layout=True)
            finally:
                if os.getpid() != parent:   # a worker in this test's code
                    escaped.touch()
                    os._exit(0)
        assert not escaped.exists()
        assert (tmp_path / "buffered.txt").read_text() == "x"
        assert read == one_process(lambda: outcome(lambda: load_csv(eeg_csv, "y"), layout=True))

    @pytest.mark.parametrize("failure", ["raises", "out of memory", "exits", "is killed",
                                         "ends inside its matrix"])
    def test_a_failed_worker_part_is_parsed_in_the_parent(self, eeg_csv, monkeypatch,
                                                          failure):
        class Short:   # a matrix of which the worker writes five values
            T = np.arange(5.0)

        def fail(parsed):
            if failure == "raises":
                raise ValueError
            if failure == "out of memory":
                raise MemoryError
            if failure == "exits":
                os._exit(1)
            if failure == "is killed":
                os.kill(os.getpid(), signal.SIGKILL)
            return (Short(),) + parsed[1:]

        calls = self.parent_parses(monkeypatch, fail)
        read = self.reads(eeg_csv, None)[0]
        split = outcome(read, layout=True)
        assert len(calls) == len(os.sched_getaffinity(0))
        assert split == one_process(lambda: outcome(read, layout=True))
        no_child_left()

    @pytest.mark.parametrize("call", ["pipe", "fork"])
    def test_a_part_that_gets_no_worker_is_parsed_in_the_parent(self, eeg_csv, monkeypatch,
                                                                call):
        def refused():
            raise OSError("resource temporarily unavailable")

        monkeypatch.setattr(os, call, refused)
        calls = self.parent_parses(monkeypatch)
        read = self.reads(eeg_csv, None)[0]
        split = outcome(read, layout=True)
        assert len(calls) == len(os.sched_getaffinity(0))
        assert split == one_process(lambda: outcome(read, layout=True))
        no_child_left()

    def test_workers_are_killed_and_reaped_when_the_first_part_declines(self, tmp_path,
                                                                        monkeypatch):
        """A value loadtxt reads as inf on the first data line: the parent's
        part declines, and the workers, which would sleep a minute, are
        killed and reaped at once."""
        self.parent_parses(monkeypatch, lambda parsed: time.sleep(60))
        path = tmp_path / "late.csv"
        path.write_text("a,y\n1e400,0\n" + "1,1\n" * 300, encoding="utf-8")
        start = time.monotonic()
        read = outcome(lambda: load_csv(path, "y"))
        assert time.monotonic() - start < 30
        assert read[0] == "error"
        assert read == outcome(lambda: oracle_load_csv(path, "y"))
        no_child_left()

    def test_an_interrupt_kills_and_reaps_the_workers(self, eeg_csv, monkeypatch):
        parent, bulk = os.getpid(), dataset._bulk_parse

        def interrupted(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        monkeypatch.setattr(dataset, "_bulk_parse", interrupted)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            load_csv(eeg_csv, "y")
        assert time.monotonic() - start < 30
        no_child_left()

    def test_no_split_while_another_thread_runs(self, eeg_csv, forks):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            read = outcome(lambda: load_csv(eeg_csv, "y"), layout=True)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert not forks
        assert read == one_process(lambda: outcome(lambda: load_csv(eeg_csv, "y"), layout=True))

    @pytest.mark.parametrize("host", ["small file", "one CPU", "no fork", "no affinity"])
    def test_one_process_where_a_split_cannot_pay(self, eeg_csv, monkeypatch, forks, host):
        if host == "small file":
            monkeypatch.setattr(dataset, "SPLIT_BYTES", eeg_csv.stat().st_size + 1)
        elif host == "one CPU":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        else:
            monkeypatch.delattr(os, "fork" if host == "no fork" else "sched_getaffinity")
        read = load_csv(eeg_csv, "y")
        assert not forks
        assert outcome(lambda: read) == outcome(lambda: oracle_load_csv(eeg_csv, "y"))

    def test_peak_memory_of_a_split_read(self, tmp_path):
        """A 12000 x 73 table split between processes: the parent holds its
        own part's blocks and the joined matrix, never a worker's copy."""
        ds, _ = gen_surrogate_eeg(12000, relevant=4, irrelevant=68, seed=3)
        path = tmp_path / "eeg.csv"
        save_csv(ds, path)
        tracemalloc.start()
        try:
            X = load_csv(path, "y").features
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert X.tobytes() == ds.features.tobytes()
        assert peak <= 2.5 * X.nbytes, (peak, X.nbytes)


@pytest.mark.parametrize("quoted", [False, True])
def test_peak_memory_is_bounded_by_the_feature_matrix(tmp_path, monkeypatch, quoted):
    """Reading a 12000 x 73 table (72 features and the label) holds at most
    2.5 times its float matrix at its peak: on a clean file the matrix's
    blocks, the matrix they are joined into, and one block of text; with
    quoted labels parse_rows' packed cells and the matrix made of them."""
    ds, _ = gen_surrogate_eeg(12000, relevant=4, irrelevant=68, seed=3)
    path = tmp_path / "eeg.csv"
    save_csv(ds, path)
    if quoted:   # the label is each line's last cell
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:1] + [f'{head},"{label}"' for head, _, label in
                                               (line.rpartition(",") for line in lines[1:])])
                        + "\n", encoding="utf-8")
    calls = []
    fallback = dataset.parse_rows
    monkeypatch.setattr(dataset, "parse_rows", lambda *args: calls.append(1) or fallback(*args))

    def locate(header):
        return [i for i, h in enumerate(header) if h != "y"], header.index("y"), None

    tracemalloc.start()
    try:
        _, X, _, _ = dataset.read_table(path, locate)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert X.tobytes() == ds.features.tobytes()
    assert bool(calls) == quoted
    assert peak <= 2.5 * X.nbytes, (peak, X.nbytes)
