"""The bulk CSV reader against the row-at-a-time loops it replaced.

`oracle_load_csv` and `oracle_load_for_model` are the former bodies of
`dataset.load_csv` and `cli._load_for_model`, kept verbatim as the reference:
on every generated file the production readers must give bit-identical
features, the same labels and groups, or the same first error message.
"""

import csv
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evonets.cli import _load_for_model
from evonets.dataset import Dataset, load_csv
from evonets.errors import DataError


def oracle_load_csv(path, label_column, label_order=None):
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

    if label_order is None:
        order, index = [], {}
        for s in raw_labels:
            if s not in index:
                index[s] = len(order)
                order.append(s)
        if len(order) < 2:
            raise DataError(f"{path}: fewer than 2 classes in column '{label_column}'")
    else:
        order = [str(s) for s in label_order]
        index = {s: k for k, s in enumerate(order)}
        for s in raw_labels:
            if s not in index:
                raise DataError(f"{path}: label '{s}' not present in the stored label mapping")

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


# Raw cell text as it appears between commas. Mostly numbers in the forms
# float() accepts, with a minority of cells each reader must reject.
NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6).map(lambda v: f"{v:.3e}"),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1e-3", "1E+2", "1_0", "-0", ".5", "5.", " 2.5 ", "\t7",
                     '"3.25"', '" -4 "', "0001", "+1.5"]),
)
BAD_CELLS = st.sampled_from(["nan", "inf", "-Infinity", "1e999", "-1e999", "",
                             " ", "abc", '"1,5"', "1__0", "0x10", "--1"])
CELLS = st.one_of(NUMBER_CELLS, NUMBER_CELLS, NUMBER_CELLS, NUMBER_CELLS, BAD_CELLS)
LABELS = st.sampled_from(["0", "1", " 1", "0 ", '"1"', "a", "2"])
STORED_LABELS = ("0", "1")


@st.composite
def csv_files(draw, group_allowed):
    """(CSV text, feature names, whether it has the group column 'g')."""
    with_group = group_allowed and draw(st.booleans())
    names = draw(st.lists(st.sampled_from(["a", "b", "c", "d", "e"]),
                          min_size=1, max_size=4, unique=True))
    columns = names + ["y"] + (["g"] if with_group else [])
    columns = draw(st.permutations(columns))
    width = len(columns)
    lines = [",".join(draw(st.sampled_from([c, f" {c} ", f'"{c}"'])) for c in columns)]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "ragged"]))
        if kind == "blank":
            lines.append("")
            continue
        n = width if kind == "row" else draw(st.integers(1, width + 2).filter(lambda k: k != width))
        cells = []
        for k in range(n):
            column = columns[k] if k < width else None
            if column == "y":
                cells.append(draw(LABELS))
            elif column == "g":
                cells.append(draw(st.sampled_from(["r1", "r2", " r3 "])))
            else:
                cells.append(draw(CELLS))
        lines.append(",".join(cells))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + newline, names, with_group


def outcome(read):
    """What a reader produced: its arrays as bytes, or its error text."""
    try:
        result = read()
    except DataError as exc:
        return ("error", str(exc))
    ds, groups = result if isinstance(result, tuple) else (result, None)
    return ("ok", ds.features.tobytes(), ds.features.shape, ds.labels.tolist(),
            ds.feature_names, ds.label_names, ds.class_count, groups)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "data.csv"


SETTINGS = settings(max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


class TestMatchesOracle:
    @given(data=csv_files(group_allowed=False), pinned=st.booleans())
    @SETTINGS
    def test_load_csv(self, csv_path, data, pinned):
        text, _, _ = data
        csv_path.write_text(text, encoding="utf-8", newline="")
        order = STORED_LABELS if pinned else None
        expected = outcome(lambda: oracle_load_csv(csv_path, "y", order))
        assert outcome(lambda: load_csv(csv_path, "y", order)) == expected

    @given(data=csv_files(group_allowed=True), shuffle=st.randoms(),
           header_fault=st.sampled_from([None, None, None, "unexpected", "missing"]))
    @SETTINGS
    def test_load_for_model(self, csv_path, data, shuffle, header_fault):
        text, names, group = data
        csv_path.write_text(text, encoding="utf-8", newline="")
        model_order = list(names)
        shuffle.shuffle(model_order)
        if header_fault == "unexpected" and len(model_order) > 1:
            model_order.pop()
        elif header_fault == "missing":
            model_order.append("z")
        bundle = SimpleNamespace(label_column="y", feature_names=tuple(model_order),
                                 label_names=STORED_LABELS)
        group_by = "g" if group else None
        expected = outcome(lambda: oracle_load_for_model(csv_path, bundle, group_by))
        assert outcome(lambda: _load_for_model(csv_path, bundle, group_by)) == expected

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
