"""Dataset container, CSV ingestion, z-score normalization, deterministic
splits, and synthetic generators used throughout the package and its tests."""

from __future__ import annotations

import csv
import math
import os
import pickle
import re
import signal
import threading
import warnings
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError


@dataclass(eq=False)
class Dataset:
    """A feature matrix with integer class labels.

    features: (n, m) float matrix, one row per example
    labels: (n,) integers in [0, class_count)
    feature_names: one unique name per column
    class_count: number of classes, at least 2
    label_names: original label text per class index (defaults to "0", "1", ...)
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple
    class_count: int
    label_names: tuple | None = None

    def __post_init__(self):
        self.features = np.atleast_2d(np.asarray(self.features, dtype=float))
        self.labels = np.asarray(self.labels, dtype=int)
        self.feature_names = tuple(str(s) for s in self.feature_names)
        if self.features.shape[0] != self.labels.shape[0]:
            raise DataError("row count of features must equal length of labels")
        if self.features.shape[1] < 1:
            raise DataError("need at least one feature column")
        if len(self.feature_names) != self.features.shape[1]:
            raise DataError("one feature name required per column")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise DataError("feature names must be unique")
        if self.class_count < 2:
            raise DataError("fewer than 2 classes")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise DataError("labels must lie in [0, class_count)")
        if self.label_names is None:
            self.label_names = tuple(str(k) for k in range(self.class_count))
        else:
            self.label_names = tuple(str(s) for s in self.label_names)
            if len(self.label_names) != self.class_count:
                raise DataError("one label name required per class")

    @property
    def n_rows(self):
        return self.features.shape[0]

    @property
    def n_features(self):
        return self.features.shape[1]

    def take(self, indices):
        """Row subset sharing names and class metadata."""
        idx = np.asarray(indices, dtype=int)
        return Dataset(self.features[idx], self.labels[idx], self.feature_names,
                       self.class_count, self.label_names)


@dataclass(eq=False)
class NormParams:
    """Per-column mean and population standard deviation.

    Columns with zero variance keep the sentinel sd 1 so the transform is
    mean-centering only; those columns carry no information anyway.
    """

    mean: np.ndarray
    sd: np.ndarray

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=float)
        self.sd = np.asarray(self.sd, dtype=float)
        if self.mean.shape != self.sd.shape:
            raise DataError("mean and sd must have one entry per column")
        if np.any(self.sd <= 0):
            raise DataError("standard deviations must be positive (sentinel 1 for constant columns)")

    def apply(self, X):
        return (np.asarray(X, dtype=float) - self.mean) / self.sd

    def apply_dataset(self, ds: Dataset) -> Dataset:
        return Dataset(self.apply(ds.features), ds.labels, ds.feature_names,
                       ds.class_count, ds.label_names)


@dataclass(frozen=True)
class SplitSpec:
    """Deterministic split request: positive fractions summing to 1."""

    fractions: tuple
    seed: int = 0
    stratified: bool = False

    def __post_init__(self):
        object.__setattr__(self, "fractions", tuple(float(f) for f in self.fractions))
        if not all(f > 0 for f in self.fractions):  # also refuses NaN
            raise DataError("every split fraction must be positive")
        if abs(sum(self.fractions) - 1.0) > 1e-9:
            raise DataError("split fractions must sum to 1")


# characters of text the reader takes from a file at a time: besides what it
# keeps, it holds about one block
_BLOCK = 1 << 16

# characters that loadtxt strips around a number and float() does not
_FLOAT_BLANKS = "\x1c\x1d\x1e\x1f"


def _is_plain(path, fh):
    """Whether the text of the open file fh, decoded to its end in blocks,
    holds neither a quote nor any of _FLOAT_BLANKS. A UTF-8 fault anywhere
    in the file is raised here, before any other fault can be."""
    plain = True
    try:
        for block in iter(lambda: fh.read(_BLOCK), ""):
            plain = plain and not any(c in block for c in '"' + _FLOAT_BLANKS)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not valid UTF-8 (byte 0x{exc.object[exc.start]:02x}: "
                        f"{exc.reason}); save the file as UTF-8") from None
    return plain


def _next_row(path, records):
    """The next row of the csv reader `records`, None at the end. A csv
    error (a cell over csv's field size limit) becomes a DataError naming
    the physical line on which the row starts."""
    start = records.line_num + 1
    try:
        return next(records, None)
    except csv.Error as exc:
        raise DataError(f"{path}: line {start}: {exc}") from None


def parse_rows(path, header, records, columns, label_at, group_at, label_index):
    """Feature matrix of cells `columns` (in that order), labels of cell
    `label_at` (stripped, or mapped through `label_index`) and stripped group
    cells of `group_at` (none for None) of the non-blank rows the csv reader
    `records` has left, of which there must be at least one.

    Each row is checked as it is read: its cell count, then its cells in
    order, then its label. The error names the physical line of the file on
    which the first bad row starts. The cells are kept as packed floats, so
    the reader holds about twice the feature matrix at its peak.
    """
    flat, labels, groups = array("d"), [], []
    end = records.line_num
    for row in iter(lambda: _next_row(path, records), None):
        lineno, end = end + 1, records.line_num
        if not row:
            continue
        if len(row) != len(header):
            # evaluate and extract-rules name only the expected count
            got = "" if label_index is not None else f", got {len(row)}"
            raise DataError(f"{path}: line {lineno}: expected {len(header)} cells{got}")
        for i in columns:
            try:
                value = float(row[i])
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise DataError(f"{path}: line {lineno}, column '{header[i]}': "
                                f"non-numeric value '{row[i].strip()}'")
            flat.append(value)
        label = row[label_at].strip()
        if label_index is not None:
            if label not in label_index:
                raise DataError(f"{path}: line {lineno}: label '{label}' not in the stored mapping")
            label = label_index[label]
        labels.append(label)
        if group_at is not None:
            groups.append(row[group_at].strip())
    if not labels:
        raise DataError(f"{path}: no data rows")
    return np.array(flat).reshape(len(labels), len(columns)), labels, groups


def _first_seen(codes):
    """A loadtxt converter: a cell's stripped text, coded by the order in
    which the converter meets each text, recorded in the dict `codes`."""
    return lambda cell: codes.setdefault(cell.strip(), len(codes))


def _bulk_parse(blocks, width, columns, label_at, group_at, label_index):
    """What parse_rows gives for the data lines of `blocks`, texts of whole
    lines of a file without quotes or _FLOAT_BLANKS, from a loadtxt parse of
    every cell of each block; None where a parse raises or warns or a guard
    fails, and for a group column that is also the label or a feature (its
    cell would need two readings).

    Converters code the label cell (through `label_index`, which raises on
    a label it lacks, or by first sight) and the group cell as loadtxt
    reads them, so each block is one float array, of which only the feature
    columns and the codes are kept. loadtxt refuses a row whose cell count
    differs from its block's first row's and reads an overflowing number as
    inf, where parse_rows rejects both. The guards: each block's array has
    one row per non-blank line and one column per header cell, and every
    feature is finite. Codes by first sight go back to their text, so no
    order of converter calls reaches the caller. Blank lines alone give no
    rows, where parse_rows raises. The matrix is in column order.
    """
    if group_at is not None and (group_at == label_at or group_at in columns):
        return None
    label_codes, group_codes = {}, {}
    converters = {label_at: _first_seen(label_codes) if label_index is None
                  else lambda cell: label_index[cell.strip()]}
    if group_at is not None:
        converters[group_at] = _first_seen(group_codes)
    X, labels, groups = [], [], []
    for text in blocks:
        # the lines csv reads, split at \r\n, \r or \n, without their ends
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        lines = text.split("\n")
        rows = len(lines) - lines.count("")
        if not rows:   # loadtxt warns on a block of blank lines
            continue
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                # encoding=None hands converters str also on numpy 1.x, whose
                # default hands them bytes
                table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2,
                                   converters=converters, encoding=None)
        except (ValueError, UserWarning):
            return None
        if table.shape != (rows, width):
            return None
        X.append(table[:, columns])
        if not np.isfinite(X[-1]).all():
            return None
        labels.append(table[:, label_at].astype(int))
        if group_at is not None:
            groups.append(table[:, group_at].astype(int))
    if not X:   # only blank lines
        return np.empty((0, len(columns)), order="F"), [], []

    def cells(parts, codes):
        texts = list(codes)
        return [texts[k] for k in np.concatenate(parts).tolist()]

    labels = np.concatenate(labels).tolist() if label_index is not None \
        else cells(labels, label_codes)
    groups = [] if group_at is None else cells(groups, group_codes)
    # also where each block is one row, as a split read joins the parts
    return np.asfortranarray(np.concatenate(X)), labels, groups


# Bytes from which read_table splits a plain file's data lines among
# processes. Measured on a 72-feature table on a 2-CPU host, with a parent of
# about 100 MB resident and 40 alternating reads per size: one process was
# faster below 0.7 MB (it won 36 of 40 at 0.42 MB), the two were about level
# up to 2 MB, and two processes won from there (17 MB: 0.20-0.25 s against
# 0.28 s). Forking, joining and reaping took 7 ms at 4 MB and 12 ms at 17 MB.
SPLIT_BYTES = 2 << 20

# a line end as csv reads one: \n, \r\n or a lone \r; a \r that ends the
# bytes searched matches only once its next byte is known
_LINE_END = re.compile(rb"\n|\r(?=[^\n])")


def _line_start(fd, pos, size):
    """The first byte from pos (at least 1) on that starts a line of the
    file of `size` bytes open at descriptor fd; size if there is none."""
    while pos < size:
        found = _LINE_END.search(os.pread(fd, _BLOCK + 1, pos - 1))
        if found:
            return pos - 1 + found.end()
        pos += _BLOCK
    return size


def _parts(fd, size):
    """Byte ranges of the data lines of a plain file of `size` bytes open at
    fd, one per process that parses them, each starting at a line start and
    about the same size: one per half SPLIT_BYTES, at most one per CPU the
    process may use. None for a single range, and where fork is missing or
    another Python thread runs, as a forked child holds only the thread that
    forked it and would wait forever on a lock another thread held."""
    if size < SPLIT_BYTES or not hasattr(os, "sched_getaffinity") or \
            not hasattr(os, "fork") or threading.active_count() > 1:
        return None
    count = min(len(os.sched_getaffinity(0)), 2 * size // SPLIT_BYTES)
    start = _line_start(fd, 1, size)   # past the header
    bounds = [start] + [_line_start(fd, start + (size - start) * k // count, size)
                        for k in range(1, count)] + [size]
    parts = [(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]
    return parts if len(parts) > 1 else None


def _part_blocks(fd, start, end):
    """The text of bytes start to end of the file at fd, both line starts, in
    blocks of whole lines of at least _BLOCK bytes. It is read by pread,
    which moves no file offset that forked processes share."""
    while start < end:
        stop = _line_start(fd, min(start + _BLOCK, end), end)
        yield os.pread(fd, stop - start, start).decode()
        start = stop


def _fork(fd, part, args):
    """The pid of a worker that parses the byte range `part` and the read end
    of its pipe, or (None, None) where no worker could be forked. The worker
    writes the length of its pickled (labels, groups), or of None where the
    parse declines, then that pickle, then its feature matrix a column at a
    time. It leaves by os._exit, so it never returns into the caller's code or
    flushes a buffer it inherited, and its error or death reaches the parent
    as a pipe that ends early."""
    try:
        read_end, write_end = os.pipe()
    except OSError:
        return None, None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None, None
    if pid:
        os.close(write_end)
        return pid, read_end
    try:
        os.close(read_end)
        parsed = _bulk_parse(_part_blocks(fd, *part), *args)
        head = pickle.dumps(parsed and parsed[1:])
        with open(write_end, "wb") as pipe:
            pipe.write(len(head).to_bytes(8, "little") + head)
            if parsed:
                pipe.write(parsed[0].T)   # the matrix's columns, in order
    finally:
        os._exit(0)


def _fill(fd, buffer):
    """Whether reading the pipe fd filled `buffer`, of bytes, before the pipe
    ended."""
    view = memoryview(buffer)
    while view:
        got = os.readv(fd, [view])
        if not got:
            return False
        view = view[got:]
    return True


def _head(fd):
    """What a worker wrote before its matrix; False where it failed or died
    before it had written that."""
    length = bytearray(8)
    if fd is None or not _fill(fd, length):
        return False
    head = bytearray(int.from_bytes(length, "little"))
    return _fill(fd, head) and pickle.loads(head)


def _split_parse(fd, parts, args, width):
    """What _bulk_parse gives for the byte ranges `parts` of the file at fd,
    joined in order: the parent parses the first while forked workers parse
    the others. None where any part declines. A worker that fails or dies has
    its part parsed in the parent. Each worker's matrix is read from its pipe
    a column at a time straight into the joined matrix, of `width` columns
    in column order. Every worker is killed, if it still runs, and reaped
    before this returns or raises."""
    workers = []
    try:
        for part in parts[1:]:
            workers.append(_fork(fd, part, args))
        pieces = []
        for part, (_, source) in zip(parts, [(None, None)] + workers):
            head = _head(source)
            if head is False:   # the parent's own part, or a failed worker's
                parsed = _bulk_parse(_part_blocks(fd, *part), *args)
                if parsed is None:
                    return None
                source, head = parsed[0], parsed[1:]
            if head is None:
                return None
            pieces.append((source,) + head)
        X = np.empty((sum(len(labels) for _, labels, _ in pieces), width), order="F")
        at = 0
        for part, (source, labels, _) in zip(parts, pieces):
            rows = X[at:at + len(labels)]
            if isinstance(source, np.ndarray):
                rows[...] = source
            elif not all(_fill(source, rows[:, j].view(np.uint8)) for j in range(width)):
                # the worker died as it wrote
                rows[...] = _bulk_parse(_part_blocks(fd, *part), *args)[0]
            at += len(labels)
        return (X, [s for piece in pieces for s in piece[1]],
                [s for piece in pieces for s in piece[2]])
    finally:
        for pid, pipe in workers:
            if pid is not None:
                os.close(pipe)
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def read_table(path, locate, label_index=None):
    """Header, feature matrix, labels and groups of a CSV file.

    The stripped header must have unique names; locate(header) applies the
    caller's checks to it and returns the feature columns (in the order
    wanted), the label column and the group column (None for no groups).
    Labels and groups are stripped cell text; labels map through
    `label_index` where one is given.

    The file is read through one handle, a block at a time. A first pass
    decodes it to its end; a file without quotes or _FLOAT_BLANKS is then
    parsed in bulk (_bulk_parse), split among processes where _parts splits
    it. Any other file, and any file the bulk parse declines, is read again
    from its start by parse_rows, which alone words the errors.
    """
    if not Path(path).exists():
        raise DataError(f"missing file: {path}")
    # newline="" leaves the line ends to csv; a leading byte-order mark is
    # dropped, so it never joins the first name
    with open(path, newline="", encoding="utf-8-sig") as fh:
        size = os.fstat(fh.fileno()).st_size
        plain = _is_plain(path, fh)
        fh.seek(0)
        records = csv.reader(fh)
        first = _next_row(path, records)
        if first is None:
            raise DataError(f"{path}: empty file, no header row")
        header = [h.strip() for h in first]
        for k, h in enumerate(header):
            if h in header[:k]:
                raise DataError(f"{path}: column '{h}' appears more than once in the header")
        columns, label_at, group_at = locate(header)
        args = (len(header), columns, label_at, group_at, label_index)
        parts = _parts(fh.fileno(), size) if plain else None
        # whole lines only: the rest of a block's last line joins it, and a \r
        # that ends the block joins the \n of a \r\n
        blocks = iter(lambda: fh.read(_BLOCK) + fh.readline(), "")
        parsed = _split_parse(fh.fileno(), parts, args, len(columns)) if parts else \
            _bulk_parse(blocks, *args) if plain else None
        if parsed is None or not parsed[1]:   # parse_rows words "no data rows"
            fh.seek(0)
            records = csv.reader(fh)
            next(records)   # the header, read above
            parsed = parse_rows(path, header, records, columns, label_at, group_at,
                                label_index)
    return (header,) + parsed


def load_csv(path, label_column):
    """Read a comma-separated file with a header row into a Dataset.

    Labels are mapped to 0..r-1 in first-appearance order.
    """
    def locate(header):
        if label_column not in header:
            raise DataError(f"{path}: label column '{label_column}' not found in header")
        li = header.index(label_column)
        columns = [i for i in range(len(header)) if i != li]
        if not columns:
            raise DataError(f"{path}: no feature columns besides the label")
        return columns, li, None

    header, X, raw_labels, _ = read_table(path, locate)
    order = list(dict.fromkeys(raw_labels))
    if len(order) < 2:
        raise DataError(f"{path}: fewer than 2 classes in column '{label_column}'")
    index = {s: k for k, s in enumerate(order)}
    labels = np.array([index[s] for s in raw_labels], dtype=int)
    return Dataset(X, labels, tuple(h for h in header if h != label_column), len(order),
                   tuple(order))


def save_csv(ds: Dataset, path, label_column="y"):
    """Write a Dataset back to CSV; labels are emitted as their label names."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(list(ds.feature_names) + [label_column])
        for row, lab in zip(ds.features, ds.labels):
            w.writerow([repr(float(v)) for v in row] + [ds.label_names[lab]])


def normalize_zscore(ds: Dataset):
    """Center every column and scale non-constant ones to unit variance.

    Returns the transformed dataset and the NormParams needed to apply the
    same transform to unseen data. Uses the population (divide-by-n)
    standard deviation. A column whose mean or standard deviation overflows
    a float is refused, naming it.
    """
    if ds.n_rows < 2:
        raise DataError("normalization needs at least 2 rows")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = ds.features.mean(axis=0)
        sd = ds.features.std(axis=0)
    bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(sd)))
    if bad.size:
        raise DataError(f"column '{ds.feature_names[bad[0]]}': its mean or sd overflows a float")
    sd = np.where(sd > 0, sd, 1.0)
    params = NormParams(mean, sd)
    return params.apply_dataset(ds), params


def split(ds: Dataset, spec: SplitSpec):
    """Partition rows into len(fractions) disjoint datasets.

    Sizes are floor(n * fraction) with the remainder assigned to the first
    part. With stratified=True the same rule is applied class by class, so
    per-class proportions stay within one row of the request.
    """
    rng = np.random.default_rng(spec.seed)
    parts = [[] for _ in spec.fractions]

    def carve(indices):
        perm = rng.permutation(indices)
        sizes = [int(np.floor(len(indices) * f + 1e-9)) for f in spec.fractions]
        sizes[0] += len(indices) - sum(sizes)
        ofs = 0
        for pi, s in enumerate(sizes):
            parts[pi].extend(int(i) for i in perm[ofs:ofs + s])
            ofs += s

    if spec.stratified:
        for c in range(ds.class_count):
            carve(np.flatnonzero(ds.labels == c))
    else:
        carve(np.arange(ds.n_rows))

    if any(len(p) == 0 for p in parts):
        raise DataError("split would produce an empty part")
    return [ds.take(np.sort(np.array(p, dtype=int))) for p in parts]


def gen_xor(n, seed):
    """Continuous XOR: x1, x2 uniform on [-1, 1], label 1 iff x1*x2 > 0."""
    if n < 4:
        raise DataError("need at least 4 rows")
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(n, 2))
    y = (X[:, 0] * X[:, 1] > 0).astype(int)
    return Dataset(X, y, ("x1", "x2"), 2)


def gen_blobs(n, classes=3, seed=0, spread=1.0, radius=3.0):
    """Gaussian blobs in the plane, one centered per class on a circle.

    Class sizes are balanced (round-robin assignment, then shuffled).
    Small `spread` relative to `radius` gives linearly separable classes;
    spread around half the inter-center distance gives mild overlap.
    """
    if classes < 2:
        raise DataError("need at least 2 classes")
    if n < classes:
        raise DataError("need at least one row per class")
    if not 0.0 <= spread < np.inf:   # also refuses NaN
        raise DataError("spread must be finite and non-negative")
    if not np.isfinite(radius):
        raise DataError("radius must be finite")
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n) % classes)
    angles = 2.0 * np.pi * labels / classes
    centers = np.column_stack([radius * np.cos(angles), radius * np.sin(angles)])
    with np.errstate(over="ignore"):  # refused below
        X = centers + rng.normal(0.0, spread, size=(n, 2))
    if not np.isfinite(X).all():
        raise DataError("generated features overflow a float; use a smaller spread or radius")
    return Dataset(X, labels, ("x1", "x2"), classes)


def gen_surrogate_eeg(n, relevant=4, irrelevant=68, classes=2, seed=0, separation=2.0):
    """High-dimensional synthetic data with a few informative columns.

    The informative columns get a class-conditional mean shift of
    separation * (label / (classes - 1) - 1/2); all other columns are pure
    standard-normal noise. Informative column positions are shuffled.

    Returns (dataset, informative_columns) so feature-selection tests have
    ground truth.
    """
    if n < 1:
        raise DataError("need at least 1 row")
    if relevant < 1:
        raise DataError("need at least 1 informative column")
    if irrelevant < 0:
        raise DataError("irrelevant column count must be non-negative")
    if classes < 2:
        raise DataError("need at least 2 classes")
    if not np.isfinite(separation):
        raise DataError("separation must be finite")
    m = relevant + irrelevant
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, size=n)
    X = rng.standard_normal((n, m))
    informative = np.sort(rng.permutation(m)[:relevant])
    shift = separation * (labels / (classes - 1) - 0.5)
    for c in informative:
        X[:, c] += shift
    names = tuple(f"f{j + 1}" for j in range(m))
    ds = Dataset(X, labels, names, classes)
    return ds, tuple(int(c) for c in informative)
