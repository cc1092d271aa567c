"""CSV ingestion, stratified folding and label-noise injection.

Input files are RFC-4180-style CSV, UTF-8, with a mandatory header row and
no missing cells.  A column is numeric iff every cell parses as a finite
real; anything else makes it categorical.  The (binary) label column is
mapped to -1/+1 with the lexicographically smaller raw value becoming -1.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

NUMERIC = "numeric"
CATEGORICAL = "categorical"

# Split candidates per numeric column: the cuts between its equal-count bins
MAX_BINS = 256


class RunLayout(NamedTuple):
    """Where the runs of equal bin codes lie in a block of bins, row by row.

    ``run_start`` marks each run's first entry and ``first`` holds those
    entries' flat indices; ``runs`` counts each row's runs.  Summed run by
    run, a row's masses go to ``slot``, row * ``width`` plus the run's rank
    in the row, in a block of ``len(runs)`` x ``width`` whose padding stays
    zero.  ``first`` and ``slot`` are None when every entry is a run of its
    own, as on small leaves of distinct values: the sums are then the block.
    """

    run_start: np.ndarray
    runs: np.ndarray
    first: np.ndarray | None
    slot: np.ndarray | None
    width: int


def run_layout(bins: np.ndarray) -> RunLayout:
    """The ``RunLayout`` of a 2-d block of bin codes."""
    run_start = np.ones(bins.shape, dtype=bool)
    np.not_equal(bins[:, 1:], bins[:, :-1], out=run_start[:, 1:])
    n_rows, width = bins.shape
    if run_start.all():  # skipping the index arithmetic is faster
        return RunLayout(run_start, np.full(n_rows, width), None, None, width)
    first = np.flatnonzero(run_start)
    runs = run_start.sum(axis=1)
    width = int(runs.max(initial=0))
    offset = np.arange(runs.size) * width - (np.cumsum(runs) - runs)
    slot = np.arange(first.size) + np.repeat(offset, runs)
    return RunLayout(run_start, runs, first, slot, width)


@dataclass(frozen=True)
class Column:
    name: str
    kind: str
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        if self.kind == NUMERIC:
            values = values.astype(float)
        elif self.kind == CATEGORICAL:
            values = values.astype(str)
        else:
            raise ValueError(f"unknown column kind {self.kind!r}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class Dataset:
    """Immutable feature columns plus -1/+1 labels.

    The tables that tree growth reads are built on first use and cached:
    ``category_codes``, ``column_block`` and its ``root_runs`` read only the
    columns, ``positive`` only the labels.  ``take`` returns a Dataset that
    builds all of them anew; ``with_labels`` keeps the column tables and
    builds ``positive`` for its own labels.
    """

    columns: tuple
    labels: np.ndarray
    label_name: str = "label"

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1 or labels.size == 0:
            raise ValueError("labels must form a nonempty vector")
        if not np.all(np.isin(labels, (-1, 1))):
            raise ValueError("labels must be -1 or +1")
        for column in self.columns:
            if column.values.shape != labels.shape:
                raise ValueError(f"column {column.name!r} length mismatch")
        labels.setflags(write=False)
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "labels", labels)

    @property
    def m(self) -> int:
        return self.labels.size

    @property
    def d(self) -> int:
        return len(self.columns)

    def take(self, indices) -> "Dataset":
        """Row subset (used for folds); shares no mutable state."""
        indices = np.asarray(indices, dtype=int)
        columns = tuple(
            Column(c.name, c.kind, c.values[indices]) for c in self.columns
        )
        return Dataset(columns, self.labels[indices], self.label_name)

    def with_labels(self, labels) -> "Dataset":
        """Same columns, new labels; the column tables built so far are kept."""
        relabelled = Dataset(self.columns, labels, self.label_name)
        kept = ("column_block", "root_runs", "category_codes")  # none reads labels
        relabelled.__dict__.update({k: v for k, v in self.__dict__.items() if k in kept})
        return relabelled

    def row(self, i: int) -> tuple:
        return tuple(column.values[i] for column in self.columns)

    @cached_property
    def column_block(self) -> tuple:
        """``(orders, bins)``, row j for column j.

        Row j of ``orders`` is a stable argsort of column j, and row j of
        ``bins`` the bin code of each entry in that order.  A numeric
        value's code is its rank among at most ``MAX_BINS`` distinct
        values, else ``first * MAX_BINS // m`` for ``first`` its first
        sorted position, so that equal values share a bin and bins hold
        nearly equal counts.  A categorical column is sorted by its
        ``category_codes`` codes, which are its bins, however many levels
        it has: every level keeps a bin of its own.  Built on first use
        and reused by every tree grown on this Dataset; ``take`` returns a
        Dataset with its own block, ``with_labels`` shares it.
        """
        codes = self.category_codes
        values = np.array(
            [codes[j][1] if j in codes else c.values for j, c in enumerate(self.columns)],
            dtype=float,
        ).reshape(self.d, self.m)
        orders = np.argsort(values, axis=1, kind="stable")
        ordered = np.take_along_axis(values, orders, axis=1)
        new = np.ones(ordered.shape, dtype=bool)
        new[:, 1:] = ordered[:, :-1] < ordered[:, 1:]
        rank = np.cumsum(new, axis=1) - 1
        first = np.maximum.accumulate(np.where(new, np.arange(self.m), 0), axis=1)
        categorical = np.array([c.kind == CATEGORICAL for c in self.columns], dtype=bool)
        exact = categorical | (rank[:, -1] < MAX_BINS)
        bins = np.where(exact[:, np.newaxis], rank, first * MAX_BINS // self.m)
        return orders, bins.astype(np.min_scalar_type(bins.max(initial=0)))

    @cached_property
    def root_runs(self) -> RunLayout:
        """The ``run_layout`` of ``column_block``'s bins, which every root
        split of a tree grown on this Dataset reads; shared like the block."""
        return run_layout(self.column_block[1])

    @cached_property
    def positive(self) -> np.ndarray:
        """1.0 on the rows labelled +1 and 0.0 on the others, read-only.

        Weights times this indicator are bitwise the weights of the +1 rows
        with zeros elsewhere, and the weights minus that product those of
        the -1 rows, for finite weights that are positive or +0.0.  Built
        for each Dataset's own labels, never shared by ``with_labels``.
        """
        positive = (self.labels > 0).astype(float)
        positive.setflags(write=False)
        return positive

    @cached_property
    def category_codes(self) -> dict:
        """Categorical column index -> ``(levels, codes)``.

        ``levels`` holds the column's distinct values, sorted, and
        ``codes[i]`` is row i's position in it, so that
        ``levels[codes]`` is the column.  Built on first use, like
        ``column_block``; a Dataset from ``take`` has its own table.
        """
        return {
            j: np.unique(c.values, return_inverse=True)
            for j, c in enumerate(self.columns)
            if c.kind == CATEGORICAL
        }


def _parse_numeric(cells):
    """The cells as floats, or None unless every one is a finite real."""
    try:
        values = np.array(list(map(float, cells)))
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def load_csv(path, label_column: str = "last") -> Dataset:
    """Load a CSV with feature-type inference and +/-1 label mapping.

    ``label_column`` is a header name or "last".  Raises ValueError on
    missing cells, non-binary labels, or a malformed file.  A constant
    column, numeric or categorical, loads as a column without a cut.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if len(rows) < 2:
        raise ValueError("file needs a header row and at least one data row")
    header = [name.strip() for name in rows[0]]
    if len(header) < 2:
        raise ValueError("need at least one feature column plus the label")
    data_rows = rows[1:]
    if label_column == "last":
        label_idx = len(header) - 1
    else:
        label_idx = header.index(label_column) if label_column in header else None
    # missing cells are sought column-wise before the first ragged row: the first bad row wins
    lengths = np.fromiter(map(len, data_rows), dtype=int, count=len(data_rows))
    ragged = np.flatnonzero(lengths != len(header))
    whole = int(ragged[0]) if ragged.size else len(data_rows)
    # float() ignores surrounding whitespace and rejects a blank cell, so a
    # feature column that parses has no missing cell and needs no stripping
    raw = list(zip(*data_rows[:whole]))
    parsed = [None if j == label_idx else _parse_numeric(cells) for j, cells in enumerate(raw)]
    stripped = {
        j: list(map(str.strip, cells)) for j, cells in enumerate(raw) if parsed[j] is None
    }
    missing = [cells.index("") for cells in stripped.values() if "" in cells]
    if missing:
        raise ValueError(f"missing cell in row {min(missing) + 2}")
    if ragged.size:
        raise ValueError(f"row {whole + 2} has {lengths[whole]} cells, expected {len(header)}")
    if label_idx is None:
        raise ValueError(f"no column named {label_column!r}")

    label_values = stripped[label_idx]
    distinct = sorted(set(label_values))
    if len(distinct) == 1:
        raise ValueError("labels contain a single class")
    if len(distinct) != 2:
        raise ValueError(f"labels must be binary, found {len(distinct)} values")
    mapping = {distinct[0]: -1, distinct[1]: 1}
    labels = np.array([mapping[v] for v in label_values], dtype=np.int64)

    columns = []
    for j, name in enumerate(header):
        if j == label_idx:
            continue
        if parsed[j] is not None:
            columns.append(Column(name, NUMERIC, parsed[j]))
        else:
            columns.append(Column(name, CATEGORICAL, np.array(stripped[j], dtype=str)))
    return Dataset(tuple(columns), labels, header[label_idx])


def save_csv(data: Dataset, path) -> None:
    """Serialize a Dataset back to CSV (labels written as -1/1)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow([c.name for c in data.columns] + [data.label_name])
        for i in range(data.m):
            row = [
                repr(float(v)) if c.kind == NUMERIC else str(v)
                for c, v in zip(data.columns, data.row(i))
            ]
            writer.writerow(row + [str(int(data.labels[i]))])


def stratified_folds(data: Dataset, k: int, seed) -> list:
    """k disjoint test folds with per-class counts within 1 of proportional.

    Deterministic for a given seed: each class's indices are shuffled once
    and dealt into k nearly equal chunks.  Returns [(train, test), ...],
    each an ascending int array; train is every row that test lacks.
    """
    if k < 2:
        raise ValueError("need at least 2 folds")
    rng = np.random.default_rng(seed)
    test_folds = [[] for _ in range(k)]
    for cls in (-1, 1):
        idx = np.flatnonzero(data.labels == cls)
        if idx.size < k:
            raise ValueError(f"class {cls} has fewer than {k} examples")
        perm = rng.permutation(idx)
        base, extra = divmod(idx.size, k)
        start = 0
        for f in range(k):
            size = base + (1 if f < extra else 0)
            test_folds[f].extend(perm[start : start + size].tolist())
            start += size
    out = []
    for f in range(k):
        test = np.sort(np.array(test_folds[f], dtype=int))
        in_train = np.ones(data.m, dtype=bool)
        in_train[test] = False
        out.append((np.flatnonzero(in_train), test))
    return out


def inject_label_noise(data: Dataset, eta: float, seed) -> Dataset:
    """Independently flip each label with probability ``eta``."""
    if not 0.0 <= eta < 1.0:
        raise ValueError("noise rate must lie in [0, 1)")
    if eta == 0.0:
        return data
    rng = np.random.default_rng(seed)
    flips = rng.random(data.m) < eta
    return data.with_labels(np.where(flips, -data.labels, data.labels))
