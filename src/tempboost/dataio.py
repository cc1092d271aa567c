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

import numpy as np

NUMERIC = "numeric"
CATEGORICAL = "categorical"


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
    """Immutable feature columns plus -1/+1 labels."""

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
        return Dataset(self.columns, labels, self.label_name)

    def row(self, i: int) -> tuple:
        return tuple(column.values[i] for column in self.columns)

    @cached_property
    def numeric_block(self) -> tuple:
        """``(features, orders, sorted_values)`` of the numeric columns.

        ``features`` lists the numeric column indices; row f of ``orders``
        is a stable argsort of column ``features[f]`` and row f of
        ``sorted_values`` that column in this order.  Tree induction filters
        the block by a leaf's rows instead of sorting every leaf, so it is
        built on first use and reused by every tree grown on this Dataset;
        ``take`` and ``with_labels`` return a new Dataset with its own block.
        """
        features = [j for j, c in enumerate(self.columns) if c.kind == NUMERIC]
        values = np.array([self.columns[j].values for j in features], dtype=float)
        values = values.reshape(len(features), self.m)
        orders = np.argsort(values, axis=1, kind="stable")
        return features, orders, np.take_along_axis(values, orders, axis=1)

    def feature_matrix(self) -> np.ndarray:
        """Dense float matrix; only defined when all columns are numeric."""
        if any(c.kind != NUMERIC for c in self.columns):
            raise ValueError("feature_matrix requires all-numeric columns")
        return np.column_stack([c.values for c in self.columns])


def _parse_numeric(cell: str):
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if np.isfinite(value) else None


def load_csv(path, label_column: str = "last") -> Dataset:
    """Load a CSV with feature-type inference and +/-1 label mapping.

    ``label_column`` is a header name or "last".  Raises ValueError on
    missing cells, non-binary labels, constant categorical columns, or a
    malformed file.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if len(rows) < 2:
        raise ValueError("file needs a header row and at least one data row")
    header = [name.strip() for name in rows[0]]
    if len(header) < 2:
        raise ValueError("need at least one feature column plus the label")
    data_rows = rows[1:]
    for k, row in enumerate(data_rows):
        if len(row) != len(header):
            raise ValueError(f"row {k + 2} has {len(row)} cells, expected {len(header)}")
        if any(cell.strip() == "" for cell in row):
            raise ValueError(f"missing cell in row {k + 2}")

    if label_column == "last":
        label_idx = len(header) - 1
    else:
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise ValueError(f"no column named {label_column!r}") from None

    raw = [[row[j].strip() for row in data_rows] for j in range(len(header))]
    label_values = raw[label_idx]
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
        cells = raw[j]
        numeric = [_parse_numeric(cell) for cell in cells]
        if all(value is not None for value in numeric):
            columns.append(Column(name, NUMERIC, np.array(numeric, dtype=float)))
        else:
            if len(set(cells)) < 2:
                raise ValueError(f"categorical column {name!r} is constant")
            columns.append(Column(name, CATEGORICAL, np.array(cells, dtype=str)))
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
    and dealt into k nearly equal chunks.  Returns [(train, test), ...].
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
    all_idx = np.arange(data.m)
    for f in range(k):
        test = np.sort(np.array(test_folds[f], dtype=int))
        train = np.setdiff1d(all_idx, test, assume_unique=False)
        out.append((train, test))
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
