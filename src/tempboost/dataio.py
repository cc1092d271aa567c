"""Reading and writing every CSV, stratified folding and label-noise injection.

Input files are RFC-4180-style CSV, UTF-8, with a mandatory header row and
no missing cells.  A column is numeric iff every cell parses as a finite
real; anything else makes it categorical.  The (binary) label column is
mapped to -1/+1 with the lexicographically smaller raw value becoming -1.

``load_csv`` reads a file's bytes once, whole, and decodes them.  Two
readers build the same columns from the text: a float array per numeric
column, and per text column a code per cell into its distinct stripped
cells, each kept once, which become the sorted ``levels``.  The C reader,
the parser of ``np.loadtxt``, reads an unquoted file of rows as wide as its
header, as ``save_csv`` writes the benchmark tables: a column whose first
cell is a finite real as floats, the others and the label column through a
converter that codes their cells.  It declines, to ``csv.reader``, wherever
numpy could read the text otherwise:
- a quote anywhere, which numpy does not unquote;
- U+001C to U+001F, which numpy's float parser skips as space and float() refuses;
- an empty or CR-only line, which numpy skips and csv.reader reads as a row
  of no cells;
- a CR that ends no line, where csv.reader ends one and numpy raises;
- any ValueError of numpy's: a ragged row, or a cell that numpy's parser
  refuses, as ``1_000`` or ``١٢``, which float() reads, or a word, in a
  column whose first cell is a number;
- a first row not as wide as the header, a value that is not finite, no
  data row or no label column: csv.reader's errors and text columns.
A declined file costs the C reader's pass up to its decline, then
csv.reader's, which reads the text twice when a column turns to text after
its first block.  On the tall benchmark's CSV (20000 rows, 1.65 MB) the C
reader takes 25-27 ms and csv.reader 46 ms, and with ``NA`` as its last
feature cell the load takes 128 ms.

Memory: a load holds the text, the columns it builds (8 bytes a cell, a
float or a code, and a text column's levels once) and one piece's lines,
with csv.reader their cells, about 1 MiB at the default ``BLOCK_CHARS``;
the C reader makes no object for a numeric cell.  On a numeric file of
20000 rows ``tracemalloc`` peaks at twice the file's size: its bytes and
its decoded string.  ``Dataset.column_block`` and ``stratified_folds`` say
what a run holds beside the table.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, groupby
from pathlib import Path
from typing import NamedTuple

import numpy as np

NUMERIC = "numeric"
CATEGORICAL = "categorical"

# Split candidates per numeric column: the cuts between its equal-count bins
MAX_BINS = 256
# CSV text is read in blocks of whole lines of at least this many characters
BLOCK_CHARS = 1 << 16
TABLE_ERRORS = (OSError, ValueError, csv.Error)  # a missing or malformed table's errors


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
    """A numeric column's floats, or a categorical one's integer codes into
    ``levels``, its table's distinct values as ``np.unique`` sorts them (which
    codes the values when no levels are given), read-only, shared by ``take``."""

    name: str
    kind: str
    values: np.ndarray
    levels: np.ndarray | None = None

    def __post_init__(self):
        values, levels = np.asarray(self.values), self.levels
        if self.kind == NUMERIC:
            if levels is not None:
                raise ValueError(f"numeric column {self.name!r} has no levels")
            values = values.astype(float)
            # as in load_csv, where such a cell makes the column categorical
            if not np.isfinite(values).all():
                raise ValueError(f"numeric column {self.name!r} holds a value that is not finite")
        elif self.kind == CATEGORICAL:
            if levels is None:
                levels, values = np.unique(values.astype(str), return_inverse=True)
            elif values.dtype.kind not in "iu" or np.any((values < 0) | (values >= len(levels))):
                raise ValueError(f"column {self.name!r} holds a code outside [0, {len(levels)})")
            values, levels = values.astype(np.intp), np.asarray(levels)
            levels.setflags(write=False)
            object.__setattr__(self, "levels", levels)
        else:
            raise ValueError(f"unknown column kind {self.kind!r}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class Dataset:
    """Immutable feature columns plus -1/+1 labels.

    The tables that tree growth reads, ``column_block`` and its
    ``root_runs``, read only the columns; they are built on first use and
    cached.  ``take`` returns a Dataset that builds both anew.
    """

    columns: tuple
    labels: np.ndarray
    label_name: str = "label"

    def __post_init__(self):
        labels = np.array(self.labels, dtype=np.int64)  # a copy, as Column's values are
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
        """Row subset (used for folds); shares no mutable state, only read-only ``levels``."""
        indices = np.asarray(indices)
        if indices.dtype.kind not in "iu":  # a boolean mask would index rows 0 and 1
            raise ValueError(f"row indices must be integers, not {indices.dtype}")
        columns = tuple(Column(c.name, c.kind, c.values[indices], c.levels) for c in self.columns)
        return Dataset(columns, self.labels[indices], self.label_name)

    @cached_property
    def column_block(self) -> tuple:
        """``(orders, bins)``, row j for column j.

        Row j of ``orders`` is a stable argsort of column j, and row j of
        ``bins`` the bin code of each entry in that order.  A numeric
        value's code is its rank among at most ``MAX_BINS`` distinct
        values, else ``first * MAX_BINS // m`` for ``first`` its first
        sorted position, so that equal values share a bin and bins hold
        nearly equal counts.  Every column is sorted by its ``values``, a
        categorical one by its level codes, whose ranks are its bins,
        however many levels it has: every level in this Dataset keeps a bin
        of its own.  Built on first use and reused by every tree grown on
        this Dataset; ``take`` returns a Dataset with its own block.

        Built in place: the argsort, the ranks and the sort keys, d * m * 8
        bytes each, are the most alive at once, beside the run starts (d * m
        bytes); the binned columns' first positions are made once the keys
        are freed.  The transient peak so stays near 3.5 times the table as
        floats, and the block keeps ``orders`` and the 1- or 2-byte ``bins``.
        """
        values = np.array([c.values for c in self.columns], dtype=float).reshape(self.d, self.m)
        orders = np.argsort(values, axis=1)  # numpy's SIMD sort, which may reorder ties
        # sorted in place: the values in ``orders``' order but for the order of
        # -0.0 and 0.0, which compare equal, so the run starts are the same
        values.sort(axis=1)
        new = np.empty(values.shape, dtype=bool)
        flat = values.ravel()  # one flat comparison: 2-d slices would be buffered
        np.less(flat[:-1], flat[1:], out=new.ravel()[1:])
        new[:, 0] = True
        del values, flat
        rank = new.astype(np.intp)
        np.cumsum(rank, axis=1, out=rank)  # in place: cumsum of the bools would cast a copy
        rank -= 1
        # ties back in index order, as a stable sort leaves them: sorting the keys
        # rank * m + index keeps every rank in place, so minus the ranks they are
        # the indices in stable order, written over the argsort's
        keys = rank * self.m
        keys += orders
        keys.sort(axis=1)
        np.subtract(keys, np.multiply(rank, self.m, out=orders), out=orders)
        del keys
        categorical = np.array([c.kind == CATEGORICAL for c in self.columns], dtype=bool)
        binned = np.flatnonzero(~categorical & (rank[:, -1] >= MAX_BINS))
        first = np.where(new[binned], np.arange(self.m), 0)
        np.maximum.accumulate(first, axis=1, out=first)
        first *= MAX_BINS
        first //= self.m
        rank[binned] = first  # the ranks become the bins
        return orders, rank.astype(np.min_scalar_type(rank.max(initial=0)))

    @cached_property
    def root_runs(self) -> RunLayout:
        """The ``run_layout`` of ``column_block``'s bins, which every root
        split of a tree grown on this Dataset reads; built like the block."""
        return run_layout(self.column_block[1])


def _parse_numeric(cells):
    """The cells as floats, or None unless every one is a finite real."""
    try:
        values = np.fromiter(map(float, cells), dtype=float, count=len(cells))
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _pieces(text):
    """The text in pieces of whole lines: the header line, then pieces that
    each end with the first LF ``BLOCK_CHARS`` or more characters past
    their start."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + (BLOCK_CHARS - 1 if start else 0)) + 1 or len(text)
        yield text[start:end]
        start = end


def _csv_blocks(text, ragged):
    """The header's cells, then the data rows before the first ragged row in
    blocks, column by column, as ``csv.reader`` parses the text.  The ragged
    row, if any, is appended to ``ragged`` as ``(index, cell count)``.

    csv.reader reads the lines of one ``_pieces`` piece at a time, through
    an ``io.StringIO(piece, newline="")``, which cuts them at LF, CRLF and a
    lone CR as one over the whole text would, without a copy of the whole
    text.  In an unquoted text CRLF is read as LF first, so that CR CR LF
    ends one line there.  A block holds the rows that end in one piece.
    Every row is parsed, those after a ragged one too, so that each
    ``csv.Error`` in the file raises.
    """
    quoted, current = '"' in text, [0]  # the piece that csv.reader reads

    def lines():
        for number, piece in enumerate(_pieces(text)):
            current[0] = number
            yield io.StringIO(piece if quoted else piece.replace("\r\n", "\n"), newline="")

    rows = csv.reader(chain.from_iterable(lines()))
    header = next(rows, [])
    yield header
    count = 0
    for _, group in groupby(rows, lambda row: current[0]):
        block = [] if ragged else list(group)
        whole = next((i for i, row in enumerate(block) if len(row) != len(header)), len(block))
        ragged += [(count + whole, len(row)) for row in block[whole : whole + 1]]
        count += whole
        yield list(zip(*block[:whole]))
    if not (count or ragged):
        raise ValueError("file needs a header row and at least one data row")


def _label_index(header, label_column):
    """The label column's index in the stripped ``header``, or None."""
    if label_column == "last":
        return len(header) - 1
    return header.index(label_column) if label_column in header else None


def _consume(text, label_column, known=frozenset()):
    """``(header, label_idx, as_text, parts, levels, ragged)`` of the blocks
    that ``_csv_blocks`` yields from ``text``: the stripped names, the label
    column's index or None, and the first ragged row's ``(index, cell
    count)`` or None, before which the blocks stop.

    ``parts[j]`` holds column j's blocks, a float array each while every
    cell read is a finite real.  Once one is not, j joins ``as_text``, and
    its blocks hold each cell's code in ``levels[j]``, which maps every
    distinct stripped cell, kept once, to its code.  The label column and
    the ``known`` ones are text from the first block.  When a column turns
    to text after a block of numbers, whose cells are gone, the text is
    read again with every such column known.
    """
    ragged = []
    blocks = _csv_blocks(text, ragged)
    header = [name.strip() for name in next(blocks)]
    label_idx = _label_index(header, label_column)
    as_text = set(known) if label_idx is None else {*known, label_idx}
    parts, levels, again = [[] for _ in header], [{} for _ in header], False
    for block in blocks:
        for j, cells in enumerate(block):
            # float() ignores surrounding whitespace and rejects a blank cell,
            # so a numeric column has no missing cell and needs no stripping
            values = None if j in as_text else _parse_numeric(cells)
            if values is None:
                again |= j not in as_text and bool(parts[j])  # its numbers are gone
                as_text.add(j)
                stripped = list(map(str.strip, cells))
                index = levels[j]
                for level in dict.fromkeys(stripped):
                    index.setdefault(level, len(index))
                values = np.fromiter(map(index.__getitem__, stripped), np.intp, len(stripped))
            parts[j].append(values)
    if again:
        return _consume(text, label_column, as_text)
    return header, label_idx, as_text, parts, levels, ragged[0] if ragged else None


def _c_read(text, label_column):
    """``_consume``'s tuple for ``text`` as ``np.loadtxt``'s C parser reads it,
    or None where csv.reader might read it otherwise (see the module notes),
    each such case raising to one ``return None``.  A column whose first cell
    is not a finite real is text, as the label column is: its stripped cells
    are coded by first appearance into ``levels[j]``, as ``_consume`` does."""
    sizes = []  # the line count of each piece

    def lines(piece):
        sizes.append(len(piece := piece.removesuffix("\n").split("\n")))
        return piece

    try:
        rows = chain.from_iterable(map(lines, _pieces(text)))
        head, first = next(rows), next(rows)
        header, cells = [name.strip() for name in head.split(",")], first.split(",")
        label_idx = _label_index(header, label_column)
        if label_idx is None or len(cells) != len(header) or not first.strip():
            raise ValueError("no label column, or a first row blank or not as wide as the header")
        if "\r" in head.removesuffix("\r") or any(char in text for char in '"\x1c\x1d\x1e\x1f'):
            raise ValueError("a CR inside the header line, a quote, or a separator numpy skips")
        as_text = {j for j, cell in enumerate(cells) if _parse_numeric([cell]) is None}
        as_text.add(label_idx)
        levels = [{} for _ in header]
        coders = {
            j: lambda cell, index=levels[j]: index.setdefault(cell.strip(), len(index))
            for j in as_text
        }
        table = np.loadtxt(
            chain([first], rows), delimiter=",", comments=None, ndmin=2, converters=coders
        )
        # numpy skips a line that is empty or only a CR
        if len(table) != sum(sizes) - 1 or not np.isfinite(table).all():
            raise ValueError("a blank line, or a value that is not finite")
    except (ValueError, StopIteration):
        return None
    parts = [[col.astype(np.intp) if j in as_text else col] for j, col in enumerate(table.T)]
    return header, label_idx, as_text, parts, levels, None


def load_csv(path, label_column: str = "last") -> Dataset:
    """Load a CSV with feature-type inference and +/-1 label mapping.

    ``label_column`` is a header name or "last".  Raises ValueError on
    missing cells, non-binary labels, or a malformed file.  A constant
    column, numeric or categorical, loads as a column without a cut.
    The file is read once and whole, by the C reader unless it declines, else
    by csv.reader (see the module notes), which raises ``csv.Error`` on a cell
    longer than ``csv.field_size_limit()`` that the C reader loads.
    """
    text = Path(path).read_bytes().decode("utf-8")
    table = _c_read(text, label_column) or _consume(text, label_column)
    del text  # not held while the columns are built
    header, label_idx, as_text, parts, levels, ragged = table
    if len(header) < 2:
        raise ValueError("need at least one feature column plus the label")
    # missing cells are sought column-wise before the first ragged row: the first bad row wins
    blank = [
        int(np.argmax(np.concatenate(parts[j]) == levels[j][""]))
        for j in as_text
        if "" in levels[j]
    ]
    if blank:
        raise ValueError(f"missing cell in row {min(blank) + 2}")
    if ragged is not None:
        raise ValueError(f"row {ragged[0] + 2} has {ragged[1]} cells, expected {len(header)}")
    if label_idx is None:
        raise ValueError(f"no column named {label_column!r}")

    distinct = sorted(levels[label_idx])
    if len(distinct) == 1:
        raise ValueError("labels contain a single class")
    if len(distinct) != 2:
        raise ValueError(f"labels must be binary, found {len(distinct)} values")
    mapping = {distinct[0]: -1, distinct[1]: 1}
    signs = np.array([mapping[level] for level in levels[label_idx]], dtype=np.int64)
    labels = signs[np.concatenate(parts[label_idx])]

    columns = []
    for j, name in enumerate(header):
        if j == label_idx:
            continue
        values = np.concatenate(parts[j])
        if j in as_text:  # the levels, already distinct, sorted once, and the codes remapped
            names = np.array(list(levels[j]), dtype=str)
            order = names.argsort()
            columns.append(Column(name, CATEGORICAL, order.argsort()[values], names[order]))
        else:
            columns.append(Column(name, NUMERIC, values))
    return Dataset(tuple(columns), labels, header[label_idx])


def write_csv(path, header, rows) -> None:
    """Write a header row, then the rows, each value as ``csv.writer`` writes it,
    a float as its ``repr``, but nan, the one value unequal to itself, as an empty cell."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(["" if value != value else value for value in row] for row in rows)


def save_csv(data: Dataset, path) -> None:
    """Serialize a Dataset back to CSV (labels written as -1/1)."""
    header = [c.name for c in data.columns] + [data.label_name]
    cells = (c.values if c.levels is None else c.levels[c.values] for c in data.columns)
    write_csv(path, header, zip(*(column.tolist() for column in cells), data.labels.tolist()))


def stratified_folds(data: Dataset, k: int, seed):
    """k disjoint test folds with per-class counts within 1 of proportional.

    Deterministic for a given seed: each class's indices are shuffled once
    and dealt into k nearly equal chunks, larger first, one per fold.  The
    call checks its arguments and draws every shuffle; the iterator it
    returns makes each fold's (train, test), ascending int arrays, only when
    it is reached.  train is every row test lacks.
    """
    if k < 2:
        raise ValueError("need at least 2 folds")
    rng = np.random.default_rng(seed)
    fold = np.empty(data.m, dtype=int)
    for cls in (-1, 1):
        idx = np.flatnonzero(data.labels == cls)
        if idx.size < k:
            raise ValueError(f"class {cls} has fewer than {k} examples")
        for f, chunk in enumerate(np.array_split(rng.permutation(idx), k)):
            fold[chunk] = f
    return ((np.flatnonzero(fold != f), np.flatnonzero(fold == f)) for f in range(k))


def inject_label_noise(data: Dataset, eta: float, seed) -> Dataset:
    """Independently flip each label with probability ``eta``."""
    if not 0.0 <= eta < 1.0:
        raise ValueError("noise rate must lie in [0, 1)")
    if eta == 0.0:
        return data
    rng = np.random.default_rng(seed)
    flips = rng.random(data.m) < eta
    return Dataset(data.columns, np.where(flips, -data.labels, data.labels), data.label_name)
