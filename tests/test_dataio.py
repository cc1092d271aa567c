"""CSV round trip, level codes, the presorted block, stratified folds and label noise."""

import csv
import io
import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import cells
from tempboost import dataio
from tempboost.dataio import (
    CATEGORICAL,
    MAX_BINS,
    NUMERIC,
    Column,
    Dataset,
    inject_label_noise,
    load_csv,
    save_csv,
    stratified_folds,
)
from tempboost.synthetic import make_mixed_table
from tempboost.talgebra import TemperConfig
from tempboost.tree import induce_tree


def test_csv_round_trip_keeps_columns_and_labels(tmp_path):
    data = make_mixed_table(m=120, seed=4)
    save_csv(data, tmp_path / "mixed.csv")
    assert describe(load(tmp_path / "mixed.csv")) == describe(data)  # repr() keeps floats exact
    assert c_reads(tmp_path / "mixed.csv")


def test_write_csv_writes_floats_as_their_repr_and_nan_as_an_empty_cell(tmp_path):
    path = tmp_path / "table.csv"
    floats = [0.1, 5e-324, -0.0, 1e16, 1 / 3]
    rows = [floats, [7, "x", math.nan, np.float64(0.5), -1]]
    dataio.write_csv(path, ["a", "b", "c", "d", "e"], rows)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == ["a,b,c,d,e", ",".join(map(repr, floats)), "7,x,,0.5,-1"]
    assert lines[1].split(",")[1:4] == ["5e-324", "-0.0", "1e+16"]
    assert b"np.float64(" not in path.read_bytes()


def test_write_csv_quotes_a_cell_holding_a_comma_a_quote_or_a_newline(tmp_path):
    path = tmp_path / "levels.csv"
    levels = ["a,b", 'say "hi"', "two\nlines", "plain"]
    dataio.write_csv(path, ["level"], [[level] for level in levels])
    with open(path, newline="", encoding="utf-8") as handle:
        assert list(csv.reader(handle)) == [["level"], *([level] for level in levels)]
    assert path.read_bytes() == b'level\r\n"a,b"\r\n"say ""hi"""\r\n"two\nlines"\r\nplain\r\n'


def test_a_dataset_copies_the_labels_it_is_given():
    y = np.array([-1, 1, -1, 1], dtype=np.int64)
    data = Dataset((Column("x", NUMERIC, [1.0, 2.0, 3.0, 4.0]),), y)
    assert y.flags.writeable and data.labels is not y
    y[0] = 1
    assert data.labels.tolist() == [-1, 1, -1, 1]


def test_a_categorical_column_is_its_sorted_levels_and_one_code_per_row(tmp_path):
    strings = ["red", "blue", "red", "Z", "é", "blue", "amber"]
    rows = [[cell, "ab"[i % 2]] for i, cell in enumerate(strings)]
    (loaded,) = load(write_raw_csv(tmp_path / "x.csv", ["c", "y"], rows)).columns
    built = Column("c", CATEGORICAL, strings)
    for column in (loaded, built):
        assert column.levels.tolist() == sorted(set(strings)) and not column.levels.flags.writeable
        assert column.values.tolist() == built.values.tolist()
        assert column.levels[column.values].tolist() == strings
    rows = np.array([1, 3, 5])  # "red" and "amber" are not among them
    (taken,) = Dataset((loaded,), np.ones(7, dtype=np.int64)).take(rows).columns
    assert taken.levels is loaded.levels and taken.values.dtype == np.intp
    assert taken.values.tolist() == loaded.values[rows].tolist()


def test_a_text_column_loads_the_levels_and_codes_that_np_unique_gives(tmp_path):
    rng = np.random.default_rng(20)
    letters = list("abzAZ09é_")
    for words in (3, 300, 3000):  # few levels, then nearly every row its own
        vocabulary = ["".join(rng.choice(letters, size=rng.integers(1, 7))) for _ in range(words)]
        strings = rng.choice(vocabulary, size=2000).tolist()
        rows = [[word, "ab"[i % 2]] for i, word in enumerate(strings)]
        (column,) = load(write_raw_csv(tmp_path / "text.csv", ["c", "y"], rows)).columns
        names, codes = np.unique(np.array(strings), return_inverse=True)
        assert column.levels.dtype == names.dtype and column.levels.tobytes() == names.tobytes()
        assert column.values.dtype == codes.dtype and column.values.tobytes() == codes.tobytes()


def test_a_column_checks_the_codes_and_levels_it_is_given():
    levels = np.array(["a", "b"])
    for codes in ([0, 2], [-1, 1], [0.0, 1.0]):
        with pytest.raises(ValueError, match=r"^column 'c' holds a code outside \[0, 2\)$"):
            Column("c", CATEGORICAL, codes, levels)
    with pytest.raises(ValueError, match="^numeric column 'x' has no levels$"):
        Column("x", NUMERIC, [1.0, 2.0], levels)
    assert Column("c", CATEGORICAL, [1, 0, 1], levels).levels.tolist() == ["a", "b"]


def test_label_noise_flips_the_class_indicator_with_the_labels():
    data = make_mixed_table(m=80, seed=3)
    noisy = inject_label_noise(data, 0.3, 7)
    flipped = noisy.labels != data.labels
    assert 0 < flipped.sum() < data.m
    assert inject_label_noise(data, 0.0, 7) is data
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        inject_label_noise(data, 1.0, 7)


def test_take_rejects_row_indices_that_are_not_integers():
    data = make_mixed_table(m=60)
    # a mask would have taken rows 0 and 1; an empty list's dtype is float
    for rows in (np.arange(60) >= 30, [0.0, 1.0], []):
        with pytest.raises(ValueError, match="^row indices must be integers"):
            data.take(rows)
    assert describe(data.take(np.arange(30, 60, dtype=np.uint8))) == describe(
        data.take(np.flatnonzero(np.arange(60) >= 30))
    )


@pytest.mark.parametrize("m", (1, 2, 9, 5000))
def test_column_block_orders_are_a_stable_argsort(m):
    # ties everywhere: few levels, small integers, a constant, -0.0 beside 0.0
    rng = np.random.default_rng(m)
    columns = (
        Column("grade", CATEGORICAL, rng.choice(list("abcd"), size=m)),
        Column("count", NUMERIC, rng.integers(0, 5, size=m).astype(float)),
        Column("wide", NUMERIC, rng.integers(-400, 400, size=m).astype(float)),
        Column("constant", NUMERIC, np.full(m, 2.5)),
        Column("zero", NUMERIC, rng.choice([0.0, -0.0, 1.0], size=m)),
        Column("real", NUMERIC, rng.normal(size=m)),
    )
    data = Dataset(columns, np.where(rng.random(m) < 0.5, 1, -1))
    orders, _ = data.column_block
    for j, column in enumerate(columns):
        assert np.array_equal(orders[j], np.argsort(column.values, kind="stable"))


@pytest.mark.parametrize("m", (7, 300, 4000))
def test_column_block_bins_are_ranks_equal_count_codes_or_level_codes(m):
    # ties everywhere, numeric columns on both sides of MAX_BINS distinct values,
    # and categorical columns with few levels and with more than MAX_BINS
    rng = np.random.default_rng(m + 1)
    columns = (
        Column("rounded", NUMERIC, rng.normal(size=m).round(2)),
        Column("real", NUMERIC, rng.normal(size=m)),
        Column("few", NUMERIC, rng.integers(0, MAX_BINS, size=m) * 1.0),
        Column("one_more", NUMERIC, np.arange(m) % (MAX_BINS + 1) * 1.0),
        Column("zero", NUMERIC, rng.choice([0.0, -0.0, 1.0], size=m)),
        Column("constant", NUMERIC, np.full(m, 2.5)),
        Column("grade", CATEGORICAL, rng.choice(list("abcd"), size=m)),
        Column("tag", CATEGORICAL, [f"t{k}" for k in rng.integers(0, 2 * MAX_BINS, size=m)]),
    )
    table = Dataset(columns, np.where(rng.random(m) < 0.5, 1, -1))
    for data in (table, table.take(np.arange(0, m, 3))):  # a fold's codes have gaps
        orders, bins = data.column_block
        for j, column in enumerate(data.columns):
            # the value's rank among the distinct values, a level code's among the
            # codes, else, numeric and above MAX_BINS distinct values, its equal-count bin
            distinct, rank = np.unique(column.values, return_inverse=True)
            first = np.searchsorted(np.sort(column.values), column.values)
            binned = column.kind == NUMERIC and distinct.size > MAX_BINS
            want = first * MAX_BINS // data.m if binned else rank
            assert np.array_equal(bins[j], want[orders[j]])
        assert bins.dtype == np.min_scalar_type(bins.max())
    if m == 4000:  # every kind of column above occurs
        assert np.unique(columns[3].values).size > MAX_BINS >= np.unique(columns[2].values).size
        assert columns[7].levels.size > MAX_BINS


def dealt_test_folds(labels, k, seed) -> list:
    """The reference dealing, by hand: each class's permutation cut into k
    chunks in order, the first ``size % k`` one row longer."""
    rng = np.random.default_rng(seed)
    tests = [[] for _ in range(k)]
    for cls in (-1, 1):
        perm = rng.permutation(np.flatnonzero(labels == cls))
        base, extra = divmod(perm.size, k)
        bounds = np.cumsum([0] + [base + (f < extra) for f in range(k)])
        for f in range(k):
            tests[f] += perm[bounds[f] : bounds[f + 1]].tolist()
    return [sorted(test) for test in tests]


@pytest.mark.parametrize("k", (2, 3, 7))
def test_stratified_folds_partition_rows_in_proportion(k):
    data = make_mixed_table(m=101, seed=7)
    folds = list(stratified_folds(data, k, seed=9))
    assert len(folds) == k
    tests = [test for _, test in folds]
    assert np.array_equal(np.sort(np.concatenate(tests)), np.arange(data.m))
    for train, test in folds:
        assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(data.m))
        assert np.all(np.diff(train) > 0)  # tree growth relies on ascending rows
        reference = np.setdiff1d(np.arange(data.m), test)
        assert train.dtype == reference.dtype and np.array_equal(train, reference)
        for cls in (-1, 1):
            share = np.sum(data.labels == cls) / k
            assert abs(np.sum(data.labels[test] == cls) - share) < 1
    assert next(stratified_folds(data, k, seed=9))[1].tolist() == tests[0].tolist()
    assert [test.tolist() for test in tests] == dealt_test_folds(data.labels, k, 9)
    seed = np.random.SeedSequence(entropy=(k, 5))  # as the experiment seeds the folds
    got = [test.tolist() for _, test in stratified_folds(data, k, seed)]
    assert got == dealt_test_folds(data.labels, k, seed)


def test_stratified_folds_check_and_draw_in_the_call_then_make_each_fold_lazily():
    data = make_mixed_table(m=101, seed=7)
    for k, message in ((1, "at least 2 folds"), (60, "fewer than 60 examples")):
        with pytest.raises(ValueError, match=message):
            stratified_folds(data, k, seed=9)  # the call raises, before any fold
    rng = np.random.default_rng(9)
    folds = stratified_folds(data, 3, rng)
    assert iter(folds) is folds  # an iterator, not a list of every fold's arrays
    rng.random()  # the shuffles were drawn in the call: a later draw moves no fold
    assert [test.tolist() for _, test in folds] == dealt_test_folds(data.labels, 3, 9)


def write_raw_csv(path, header, rows, newline="\n"):
    text = newline.join(",".join(row) for row in [header, *rows]) + newline
    path.write_text(text, encoding="utf-8", newline="")
    return path


def describe(data):
    """Everything a Dataset holds, bit for bit."""
    columns = [(c.name, c.kind, c.values.dtype.str, c.values.tobytes()) for c in data.columns]
    levels = [c.levels is None or c.levels.tolist() for c in data.columns]
    return data.label_name, data.labels.tobytes(), columns, levels


def load(path, **kwargs):
    """``load_csv`` by the C reader and by csv.reader, the C reader made to
    decline, each in blocks of one line and of the default size: all four
    must agree, on the same Dataset, bit for bit, or the same error."""
    outcomes = []
    for c_read, chars in itertools.product((decline, dataio._c_read), (1, dataio.BLOCK_CHARS)):
        with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
            warnings.simplefilter("error")  # a load warns of nothing
            patch.setattr(dataio, "BLOCK_CHARS", chars)
            patch.setattr(dataio, "_c_read", c_read)
            try:
                outcomes.append(load_csv(path, **kwargs))
            except (ValueError, csv.Error) as error:
                outcomes.append(error)
    *others, default = outcomes
    if isinstance(default, Exception):
        for other in others:
            assert (type(other), str(other)) == (type(default), str(default))
        raise default
    for other in others:
        assert describe(other) == describe(default)
    return default


def decline(text, label_column):
    return None


def c_reads(path, label_column="last") -> bool:
    """Whether the C reader takes the file, rather than leave it to csv.reader."""
    return dataio._c_read(path.read_bytes().decode("utf-8"), label_column) is not None


@pytest.mark.parametrize(
    "newline, final", [("\n", "\n"), ("\r\n", "\r\n"), ("\n", ""), ("\n", "\r")]
)
def test_the_c_reader_and_csv_reader_load_the_same_dataset(tmp_path, newline, final):
    # Quoting the header's names sends the file to csv.reader, which reads
    # them unquoted; unquoted, the file is read by the C reader.  A CR at
    # the end of the text ends the last line for both.
    data = make_mixed_table(m=60, seed=2)
    path = tmp_path / "x.csv"
    save_csv(data, path)
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    quoted = ",".join(f'"{name}"' for name in header.split(","))
    for head in (header, quoted):
        path.write_text(newline.join([head, *lines]) + final, encoding="utf-8", newline="")
        assert describe(load(path)) == describe(data)
        assert c_reads(path) == (head == header)


@pytest.mark.parametrize(
    "text, outcome",
    [
        ('x,c,y\n1,"a,b",p\n2,c,q\n', ["a,b", "c"]),
        ('x,c,y\r\n1,"a\r\nb",p\r\n2,c,q\r\n', ["a\r\nb", "c"]),
        ("x,c,y\r1,a,p\n2,c,q\r", ["a", "c"]),
        # unquoted, CRLF reads as LF first: a CR before a CRLF ends no line
        ("x,c,y\r\r\n1,a,p\r\r\n2,c,q\r\r\n", ["a", "c"]),
        ("x,c,y\n1,a\rb,p\n2,c,q\n", "row 2 has 2 cells, expected 3"),
        ("x,c,y\n1,a,p\n\n2,c,q\n", "row 3 has 0 cells, expected 3"),
        ("x,c,y\r\n1,a,p\r\n2,c,q\r\n\r\n", "row 4 has 0 cells, expected 3"),
    ],
)
def test_quotes_lone_carriage_returns_and_blank_lines_parse_as_csv(tmp_path, text, outcome):
    path = tmp_path / "x.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert not c_reads(path)
    if isinstance(outcome, str):
        with pytest.raises(ValueError, match=f"^{re.escape(outcome)}$"):
            load(path)
    else:
        assert cells(load(path).columns[1]).tolist() == outcome


@pytest.mark.parametrize(
    "text, outcome",
    [
        ('x,y\n1,"a"\n2,b\n', [1.0, 2.0]),  # a quote
        ("x,y\n1,a\n1\x1e,b\n", ["1", "1"]),  # a separator, which numpy reads as space
        ("x,y\n1,a\n\n2,b\n", "row 3 has 0 cells, expected 2"),  # numpy skips a blank line
        ("x,y\r\n1,a\r\n\r\n2,b\r\n", "row 3 has 0 cells, expected 2"),  # and a CR alone
        ("x,y\n1,a\r2,b\n", [1.0, 2.0]),  # a CR that ends no line
        ("x,y\r1,z\n2,3,a\n4,5,b\n", "row 3 has 3 cells, expected 2"),  # in the header too
        ("x,y\n1,a\n1_0,b\n", [1.0, 10.0]),  # a cell that float() reads and numpy refuses
        ("x,y\n1,a\n2,b,c\n", "row 3 has 3 cells, expected 2"),  # a ragged row
        ("x,y,z\n1,a\n2,b\n", "row 2 has 2 cells, expected 3"),  # narrower than the header
        ("x,y\n1,a\nnan,b\n", ["1", "nan"]),  # a value that is not finite
        ("x,y\n", "file needs a header row and at least one data row"),
        ("y\n\n", "need at least one feature column plus the label"),  # numpy would warn
    ],
)
def test_a_file_the_c_reader_declines_loads_as_csv_reader_reads_it(tmp_path, text, outcome):
    path = tmp_path / "x.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert not c_reads(path)
    if isinstance(outcome, str):
        with pytest.raises(ValueError, match=f"^{re.escape(outcome)}$"):
            load(path)
    else:
        assert cells(load(path).columns[0]).tolist() == outcome


def test_a_cell_beyond_the_csv_field_limit_loads_only_unquoted(tmp_path, monkeypatch):
    long = "v" * (csv.field_size_limit() + 1)
    rows = [["1", long, "a"], ["2", "w", "b"]]
    path = write_raw_csv(tmp_path / "x.csv", ["x", "c", "y"], rows)
    assert cells(load_csv(path).columns[1]).tolist() == [long, "w"]
    with pytest.raises(csv.Error):  # a quote sends the file to csv.reader
        load(write_raw_csv(tmp_path / "x.csv", ['"x"', "c", "y"], rows))
    monkeypatch.setattr(dataio, "_c_read", decline)
    with pytest.raises(csv.Error):  # as does any decline of the C reader
        load_csv(path)


def test_csv_reader_parses_the_rows_after_a_ragged_one_too(tmp_path):
    # a cell beyond the field limit raises csv.Error wherever it lies
    long = "v" * (csv.field_size_limit() + 1)
    rows = [["1", "a"], ["2", "b", "c"], ["3", "b"], [long, "a"]]
    with pytest.raises(csv.Error):
        load(write_raw_csv(tmp_path / "x.csv", ['"x"', "y"], rows))


def test_numeric_cells_parse_as_python_floats(tmp_path):
    # numpy's parser refuses the second list's cells, so csv.reader reads them
    plain = ["0.1", "-0", "1e-300", "5e-324", " 2.5 ", "3.141592653589793", "-7", "+1E3"]
    for cells in (plain, ["1_000", "١٢", "1_0", "2"]):
        rows = [[cell, "a" if i % 2 else "b"] for i, cell in enumerate(cells)]
        path = write_raw_csv(tmp_path / "x.csv", ["x", "y"], rows)
        (column,) = load(path).columns
        assert column.kind == NUMERIC and c_reads(path) == (cells is plain)
        expected = np.array([float(cell) for cell in cells])
        assert column.values.tobytes() == expected.tobytes()  # bit for bit, -0.0 included
    assert expected.tolist() == [1000.0, 12.0, 10.0, 2.0]


@pytest.mark.parametrize("odd", ["nan", "NaN", "inf", "-inf", "1e999", "x", "1\x1c", "\x1f2"])
def test_a_cell_that_is_not_a_finite_real_makes_the_column_categorical(tmp_path, odd):
    # float() refuses the separators \x1c to \x1f, which numpy's parser reads as space
    rows = [["1.5", "a"], [odd, "b"], ["2", "a"], ["1.5", "b"]]
    data = load(write_raw_csv(tmp_path / "x.csv", ["x", "y"], rows))
    (column,) = data.columns
    assert column.kind == CATEGORICAL
    assert cells(column).tolist() == ["1.5", odd.strip(), "2", "1.5"]
    # a numeric Column refuses a value that is not finite too: nan sorts last, yet fails x >= cut
    if odd not in ("x", "1\x1c", "\x1f2"):
        with pytest.raises(ValueError, match="numeric column 'x' holds a value that is not"):
            Column("x", NUMERIC, [1.5, float(odd), 2.0, 1.5])


@pytest.mark.parametrize(
    "bad, message",
    [
        ({3: ["1", "a", "b"], 5: ["2", " "]}, "row 5 has 3 cells, expected 2"),
        ({3: ["1", ""], 5: ["2"]}, "missing cell in row 5"),
        ({2: ["1", "b", "c"]}, "row 4 has 3 cells, expected 2"),
        ({6: ["1"]}, "row 8 has 1 cells, expected 2"),
        ({3: ["", "a", "b"], 5: ["2", ""]}, "row 5 has 3 cells, expected 2"),
        ({4: ["  ", "a"]}, "missing cell in row 6"),
        ({3: ["1", " "], 5: [" ", "b"]}, "missing cell in row 5"),
        ({0: ["1", "a", "b"]}, "row 2 has 3 cells, expected 2"),
        ({3: ["1", " "]}, "missing cell in row 5"),
    ],
)
def test_malformed_rows_are_named_by_their_first_occurrence(tmp_path, bad, message):
    rows = [bad.get(i, [str(i), "ab"[i % 2]]) for i in range(8)]  # row i is line i + 2
    for newline in ("\n", "\r\n"):
        with pytest.raises(ValueError, match=f"^{message}$"):
            load(write_raw_csv(tmp_path / "x.csv", ["x", "y"], rows, newline))


def test_padded_cells_load_as_their_stripped_values(tmp_path):
    # A numeric column is parsed unstripped (float ignores the padding); the
    # categorical and label columns are stripped.
    rows = [[" 1.5", " red ", " a"], ["2 ", "blue", "b  "], ["\t-3\t", " red", "a"]]
    data = load(write_raw_csv(tmp_path / "x.csv", ["x", "c", "y"], rows))
    x, c = data.columns
    assert (x.kind, c.kind) == (NUMERIC, CATEGORICAL)
    assert x.values.tolist() == [1.5, 2.0, -3.0]
    assert cells(c).tolist() == ["red", "blue", "red"]
    assert data.labels.tolist() == [-1, 1, -1]


def test_a_named_label_column_is_found_after_the_cell_checks(tmp_path):
    rows = [[" b", "1.5"], ["a ", "2"], ["b", "3"]]
    data = load(write_raw_csv(tmp_path / "x.csv", ["y", "x"], rows), label_column="y")
    assert data.label_name == "y" and data.labels.tolist() == [1, -1, 1]
    assert [c.name for c in data.columns] == ["x"]
    with pytest.raises(ValueError, match="^no column named 'z'$"):
        load(tmp_path / "x.csv", label_column="z")
    assert c_reads(tmp_path / "x.csv", "y") and not c_reads(tmp_path / "x.csv", "z")
    rows[1][1] = " "
    with pytest.raises(ValueError, match="^missing cell in row 3$"):
        load(write_raw_csv(tmp_path / "x.csv", ["y", "x"], rows), label_column="z")


def test_constant_categorical_column_loads_as_a_column_without_a_cut(tmp_path):
    # as a constant numeric column does; a fold's rows can make any column constant
    rows = [["red", "2.0", str(i), "ab"[i % 2]] for i in range(4)]
    data = load(write_raw_csv(tmp_path / "x.csv", ["c", "k", "x", "y"], rows))
    assert [(c.name, c.kind) for c in data.columns] == [
        ("c", CATEGORICAL), ("k", NUMERIC), ("x", NUMERIC)
    ]
    assert data.columns[0].levels.tolist() == ["red"]
    tree = induce_tree(data, np.full(4, 0.25), 3, TemperConfig(0.5))
    assert tree.root.predicate.feature == 2  # the only column with a cut


def long_csv(tmp_path, rows, bad):
    """A file of ``rows`` rows ``i,label`` whose rows in ``bad`` are replaced,
    and whose last replaced row lies past the first block of the text."""
    lines = ["x,y", *(bad.get(i, f"{i},{'ab'[i % 2]}") for i in range(rows))]
    path = tmp_path / "long.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")
    assert len("\n".join(lines[: max(bad) + 1])) > dataio.BLOCK_CHARS
    return path


def test_a_column_that_turns_to_text_after_a_block_is_read_again_as_text(tmp_path):
    rows = dataio.BLOCK_CHARS // 4
    path = long_csv(tmp_path, rows, {3: " 3 ,b", rows - 1: f"late,{'ab'[(rows - 1) % 2]}"})
    (column,) = load(path).columns
    assert column.kind == CATEGORICAL
    assert cells(column).tolist() == [str(i) for i in range(rows - 1)] + ["late"]


@pytest.mark.parametrize(
    "bad, message",
    [
        ({11000: " ,a", 11500: "1,a,b"}, "missing cell in row 11002"),
        ({11000: "1", 11500: " ,a"}, "row 11002 has 1 cells, expected 2"),
        ({11000: "1,a,b", 11001: "1,"}, "row 11002 has 3 cells, expected 2"),
    ],
)
def test_a_malformed_row_past_the_first_block_is_named(tmp_path, bad, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        load(long_csv(tmp_path, 12000, bad))


ODD = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"  # line breaks to str.splitlines, not to csv


@pytest.mark.parametrize(
    "text",
    [
        f'a,"b{ODD}c",d{ODD}e\r\n"x\r\ny",z{ODD},"w\rv"\r1,2,3\n{ODD},"{ODD}",{ODD}',
        f"a,b{ODD},c\r\n{ODD}1,2,3\r{ODD},{ODD},\n",
    ],
    ids=["quoted", "unquoted"],
)
@pytest.mark.parametrize("chars", [1, dataio.BLOCK_CHARS])
def test_csv_reader_reads_the_lines_that_string_io_reads(monkeypatch, text, chars):
    monkeypatch.setattr(dataio, "BLOCK_CHARS", chars)
    header, *blocks = dataio._csv_blocks(text, ragged := [])
    rows = [header] + [list(row) for block in blocks for row in zip(*block)]
    assert rows == list(csv.reader(io.StringIO(text, newline=""))) and not ragged
    assert len(rows) > 2 and all(len(row) == 3 for row in rows)


def test_loading_holds_less_than_three_times_the_file(tmp_path):
    # tall's shape: numeric columns and a label, 20000 rows, written by save_csv
    rng = np.random.default_rng(0)
    m = 20000
    columns = tuple(Column(f"x{j}", NUMERIC, rng.normal(size=m)) for j in range(4))
    path = tmp_path / "tall.csv"
    save_csv(Dataset(columns, np.where(rng.random(m) < 0.5, 1, -1)), path)
    tracemalloc.start()
    try:
        data = load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.m == m and peak < 3 * path.stat().st_size


@pytest.mark.parametrize("table", ("numeric", "mixed"))
def test_building_the_column_block_holds_less_than_five_copies_of_the_table(table):
    # the block is built in place: numeric columns above MAX_BINS distinct values,
    # which are binned, and a mixed table
    rng = np.random.default_rng(2)
    m = 20000
    if table == "numeric":
        columns = tuple(Column(f"x{j}", NUMERIC, rng.normal(size=m)) for j in range(4))
        data = Dataset(columns, np.where(rng.random(m) < 0.5, 1, -1))
    else:
        data = make_mixed_table(m=m, seed=2)
    tracemalloc.start()
    try:
        orders, bins = data.column_block
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert orders.shape == bins.shape == (data.d, m) and bins.max() >= MAX_BINS - 1
    assert peak <= 5 * data.d * m * 8
