"""CSV round trip, categorical level codes and stratified folds."""

import numpy as np
import pytest

from tempboost.dataio import CATEGORICAL, NUMERIC, load_csv, save_csv, stratified_folds
from tempboost.synthetic import make_mixed_table


def test_csv_round_trip_keeps_columns_and_labels(tmp_path):
    data = make_mixed_table(m=120, seed=4)
    path = tmp_path / "mixed.csv"
    save_csv(data, path)
    loaded = load_csv(path)
    assert loaded.label_name == data.label_name
    assert np.array_equal(loaded.labels, data.labels)
    assert [(c.name, c.kind) for c in loaded.columns] == [
        (c.name, c.kind) for c in data.columns
    ]
    for got, want in zip(loaded.columns, data.columns):
        assert np.array_equal(got.values, want.values)  # repr() keeps floats exact


def test_category_codes_rebuild_each_categorical_column():
    data = make_mixed_table(m=80, seed=5)
    codes = data.category_codes
    assert sorted(codes) == [j for j, c in enumerate(data.columns) if c.kind == CATEGORICAL]
    assert all(data.columns[j].kind == NUMERIC for j in range(data.d) if j not in codes)
    for j, (levels, row_codes) in codes.items():
        assert levels.tolist() == sorted(set(data.columns[j].values.tolist()))
        assert np.array_equal(levels[row_codes], data.columns[j].values)


def test_with_labels_keeps_the_column_tables():
    data = make_mixed_table(m=80, seed=3)
    block, codes = data.column_block, data.category_codes
    flipped = data.with_labels(-data.labels)
    assert flipped.column_block is block and flipped.category_codes is codes
    assert np.array_equal(flipped.labels, -data.labels)
    fresh = make_mixed_table(m=80, seed=3).with_labels(data.labels)
    assert "column_block" not in fresh.__dict__  # nothing built, nothing shared
    assert np.array_equal(fresh.column_block[1], block[1])


def test_take_builds_its_own_category_codes():
    data = make_mixed_table(m=80, seed=6)
    j = next(iter(data.category_codes))
    values = data.columns[j].values
    dropped = values[0]
    rows = np.flatnonzero(values != dropped)
    sub = data.take(rows)
    levels, row_codes = sub.category_codes[j]
    assert dropped not in levels.tolist()
    assert np.array_equal(levels[row_codes], values[rows])
    assert data.category_codes[j][0].tolist().count(dropped) == 1


@pytest.mark.parametrize("k", (2, 3, 7))
def test_stratified_folds_partition_rows_in_proportion(k):
    data = make_mixed_table(m=101, seed=7)
    folds = stratified_folds(data, k, seed=9)
    assert len(folds) == k
    tests = [test for _, test in folds]
    assert np.array_equal(np.sort(np.concatenate(tests)), np.arange(data.m))
    for train, test in folds:
        assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(data.m))
        for cls in (-1, 1):
            share = np.sum(data.labels == cls) / k
            assert abs(np.sum(data.labels[test] == cls) - share) < 1
    assert stratified_folds(data, k, seed=9)[0][1].tolist() == tests[0].tolist()


def write_csv(path, header, rows):
    path.write_text("\n".join(",".join(row) for row in [header, *rows]) + "\n")
    return path


def test_numeric_cells_parse_as_python_floats(tmp_path):
    cells = ["0.1", "-0", "1e-300", "5e-324", " 2.5 ", "1_000", "3.141592653589793", "-7"]
    rows = [[cell, "a" if i % 2 else "b"] for i, cell in enumerate(cells)]
    data = load_csv(write_csv(tmp_path / "x.csv", ["x", "y"], rows))
    (column,) = data.columns
    assert column.kind == NUMERIC
    expected = np.array([float(cell) for cell in cells])
    assert column.values.tobytes() == expected.tobytes()  # bit for bit, -0.0 included


@pytest.mark.parametrize("odd", ["nan", "NaN", "inf", "-inf", "1e999", "x"])
def test_a_cell_that_is_not_a_finite_real_makes_the_column_categorical(tmp_path, odd):
    rows = [["1.5", "a"], [odd, "b"], ["2", "a"], ["1.5", "b"]]
    data = load_csv(write_csv(tmp_path / "x.csv", ["x", "y"], rows))
    (column,) = data.columns
    assert column.kind == CATEGORICAL
    assert column.values.tolist() == ["1.5", odd, "2", "1.5"]


@pytest.mark.parametrize(
    "bad, message",
    [
        ({3: ["1", "a", "b"], 5: ["2", " "]}, "row 5 has 3 cells, expected 2"),
        ({3: ["1", ""], 5: ["2"]}, "missing cell in row 5"),
        ({2: ["1", "b", "c"]}, "row 4 has 3 cells, expected 2"),
        ({6: ["1"]}, "row 8 has 1 cells, expected 2"),
        ({3: ["", "a", "b"], 5: ["2", ""]}, "row 5 has 3 cells, expected 2"),
    ],
)
def test_malformed_rows_are_named_by_their_first_occurrence(tmp_path, bad, message):
    rows = [bad.get(i, [str(i), "ab"[i % 2]]) for i in range(8)]  # row i is line i + 2
    with pytest.raises(ValueError, match=f"^{message}$"):
        load_csv(write_csv(tmp_path / "x.csv", ["x", "y"], rows))


def test_constant_categorical_column_is_rejected(tmp_path):
    rows = [["red", str(i), "ab"[i % 2]] for i in range(4)]
    with pytest.raises(ValueError, match="categorical column 'c' is constant"):
        load_csv(write_csv(tmp_path / "x.csv", ["c", "x", "y"], rows))
