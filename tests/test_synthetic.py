"""Synthetic datasets: seeded, and shaped as their docstrings say."""

import numpy as np
import pytest

from tempboost.dataio import CATEGORICAL, NUMERIC
from tempboost.synthetic import make_margin_blobs, make_mixed_table, make_wideband


def as_tuple(data):
    """Everything a Dataset holds, comparable with ``==``."""
    return (
        data.label_name,
        data.labels.tolist(),
        [(c.name, c.kind, c.values.tolist()) for c in data.columns],
    )


@pytest.mark.parametrize(
    "make", (make_margin_blobs, make_wideband, make_mixed_table), ids=lambda f: f.__name__
)
def test_the_same_seed_gives_the_same_dataset(make):
    assert as_tuple(make(seed=7)) == as_tuple(make(seed=7))
    assert as_tuple(make(seed=7)) != as_tuple(make(seed=8))


def test_margin_blobs_keep_their_margin_and_add_noise_columns():
    data = make_margin_blobs(m=150, margin=0.4, noise_dims=3, seed=1)
    assert data.m == 150 and data.d == 5
    assert [c.name for c in data.columns] == ["x1", "x2", "n1", "n2", "n3"]
    assert all(c.kind == NUMERIC for c in data.columns)
    score = data.columns[0].values + data.columns[1].values
    assert np.abs(score).min() >= 0.4
    assert np.array_equal(data.labels, np.where(score >= 0, 1, -1))


def test_wideband_has_its_shape_and_both_classes():
    data = make_wideband(m=90, d=12, seed=3)
    assert (data.m, data.d) == (90, 12)
    assert all(c.kind == NUMERIC and c.values.shape == (90,) for c in data.columns)
    assert set(data.labels.tolist()) == {-1, 1}


def test_mixed_table_has_two_categorical_and_two_numeric_columns():
    data = make_mixed_table(m=200, seed=2)
    assert [(c.name, c.kind) for c in data.columns] == [
        ("color", CATEGORICAL),
        ("shape", CATEGORICAL),
        ("size", NUMERIC),
        ("weight", NUMERIC),
    ]
    assert set(data.columns[0].values.tolist()) <= {"red", "green", "blue", "amber"}
    assert set(data.columns[1].values.tolist()) <= {"disc", "ring", "rod"}
    assert set(data.labels.tolist()) == {-1, 1}
