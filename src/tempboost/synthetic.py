"""Synthetic benchmark datasets shaped like small UCI tables.

Everything is deterministic under the given seed and returned as a
Dataset, so the CSV harness can be exercised end to end without shipping
or downloading real data.
"""

from __future__ import annotations

import numpy as np

from .dataio import CATEGORICAL, NUMERIC, Column, Dataset


def _labels_from_score(score: np.ndarray) -> np.ndarray:
    return np.where(score >= 0, 1, -1).astype(np.int64)


def make_margin_blobs(m: int = 200, margin: float = 0.3, noise_dims: int = 0, seed=0) -> Dataset:
    """Linearly separable 2-d points, label = sign(x1 + x2), |x1+x2| >= margin.

    Axis-aligned threshold learners see moderate (not perfect) edges, which
    makes the set a convergence benchmark rather than a one-shot solve.
    """
    rng = np.random.default_rng(seed)
    xs = []
    while sum(x.shape[0] for x in xs) < m:
        block = rng.uniform(-1.0, 1.0, size=(m, 2))
        keep = np.abs(block.sum(axis=1)) >= margin
        xs.append(block[keep])
    points = np.vstack(xs)[:m]
    labels = _labels_from_score(points.sum(axis=1))
    columns = [
        Column("x1", NUMERIC, points[:, 0]),
        Column("x2", NUMERIC, points[:, 1]),
    ]
    for j in range(noise_dims):
        columns.append(Column(f"n{j + 1}", NUMERIC, rng.uniform(-1, 1, size=m)))
    return Dataset(tuple(columns), labels, "class")


def make_wideband(m: int = 208, d: int = 60, seed=0) -> Dataset:
    """Sonar-shaped table: many correlated numeric columns, noisy rule.

    The label is a sign of a sparse linear score plus a quadratic twist,
    computed from latent factors that also drive the visible columns, so
    no single column separates the classes.
    """
    rng = np.random.default_rng(seed)
    latent = rng.normal(size=(m, 6))
    mix = rng.normal(size=(6, d)) / np.sqrt(6)
    observed = latent @ mix + 0.35 * rng.normal(size=(m, d))
    score = (
        latent[:, 0]
        - 0.8 * latent[:, 1]
        + 0.6 * latent[:, 2] * latent[:, 3]
        + 0.25 * rng.normal(size=m)
    )
    labels = _labels_from_score(score - np.median(score))
    columns = tuple(
        Column(f"band{j + 1:02d}", NUMERIC, observed[:, j]) for j in range(d)
    )
    return Dataset(columns, labels, "class")


def make_mixed_table(m: int = 300, seed=0) -> Dataset:
    """Mixed numeric/categorical table with interaction structure.

    Two categorical columns gate which numeric threshold matters, so trees
    need both split kinds to do well.
    """
    rng = np.random.default_rng(seed)
    color = rng.choice(["red", "green", "blue", "amber"], size=m)
    shape = rng.choice(["disc", "ring", "rod"], size=m)
    size = rng.normal(loc=0.0, scale=1.0, size=m)
    weight = rng.normal(loc=0.0, scale=1.0, size=m)
    score = np.where(
        np.isin(color, ("red", "amber")), size - 0.3, -size + 0.1
    ) + np.where(shape == "ring", 0.8 * weight, -0.2 * weight)
    score += 0.3 * rng.normal(size=m)
    labels = _labels_from_score(score)
    columns = (
        Column("color", CATEGORICAL, color),
        Column("shape", CATEGORICAL, shape),
        Column("size", NUMERIC, size),
        Column("weight", NUMERIC, weight),
    )
    return Dataset(columns, labels, "class")

