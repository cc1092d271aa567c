"""Top-down decision trees minimizing the expected tempered Bayes risk.

A tree is grown from a single leaf by repeatedly expanding the heaviest
leaf (largest co-density mass) with the split that maximizes

    r_parent L_t(p_parent) - r_left L_t(p_left) - r_right L_t(p_right),

L_t the tempered Bayes risk; concavity of L_t makes the gain nonnegative.
Numeric split candidates are midpoints between consecutive values of the
leaf that lie in different bins of their column (see below).  A
categorical feature with k levels in the leaf has the k-1 prefixes of its
levels sorted by posterior as candidates: for two classes and a concave
impurity such as L_t, the best subset is one of them (Breiman et al.,
CART 1984, section 9.4).  Splits creating a pure leaf are inadmissible,
which keeps every leaf posterior strictly inside (0, 1) and every leaf
prediction

    H = (q1^(1-t) / (1-t)) (p^(1-t) - (1-p)^(1-t)) / (p^(1-t) + (1-p)^(1-t))

finite (at t=1 the limit is the half log-odds ln(p/(1-p)) / 2).  Leaf
masses come from the booster's co-density weights, so at uniform weights
they reduce to example counts over m.  The admissibility rule limits the
prefix scan: it is exact when every level in the leaf holds both classes,
but a single-class level can make the best admissible subset a non-prefix
one, which the scan misses.

Numeric candidates come from a presorted block, the column block of
XGBoost (Chen & Guestrin, KDD 2016): ``Dataset.numeric_block`` sorts each
numeric column once per Dataset and stores a bin code next to each sorted
entry, and every tree grown on that Dataset reuses it.  The candidates
are the cuts between bins, the fixed global proposal of XGBoost's
approximate split finding (section 3.2 there): every midpoint of a column
with at most ``dataio.MAX_BINS`` distinct values, else at most
``MAX_BINS - 1`` cuts between equal-count bins, never between equal
values, and no random draw.  A leaf filters the block by its rows, which
stay ascending, and sums the class masses of each run of equal codes
before the prefix sums; a cut's threshold is the midpoint of the leaf
values on either side.  All candidates are scored in one vectorised pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .cpe_loss import bayes_risk
from .dataio import Dataset
from .talgebra import TemperConfig
from .weights import TemWeights, co_density


@dataclass(frozen=True)
class NumericSplit:
    """Test x[feature] >= threshold; thresholds are observed-value midpoints."""

    feature: int
    threshold: float

    def evaluate(self, data: Dataset, rows=slice(None)) -> np.ndarray:
        return data.columns[self.feature].values[rows] >= self.threshold

    def evaluate_row(self, row) -> bool:
        return float(row[self.feature]) >= self.threshold


@dataclass(frozen=True)
class CategoricalSplit:
    """Test x[feature] in subset; other levels, even unseen ones, test false."""

    feature: int
    subset: tuple

    def evaluate(self, data: Dataset, rows=slice(None)) -> np.ndarray:
        levels, codes = data.category_codes[self.feature]
        return np.isin(levels, self.subset)[codes[rows]]

    def evaluate_row(self, row) -> bool:
        return str(row[self.feature]) in self.subset


SplitPredicate = Union[NumericSplit, CategoricalSplit]


class LeafStats(NamedTuple):
    """Weighted class masses at a leaf (masses, not counts)."""

    m_pos: float
    m_neg: float

    @property
    def r(self) -> float:
        return self.m_pos + self.m_neg

    @property
    def p(self) -> float:
        return self.m_pos / (self.m_pos + self.m_neg)


class LeafNode:
    __slots__ = ("stats", "prediction", "rows")

    def __init__(self, stats: LeafStats, prediction: float, rows=None):
        self.stats = stats
        self.prediction = prediction
        self.rows = rows


class SplitNode:
    __slots__ = ("predicate", "left", "right")

    def __init__(self, predicate: SplitPredicate, left, right):
        self.predicate = predicate
        self.left = left
        self.right = right


@dataclass
class DecisionTree:
    """Binary tree; the false branch of each predicate goes left."""

    root: object
    cfg: TemperConfig
    n_nodes: int

    def predict(self, data: Dataset) -> np.ndarray:
        """Leaf prediction per row; each row is tested only along its path."""
        out = np.empty(data.m)
        stack = [(self.root, np.arange(data.m))]
        while stack:
            node, rows = stack.pop()
            if isinstance(node, LeafNode):
                out[rows] = node.prediction
            else:
                test = node.predicate.evaluate(data, rows)
                stack.append((node.left, rows.compress(~test)))
                stack.append((node.right, rows.compress(test)))
        return out

    def predict_row(self, row) -> float:
        node = self.root
        while isinstance(node, SplitNode):
            node = node.right if node.predicate.evaluate_row(row) else node.left
        return node.prediction

    def leaves(self) -> list:
        found = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, LeafNode):
                found.append(node)
            else:
                stack.extend((node.right, node.left))
        return found


def leaf_prediction(p: float, q1: float, cfg: TemperConfig) -> float:
    """Real prediction the boosting projection assigns to a leaf.

    ``q1`` is the initial uniform weight 1/m^(1/(2-t)); at t=1 the weight
    drops out and the prediction is the half log-odds.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("leaf posterior must lie strictly inside (0, 1)")
    if cfg.is_classic():
        return 0.5 * math.log(p / (1.0 - p))
    t = cfg.t
    a = p ** (1.0 - t)
    b = (1.0 - p) ** (1.0 - t)
    return q1 ** (1.0 - t) / (1.0 - t) * (a - b) / (a + b)


def split_gain(parent: LeafStats, left: LeafStats, right: LeafStats, cfg: TemperConfig) -> float:
    """Drop in expected tempered Bayes risk; -inf marks a rejected split.

    A split is rejected (not an error) when a child is empty or pure.
    """
    for child in (left, right):
        if child.r <= 0 or child.m_pos <= 0 or child.m_neg <= 0:
            return -math.inf
    parent_term = parent.r * bayes_risk(parent.p, cfg)
    left_term = left.r * bayes_risk(left.p, cfg)
    right_term = right.r * bayes_risk(right.p, cfg)
    return parent_term - left_term - right_term


def _cuts(pos, neg):
    """Class masses on both sides of each cut between neighbours in a row.

    Returns ``(left_pos, left_neg, right_pos, right_neg)`` and the mask of
    admissible cuts, those leaving both classes on both sides.  Suffixes are
    summed directly, not as total - prefix: sums of nonnegative terms stay
    nonnegative, so a zero mass means a genuinely empty side.
    """
    sides = (
        np.cumsum(pos, axis=1)[:, :-1],
        np.cumsum(neg, axis=1)[:, :-1],
        np.cumsum(pos[:, ::-1], axis=1)[:, ::-1][:, 1:],
        np.cumsum(neg[:, ::-1], axis=1)[:, ::-1][:, 1:],
    )
    return sides, np.logical_and.reduce([side > 0 for side in sides])


def _level_prefixes(codes, rows, wpos, wneg):
    """Prefix candidates of the categorical features ``codes`` at a leaf.

    Row r holds the leaf's level masses of the r-th feature, ranked by
    posterior; levels without mass, and the padding, rank last, so no
    admissible prefix holds one.  Returns the ranking, the ``_cuts`` masses
    and the (row, cut) positions of the admissible prefixes.
    """
    width = max(levels.size for levels, _ in codes.values())
    level_pos = np.zeros((len(codes), width))
    level_neg = np.zeros((len(codes), width))
    leaf_pos, leaf_neg = wpos[rows], wneg[rows]
    for r, (levels, row_codes) in enumerate(codes.values()):
        leaf_codes = row_codes[rows]
        level_pos[r, : levels.size] = np.bincount(leaf_codes, leaf_pos, levels.size)
        level_neg[r, : levels.size] = np.bincount(leaf_codes, leaf_neg, levels.size)
    mass = level_pos + level_neg
    posterior = np.divide(level_pos, mass, out=np.full_like(mass, 2.0), where=mass > 0)
    ranked = np.argsort(posterior, axis=1, kind="stable")
    prefixes, admissible = _cuts(
        np.take_along_axis(level_pos, ranked, axis=1),
        np.take_along_axis(level_neg, ranked, axis=1),
    )
    return ranked, prefixes, np.nonzero(admissible)


def _run_sums(run_start, *masses):
    """Each block of ``masses`` summed over the runs that ``run_start`` marks.

    Row f holds the sums of row f's runs, in order, then zero padding, which
    leaves the cuts next to it an empty side, so none is admissible.
    """
    first = np.flatnonzero(run_start)
    runs = run_start.sum(axis=1)
    width = runs.max(initial=0)
    # a run's slot in the flattened block: row * width plus its rank in the row
    offset = np.arange(runs.size) * width - (np.cumsum(runs) - runs)
    slot = np.arange(first.size) + np.repeat(offset, runs)
    sums = []
    for mass in masses:
        block = np.zeros(runs.size * width)
        block[slot] = np.add.reduceat(mass.ravel(), first)
        sums.append(block.reshape(runs.size, width))
    return sums


def _best_split(data, rows, wpos, wneg, cfg, parent):
    """Best admissible split predicate of one leaf, or None.

    ``wpos``/``wneg`` are the class-split weights of all of ``data``.  All
    candidates of all features are scored in one pass; ties in gain go to
    the lowest feature, then the lowest threshold or the shortest prefix.
    """
    features, order, bins = data.numeric_block
    if rows.size < data.m:  # below the root: keep the leaf's rows, in order
        in_leaf = np.zeros(data.m, dtype=bool)
        in_leaf[rows] = True
        # compress, not a boolean index: several times faster on scattered masks
        keep = in_leaf[order].ravel()
        order = order.compress(keep).reshape(len(features), rows.size)
        bins = bins.compress(keep).reshape(len(features), rows.size)
    run_start = np.ones(bins.shape, dtype=bool)
    np.not_equal(bins[:, 1:], bins[:, :-1], out=run_start[:, 1:])
    pos, neg = wpos[order], wneg[order]
    if not run_start.all():  # else the sums are the block itself; skipping is faster
        pos, neg = _run_sums(run_start, pos, neg)
    numeric, admissible = _cuts(pos, neg)
    block_row, cut = np.nonzero(admissible)
    # (false_pos, false_neg, true_pos, true_neg) per candidate, where true
    # means x >= threshold, or a level in the prefix
    sides = [side[block_row, cut] for side in numeric]
    codes = data.category_codes
    if codes:
        ranked, prefixes, (c, n) = _level_prefixes(codes, rows, wpos, wneg)
        sides = [
            np.concatenate([a, b[c, n]]) for a, b in zip(sides, prefixes[2:] + prefixes[:2])
        ]
        block_row = np.concatenate([block_row, len(features) + c])
        cut = np.concatenate([cut, n + 1])
    if not block_row.size:
        return None
    side_pos = np.concatenate([sides[0], sides[2]])
    side_mass = side_pos + np.concatenate([sides[1], sides[3]])
    terms = side_mass * bayes_risk(side_pos / side_mass, cfg)
    gains = parent.r * bayes_risk(parent.p, cfg) - terms[: cut.size] - terms[cut.size :]
    feature = np.array(features + list(codes), dtype=int)[block_row]
    best = np.flatnonzero(gains == gains.max())
    i = best[np.argmin(feature[best])]  # the first of the lowest tied feature
    j, row, at = int(feature[i]), int(block_row[i]), int(cut[i])
    if row >= len(features):
        prefix = np.sort(ranked[row - len(features), :at])
        return CategoricalSplit(j, tuple(codes[j][0][prefix].tolist()))
    x = data.columns[j].values
    right = np.flatnonzero(run_start[row])[at + 1]  # the first entry right of the cut
    return NumericSplit(j, float(0.5 * (x[order[row, right - 1]] + x[order[row, right]])))


def induce_tree(data: Dataset, weights, max_nodes: int, cfg: TemperConfig) -> DecisionTree:
    """Grow a tree of at most ``max_nodes`` nodes (must be odd).

    ``weights`` is the booster's co-density over the training rows.  The
    heaviest live leaf is expanded first; a leaf none of whose splits is
    admissible is retired.  Candidates are the midpoints between a leaf's
    neighbouring numeric values that lie in different bins of
    ``data.numeric_block`` (every pair of distinct values, for a column
    with at most ``MAX_BINS`` of them) and the prefixes of each categorical
    feature's levels ranked by leaf posterior (exact unless a level in the
    leaf holds one class only; see the module notes).  Ties among
    equal-gain splits break to the lowest feature index, then the lowest
    threshold or the shortest prefix; ties among equally heavy leaves
    break to the oldest.  A categorical split sends the prefix (stored
    sorted) to the true branch and every other level, seen in the leaf or
    not, to the false one.  Growth stops at the node budget or when no
    live leaf remains.  The tree depends only on the arguments.
    """
    if max_nodes < 1 or max_nodes % 2 == 0:
        raise ValueError("max_nodes must be odd: a root plus child pairs")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (data.m,) or np.any(weights < 0):
        raise ValueError("need one nonnegative weight per example")
    if abs(weights.sum() - 1.0) > 1e-6:
        raise ValueError("weights must sum to 1 (a co-density)")
    wpos = np.where(data.labels > 0, weights, 0.0)
    wneg = np.where(data.labels < 0, weights, 0.0)
    if wpos.sum() <= 0 or wneg.sum() <= 0:
        raise ValueError("training rows must carry weighted mass of both classes")

    q1 = data.m ** (-cfg.t_star)

    def make_leaf(rows):
        stats = LeafStats(float(wpos[rows].sum()), float(wneg[rows].sum()))
        return LeafNode(stats, leaf_prediction(stats.p, q1, cfg), rows)

    root = make_leaf(np.arange(data.m))
    n_nodes = 1
    live = [(root, None, None)]  # (leaf, parent, side)

    while n_nodes + 2 <= max_nodes and live:
        heaviest = max(range(len(live)), key=lambda i: live[i][0].stats.r)
        leaf, parent, side = live.pop(heaviest)
        predicate = _best_split(data, leaf.rows, wpos, wneg, cfg, leaf.stats)
        if predicate is None:
            continue  # retired: no admissible split on this leaf
        test = predicate.evaluate(data, leaf.rows)
        left = make_leaf(leaf.rows.compress(~test))
        right = make_leaf(leaf.rows.compress(test))
        node = SplitNode(predicate, left, right)
        if parent is None:
            root = node
        elif side == "left":
            parent.left = node
        else:
            parent.right = node
        live.append((left, node, "left"))
        live.append((right, node, "right"))
        n_nodes += 2

    tree = DecisionTree(root, cfg, n_nodes)
    for leaf in tree.leaves():
        leaf.rows = None  # drop build-time row indices
    return tree


class TreeWeakLearner:
    """Adapter plugging tempered-loss trees into the boosting loop."""

    def __init__(self, max_nodes: int = 15):
        self.max_nodes = max_nodes

    def __call__(self, weights: TemWeights, data: Dataset) -> DecisionTree:
        return induce_tree(data, co_density(weights), self.max_nodes, weights.cfg)
