"""Top-down decision trees minimizing the expected tempered Bayes risk.

A tree is grown from a single leaf by repeatedly expanding the heaviest
leaf (largest co-density mass) with the split that maximizes

    r_parent L_t(p_parent) - r_left L_t(p_left) - r_right L_t(p_right),

L_t the tempered Bayes risk; concavity of L_t makes the gain nonnegative.
Splits creating a pure leaf are inadmissible, which keeps every leaf
posterior strictly inside (0, 1) and every leaf prediction

    H = (q1^(1-t) / (1-t)) (p^(1-t) - (1-p)^(1-t)) / (p^(1-t) + (1-p)^(1-t))

finite (at t=1 the limit is the half log-odds ln(p/(1-p)) / 2).  Leaf
masses come from the booster's co-density weights, so at uniform weights
they reduce to example counts over m.

Numeric candidates are the cuts between bins of the presorted column
block of XGBoost (Chen & Guestrin, KDD 2016): ``Dataset.numeric_block``
sorts each numeric column once per Dataset and codes every entry with its
bin, every midpoint for a column with at most ``dataio.MAX_BINS``
distinct values, else equal-count bins that never split equal values
(the global proposal of XGBoost's approximate split finding, section
3.2).  A leaf keeps its rows of the block, in order, and sums the class
masses of each run of equal codes; a threshold is the midpoint of the
leaf values on either side of its cut.  A categorical feature with k
levels in the leaf has the k-1 prefixes of its levels ranked by posterior
as candidates: for two classes and a concave impurity such as L_t, the
best subset is one of them (Breiman et al., CART 1984, section 9.4).  The
admissibility rule makes that scan exact only when every level in the
leaf holds both classes; a single-class level can make the best
admissible subset a non-prefix one, which the scan misses.

Each leaf scores all candidates and itself in one block: row j holds
column j's masses on both sides of its cuts, from prefix and suffix sums,
and one ``bayes_risk`` call scores every cell, unless no cut is
admissible.  Inadmissible cuts are masked to gain -inf rather than
filtered out, and each gain subtracts the false side's term first (below
the threshold; outside the prefix).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .cpe_loss import bayes_risk
from .dataio import Dataset
from .errors import SingleClassError
from .talgebra import TemperConfig
from .weights import TemWeights, co_density

_LEAST_MASS = np.finfo(float).smallest_subnormal


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


def _ranked_levels(codes, rows, wpos, wneg):
    """Level masses of the categorical features ``codes`` at a leaf.

    Returns the ranking and the ranked masses, ``[class, feature, rank]``:
    each feature's levels by posterior, then levels without mass and the
    padding, so that no admissible prefix holds one.
    """
    masses = np.zeros((2, len(codes), max(levels.size for levels, _ in codes.values())))
    leaf_weights = wpos[rows], wneg[rows]
    for r, (levels, row_codes) in enumerate(codes.values()):
        leaf_codes = row_codes[rows]
        for c, w in enumerate(leaf_weights):
            masses[c, r, : levels.size] = np.bincount(leaf_codes, w, levels.size)
    mass = masses[0] + masses[1]
    posterior = np.divide(masses[0], mass, out=np.full_like(mass, 2.0), where=mass > 0)
    ranked = np.argsort(posterior, axis=1, kind="stable")
    return ranked, np.take_along_axis(masses, ranked[np.newaxis], axis=2)


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

    ``wpos``/``wneg`` are the class-split weights of all of ``data``.  Row j
    of the block holds column j's masses in cut order, zero-padded: runs of
    equal bin codes, or levels ranked by posterior.  The row-major argmax
    over the masked gains breaks ties to the lowest feature, then the
    lowest threshold or the shortest prefix.
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
    codes = data.category_codes
    categorical = list(codes)
    if categorical:  # else the numeric rows are the columns, in order
        ranked, levels = _ranked_levels(codes, rows, wpos, wneg)
        merged = np.zeros((2, data.d, max(levels.shape[2], pos.shape[1] if features else 0)))
        if features:
            merged[:, features, : pos.shape[1]] = pos, neg
        merged[:, categorical, : levels.shape[2]] = levels
        pos, neg = merged
    n_rows, width = pos.shape
    cuts = n_rows * (width - 1)
    if not cuts:
        return None
    # block[c]: class c's mass on the false side of every cut, row-major over
    # (feature, cut), then on the true side, then the parent's
    block = np.empty((2, 2 * cuts + 1))
    block[:, -1] = parent
    sides = block[:, :-1].reshape(2, 2, n_rows, width - 1)
    for by_side, mass in zip(sides, (pos, neg)):
        np.cumsum(mass[:, :-1], axis=1, out=by_side[0])
        # the suffixes summed from the far end, not as total - prefix: sums
        # of nonnegative terms stay nonnegative, so zero means an empty side
        np.cumsum(mass[:, :0:-1], axis=1, out=by_side[1, :, ::-1])
    if categorical:  # a prefix of levels is the true side
        sides[:, :, categorical] = sides[:, ::-1][:, :, categorical]
    admissible = sides.min(axis=(0, 1)).ravel() > 0
    if not admissible.any():
        return None
    mass = block[0] + block[1]
    # raising an empty side's zero mass to the least positive double leaves
    # every other mass as it is and makes that side's posterior 0, not 0/0
    denominator = np.maximum(mass, _LEAST_MASS)
    terms = bayes_risk(np.divide(block[0], denominator, out=denominator), cfg)
    terms *= mass
    gains = terms[-1] - terms[:cuts]
    gains -= terms[cuts:-1]
    best = int(np.where(admissible, gains, -np.inf).argmax())
    j, at = divmod(best, width - 1)  # block row j is column j
    if j in codes:
        prefix = np.sort(ranked[categorical.index(j), : at + 1])
        return CategoricalSplit(j, tuple(codes[j][0][prefix].tolist()))
    row = features.index(j)
    x = data.columns[j].values
    right = np.flatnonzero(run_start[row])[at + 1]  # the first entry right of the cut
    return NumericSplit(j, float(0.5 * (x[order[row, right - 1]] + x[order[row, right]])))


def induce_tree(data: Dataset, weights, max_nodes: int, cfg: TemperConfig) -> DecisionTree:
    """Grow a tree of at most ``max_nodes`` nodes (must be odd).

    ``weights`` is the booster's co-density over the training rows.  The
    heaviest live leaf is expanded first, ties to the oldest; a leaf none of
    whose candidates (see the module notes) is admissible is retired.  Ties
    among equal-gain splits break to the lowest feature index, then the
    lowest threshold or the shortest prefix.  A categorical split sends the
    prefix (stored sorted) to the true branch and every other level, seen
    in the leaf or not, to the false one.  Growth stops at the node budget
    or when no live leaf remains.  The tree depends only on the arguments.
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
        raise SingleClassError("training rows must carry weighted mass of both classes")

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
