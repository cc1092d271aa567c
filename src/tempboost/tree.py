"""Top-down decision trees minimizing the expected tempered Bayes risk.

A tree is grown from a single leaf by repeatedly expanding the heaviest
leaf (largest co-density mass) with the split that maximizes

    r_parent L_t(p_parent) - r_left L_t(p_left) - r_right L_t(p_right),

L_t the tempered Bayes risk; concavity of L_t makes the gain nonnegative.
Numeric split candidates are midpoints between consecutive observed
values, categorical candidates are the proper nonempty subsets of the
observed values up to complement.  When the candidate count exceeds the
cap, the best split is searched in a uniformly sampled subset instead.
Splits creating a pure leaf are inadmissible, which keeps every leaf
posterior strictly inside (0, 1) and every leaf prediction

    H = (q1^(1-t) / (1-t)) (p^(1-t) - (1-p)^(1-t)) / (p^(1-t) + (1-p)^(1-t))

finite (at t=1 the limit is the half log-odds ln(p/(1-p)) / 2).  Leaf
masses come from the booster's co-density weights, so at uniform weights
they reduce to example counts over m.

Numeric candidates come from a presorted block, the column block of
XGBoost (Chen & Guestrin, KDD 2016).  ``Dataset.numeric_block`` sorts
each numeric column once per Dataset, when the first tree is grown on it,
and every later tree on that Dataset (each boosting round of a cell)
reuses it.  A leaf filters the presorted orders by its rows, which stay
ascending, so the result equals a stable argsort of the leaf's own values
and the split found is the one a per-leaf sort finds.  All thresholds of
all numeric features are scored in one vectorised pass; taking the first
maximum in feature-major order keeps the tie-break of lowest feature,
then lowest threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .cpe_loss import bayes_risk
from .dataio import CATEGORICAL, Dataset
from .talgebra import TemperConfig
from .weights import TemWeights, co_density

DEFAULT_SPLIT_CAP = 2000


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
    """Test x[feature] in subset; the subset is a proper nonempty one."""

    feature: int
    subset: tuple

    def evaluate(self, data: Dataset, rows=slice(None)) -> np.ndarray:
        return np.isin(data.columns[self.feature].values[rows], self.subset)

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


def _risk_term(m_pos, m_neg, cfg):
    """r L_t(p) of candidate sides whose class masses are both positive."""
    mass = m_pos + m_neg
    return mass * bayes_risk(m_pos / mass, cfg)


def _category_masses(values, wpos, wneg):
    cats, codes = np.unique(values, return_inverse=True)
    members = codes == np.arange(cats.size)[:, None]
    pos = np.array([wpos.compress(rows).sum() for rows in members])
    neg = np.array([wneg.compress(rows).sum() for rows in members])
    return cats, pos, neg


def _subset_masks(k: int) -> np.ndarray:
    # Proper nonempty subsets up to complement: bitmasks containing bit 0.
    return np.arange(1, (1 << k) - 1, 2, dtype=np.int64)


def _masks_to_bits(masks: np.ndarray, k: int) -> np.ndarray:
    return (masks[:, None] >> np.arange(k)) & 1


def _best_split(data, rows, wpos, wneg, cfg, rng, split_cap, parent):
    """Best admissible split predicate of one leaf, or None.

    ``wpos``/``wneg`` are the class-split weights of all of ``data``.  Ties
    in gain go to the lowest feature, then the lowest threshold (the first
    argmax over the feature-major candidate block) or the smallest subset.
    """
    parent_term = parent.r * bayes_risk(parent.p, cfg)
    features, order, v = data.numeric_block
    if rows.size < data.m:  # below the root: keep the leaf's rows, in order
        in_leaf = np.zeros(data.m, dtype=bool)
        in_leaf[rows] = True
        # compress, not a boolean index: several times faster on scattered masks
        keep = in_leaf[order].ravel()
        order = order.compress(keep).reshape(len(features), rows.size)
        v = v.compress(keep).reshape(len(features), rows.size)
    pos = wpos[order]
    neg = wneg[order]
    # Suffix masses are accumulated directly rather than derived as
    # total - prefix: sums of nonnegative terms cannot go negative, so a
    # zero mass means a genuinely empty side and admissibility stays exact.
    left_pos = np.cumsum(pos, axis=1)[:, :-1]
    left_neg = np.cumsum(neg, axis=1)[:, :-1]
    right_pos = np.cumsum(pos[:, ::-1], axis=1)[:, ::-1][:, 1:]
    right_neg = np.cumsum(neg[:, ::-1], axis=1)[:, ::-1][:, 1:]
    boundary = v[:, :-1] < v[:, 1:]

    per_row = boundary.sum(axis=1)
    counts = [0] * data.d
    for f, n in enumerate(per_row.tolist()):
        counts[features[f]] = n
    categorical = {}
    for j, column in enumerate(data.columns):
        if column.kind == CATEGORICAL:
            categorical[j] = _category_masses(column.values[rows], wpos[rows], wneg[rows])
            counts[j] = (1 << (len(categorical[j][0]) - 1)) - 1
    total = sum(counts)
    if total == 0:
        return None
    sampled = None
    if total > split_cap:
        sampled = _sample_candidates(counts, categorical, split_cap, rng)
        # the k-th boundary of row f is entry starts[f] + k of the flat list
        starts = np.cumsum(per_row) - per_row
        picks = [starts[f] + sampled[j] for f, j in enumerate(features) if j in sampled]
        at = np.flatnonzero(boundary)[np.concatenate(picks)] if picks else []
        boundary = np.zeros_like(boundary)
        boundary.flat[at] = True

    found = []  # (gain, feature, predicate): the best candidate of each feature
    admissible = (
        boundary & (left_pos > 0) & (left_neg > 0) & (right_pos > 0) & (right_neg > 0)
    )
    f, k = np.nonzero(admissible)
    if f.size:
        gains = (
            parent_term
            - _risk_term(left_pos[f, k], left_neg[f, k], cfg)
            - _risk_term(right_pos[f, k], right_neg[f, k], cfg)
        )
        i = int(np.argmax(gains))
        threshold = 0.5 * (v[f[i], k[i]] + v[f[i], k[i] + 1])
        j = features[f[i]]
        found.append((gains[i], j, NumericSplit(j, float(threshold))))

    for j, (cats, cat_pos, cat_neg) in categorical.items():
        n_cats = len(cats)
        if n_cats < 2 or (sampled is not None and j not in sampled):
            continue
        masks = _subset_masks(n_cats) if sampled is None else sampled[j]
        bits = _masks_to_bits(masks, n_cats)
        in_pos = bits @ cat_pos
        in_neg = bits @ cat_neg
        out_pos = (1 - bits) @ cat_pos
        out_neg = (1 - bits) @ cat_neg
        ok = np.flatnonzero((in_pos > 0) & (in_neg > 0) & (out_pos > 0) & (out_neg > 0))
        if not ok.size:
            continue
        gains = (
            parent_term
            - _risk_term(in_pos[ok], in_neg[ok], cfg)
            - _risk_term(out_pos[ok], out_neg[ok], cfg)
        )
        top = ok[gains == gains.max()]
        subset = min(tuple(cats[bits[i] == 1].tolist()) for i in top)
        found.append((gains.max(), j, CategoricalSplit(j, subset)))

    if not found:
        return None
    return max(found, key=lambda c: (c[0], -c[1]))[2]


def _sample_candidates(counts, categorical, cap, rng):
    """Uniform sample of ``cap`` candidate splits across all features.

    ``counts[j]`` is feature j's candidate count.  Returns feature ->
    picks: boundary positions for a numeric feature, distinct canonical
    subset masks for a categorical one.  Draws are with replacement over
    the (possibly astronomically large) candidate space, so repeats leave
    a touch under ``cap`` distinct candidates.
    """
    probs = np.array(counts, dtype=float) / float(sum(counts))
    draws = rng.choice(len(counts), size=cap, p=probs)
    chosen: dict = {}
    for j, n in enumerate(np.bincount(draws, minlength=len(counts)).tolist()):
        if n == 0:
            continue
        if j in categorical:
            full = (1 << len(categorical[j][0])) - 1
            raw = rng.integers(1, full, size=n)  # proper nonempty subsets
            canonical = np.where(raw & 1, raw, full ^ raw)
            chosen[j] = np.unique(canonical.astype(np.int64))
        else:
            chosen[j] = rng.integers(0, counts[j], size=n)
    return chosen


def induce_tree(
    data: Dataset,
    weights,
    max_nodes: int,
    cfg: TemperConfig,
    rng,
    split_cap: int = DEFAULT_SPLIT_CAP,
) -> DecisionTree:
    """Grow a tree of at most ``max_nodes`` nodes (must be odd).

    ``weights`` is the booster's co-density over the training rows.  The
    heaviest live leaf is expanded first; a leaf none of whose splits is
    admissible is retired.  Ties among equal-gain splits break to the
    lowest feature index, then the lowest threshold or lexicographically
    smallest category subset; ties among equally heavy leaves break to the
    oldest.  Growth stops at the node budget or when no live leaf remains.

    Numeric thresholds are scored from ``data.numeric_block``, which the
    first call on a Dataset builds and every later call (each boosting
    round on the same training set) reuses; the presort changes no split.
    """
    if max_nodes < 1 or max_nodes % 2 == 0:
        raise ValueError("max_nodes must be odd: a root plus child pairs")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (data.m,) or np.any(weights < 0):
        raise ValueError("need one nonnegative weight per example")
    if abs(weights.sum() - 1.0) > 1e-6:
        raise ValueError("weights must sum to 1 (a co-density)")
    if rng is None or not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
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
        predicate = _best_split(
            data, leaf.rows, wpos, wneg, cfg, rng, split_cap, leaf.stats
        )
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

    def __init__(self, max_nodes: int = 15, split_cap: int = DEFAULT_SPLIT_CAP, rng=None):
        self.max_nodes = max_nodes
        self.split_cap = split_cap
        self.rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)

    def __call__(self, weights: TemWeights, data: Dataset) -> DecisionTree:
        p = co_density(weights).p
        return induce_tree(
            data, p, self.max_nodes, weights.cfg, self.rng, self.split_cap
        )
