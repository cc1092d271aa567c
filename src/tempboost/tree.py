"""Top-down decision trees minimizing the expected tempered Bayes risk.

A tree is grown from a single leaf by repeatedly expanding the heaviest
leaf (largest co-density mass) with the split that maximizes

    B(P, N) - (B(P_left, N_left) + B(P_right, N_right)),

B(P, N) = 2PN / M_(1-t)(P, N) = r L_t(P / r) the tempered Bayes risk of a
node's class masses P and N, r = P + N; concavity makes the gain >= 0.
A split is admissible only if each child's posterior p = P / (P + N),
computed from the masses the split search summed, lies strictly inside
(0, 1) (see ``_admissible``): no child is pure, and in none is the
negative mass lost in rounding P + N, as it can be once boosting has
spread the weights over many orders of magnitude.  That keeps every leaf
prediction

    H = (q1^(1-t) / (1-t)) (p^(1-t) - (1-p)^(1-t)) / (p^(1-t) + (1-p)^(1-t))

finite (at t=1 the limit is the half log-odds ln(p/(1-p)) / 2).  A leaf's
stats are summed again over its rows, in another order, so only a child
within rounding error of that boundary can still raise ``SingleClassError``
in ``leaf_prediction``.  Leaf masses come from the booster's co-density
weights, so at uniform weights they reduce to example counts over m.

Candidates come from the presorted column block of XGBoost (Chen &
Guestrin, KDD 2016): ``Dataset.column_block`` sorts every column once per
Dataset and codes each entry with its bin.  A numeric column gets every
midpoint when it has at most ``dataio.MAX_BINS`` distinct values, else
equal-count bins that never split equal values (the global proposal of
XGBoost's approximate split finding, section 3.2); a categorical column
is sorted by its level codes, one bin per level.  A row's two class
masses travel as one complex number, positive + 1j * negative, so that a
gather, a prefix sum or a reordering moves both in one numpy call;
complex addition adds each part on its own, so every sum has the bits of
its per-class twin.  ``induce_tree`` gathers those masses into block order
once per tree.  A leaf below the root finds its entries of the block, in
order, as one flat index and takes its bins and masses with it.  Each
leaf sums the masses of each run of equal codes in every column, so a
numeric and a categorical column with the same runs get bitwise equal
run masses.  Where the runs lie
(``dataio.run_layout``) depends only on the rows, not the weights: a leaf
below the root computes it, and the root reads ``Dataset.root_runs``,
built once per Dataset for every tree, and so every boosting round, grown
on it.  A numeric threshold is the midpoint of the leaf values a < b on
either side of a cut between runs, taken as a/2 + b/2 so that it cannot
overflow, or b itself when the midpoint rounds onto a: ``x >= threshold``
then routes exactly the rows the cut scored.  A categorical column's runs
are its levels in the leaf; ranked by posterior, their k-1 prefixes are
its candidates: for two classes and a concave impurity such as L_t, the
best subset is one of them (Breiman et al., CART 1984, section 9.4).  The
admissibility rule makes that scan exact only when every level in the
leaf holds both classes; a single-class level can make the best
admissible subset a non-prefix one, which the scan misses.

Each leaf scores all candidates and itself in one block: row j holds
column j's class masses on both sides of its cuts, from complex prefix
and suffix sums, and one ``bayes_risk`` call scores every cell from the
real and imaginary parts of its masses, unless no cut is admissible.
The run sums are the one step taken per class (see ``_run_sums``): a
complex ``np.add.reduceat`` adds in another order.  Those masses are
sums of nonnegative weights, which is what the unchecked power-mean
kernel behind ``bayes_risk`` assumes; ``bayes_risk`` makes its one
nonnegativity check per call, on the whole block.  Inadmissible cuts are
masked to gain -inf rather than filtered out.  A gain subtracts the sum
of its side terms, which IEEE addition makes independent of which side
is which, so a cut and its mirror (as on a column's exact reverse) tie
bitwise.

A tree has one node type, ``Node``, split in place; ``Node.route`` sends
rows down a split both while the tree grows and when it predicts.  Growth
keeps the rows of every final leaf, retired ones included, and writes the
leaf's prediction to them: ``DecisionTree.fitted`` holds the tree's
predictions on its training rows, which ``TreeWeakLearner`` takes from the
tree and hands to the booster: no row is routed through the tree twice, and
no ensemble member keeps an array of one value per training row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dataio import Dataset, run_layout
from .errors import SingleClassError
from .talgebra import TemperConfig, bayes_risk
from .weights import TemWeights, co_density, initial_weight


@dataclass(frozen=True)
class NumericSplit:
    """Test x[feature] >= threshold, a threshold in (a, b] for the values a < b of its cut."""

    feature: int
    threshold: float

    def evaluate(self, data: Dataset, rows: np.ndarray) -> np.ndarray:
        return data.columns[self.feature].values[rows] >= self.threshold


@dataclass(frozen=True)
class CategoricalSplit:
    """Test x[feature] in subset; other levels, even unseen ones, test false."""

    feature: int
    subset: tuple

    def evaluate(self, data: Dataset, rows: np.ndarray) -> np.ndarray:
        levels, codes = data.category_codes[self.feature]
        # a set lookup per level of ``data``: several times faster than np.isin on strings
        chosen = set(self.subset)
        in_subset = np.fromiter(map(chosen.__contains__, levels.tolist()), bool, levels.size)
        return in_subset[codes[rows]]


class LeafStats(NamedTuple):
    """Weighted class masses at a node (masses, not counts)."""

    m_pos: float
    m_neg: float

    @property
    def r(self) -> float:
        return self.m_pos + self.m_neg

    @property
    def p(self) -> float:
        return self.m_pos / (self.m_pos + self.m_neg)


class Node:
    """A leaf while ``predicate`` is None.  A split, made in place, keeps the
    leaf's stats and prediction and adds children, the false branch left."""

    __slots__ = ("stats", "prediction", "predicate", "left", "right")

    def __init__(self, stats: LeafStats, prediction: float):
        self.stats = stats
        self.prediction = prediction
        self.predicate = None
        self.left = self.right = None

    def route(self, data: Dataset, rows: np.ndarray):
        """``rows`` of ``data`` split by the predicate: (false rows, true rows)."""
        test = self.predicate.evaluate(data, rows)
        return rows.compress(~test), rows.compress(test)


@dataclass
class DecisionTree:
    """Binary tree of ``Node``s; ``predict`` routes rows with ``Node.route``, as growth did.

    ``fitted`` is the read-only prediction of every training row, filled
    from the rows growth left in each final leaf: bitwise ``predict`` on
    the Dataset the tree was grown on.  ``TreeWeakLearner`` takes it and
    leaves None, so the hypothesis it returns keeps no training predictions.
    """

    root: Node
    n_nodes: int
    fitted: np.ndarray | None

    def predict(self, data: Dataset) -> np.ndarray:
        """Leaf prediction per row; each row is tested only along its path."""
        out = np.empty(data.m)
        stack = [(self.root, np.arange(data.m))]
        while stack:
            node, rows = stack.pop()
            if node.predicate is None:
                out[rows] = node.prediction
            else:
                false_rows, true_rows = node.route(data, rows)
                stack.append((node.left, false_rows))
                stack.append((node.right, true_rows))
        return out


def leaf_prediction(p: float, q1: float, cfg: TemperConfig) -> float:
    """Real prediction the boosting projection assigns to a leaf.

    ``q1`` is ``initial_weight``, 1/m^(1/(2-t)); at t=1 the weight
    drops out and the prediction is the half log-odds.  A posterior that
    rounds to 0 or 1, as a root's can under very uneven weights (the split
    search admits no child whose posterior does), raises ``SingleClassError``.
    """
    if not 0.0 < p < 1.0:
        raise SingleClassError("leaf posterior must lie strictly inside (0, 1)")
    if cfg.is_classic():
        return 0.5 * math.log(p / (1.0 - p))
    t = cfg.t
    a = p ** (1.0 - t)
    b = (1.0 - p) ** (1.0 - t)
    return q1 ** (1.0 - t) / (1.0 - t) * (a - b) / (a + b)


def _run_sums(layout, masses):
    """The complex block ``masses`` summed over the runs of ``layout``.

    Row f holds the sums of row f's runs, in order, then zero padding, which
    leaves the cuts next to it an empty side, so none is admissible.  When
    every entry is a run, the sums are ``masses`` itself, not a copy.  Each
    class is summed by its own ``np.add.reduceat`` on the strided ``.real``
    or ``.imag`` view, which adds in the order of a contiguous array; one
    complex ``reduceat`` would not (its pairwise sum keeps fewer partial
    sums), so its bits would differ.
    """
    if layout.slot is None:  # every entry is a run: the sums are the block
        return masses
    flat = masses.ravel()
    sums = np.zeros(layout.runs.size * layout.width, dtype=complex)
    sums.real[layout.slot] = np.add.reduceat(flat.real, layout.first)
    sums.imag[layout.slot] = np.add.reduceat(flat.imag, layout.first)
    return sums.reshape(layout.runs.size, layout.width)


def _admissible(sides):
    """Which cuts are admissible, from ``sides``, the complex masses on the
    prefix side of every cut and then on the suffix side.

    A cut is admissible when on both sides the posterior P / (P + N), as
    ``LeafStats.p`` computes it, lies strictly inside (0, 1).  Every mass is
    below 2, as the weights sum to 1, so that holds iff P > 0 and P + N rounds
    above P: iff P and (P + N) - P, the negative mass that the sum keeps, are
    both positive.  No side is pure or empty, and on none does the negative
    mass round away.
    """
    pos = sides.real
    kept = pos + sides.imag
    kept -= pos
    return np.minimum(*np.minimum(kept, pos, out=kept).reshape(2, -1)) > 0


def _best_split(data, rows, masses, cfg, parent):
    """Best admissible split predicate of one leaf, or None.

    ``masses`` is the tree's complex block: entry (j, k) holds the class
    masses, positive + 1j * negative, of the row at ``column_block`` entry
    (j, k).  A leaf below the root finds its entries of the block once, as
    one flat index, and takes its bins and its masses with it.  Row j of the
    split block holds column j's run masses in cut order, zero-padded: runs
    of equal bin codes in code order, those of a categorical column (its
    levels in the leaf) reordered by posterior.  The row-major argmax over
    the masked gains breaks ties to the lowest feature, then the lowest
    threshold or the shortest prefix.
    """
    order, bins = data.column_block
    leaf = None
    if rows.size < data.m:  # below the root: keep the leaf's entries, in order
        in_leaf = np.zeros(data.m, dtype=bool)
        in_leaf[rows] = True
        leaf = np.flatnonzero(in_leaf[order])
        bins = bins.take(leaf).reshape(data.d, rows.size)
        masses = masses.take(leaf).reshape(bins.shape)
        layout = run_layout(bins)
    else:  # the root's layout is the same in every tree grown on data
        layout = data.root_runs
    sums = _run_sums(layout, masses)
    codes = data.category_codes
    categorical = list(codes)
    if categorical:  # rank the levels by posterior, runs without mass and padding last
        if layout.slot is None:  # the sums are the block, which the tree's leaves share
            sums = sums.copy()
        levels = layout.runs[categorical].max()
        level = sums[categorical, :levels]
        mass = level.real + level.imag
        posterior = np.divide(level.real, mass, out=np.full_like(mass, 2.0), where=mass > 0)
        ranked = np.argsort(posterior, axis=1, kind="stable")
        sums[categorical, :levels] = level[np.arange(len(categorical))[:, np.newaxis], ranked]
    n_rows, width = sums.shape
    cuts = n_rows * (width - 1)
    # block: the masses on the prefix side of every cut, row-major over
    # (feature, cut), then on the suffix side, then the parent's
    block = np.empty(2 * cuts + 1, dtype=complex)
    block[-1] = complex(*parent)
    sides = block[:-1].reshape(2, n_rows, width - 1)
    np.add.accumulate(sums[:, :-1], axis=1, out=sides[0])
    # the suffixes summed from the far end, not as total - prefix: sums
    # of nonnegative terms stay nonnegative, so zero means an empty side
    np.add.accumulate(sums[:, :0:-1], axis=1, out=sides[1, :, ::-1])
    admissible = _admissible(block[:-1])
    if not admissible.any():
        return None
    terms = bayes_risk(block.real, block.imag, cfg)
    gains = terms[-1] - (terms[:cuts] + terms[cuts:-1])  # the sum commutes: mirrors tie
    best = int(np.where(admissible, gains, -np.inf).argmax())
    j, at = divmod(best, width - 1)  # block row j is column j
    starts = np.flatnonzero(layout.run_start[j])
    if j in codes:  # a run's level code is the bin at its start
        prefix = np.sort(bins[j, starts[ranked[categorical.index(j), : at + 1]]])
        return CategoricalSplit(j, tuple(codes[j][0][prefix].tolist()))
    right = j * rows.size + starts[at + 1]  # the leaf's first entry right of the cut
    around = [right - 1, right] if leaf is None else leaf[right - 1 : right + 1]
    below, above = data.columns[j].values[order.take(around)].tolist()
    threshold = below / 2 + above / 2  # cannot overflow, unlike (below + above) / 2
    if not below < threshold <= above:  # rounded onto below: adjacent doubles
        threshold = above
    return NumericSplit(j, threshold)


def induce_tree(data: Dataset, weights, max_nodes: int, cfg: TemperConfig) -> DecisionTree:
    """Grow a tree of at most ``max_nodes`` nodes (must be odd).

    ``weights`` is the booster's co-density over the training rows.  The
    heaviest live leaf is expanded first, ties to the oldest; a leaf none of
    whose candidates (see the module notes) is admissible is retired.  Ties
    among equal-gain splits break to the lowest feature index, then the
    lowest threshold or the shortest prefix.  A categorical split sends the
    prefix (stored sorted) to the true branch and every other level, seen
    in the leaf or not, to the false one.  A split is made in place, and
    ``Node.route`` divides the leaf's rows between its new children.  Growth
    stops at the node budget or when no live leaf remains.  The tree
    depends only on the arguments.
    """
    if max_nodes < 1 or max_nodes % 2 == 0:
        raise ValueError("max_nodes must be odd: a root plus child pairs")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (data.m,) or not np.all(weights >= 0):  # NaN fails too
        raise ValueError("need one nonnegative weight per example")
    if abs(weights.sum() - 1.0) > 1e-6:
        raise ValueError("weights must sum to 1 (a co-density)")
    # pos + 1j * neg: weights * (labels > 0) is bitwise np.where(labels > 0, weights, 0.0)
    masses = np.empty(data.m, dtype=complex)
    np.multiply(weights, data.labels > 0, out=masses.real)
    np.subtract(weights, masses.real, out=masses.imag)
    pos_total, neg_total = masses.real.sum(), masses.imag.sum()
    if pos_total <= 0 or neg_total <= 0:
        raise SingleClassError("training rows must carry weighted mass of both classes")

    q1 = initial_weight(data.m, cfg)

    def make_leaf(m_pos, m_neg):
        stats = LeafStats(float(m_pos), float(m_neg))
        return Node(stats, leaf_prediction(stats.p, q1, cfg))

    def make_child(rows):  # one child's masses gathered at a time
        mass = masses[rows]
        return make_leaf(mass.real.sum(), mass.imag.sum())

    root = make_leaf(pos_total, neg_total)
    n_nodes = 1
    live = [(root, np.arange(data.m))]  # (leaf, its training rows)
    block = masses.take(data.column_block[0])  # every leaf's masses, gathered once per tree
    fitted = np.empty(data.m)

    while n_nodes + 2 <= max_nodes and live:
        heaviest = max(range(len(live)), key=lambda i: live[i][0].stats.r)
        node, rows = live.pop(heaviest)
        predicate = _best_split(data, rows, block, cfg, node.stats)
        if predicate is None:  # retired: no admissible split on this leaf
            fitted[rows] = node.prediction
            continue
        node.predicate = predicate
        false_rows, true_rows = node.route(data, rows)
        node.left, node.right = make_child(false_rows), make_child(true_rows)
        live.append((node.left, false_rows))
        live.append((node.right, true_rows))
        n_nodes += 2

    for node, rows in live:
        fitted[rows] = node.prediction
    fitted.setflags(write=False)
    return DecisionTree(root, n_nodes, fitted)


class TreeWeakLearner:
    """Adapter plugging tempered-loss trees into the boosting loop."""

    def __init__(self, max_nodes: int):
        self.max_nodes = max_nodes

    def __call__(self, weights: TemWeights, data: Dataset):
        """The tree grown on ``data`` and its predictions there, taken from
        ``tree.fitted``, which is left None: the booster keeps the tree for
        every round, and the predictions only for this one."""
        tree = induce_tree(data, co_density(weights), self.max_nodes, weights.cfg)
        fitted, tree.fitted = tree.fitted, None
        return tree, fitted
