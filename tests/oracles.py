"""Independent reference implementations the tests check against.

Everything here is written from the definitions, separately from the
library code paths: row-wise prediction (a tree walked row by row, an
ensemble folded through the clamped sum), a textbook AdaBoost loop, an
exhaustive decision-stump fitter, a brute-force search over the
constrained co-simplex, a naive top-down tree builder, and an
edge-enforcing weak learner realizing the weak-learning premise of the
convergence analysis.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from paper_math import scalar_bayes_risk
from tempboost.dataio import NUMERIC
from tempboost.tree import CategoricalSplit, DecisionTree
from tempboost.weights import co_density

# ---------------------------------------------------------------------------
# row-wise references for the vectorised prediction paths


def cells(column, rows=slice(None)):
    """A column's cells at ``rows``: a categorical column's levels, decoded."""
    values = column.values[rows]
    return values if column.kind == NUMERIC else column.levels[values]


def feature_matrix(data) -> np.ndarray:
    """Dense float matrix; only defined when all columns are numeric."""
    if any(c.kind != NUMERIC for c in data.columns):
        raise ValueError("feature_matrix requires all-numeric columns")
    return np.column_stack([cells(c) for c in data.columns])


def row_of(data, i: int) -> tuple:
    """Row i of a Dataset: each column's value there."""
    return tuple(cells(column, i) for column in data.columns)


def evaluate_row(predicate, row) -> bool:
    """A tree's split predicate on one row of raw values."""
    if isinstance(predicate, CategoricalSplit):
        return str(row[predicate.feature]) in predicate.subset
    return float(row[predicate.feature]) >= predicate.threshold


def leaf_of(tree, row):
    """The leaf of a DecisionTree that one row's root-to-leaf path ends at."""
    node = tree.root
    while node.predicate is not None:
        node = node.right if evaluate_row(node.predicate, row) else node.left
    return node


def predict_row(hypothesis, row) -> float:
    """One row's prediction: a DecisionTree walks its root-to-leaf path."""
    if not isinstance(hypothesis, DecisionTree):
        return hypothesis.predict_row(row)
    return leaf_of(hypothesis, row).prediction


def clamped_sum(values, delta: float, mode: str = "double") -> float:
    """Order-sensitive running sum clamped after every addend.

    A strict left fold over ``values`` starting from 0: ``upper`` applies
    min(. , delta) after each addition, ``lower`` applies max(. , -delta),
    and ``double`` applies min then max.  The clamp runs inside the fold,
    so the operation is non-commutative, e.g. (-1, 3) at delta=2 sums to 2
    while (3, -1) sums to 1.  A delta of +inf recovers the plain sum.
    """
    if mode not in ("upper", "lower", "double"):
        raise ValueError(f"unknown clamp mode {mode!r}")
    delta = float(delta)
    if math.isnan(delta) or delta < 0:
        raise ValueError("delta must be nonnegative")
    s = 0.0
    for v in values:
        s += float(v)
        if mode != "lower":
            s = min(s, delta)
        if mode != "upper":
            s = max(s, -delta)
    return s


def predict(ensemble, x, clamped: bool = False):
    """Score and +/-1 label for one observation (a row of raw values).

    The row-wise reference for ``Ensemble.decision_scores``: the per-member
    contributions are folded in training order, through the doubly clamped
    sum at delta = 1/(1-t) when clamped; ties in the sign go to +1.
    """
    if not ensemble.members:
        raise ValueError("empty ensemble")
    delta = ensemble.cfg.clamp_delta if clamped else math.inf
    if math.isinf(delta) and clamped:
        raise ValueError("clamped prediction requires t < 1")
    contributions = [
        member.alpha * predict_row(member.hypothesis, x) for member in ensemble.members
    ]
    score = clamped_sum(contributions, delta)
    return score, (1 if score >= 0 else -1)


# ---------------------------------------------------------------------------
# decision stumps + textbook AdaBoost


@dataclass(frozen=True)
class Stump:
    feature: int
    threshold: float
    polarity: int

    def predict_matrix(self, X: np.ndarray) -> np.ndarray:
        raw = np.where(X[:, self.feature] >= self.threshold, 1.0, -1.0)
        return self.polarity * raw

    def predict(self, data) -> np.ndarray:
        return self.predict_matrix(feature_matrix(data))

    def predict_row(self, row) -> float:
        raw = 1.0 if float(row[self.feature]) >= self.threshold else -1.0
        return self.polarity * raw


def fit_stump(X: np.ndarray, y: np.ndarray, w: np.ndarray) -> Stump:
    """Exhaustive weighted-error stump search with fixed tie-breaking.

    Candidates are a below-minimum threshold plus midpoints between
    consecutive distinct values, both polarities.  Ties break to the
    smaller error, then lower feature, lower threshold, polarity +1 first.
    """
    m, d = X.shape
    wpos = np.where(y > 0, w, 0.0)
    wneg = np.where(y < 0, w, 0.0)
    total_neg = wneg.sum()
    total_pos = wpos.sum()
    best = None
    for f in range(d):
        order = np.argsort(X[:, f], kind="stable")
        v = X[order, f]
        cp = np.cumsum(wpos[order])
        cn = np.cumsum(wneg[order])
        boundary = np.flatnonzero(v[:-1] < v[1:])
        thresholds = np.concatenate(([v[0] - 1.0], 0.5 * (v[boundary] + v[boundary + 1])))
        # error of (x >= thr -> +1): positives below + negatives at/above
        err_plus = np.concatenate(([total_neg], cp[boundary] + (total_neg - cn[boundary])))
        err_minus = (total_pos + total_neg) - err_plus
        for thr, ep, en in zip(thresholds, err_plus, err_minus):
            for polarity, err in ((1, ep), (-1, en)):
                key = (err, f, thr, -polarity)
                if best is None or key < best[0]:
                    best = (key, Stump(f, float(thr), polarity))
    return best[1]


class StumpLearner:
    """Weak learner handing fit_stump the co-density as the distribution."""

    def __call__(self, weights, data):
        p = co_density(weights)
        stump = fit_stump(feature_matrix(data), data.labels.astype(float), p)
        return stump, stump.predict(data)


def textbook_adaboost(X: np.ndarray, y: np.ndarray, rounds: int):
    """Classic AdaBoost with explicit distribution updates.

    Returns one record per round: the stump, its weighted error eps, the
    coefficient alpha = ln((1-eps)/eps)/2, the normalizer Z and the updated
    distribution.
    """
    m = X.shape[0]
    w = np.full(m, 1.0 / m)
    records = []
    for _ in range(rounds):
        stump = fit_stump(X, y, w)
        margins = y * stump.predict_matrix(X)
        eps = float(w[margins < 0].sum())
        if eps <= 0.0 or eps >= 1.0:
            raise RuntimeError("degenerate round in the reference loop")
        alpha = 0.5 * math.log((1.0 - eps) / eps)
        unnorm = w * np.exp(-alpha * margins)
        z = float(unnorm.sum())
        w = unnorm / z
        records.append(
            {"stump": stump, "eps": eps, "alpha": alpha, "z": z, "weights": w.copy()}
        )
    return records


# ---------------------------------------------------------------------------
# tempered relative entropy + brute force over the constrained co-simplex


def reference_divergence(q_new: np.ndarray, q_old: np.ndarray, t: float) -> float:
    """Direct transcription of the tempered relative entropy."""
    q_new = np.asarray(q_new, dtype=float)
    q_old = np.asarray(q_old, dtype=float)
    if abs(t - 1.0) < 1e-9:
        total = 0.0
        for qn, qo in zip(q_new, q_old):
            if qn > 0:
                total += qn * math.log(qn / qo)
            total += qo - qn
        return total

    def log_at(z, tt):
        return (z ** (1.0 - tt) - 1.0) / (1.0 - tt)

    total = 0.0
    for qn, qo in zip(q_new, q_old):
        if qn > 0:  # q' log_t q' -> 0 as q' -> 0
            total += qn * (log_at(qn, t) - log_at(qo, t))
        total += -log_at(qn, t - 1.0) + log_at(qo, t - 1.0)
    return total


def _two_point_solutions(c: float, s: float, ua: float, ub: float, t: float):
    """All (x, y) >= 0 with x^(2-t) + y^(2-t) = c and ua x + ub y = s."""
    power = 2.0 - t
    if c <= 0:
        if c == 0.0 and s == 0.0:
            return [(0.0, 0.0)]
        return []
    if ub == 0.0:
        if ua == 0.0:
            return []
        x = s / ua
        if x < 0 or x**power > c:
            return []
        return [(x, (c - x**power) ** (1.0 / power))]

    x_hi = c ** (1.0 / power)

    def g(x):
        yv = (s - ua * x) / ub
        return x**power + yv**power - c

    xs = np.linspace(0.0, x_hi, 257)
    ys = (s - ua * xs) / ub
    valid = ys >= 0
    out = []
    prev = None
    for x, ok in zip(xs, valid):
        if not ok:
            prev = None
            continue
        val = g(x)
        if abs(val) < 1e-13:
            out.append((x, (s - ua * x) / ub))
            prev = (x, val)
            continue
        if prev is not None and prev[1] * val < 0:
            lo, hi = prev[0], x
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                vm = g(mid)
                if prev[1] * vm <= 0:
                    hi = mid
                else:
                    lo = mid
                    prev = (mid, vm)
            root = 0.5 * (lo + hi)
            out.append((root, (s - ua * root) / ub))
        prev = (x, val)
    return [(x, y) for x, y in out if x >= -1e-15 and y >= -1e-15]


def brute_force_projection(q: np.ndarray, u: np.ndarray, t: float, grid: int = 48):
    """Grid search over {q~ >= 0 : sum q~^(2-t) = 1, q~.u = 0} minimizing
    the divergence to q.  Two coordinates with opposite margin signs are
    solved exactly per grid point of the remaining ones, so every evaluated
    point is feasible.  Returns (best divergence, best point).
    """
    q = np.asarray(q, dtype=float)
    u = np.asarray(u, dtype=float)
    m = q.size
    power = 2.0 - t
    i_pos = int(np.argmax(u))
    i_neg = int(np.argmin(u))
    assert u[i_pos] > 0 > u[i_neg]
    free = [i for i in range(m) if i not in (i_pos, i_neg)]

    best = (math.inf, None)

    def consider(vec):
        nonlocal best
        value = reference_divergence(vec, q, t)
        if value < best[0]:
            best = (value, vec.copy())

    if not free:
        for x, y in _two_point_solutions(1.0, 0.0, u[i_pos], u[i_neg], t):
            vec = np.zeros(m)
            vec[i_pos], vec[i_neg] = x, y
            consider(vec)
        return best

    axes = [np.linspace(0.0, 1.0, grid) for _ in free]
    mesh = np.meshgrid(*axes, indexing="ij")
    combos = np.stack([ax.ravel() for ax in mesh], axis=1)
    for combo in combos:
        c = 1.0 - float(np.sum(combo**power))
        if c < 0:
            continue
        s = -float(np.dot(u[free], combo))
        for x, y in _two_point_solutions(c, s, u[i_pos], u[i_neg], t):
            vec = np.zeros(m)
            vec[free] = combo
            vec[i_pos], vec[i_neg] = x, y
            consider(vec)
    return best


def grid_min_normalizer(q: np.ndarray, u: np.ndarray, t: float, radius: float, n: int = 100_000):
    """Dense 1-d scan of the update normalizer Z_t(mu); returns (mu, Z)."""
    q = np.asarray(q, dtype=float)
    u = np.asarray(u, dtype=float)
    mus = np.linspace(-radius, radius, n)
    if abs(t - 1.0) < 1e-9:
        z = (q[None, :] * np.exp(-np.outer(mus, u))).sum(axis=1)
    else:
        om = 1.0 - t
        bracket = q[None, :] ** om - om * np.outer(mus, u)
        if t < 1:
            zpow = np.where(bracket > 0, bracket, 0.0) ** ((2.0 - t) / om)
        else:
            with np.errstate(divide="ignore"):
                zpow = np.where(bracket > 0, bracket, np.inf) ** ((2.0 - t) / om)
        z = zpow.sum(axis=1) ** (1.0 / (2.0 - t))
    k = int(np.argmin(z))
    return float(mus[k]), float(z[k])


# ---------------------------------------------------------------------------
# array power mean and Bayes risk, as plain expressions


def reference_power_mean(a, b, q: float) -> np.ndarray:
    """Two-point power mean of arrays, one out-of-place expression per case.

    The arithmetic of the kernel ``talgebra._ordered_power_mean`` written as
    fresh temporaries, so its in-place form can be compared with it bit for
    bit.  The finite form attains the limits q = +-inf, the max and the min.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if abs(q) < 1e-9:
        return np.sqrt(a * b)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    base, other = (hi, lo) if q > 0 else (lo, hi)
    # at q < 0 a subnormal lo overflows other / base to inf, and inf**q = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if abs(q) < 1e-2:
            out = hi * np.exp(np.log1p(np.expm1(q * np.log(lo / hi)) / 2.0) / q)
        else:
            out = base * ((1.0 + (other / base) ** q) / 2.0) ** (1.0 / q)
    return np.where(base > 0, out, 0.0)


def reference_bayes_risk(pos, neg, t: float) -> np.ndarray:
    """2 pos neg / M_(1-t)(pos, neg) of two arrays of class masses, as plain expressions."""
    pos, neg = np.asarray(pos, dtype=float), np.asarray(neg, dtype=float)
    numerator = 2.0 * pos * neg
    mean = reference_power_mean(pos, neg, 1.0 - t)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(numerator == 0.0, 0.0, numerator / mean)


# ---------------------------------------------------------------------------
# naive top-down tree (no vectorization, no presorting)


def _naive_bayes_risk(p: float, t: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    q = 1.0 - t
    if q == 0.0:
        mean = math.sqrt(p * (1.0 - p))
    else:
        mean = ((p**q + (1.0 - p) ** q) / 2.0) ** (1.0 / q)
    return 2.0 * p * (1.0 - p) / mean


def split_gain(parent, left, right, cfg) -> float:
    """Drop in expected tempered Bayes risk of one split, from ``LeafStats``.

    The scalar form of the gain ``tree._best_split`` scores over a block:
    parent term minus the left (false) term minus the right (true) term;
    -inf marks a rejected split, one with an empty child or a child whose
    posterior is not strictly inside (0, 1): a pure one, or one whose
    negative mass is lost in rounding the posterior.
    """
    for child in (left, right):
        if child.r <= 0 or not 0 < child.p < 1:
            return -math.inf
    parent_term = parent.r * scalar_bayes_risk(parent.p, 1.0 - parent.p, cfg)
    left_term = left.r * scalar_bayes_risk(left.p, 1.0 - left.p, cfg)
    right_term = right.r * scalar_bayes_risk(right.p, 1.0 - right.p, cfg)
    return parent_term - left_term - right_term


def value_bins(values, max_bins):
    """value -> bin of a numeric column, from the definition of the bins.

    Each distinct value is its own bin when there are at most ``max_bins``
    of them (or ``max_bins`` is None); otherwise a value's bin is the
    position of its first occurrence in the sorted column times
    ``max_bins``, divided (floor) by the column length.
    """
    ordered = sorted(values.tolist())
    distinct = sorted(set(ordered))
    if max_bins is None or len(distinct) <= max_bins:
        return {v: k for k, v in enumerate(distinct)}
    return {v: bisect.bisect_left(ordered, v) * max_bins // len(ordered) for v in distinct}


def naive_tree(data, weights, max_nodes: int, t: float, max_bins=None):
    """Plain top-down induction mirroring the library's contract.

    A numeric candidate is the midpoint of two consecutive distinct leaf
    values lying in different bins of their column (``value_bins`` over
    all of ``data``); with ``max_bins`` None every midpoint is one.
    Leaves are dicts; the returned structure is a nested description
    (feature, key, left, right) with leaves (p, r) rounded for comparison.
    """
    labels = data.labels
    weights = np.asarray(weights, dtype=float)
    bins = [
        value_bins(column.values, max_bins) if column.kind == "numeric" else None
        for column in data.columns
    ]

    def leaf(rows):
        mp = float(weights[rows][labels[rows] > 0].sum())
        mn = float(weights[rows][labels[rows] < 0].sum())
        return {"rows": rows, "m_pos": mp, "m_neg": mn}

    def stats(node):
        mass = node["m_pos"] + node["m_neg"]
        return mass, node["m_pos"] / mass

    def best_split(node):
        rows = node["rows"]
        r_par, p_par = stats(node)
        parent_term = r_par * _naive_bayes_risk(p_par, t)
        best = None
        for f, column in enumerate(data.columns):
            values = cells(column, rows)
            if column.kind == "numeric":
                distinct = np.unique(values)
                candidates = [
                    ("num", 0.5 * (a + b))
                    for a, b in zip(distinct[:-1], distinct[1:])
                    if bins[f][a] != bins[f][b]
                ]
            else:
                # proper nonempty subsets up to complement: those with cats[0]
                cats = sorted(set(values.tolist()))
                rests = chain.from_iterable(combinations(cats[1:], n) for n in range(len(cats) - 1))
                candidates = [("cat", (cats[0], *rest)) for rest in rests]
            for kind, key in candidates:
                if kind == "num":
                    mask = values >= key
                else:
                    mask = np.isin(values, key)
                right_rows = rows[mask]
                left_rows = rows[~mask]
                if len(right_rows) == 0 or len(left_rows) == 0:
                    continue
                right = leaf(right_rows)
                left = leaf(left_rows)
                if not all(
                    child["m_pos"] + child["m_neg"] > 0 and 0 < stats(child)[1] < 1
                    for child in (left, right)
                ):
                    continue
                r_r, p_r = stats(right)
                r_l, p_l = stats(left)
                gain = (
                    parent_term
                    - r_l * _naive_bayes_risk(p_l, t)
                    - r_r * _naive_bayes_risk(p_r, t)
                )
                cand = (gain, f, key, left, right)
                if best is None:
                    best = cand
                elif gain > best[0]:
                    best = cand
                elif gain == best[0] and (f, key) < (best[1], best[2]):
                    best = cand
        return best

    root = leaf(np.arange(data.m))
    tree = {"leaf": root}
    live = [(root, tree)]
    n_nodes = 1
    while n_nodes + 2 <= max_nodes and live:
        idx = max(range(len(live)), key=lambda i: stats(live[i][0])[0])
        node, holder = live.pop(idx)
        found = best_split(node)
        if found is None:
            continue
        _, f, key, left, right = found
        holder.pop("leaf")
        holder["split"] = (f, key)
        holder["left"] = {"leaf": left}
        holder["right"] = {"leaf": right}
        live.append((left, holder["left"]))
        live.append((right, holder["right"]))
        n_nodes += 2

    def describe(holder):
        if "leaf" in holder:
            mass, p = stats(holder["leaf"])
            return ("leaf", round(p, 10), round(mass, 10))
        f, key = holder["split"]
        return ("split", f, key, describe(holder["left"]), describe(holder["right"]))

    return describe(tree)


def describe_tree(tree):
    """Canonical nested description of a library DecisionTree."""
    def walk(node):
        if node.predicate is None:
            return ("leaf", round(node.stats.p, 10), round(node.stats.r, 10))
        predicate = node.predicate
        key = getattr(predicate, "threshold", None)
        if key is None:
            key = predicate.subset
        return ("split", predicate.feature, key, walk(node.left), walk(node.right))

    return walk(tree.root)


# ---------------------------------------------------------------------------
# edge-enforcing weak learner (the weak-learning premise, made concrete)


class LookupHypothesis:
    """Hypothesis defined by a fixed value per training row."""

    def __init__(self, data, values):
        self.values = np.asarray(values, dtype=float)
        self.table = {row_of(data, i): self.values[i] for i in range(data.m)}

    def predict(self, data):
        return np.array([self.table[row_of(data, i)] for i in range(data.m)])

    def predict_row(self, row):
        return self.table[tuple(row)]


class EnforcedEdgeLearner:
    """Returns hypotheses whose normalized edge is held near ``gamma``.

    The margins are u_i = v_i q_i^(1-t) with v_i in {-1, +1}; then the
    confidence bound is 1 and the edge equals the co-density mean of v,
    which a greedy flip of the heaviest examples pins into
    [gamma, gamma + 2 max p_i).
    """

    def __init__(self, gamma: float):
        self.gamma = gamma

    def __call__(self, weights, data):
        q = weights.q
        t = weights.cfg.t
        p = co_density(weights)
        v = np.ones(weights.m)
        total = p.sum()
        for i in np.argsort(-p, kind="stable"):
            if total - 2.0 * p[i] >= self.gamma:
                v[i] = -1.0
                total -= 2.0 * p[i]
        margins = v * q ** (1.0 - t)
        hypothesis = LookupHypothesis(data, data.labels * margins)
        return hypothesis, hypothesis.values
