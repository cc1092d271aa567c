"""Tree induction: leaf predictions, gains, growth order, constraints."""

import math

import numpy as np
import pytest

from oracles import describe_tree, naive_tree, predict_row, split_gain
from tempboost import tree as tree_module
from tempboost.booster import boost, confidence_bounds, edge as edge_fn
from tempboost.cpe_loss import bayes_risk
from tempboost.dataio import CATEGORICAL, MAX_BINS, NUMERIC, Column, Dataset
from tempboost.errors import SingleClassError
from tempboost.synthetic import make_mixed_table
from tempboost.talgebra import TemperConfig, exp_t, log_t
from tempboost.tree import (
    CategoricalSplit,
    LeafNode,
    LeafStats,
    NumericSplit,
    TreeWeakLearner,
    _run_sums,
    induce_tree,
    leaf_prediction,
)
from tempboost.weights import uniform_init


def xor_dataset():
    x1 = np.array([0.0, 0.0, 1.0, 1.0])
    x2 = np.array([0.0, 1.0, 0.0, 1.0])
    labels = np.array([-1, 1, 1, -1], dtype=np.int64)
    return Dataset((Column("x1", NUMERIC, x1), Column("x2", NUMERIC, x2)), labels)


def weighted_mixed_dataset(m=20, seed=3):
    rng = np.random.default_rng(seed)
    x1 = rng.normal(size=m).round(3)
    x2 = rng.choice(["a", "b", "c"], size=m)
    score = x1 + (x2 == "a") * 0.8 - (x2 == "c") * 0.5 + 0.3 * rng.normal(size=m)
    labels = np.where(score > 0, 1, -1).astype(np.int64)
    data = Dataset((Column("x1", NUMERIC, x1), Column("x2", CATEGORICAL, x2)), labels)
    w = rng.uniform(0.5, 2.0, size=m)
    return data, w / w.sum()


def tied_dataset(m=64, seed=21):
    """Eight columns where equal gains are common: copies, repeats, a constant.

    Columns 2, 5 and 7 duplicate columns 0, 1 and 4, so each of their
    thresholds ties bitwise with the original's; 64 rows at uniform weight
    keep every class mass a dyadic, exactly summed fraction.
    """
    rng = np.random.default_rng(seed)
    coarse = rng.integers(0, 4, size=m).astype(float)
    fine = rng.normal(size=m).round(1)
    binary = rng.integers(0, 2, size=m).astype(float)
    grade = rng.choice(["a", "b", "c", "d"], size=m)
    score = (
        0.6 * coarse - 0.9 + 0.5 * fine + 1.2 * (grade == "b") - 1.5 * binary
        + 0.8 * rng.normal(size=m)
    )
    labels = np.where(score > 0, 1, -1).astype(np.int64)
    columns = (
        Column("coarse", NUMERIC, coarse),
        Column("fine", NUMERIC, fine),
        Column("coarse_copy", NUMERIC, coarse),
        Column("grade", CATEGORICAL, grade),
        Column("binary", NUMERIC, binary),
        Column("fine_copy", NUMERIC, fine),
        Column("constant", NUMERIC, np.full(m, 2.0)),
        Column("binary_copy", NUMERIC, binary),
    )
    return Dataset(columns, labels), np.full(m, 1.0 / m)


def split_features(node):
    if isinstance(node, LeafNode):
        return []
    return [node.predicate.feature] + split_features(node.left) + split_features(node.right)


def root_gain(tree, data, w, cfg):
    return partition_gain(data, w, tree.root.predicate.evaluate(data), cfg)


def partition_gain(data, w, right, cfg):
    """split_gain of sending the rows where ``right`` holds to the right."""
    pos = np.where(data.labels > 0, w, 0.0)
    neg = np.where(data.labels < 0, w, 0.0)
    return split_gain(
        LeafStats(pos.sum(), neg.sum()),
        LeafStats(pos[~right].sum(), neg[~right].sum()),
        LeafStats(pos[right].sum(), neg[right].sum()),
        cfg,
    )


class TestLeafPrediction:
    def test_balanced_leaf_predicts_zero(self):
        for t in (0.0, 0.5, 1.0, 1.3):
            assert leaf_prediction(0.5, 0.1, TemperConfig(t)) == pytest.approx(0.0, abs=1e-15)

    def test_classic_half_log_odds(self):
        assert leaf_prediction(0.9, 0.1, TemperConfig(1.0)) == pytest.approx(
            0.5 * math.log(9.0), rel=1e-12
        )

    def test_t_zero_linear_form(self):
        q1 = 1.0 / math.sqrt(20)
        for p in (0.2, 0.6, 0.9):
            assert leaf_prediction(p, q1, TemperConfig(0.0)) == pytest.approx(
                q1 * (2 * p - 1), rel=1e-12
            )

    def test_balance_equation(self):
        # the prediction H solves m+ exp_t(log_t q1 - H) = m- exp_t(log_t q1 + H)
        rng = np.random.default_rng(4)
        for t in (0.0, 0.3, 0.7, 1.3):
            cfg = TemperConfig(t)
            for _ in range(25):
                p = float(rng.uniform(0.05, 0.95))
                q1 = float(rng.uniform(0.05, 0.9))
                h = leaf_prediction(p, q1, cfg)
                base = log_t(q1, cfg)
                lhs = p * exp_t(base - h, cfg)
                rhs = (1 - p) * exp_t(base + h, cfg)
                assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)

    def test_pure_posterior_rejected(self):
        for p in (0.0, 1.0):
            with pytest.raises(ValueError):
                leaf_prediction(p, 0.1, TemperConfig(0.5))


class TestSplitGain:
    def test_identical_children_gain_zero(self):
        parent = LeafStats(0.4, 0.4)
        child = LeafStats(0.2, 0.2)
        for t in (0.0, 0.5, 1.0):
            assert split_gain(parent, child, child, TemperConfig(t)) == pytest.approx(
                0.0, abs=1e-14
            )

    def test_hand_computed_gini_gain(self):
        # counts (10,10) -> (8,2) | (2,8) at uniform weights over 20 rows
        parent = LeafStats(0.5, 0.5)
        left = LeafStats(0.4, 0.1)
        right = LeafStats(0.1, 0.4)
        gain = split_gain(parent, left, right, TemperConfig(0.0))
        assert gain == pytest.approx(0.36, rel=1e-12)

    def test_swap_symmetry(self):
        parent = LeafStats(0.55, 0.45)
        left = LeafStats(0.35, 0.10)
        right = LeafStats(0.20, 0.35)
        for t in (0.0, 0.8, 1.0):
            cfg = TemperConfig(t)
            assert split_gain(parent, left, right, cfg) == pytest.approx(
                split_gain(parent, right, left, cfg), rel=1e-12
            )

    def test_pure_child_rejected_not_raised(self):
        parent = LeafStats(0.5, 0.5)
        pure = LeafStats(0.3, 0.0)
        rest = LeafStats(0.2, 0.5)
        assert split_gain(parent, pure, rest, TemperConfig(0.5)) == -math.inf

    def test_nonnegative_on_real_partitions(self):
        data, w = weighted_mixed_dataset()
        labels = data.labels
        wpos = np.where(labels > 0, w, 0.0)
        wneg = np.where(labels < 0, w, 0.0)
        parent = LeafStats(wpos.sum(), wneg.sum())
        checked = 0
        for threshold in np.quantile(data.columns[0].values, (0.25, 0.5, 0.75)):
            mask = data.columns[0].values >= threshold
            left = LeafStats(wpos[~mask].sum(), wneg[~mask].sum())
            right = LeafStats(wpos[mask].sum(), wneg[mask].sum())
            for t in (0.0, 0.5, 1.0):
                gain = split_gain(parent, left, right, TemperConfig(t))
                if gain != -math.inf:  # admissible partitions only
                    assert gain >= -1e-12
                    checked += 1
        assert checked > 0


class TestInduceTree:
    def test_single_leaf_budget(self):
        data, w = weighted_mixed_dataset()
        tree = induce_tree(data, w, 1, TemperConfig(0.5))
        assert tree.n_nodes == 1
        leaf = tree.leaves()[0]
        p = leaf.stats.p
        assert predict_row(tree, data.row(0)) == pytest.approx(
            leaf_prediction(p, data.m ** (-TemperConfig(0.5).t_star), TemperConfig(0.5))
        )

    def test_xor_stalls_at_one_split_under_purity_constraint(self):
        # Exhaustive view of the 4-point parity set: both axis splits have
        # zero gain, and every second-level split makes single-class
        # children, which the no-pure-leaf rule rejects.  The tree
        # therefore stops at 3 nodes and cannot reach zero training error
        # (that would need pure leaves).
        data = xor_dataset()
        w = np.full(4, 0.25)
        cfg = TemperConfig(0.0)
        # oracle: enumerate both root candidates directly
        parent = LeafStats(0.5, 0.5)
        for feature in (0, 1):
            mask = data.columns[feature].values >= 0.5
            left = LeafStats(
                w[~mask][data.labels[~mask] > 0].sum(),
                w[~mask][data.labels[~mask] < 0].sum(),
            )
            right = LeafStats(
                w[mask][data.labels[mask] > 0].sum(),
                w[mask][data.labels[mask] < 0].sum(),
            )
            assert split_gain(parent, left, right, cfg) == pytest.approx(0.0, abs=1e-14)
        # oracle: each depth-1 cell holds one example of each class, so any
        # further numeric split isolates a class and is inadmissible
        for a, b in (((0.0, 0.0), (0.0, 1.0)), ((1.0, 0.0), (1.0, 1.0))):
            assert a[0] == b[0] and a[1] != b[1]
        tree = induce_tree(data, w, 7, cfg)
        assert tree.n_nodes == 3
        predictions = tree.predict(data)
        errors = np.mean(np.where(predictions >= 0, 1, -1) != data.labels)
        assert errors == 0.5

    def test_matches_naive_reimplementation(self):
        data, w = weighted_mixed_dataset(m=20, seed=3)
        for t in (0.0, 0.5, 1.0):
            cfg = TemperConfig(t)
            tree = induce_tree(data, w, 9, cfg)
            assert describe_tree(tree) == naive_tree(data, w, 9, t)

    @pytest.mark.parametrize("t", (0.0, 0.5, 1.0))
    def test_matches_naive_with_ties(self, t):
        data, w = tied_dataset()
        tree = induce_tree(data, w, 15, TemperConfig(t))
        assert describe_tree(tree) == naive_tree(data, w, 15, t)
        used = split_features(tree.root)
        assert {0, 1, 3, 4} <= set(used)
        assert not {2, 5, 6, 7} & set(used)  # equal gains break to the lower feature
        rowwise = [predict_row(tree, data.row(i)) for i in range(data.m)]
        assert np.array_equal(tree.predict(data), rowwise)

    @pytest.mark.parametrize("t", (0.0, 0.5, 1.0))
    def test_numeric_and_categorical_ties_break_to_lower_feature(self, t):
        x = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=float)
        labels = np.array([1, 1, 1, -1, 1, -1, -1, -1], dtype=np.int64)
        numeric = Column("x", NUMERIC, x)
        # level "a" is the x < 0.5 side: both columns sum the same two runs
        # of the presorted block, and "b" ranks first, so the prefix is the
        # threshold's true side and both gains subtract the same terms in
        # the same order: they tie bitwise
        mirror = Column("x_cat", CATEGORICAL, np.where(x > 0, "b", "a"))
        uneven = [np.random.default_rng(seed).uniform(0.2, 2.0, x.size) for seed in range(10)]
        for w in (np.ones(x.size), *uneven):
            for columns in ((numeric, mirror), (mirror, numeric)):
                tree = induce_tree(Dataset(columns, labels), w / w.sum(), 3, TemperConfig(t))
                assert tree.root.predicate.feature == 0

    def test_heaviest_leaf_grown_first(self):
        data, w = weighted_mixed_dataset(m=40, seed=6)
        cfg = TemperConfig(0.5)
        tree3 = induce_tree(data, w, 3, cfg)
        tree5 = induce_tree(data, w, 5, cfg)
        # the 5-node tree refines the heavier child of the 3-node tree
        left3, right3 = tree3.root.left, tree3.root.right
        heavier = left3 if left3.stats.r >= right3.stats.r else right3
        from tempboost.tree import SplitNode

        child5 = (
            tree5.root.left
            if heavier is left3 or left3.stats.r >= right3.stats.r
            else tree5.root.right
        )
        refined = tree5.root.left if left3.stats.r >= right3.stats.r else tree5.root.right
        assert isinstance(refined, SplitNode)

    def test_expected_risk_nonincreasing_with_budget(self):
        data, w = weighted_mixed_dataset(m=60, seed=9)
        for t in (0.0, 0.6, 1.0):
            cfg = TemperConfig(t)
            risks = []
            for budget in (1, 3, 5, 7, 9):
                tree = induce_tree(data, w, budget, cfg)
                risks.append(
                    sum(
                        leaf.stats.r * bayes_risk(leaf.stats.p, cfg)
                        for leaf in tree.leaves()
                    )
                )
            assert all(a >= b - 1e-12 for a, b in zip(risks, risks[1:]))

    def test_leaf_masses_partition_unit(self):
        data, w = weighted_mixed_dataset(m=50, seed=11)
        tree = induce_tree(data, w, 9, TemperConfig(0.4))
        total = sum(leaf.stats.r for leaf in tree.leaves())
        assert total == pytest.approx(1.0, abs=1e-12)
        for leaf in tree.leaves():
            assert 0.0 < leaf.stats.p < 1.0
            assert math.isfinite(leaf.prediction)

    def test_uniform_weights_reduce_to_counts(self):
        data, _ = weighted_mixed_dataset(m=30, seed=12)
        w = np.full(data.m, 1.0 / data.m)
        tree = induce_tree(data, w, 5, TemperConfig(0.5))
        counts = sum(round(leaf.stats.r * data.m) for leaf in tree.leaves())
        assert counts == data.m

    def test_single_class_rejected(self):
        data, w = weighted_mixed_dataset()
        bad = data.with_labels(np.ones(data.m, dtype=np.int64))
        with pytest.raises(ValueError):
            induce_tree(bad, w, 3, TemperConfig(0.5))
        # every positive weight switched off (t < 1): a typed failure
        off = np.where(data.labels > 0, 0.0, w)
        with pytest.raises(SingleClassError):
            induce_tree(data, off / off.sum(), 3, TemperConfig(0.5))
        # an admissible cut whose left posterior 0.5 / (0.5 + 1e-18) rounds to 1
        x = np.array([0.0, 0.0, 1.0, 1.0])
        labels = np.array([1, -1, 1, -1], dtype=np.int64)
        w = np.array([0.5, 1e-18, 0.25, 0.25])
        data = Dataset((Column("x", NUMERIC, x),), labels)
        for t in (0.0, 0.5, 1.0):
            with pytest.raises(SingleClassError):
                induce_tree(data, w / w.sum(), 3, TemperConfig(t))

    def test_even_budget_rejected(self):
        data, w = weighted_mixed_dataset()
        with pytest.raises(ValueError):
            induce_tree(data, w, 4, TemperConfig(0.5))

    def test_deterministic_under_seed(self):
        data, w = weighted_mixed_dataset(m=60, seed=13)
        t1 = induce_tree(data, w, 9, TemperConfig(0.3))
        t2 = induce_tree(data, w, 9, TemperConfig(0.3))
        assert describe_tree(t1) == describe_tree(t2)

    def test_binned_candidates_are_capped_and_keep_ties_together(self, monkeypatch):
        m = 2000
        rng = np.random.default_rng(14)
        columns = {
            "rounded": rng.normal(size=m).round(2),  # ~500 distinct, many ties
            "distinct": rng.normal(size=m),
            "few": np.arange(m) % MAX_BINS * 1.0,  # exactly MAX_BINS values
            "one_more": np.arange(m) % (MAX_BINS + 1) * 1.0,
            "coarse": rng.integers(0, 9, size=m).astype(float),
        }
        score = columns["rounded"] + columns["distinct"] + rng.normal(size=m)
        labels = np.where(score > 0, 1, -1).astype(np.int64)
        data = Dataset(tuple(Column(k, NUMERIC, v) for k, v in columns.items()), labels)
        order, bins = data.column_block
        assert order.shape == bins.shape == (5, m)
        for f, x in enumerate(columns.values()):
            v = x[order[f]]
            assert np.array_equal(v, np.sort(x))
            cut = bins[f, :-1] != bins[f, 1:]
            assert np.all(bins[f, :-1] <= bins[f, 1:])
            assert cut.sum() <= MAX_BINS - 1
            assert np.all(v[:-1][cut] < v[1:][cut])  # equal values share a bin
        distinct_counts = [np.unique(x).size for x in columns.values()]
        exhaustive = [n <= MAX_BINS for n in distinct_counts]
        assert exhaustive == [False, False, True, False, True]
        for f in np.flatnonzero(exhaustive):
            assert (bins[f, :-1] != bins[f, 1:]).sum() == distinct_counts[f] - 1
        assert np.ptp(np.bincount(bins[1])) <= 1  # equal counts without ties

        sizes = []
        real_risk = tree_module.bayes_risk

        def recording_risk(p, cfg):
            sizes.append(np.size(p))
            return real_risk(p, cfg)

        monkeypatch.setattr(tree_module, "bayes_risk", recording_risk)
        w = np.full(m, 1.0 / m)
        root = induce_tree(data, w, 3, TemperConfig(0.5)).root
        scored = max(sizes) // 2  # both sides of every candidate in one call
        assert 3 * (MAX_BINS - 1) < scored <= len(order) * (MAX_BINS - 1)
        f, threshold = root.predicate.feature, root.predicate.threshold
        x = data.columns[f].values
        below, above = x[x < threshold].max(), x[x >= threshold].min()
        assert threshold == 0.5 * (below + above)
        at = np.searchsorted(np.sort(x), [below, above])
        assert bins[f, at[0]] != bins[f, at[1]]

    def test_run_sums_match_a_loop_over_runs(self):
        rng = np.random.default_rng(5487)
        for case in range(60):
            n_rows, width = rng.integers(1, 6), rng.integers(1, 40)
            run_start = rng.random((n_rows, width)) < rng.uniform(0.05, 1.0)
            run_start[:, 0] = True
            mass = rng.random((n_rows, width)) * (rng.random((n_rows, width)) < 0.8)
            (got,) = _run_sums(run_start, mass)
            for f in range(n_rows):
                edges = np.append(np.flatnonzero(run_start[f]), width)
                want = [mass[f, a:b].sum() for a, b in zip(edges[:-1], edges[1:])]
                np.testing.assert_allclose(got[f, : len(want)], want, rtol=1e-14, atol=0)
                assert not got[f, len(want) :].any()  # padding stays exactly zero
        single = np.ones((3, 7), dtype=bool)
        mass = rng.random((3, 7))
        assert np.array_equal(_run_sums(single, mass)[0], mass)  # one entry per run

    @pytest.mark.parametrize("t", (0.0, 0.5, 1.0))
    def test_matches_binned_naive_reference_above_max_bins(self, t):
        m = 1024  # uniform weights are dyadic, so tied gains stay exact
        rng = np.random.default_rng(2306)
        rounded = rng.normal(size=m).round(2)
        counts = rng.integers(0, 400, size=m).astype(float)
        coarse = rng.integers(0, 6, size=m).astype(float)
        score = rounded + 0.004 * counts - 0.4 * coarse + 0.7 * rng.normal(size=m)
        labels = np.where(score > 0, 1, -1).astype(np.int64)
        columns = (
            Column("rounded", NUMERIC, rounded),
            Column("counts", NUMERIC, counts),
            Column("rounded_copy", NUMERIC, rounded),
            Column("coarse", NUMERIC, coarse),
        )
        data = Dataset(columns, labels)
        assert [np.unique(c.values).size > MAX_BINS for c in columns] == [True, True, True, False]
        w = np.full(m, 1.0 / m)
        tree = induce_tree(data, w, 15, TemperConfig(t))
        assert describe_tree(tree) == naive_tree(data, w, 15, t, max_bins=MAX_BINS)
        assert 2 not in split_features(tree.root)  # equal gains break to the lower feature


def random_mixed_table(seed):
    """A mixed table for the naive comparison, with the block's edge cases.

    Column 4 copies column 1, so their thresholds tie; the grade levels
    are uneven, so some are empty in a leaf; every third table adds a
    column with more than MAX_BINS distinct values.  Odd seeds use uniform
    weights over a power-of-two row count, which keeps every mass exact,
    and make column 0 a categorical mirror of the binary numeric column 3,
    so that their cuts tie bitwise.
    """
    rng = np.random.default_rng(seed)
    uniform, wide = seed % 2 == 1, seed % 3 == 0
    m = 2 * MAX_BINS if wide else int(rng.choice([32, 64, 128] if uniform else [40, 75, 110]))
    rounded = rng.normal(size=m).round(1)
    binary = rng.integers(0, 2, size=m)
    grade = rng.choice(["p", "q", "r", "s", "t"], size=m, p=[0.4, 0.3, 0.15, 0.1, 0.05])
    score = rounded - 1.2 * binary + 0.9 * (grade == "q") - 0.6 * (grade == "t")
    score = score + rng.normal(size=m)
    first = np.where(binary > 0, "a_one", "b_zero") if uniform else rng.choice(["u", "v"], m)
    columns = [
        Column("mirror", CATEGORICAL, first),
        Column("rounded", NUMERIC, rounded),
        Column("grade", CATEGORICAL, grade),
        Column("binary", NUMERIC, binary.astype(float)),
        Column("rounded_copy", NUMERIC, rounded),
    ]
    if wide:
        fine = rng.normal(size=m)
        columns.append(Column("fine", NUMERIC, fine))
        score = score + 0.8 * fine
    labels = np.where(score > 0, 1, -1).astype(np.int64)
    w = np.full(m, 1.0 / m) if uniform else rng.uniform(0.2, 2.0, size=m)
    return Dataset(tuple(columns), labels), w / w.sum()


def oriented_like_naive(tree, data):
    """``describe_tree``, each categorical split keyed by the side that holds
    the leaf's first level, as ``naive_tree`` keys it, children to match."""

    def walk(node, rows):
        if isinstance(node, LeafNode):
            return ("leaf", round(node.stats.p, 10), round(node.stats.r, 10))
        predicate = node.predicate
        test = predicate.evaluate(data, rows)
        left, right = walk(node.left, rows[~test]), walk(node.right, rows[test])
        if isinstance(predicate, NumericSplit):
            return ("split", predicate.feature, predicate.threshold, left, right)
        present = sorted(set(data.columns[predicate.feature].values[rows].tolist()))
        if present[0] in predicate.subset:
            return ("split", predicate.feature, predicate.subset, left, right)
        rest = tuple(v for v in present if v not in predicate.subset)
        return ("split", predicate.feature, rest, right, left)

    return walk(tree.root, np.arange(data.m))


class TestScoringBlock:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_naive_on_random_mixed_tables(self, seed):
        data, w = random_mixed_table(seed)
        t = (0.0, 0.5, 1.0, 1.5)[seed % 4]
        tree = induce_tree(data, w, 9, TemperConfig(t))
        assert oriented_like_naive(tree, data) == naive_tree(data, w, 9, t, max_bins=MAX_BINS)
        assert 4 not in split_features(tree.root)  # ties break to the lower feature

    def test_one_bayes_risk_call_per_split(self, monkeypatch):
        # every searched leaf with an admissible cut splits, so one call per
        # split is one call per such leaf; the others are retired unscored
        searched, scored = [], []
        real_split, real_risk = tree_module._best_split, tree_module.bayes_risk

        def counting_split(data, rows, *args):
            searched.append(rows.size)
            return real_split(data, rows, *args)

        def counting_risk(v, cfg):
            scored.append(np.size(v))
            return real_risk(v, cfg)

        monkeypatch.setattr(tree_module, "_best_split", counting_split)
        monkeypatch.setattr(tree_module, "bayes_risk", counting_risk)
        # x is constant on each side of its cut: the children have no cut at all
        x = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
        labels = np.array([1, 1, 1, -1, 1, -1, -1, -1], dtype=np.int64)
        tiny = Dataset((Column("x", NUMERIC, x),), labels), np.full(8, 1 / 8)
        splits = 0
        for data, w in (tiny, *map(random_mixed_table, range(6))):
            before = len(scored)
            tree = induce_tree(data, w, 31, TemperConfig(0.5))
            splits += (tree.n_nodes - 1) // 2
            assert len(scored) - before == (tree.n_nodes - 1) // 2
        assert len(searched) > splits  # some leaves were retired
        assert all(size % 2 == 1 for size in scored)  # both sides of every cut, and the parent


def graded_column(levels, m, seed, mixed):
    """One categorical column with weighted labels drawn per level.

    With ``mixed`` every level holds both classes; otherwise about a
    third of the levels hold a single class.
    """
    rng = np.random.default_rng(seed)
    level = np.concatenate([np.repeat(np.arange(levels), 2), rng.integers(0, levels, m)])
    rate = rng.uniform(0.1, 0.9, size=levels)
    if not mixed:
        rate[rng.random(levels) < 0.35] = rng.choice([0.0, 1.0])
    labels = np.where(rng.random(level.size) < rate[level], 1, -1).astype(np.int64)
    if mixed:
        labels[: 2 * levels] = np.tile([1, -1], levels)
    names = np.array([f"v{k}" for k in range(levels)])
    data = Dataset((Column("grade", CATEGORICAL, names[level]),), labels)
    w = rng.uniform(0.2, 2.0, size=level.size)
    return data, w / w.sum()


def enumerated_gain(data, w, t):
    """Root gain of the best admissible subset, by enumerating all subsets."""
    found = naive_tree(data, w, 3, t)
    if found[0] == "leaf":
        return -math.inf
    values = data.columns[found[1]].values
    return partition_gain(data, w, np.isin(values, found[2]), TemperConfig(t))


def best_prefix_gain(data, w, cfg):
    """Best admissible prefix of the levels ranked by posterior, level order on ties."""
    values = data.columns[0].values
    levels = sorted(set(values.tolist()))
    pos = {v: w[(values == v) & (data.labels > 0)].sum() for v in levels}
    neg = {v: w[(values == v) & (data.labels < 0)].sum() for v in levels}
    ranked = sorted(levels, key=lambda v: pos[v] / (pos[v] + neg[v]))
    return max(
        partition_gain(data, w, np.isin(values, ranked[:n]), cfg)
        for n in range(1, len(ranked))
    )


class TestCategoricalSplits:
    @pytest.mark.parametrize("t", (0.0, 0.5, 1.0, 1.5))
    def test_gain_matches_enumeration_when_levels_are_mixed(self, t):
        cfg = TemperConfig(t)
        for levels in range(2, 11):
            data, w = graded_column(levels, 40, seed=levels, mixed=True)
            tree = induce_tree(data, w, 3, cfg)
            assert root_gain(tree, data, w, cfg) == pytest.approx(
                enumerated_gain(data, w, t), rel=0, abs=1e-12
            )

    @pytest.mark.parametrize("t", (0.0, 0.5, 1.0, 1.5))
    def test_pure_levels_give_best_admissible_prefix(self, t):
        # A single-class level can make the best admissible subset a
        # non-prefix one; the scan then returns the best prefix, no more.
        cfg = TemperConfig(t)
        short = 0
        for seed in range(24):
            levels = 3 + seed % 8
            data, w = graded_column(levels, 30, seed=100 + seed, mixed=False)
            tree = induce_tree(data, w, 3, cfg)
            prefix = best_prefix_gain(data, w, cfg)
            enumerated = enumerated_gain(data, w, t)
            if prefix == -math.inf:
                assert tree.n_nodes == 1
                continue
            gain = root_gain(tree, data, w, cfg)
            assert gain == pytest.approx(prefix, rel=0, abs=1e-12)
            assert gain <= enumerated + 1e-12
            short += gain < enumerated - 1e-12
        assert short > 0  # the limit is real on these draws

    @pytest.mark.parametrize("levels", (70, 200, 300))
    def test_high_cardinality_grows_a_full_tree(self, levels):
        data, w = graded_column(levels, 600 - 2 * levels, seed=levels, mixed=False)
        cfg = TemperConfig(0.5)
        tree = induce_tree(data, w, 15, cfg)
        assert tree.n_nodes == 15
        rowwise = [predict_row(tree, data.row(i)) for i in range(data.m)]
        assert np.array_equal(tree.predict(data), rowwise)
        # every level keeps a bin of its own, even above MAX_BINS levels
        data, w = graded_column(levels, 200, seed=levels, mixed=True)
        tree = induce_tree(data, w, 3, cfg)
        assert root_gain(tree, data, w, cfg) == pytest.approx(
            best_prefix_gain(data, w, cfg), rel=0, abs=1e-12
        )

    def test_levels_without_mass_take_the_false_branch(self):
        data, w = graded_column(6, 60, seed=3, mixed=True)
        weightless = data.columns[0].values == "v2"
        w = np.where(weightless, 0.0, w) / w[~weightless].sum()
        tree = induce_tree(data, w, 7, TemperConfig(0.5))
        assert tree.n_nodes == 7
        stack = [tree.root]
        while stack:
            node = stack.pop()
            if not isinstance(node, LeafNode):
                assert "v2" not in node.predicate.subset
                stack.extend((node.left, node.right))

    def test_categorical_only_table_splits(self):
        full = make_mixed_table(m=300, seed=2)
        data = Dataset(full.columns[:2], full.labels)
        assert all(c.kind == CATEGORICAL for c in data.columns)
        w = np.full(data.m, 1.0 / data.m)
        tree = induce_tree(data, w, 7, TemperConfig(0.5))
        assert tree.n_nodes > 1

    def test_predict_handles_unseen_and_missing_levels(self):
        data, w = weighted_mixed_dataset(m=60, seed=8)
        tree = induce_tree(data, w, 9, TemperConfig(0.5))
        assert 1 in split_features(tree.root)
        grade = data.columns[1].values
        # a level never seen in training, and a fold where "b" is missing
        renamed = Column("x2", CATEGORICAL, np.where(grade == "a", "z", grade))
        unseen = Dataset((data.columns[0], renamed), data.labels)
        keep = np.flatnonzero(grade != "b")
        for other in (unseen, data.take(keep)):
            rowwise = [predict_row(tree, other.row(i)) for i in range(other.m)]
            assert np.array_equal(tree.predict(other), rowwise)
        # "z" rows were "a" rows: an unseen level takes the false branch
        assert np.array_equal(CategoricalSplit(1, ("a", "b")).evaluate(unseen), grade == "b")


class TestBoosterIntegration:
    def test_returned_hypotheses_have_finite_bounds(self):
        data, _ = weighted_mixed_dataset(m=50, seed=15)
        cfg = TemperConfig(0.5)
        weights = uniform_init(data.m, cfg)
        learner = TreeWeakLearner(max_nodes=7)
        tree = learner(weights, data)
        margins = data.labels * tree.predict(data)
        r_max, q_dagger = confidence_bounds(weights, margins)
        assert math.isfinite(r_max) and r_max > 0
        rho = edge_fn(weights, margins, r_max, q_dagger)
        assert -1.0 <= rho <= 1.0

    def test_percolated_predictions_classify_like_scores(self):
        # leaf values are the full root-to-leaf aggregation: a row's score
        # equals its leaf prediction, no residual node values remain
        data, _ = weighted_mixed_dataset(m=50, seed=16)
        ens, _ = boost(
            data,
            TreeWeakLearner(max_nodes=5),
            1,
            TemperConfig(0.5),
        )
        tree = ens.members[0].hypothesis
        leaf_values = {id(leaf): leaf.prediction for leaf in tree.leaves()}
        for i in range(data.m):
            assert predict_row(tree, data.row(i)) in leaf_values.values()
