"""Tree induction: leaf predictions, gains, growth order, constraints."""

import math

import numpy as np
import pytest

from oracles import cells, describe_tree, leaf_of, naive_tree, predict_row, row_of, split_gain
from paper_math import exp_t, leaves, matusita_split_ratio, scalar_bayes_risk
from tempboost import dataio
from tempboost import tree as tree_module
from tempboost.booster import boost, confidence_bounds, edge as edge_fn
from tempboost.dataio import CATEGORICAL, MAX_BINS, NUMERIC, Column, Dataset, run_layout
from tempboost.errors import SingleClassError, WeightUnderflowError
from tempboost.synthetic import make_mixed_table
from tempboost.talgebra import TemperConfig, log_t
from tempboost.tree import (
    CategoricalSplit,
    LeafStats,
    NumericSplit,
    TreeWeakLearner,
    _run_sums,
    induce_tree,
    leaf_prediction,
)
from tempboost.weights import uniform_init


def assert_fitted_is_predict(tree, data):
    """``predict`` on the training rows equals the row-wise oracle, and the
    read-only ``tree.fitted`` that growth filled is ``predict`` bit for bit."""
    predicted = tree.predict(data)
    assert np.array_equal(predicted, [predict_row(tree, row_of(data, i)) for i in range(data.m)])
    assert not tree.fitted.flags.writeable
    assert tree.fitted.tobytes() == predicted.tobytes()


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


def split_nodes(node):
    """The split ``Node``s of the tree under ``node``, depth first."""
    if node.predicate is None:
        return []
    return [node] + split_nodes(node.left) + split_nodes(node.right)


def split_features(node):
    return [split.predicate.feature for split in split_nodes(node)]


def root_gain(tree, data, w, cfg):
    return partition_gain(data, w, tree.root.predicate.evaluate(data, np.arange(data.m)), cfg)


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
        checked = 0
        for threshold in np.quantile(data.columns[0].values, (0.25, 0.5, 0.75)):
            mask = data.columns[0].values >= threshold
            for t in (0.0, 0.5, 1.0):
                gain = partition_gain(data, w, mask, TemperConfig(t))
                if gain != -math.inf:  # admissible partitions only
                    assert gain >= -1e-12
                    checked += 1
        assert checked > 0


class TestInduceTree:
    def test_single_leaf_budget(self):
        data, w = weighted_mixed_dataset()
        tree = induce_tree(data, w, 1, TemperConfig(0.5))
        assert tree.n_nodes == 1
        assert_fitted_is_predict(tree, data)
        leaf = leaves(tree)[0]
        p = leaf.stats.p
        assert predict_row(tree, row_of(data, 0)) == pytest.approx(
            leaf_prediction(p, data.m ** (-TemperConfig(0.5).t_star), TemperConfig(0.5))
        )

    # at t = 1.99 the initial weight m^(-100) is subnormal at 1250 rows; its
    # (1-t)-th power overflows at 1300 rows, and it rounds to 0 at 2000
    @pytest.mark.parametrize("m", [1300, 2000])
    def test_an_initial_weight_that_leaves_the_doubles_raises_typed(self, m):
        data = make_mixed_table(m=m, seed=1)
        with pytest.raises(WeightUnderflowError, match=f"{m} rows"):
            induce_tree(data, np.full(m, 1.0 / m), 3, TemperConfig(1.99))

    def test_a_subnormal_initial_weight_still_grows_a_tree(self):
        m, cfg = 1250, TemperConfig(1.99)
        tree = induce_tree(make_mixed_table(m=m, seed=1), np.full(m, 1.0 / m), 3, cfg)
        assert tree.n_nodes == 3
        for leaf in leaves(tree):  # the power in Python floats, which initial_weight keeps
            assert leaf.prediction == leaf_prediction(leaf.stats.p, m ** -cfg.t_star, cfg)

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
        for feature in (0, 1):
            mask = data.columns[feature].values >= 0.5
            assert partition_gain(data, w, mask, cfg) == pytest.approx(0.0, abs=1e-14)
        # oracle: each depth-1 cell holds one example of each class, so any
        # further numeric split isolates a class and is inadmissible
        for a, b in (((0.0, 0.0), (0.0, 1.0)), ((1.0, 0.0), (1.0, 1.0))):
            assert a[0] == b[0] and a[1] != b[1]
        tree = induce_tree(data, w, 7, cfg)
        assert tree.n_nodes == 3
        assert_fitted_is_predict(tree, data)  # both leaves retired
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
        assert_fitted_is_predict(tree, data)

    @pytest.mark.parametrize("t", (0.0, 0.5, 1.0))
    def test_numeric_and_categorical_ties_break_to_lower_feature(self, t):
        x = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=float)
        labels = np.array([1, 1, 1, -1, 1, -1, -1, -1], dtype=np.int64)
        numeric = Column("x", NUMERIC, x)
        # level "a" is the x < 0.5 side: both columns sum the same two runs
        # of the presorted block, so whichever level ranks first, both gains
        # add the same two side terms: they tie bitwise
        mirror = Column("x_cat", CATEGORICAL, np.where(x > 0, "b", "a"))
        uneven = [np.random.default_rng(seed).uniform(0.2, 2.0, x.size) for seed in range(300)]
        for w in (np.ones(x.size), *uneven):
            for y in (labels, -labels):
                for columns in ((numeric, mirror), (mirror, numeric)):
                    tree = induce_tree(Dataset(columns, y), w / w.sum(), 3, TemperConfig(t))
                    assert tree.root.predicate.feature == 0

    @pytest.mark.parametrize("t", (0.0, 0.5, 1.0))
    def test_a_column_and_its_reverse_tie_to_the_lower_feature(self, t):
        # -x holds x's runs in reverse order: each cut of x is a cut of -x
        # with prefix and suffix swapped, and each side summed in the same
        # order, so the two gains tie bitwise
        split = 0
        for seed in range(300):
            rng = np.random.default_rng(seed)
            x = rng.integers(0, 6, size=24).astype(float)
            labels = np.where(rng.random(24) < 0.3 + 0.08 * x, 1, -1).astype(np.int64)
            labels[:2] = 1, -1
            w = rng.uniform(0.2, 2.0, size=24)
            for columns in ((x, -x), (-x, x)):
                named = tuple(Column(f"x{k}", NUMERIC, v) for k, v in enumerate(columns))
                root = induce_tree(Dataset(named, labels), w / w.sum(), 3, TemperConfig(t)).root
                if root.predicate is not None:
                    split += 1
                    assert root.predicate.feature == 0
        assert split > 500

    def test_heaviest_leaf_grown_first(self):
        data, w = weighted_mixed_dataset(m=40, seed=6)
        cfg = TemperConfig(0.5)
        tree3 = induce_tree(data, w, 3, cfg)
        tree5 = induce_tree(data, w, 5, cfg)
        # the 5-node tree refines the heavier child of the 3-node tree
        assert tree5.root.predicate == tree3.root.predicate
        left3, right3 = tree3.root.left, tree3.root.right
        heavier_is_left = left3.stats.r >= right3.stats.r  # a tie goes to the older, left
        heavier, lighter = (left3, right3) if heavier_is_left else (right3, left3)
        children5 = (tree5.root.left, tree5.root.right)
        child5, other5 = children5 if heavier_is_left else children5[::-1]
        assert child5.stats == heavier.stats and other5.stats == lighter.stats
        assert child5.predicate is not None
        assert other5.predicate is None

    def test_expected_risk_nonincreasing_with_budget(self):
        data, w = weighted_mixed_dataset(m=60, seed=9)
        for t in (0.0, 0.6, 1.0):
            cfg = TemperConfig(t)
            risks = []
            for budget in (1, 3, 5, 7, 9):
                tree = induce_tree(data, w, budget, cfg)
                risks.append(sum(scalar_bayes_risk(*leaf.stats, cfg) for leaf in leaves(tree)))
            assert all(a >= b - 1e-12 for a, b in zip(risks, risks[1:]))

    @pytest.mark.parametrize("seed", range(6))
    def test_every_split_keeps_the_classic_square_root_rate(self, seed):
        # the children's risks at t = 1 are at most sqrt(1 - rho^2) times the parent's
        data, w = random_mixed_table(seed)
        tree = induce_tree(data, w, 15, TemperConfig(1.0))
        splits = split_nodes(tree.root)
        for node in splits:
            assert matusita_split_ratio(node.left.stats, node.right.stats) <= 1.0 + 1e-12
        assert len(splits) == (tree.n_nodes - 1) // 2 > 0

    def test_leaf_masses_partition_unit(self):
        data, w = weighted_mixed_dataset(m=50, seed=11)
        tree = induce_tree(data, w, 9, TemperConfig(0.4))
        total = sum(leaf.stats.r for leaf in leaves(tree))
        assert total == pytest.approx(1.0, abs=1e-12)
        for leaf in leaves(tree):
            assert 0.0 < leaf.stats.p < 1.0
            assert math.isfinite(leaf.prediction)
        # growth against prediction: a leaf's masses are, bitwise, those of
        # the training rows the row-wise walk sends to it
        pos = np.where(data.labels > 0, w, 0.0)
        neg = np.where(data.labels < 0, w, 0.0)
        reached = {}
        for i in range(data.m):
            reached.setdefault(id(leaf_of(tree, row_of(data, i))), []).append(i)
        assert set(reached) == {id(leaf) for leaf in leaves(tree)}
        for leaf in leaves(tree):
            rows = np.array(reached[id(leaf)])
            assert leaf.stats == (float(pos[rows].sum()), float(neg[rows].sum()))
        # a split keeps the masses it had as a leaf: the root holds the totals
        assert tree.root.predicate is not None
        assert tree.root.stats == (float(pos.sum()), float(neg.sum()))

    def test_uniform_weights_reduce_to_counts(self):
        data, _ = weighted_mixed_dataset(m=30, seed=12)
        w = np.full(data.m, 1.0 / data.m)
        tree = induce_tree(data, w, 5, TemperConfig(0.5))
        counts = sum(round(leaf.stats.r * data.m) for leaf in leaves(tree))
        assert counts == data.m

    def test_single_class_rejected(self):
        data, w = weighted_mixed_dataset()
        bad = Dataset(data.columns, np.ones(data.m, dtype=np.int64))
        with pytest.raises(ValueError):
            induce_tree(bad, w, 3, TemperConfig(0.5))
        # every positive weight switched off (t < 1): a typed failure
        off = np.where(data.labels > 0, 0.0, w)
        with pytest.raises(SingleClassError):
            induce_tree(data, off / off.sum(), 3, TemperConfig(0.5))

    @pytest.mark.parametrize("t", (0.0, 0.6, 1.0, 1.5))
    def test_a_cut_whose_child_posterior_rounds_to_one_is_inadmissible(self, t):
        # the one cut's left posterior 0.5 / (0.5 + 1e-18) rounds to 1, with
        # both masses positive: the cut is inadmissible and the root retires
        x = np.array([0.0, 0.0, 1.0, 1.0])
        labels = np.array([1, -1, 1, -1], dtype=np.int64)
        w = np.array([0.5, 1e-18, 0.25, 0.25])
        data = Dataset((Column("x", NUMERIC, x),), labels)
        tree = induce_tree(data, w / w.sum(), 3, TemperConfig(t))
        assert tree.n_nodes == 1 and tree.root.predicate is None
        assert math.isfinite(tree.root.prediction) and 0 < tree.root.stats.p < 1
        # beside a second cut, that one is taken: the best whose children are inside
        x = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 2.0])
        labels = np.array([1, -1, 1, -1, 1, -1], dtype=np.int64)
        w = np.array([0.5, 1e-18, 0.25, 0.25, 0.1, 0.3])
        data = Dataset((Column("x", NUMERIC, x),), labels)
        tree = induce_tree(data, w / w.sum(), 3, TemperConfig(t))
        assert tree.root.predicate == NumericSplit(0, 1.5)
        for leaf in leaves(tree):
            assert 0 < leaf.stats.p < 1 and math.isfinite(leaf.prediction)

    def test_weights_spread_over_twenty_orders_leave_every_posterior_inside(self):
        # as after a long boosting run: a child's minority mass can fall below its
        # majority's rounding, which no admitted cut allows
        for seed in range(60):
            rng = np.random.default_rng(seed)
            m = 24
            x = rng.integers(0, 6, size=m).astype(float)
            grade = rng.choice(list("abc"), size=m)
            labels = np.where(rng.random(m) < 0.5, 1, -1)
            labels[:2] = (1, -1)
            data = Dataset((Column("x", NUMERIC, x), Column("g", CATEGORICAL, grade)), labels)
            w = 10.0 ** rng.uniform(-22, 0, size=m)
            w[:2] = 1.0  # both classes carry mass at the root
            for t in (0.0, 1.0, 1.5):
                tree = induce_tree(data, w / w.sum(), 7, TemperConfig(t))
                for leaf in leaves(tree):
                    assert 0 < leaf.stats.p < 1 and math.isfinite(leaf.prediction)

    @pytest.mark.parametrize(
        "x, labels, w",
        (
            # the midpoint 0.5 * (0 + 5e-324) rounds onto 0
            ([0, 0, 5e-324, 5e-324, 1, 1], [1, -1, 1, 1, -1, -1], [1, 1, 1, 1, 1, 1]),
            # 1e308 + 1.7e308 overflows to inf
            ([-1, -1, 1e308, 1e308, 1.7e308, 1.7e308], [1, -1] * 3, [.05, .05, .3, .1, .3, .2]),
        ),
    )
    def test_every_split_routes_the_rows_it_scored(self, x, labels, w):
        x, w = np.array(x, dtype=float), np.array(w, dtype=float) / sum(w)
        data = Dataset((Column("x", NUMERIC, x),), np.array(labels, dtype=np.int64))
        cfg = TemperConfig(0.5)
        tree = induce_tree(data, w, 3, cfg)
        cuts = [x >= above for above in np.unique(x)[1:]]
        best = max(cuts, key=lambda right: partition_gain(data, w, right, cfg))
        assert np.array_equal(tree.root.predicate.evaluate(data, np.arange(data.m)), best)
        for leaf in leaves(tree):
            assert leaf.stats.m_pos > 0 and leaf.stats.m_neg > 0

    def test_even_budget_rejected(self):
        data, w = weighted_mixed_dataset()
        with pytest.raises(ValueError):
            induce_tree(data, w, 4, TemperConfig(0.5))

    @pytest.mark.parametrize(
        "bad",
        (
            lambda w: w[:-1],  # one weight short
            lambda w: np.where(np.arange(w.size) == 0, -w, w),  # a negative weight
            lambda w: np.where(np.arange(w.size) == 0, np.nan, w),  # NaN passes w < 0
            lambda w: 2 * w,  # sums to 2
        ),
    )
    def test_malformed_weights_rejected(self, bad):
        data, w = weighted_mixed_dataset()
        with pytest.raises(ValueError):
            induce_tree(data, bad(w), 3, TemperConfig(0.5))

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

        def recording_risk(pos, neg, cfg):
            sizes.append(np.size(pos))
            return real_risk(pos, neg, cfg)

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
        # bitwise: each class summed by np.add.reduceat, run by run, on contiguous
        # memory (reduceat adds in another order than sum, so the bits differ)
        rng = np.random.default_rng(5487)
        shapes = [(rng.integers(1, 6), rng.integers(1, 40)) for _ in range(60)]
        for n_rows, width in shapes + [(1, 1), (4, 1), (3, 60)]:
            run_start = rng.random((n_rows, width)) < rng.uniform(0.05, 1.0)
            run_start[:, 0] = True
            pos, neg = spread_masses(rng, (n_rows, width)), spread_masses(rng, (n_rows, width))
            layout = run_layout(np.cumsum(run_start, axis=1))  # codes change at run starts
            assert np.array_equal(layout.run_start, run_start)
            got = _run_sums(layout, pack(pos, neg))
            for part, mass in ((got.real, pos), (got.imag, neg)):
                for f in range(n_rows):
                    edges = np.append(np.flatnonzero(run_start[f]), width)
                    runs = zip(edges[:-1], edges[1:])
                    want = np.concatenate([np.add.reduceat(mass[f, a:b], [0]) for a, b in runs])
                    assert same_bits(part[f, : want.size], want)
                    assert not part[f, want.size :].any()  # padding stays exactly zero
        single = run_layout(np.arange(21).reshape(3, 7))
        masses = pack(rng.random((3, 7)), rng.random((3, 7)))
        assert _run_sums(single, masses) is masses  # one entry per run: the block itself

    def test_complex_sums_and_gathers_match_each_class_bitwise(self):
        # the exactness the complex block relies on: complex addition adds
        # each part on its own, in the order of the per-class arrays
        rng = np.random.default_rng(2306)
        for n_rows, width in ((60, 94), (60, 20), (5, 256), (4, 2), (3, 1), (1, 1)):
            pos, neg = spread_masses(rng, (n_rows, width)), spread_masses(rng, (n_rows, width))
            masses = pack(pos, neg)
            sides = np.empty((2, n_rows, width - 1), dtype=complex)
            np.add.accumulate(masses[:, :-1], axis=1, out=sides[0])
            np.add.accumulate(masses[:, :0:-1], axis=1, out=sides[1, :, ::-1])
            for part, mass in ((sides.real, pos), (sides.imag, neg)):
                assert same_bits(part[0], np.cumsum(mass[:, :-1], axis=1))
                assert same_bits(part[1], np.cumsum(mass[:, :0:-1], axis=1)[:, ::-1])
            rows = rng.choice(masses.size, size=rng.integers(1, masses.size + 1))
            gathered = masses.take(rows)
            for part, mass in ((gathered.real, pos), (gathered.imag, neg)):
                assert same_bits(part, mass.take(rows))
                assert same_bits(part.sum(), mass.take(rows).sum())

    def test_the_root_search_leaves_the_trees_block_as_it_was(self):
        # distinct values in every column: the root's run sums are the block itself
        m = 16
        rng = np.random.default_rng(7)
        x = rng.permutation(m).astype(float)
        grade = np.array([f"v{k:02d}" for k in rng.permutation(m)])
        labels = np.where(rng.random(m) < 0.5, 1, -1).astype(np.int64)
        labels[:2] = 1, -1
        data = Dataset((Column("x", NUMERIC, x), Column("grade", CATEGORICAL, grade)), labels)
        assert data.root_runs.slot is None
        w = rng.uniform(0.5, 2.0, size=m)
        w /= w.sum()
        masses = pack(w * (labels > 0), w - w * (labels > 0))
        block = masses.take(data.column_block[0])
        kept = block.copy()
        stats = LeafStats(masses.real.sum(), masses.imag.sum())
        assert tree_module._best_split(data, np.arange(m), block, TemperConfig(0.5), stats)
        assert same_bits(block, kept)  # every later leaf of the tree reads it

    def test_root_run_layout_is_built_once_per_dataset(self, monkeypatch):
        data = make_mixed_table(m=120, seed=4)
        built = []

        def counting_layout(bins):
            built.append(bins.shape[1])
            return run_layout(bins)

        monkeypatch.setattr(dataio, "run_layout", counting_layout)
        monkeypatch.setattr(tree_module, "run_layout", counting_layout)
        _, trace = boost(data, TreeWeakLearner(7), 6, TemperConfig(0.5))
        assert len(trace) == 6
        assert built.count(data.m) == 1  # the root's, cached on data
        assert len(built) > 1 and all(size < data.m for size in built[1:])  # leaves below it

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


def spread_masses(rng, shape):
    """Nonnegative masses over many magnitudes, so that the order of a sum
    shows in its bits, with exact zeros and subnormals among them."""
    mass = rng.random(shape) * 10.0 ** rng.integers(-12, 1, size=shape)
    mass[rng.random(shape) < 0.2] = 0.0
    tiny = rng.random(shape) < 0.1
    mass[tiny] = rng.integers(1, 1000, size=tiny.sum()) * np.finfo(float).smallest_subnormal
    return mass


def pack(pos, neg):
    """The class masses as ``induce_tree`` carries them: pos + 1j * neg, exactly."""
    masses = np.empty(pos.shape, dtype=complex)
    masses.real, masses.imag = pos, neg
    return masses


def same_bits(a, b) -> bool:
    return np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


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
        if node.predicate is None:
            return ("leaf", round(node.stats.p, 10), round(node.stats.r, 10))
        predicate = node.predicate
        test = predicate.evaluate(data, rows)
        left, right = walk(node.left, rows[~test]), walk(node.right, rows[test])
        if isinstance(predicate, NumericSplit):
            return ("split", predicate.feature, predicate.threshold, left, right)
        present = sorted(set(cells(data.columns[predicate.feature], rows).tolist()))
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

        def counting_risk(pos, neg, cfg):
            scored.append(np.size(pos))
            return real_risk(pos, neg, cfg)

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
    values = cells(data.columns[found[1]])
    return partition_gain(data, w, np.isin(values, found[2]), TemperConfig(t))


def best_prefix_gain(data, w, cfg):
    """Best admissible prefix of the levels ranked by posterior, level order on ties."""
    values = cells(data.columns[0])
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
        assert_fitted_is_predict(tree, data)
        # every level keeps a bin of its own, even above MAX_BINS levels
        data, w = graded_column(levels, 200, seed=levels, mixed=True)
        tree = induce_tree(data, w, 3, cfg)
        assert root_gain(tree, data, w, cfg) == pytest.approx(
            best_prefix_gain(data, w, cfg), rel=0, abs=1e-12
        )

    def test_levels_without_mass_take_the_false_branch(self):
        data, w = graded_column(6, 60, seed=3, mixed=True)
        weightless = cells(data.columns[0]) == "v2"
        w = np.where(weightless, 0.0, w) / w[~weightless].sum()
        tree = induce_tree(data, w, 7, TemperConfig(0.5))
        assert tree.n_nodes == 7
        assert all("v2" not in node.predicate.subset for node in split_nodes(tree.root))

    def test_categorical_only_table_splits(self):
        full = make_mixed_table(m=300, seed=2)
        data = Dataset(full.columns[:2], full.labels)
        assert all(c.kind == CATEGORICAL for c in data.columns)
        w = np.full(data.m, 1.0 / data.m)
        tree = induce_tree(data, w, 7, TemperConfig(0.5))
        assert tree.n_nodes > 1

    def test_predict_handles_unseen_and_missing_levels(self):
        data, w = weighted_mixed_dataset(m=60, seed=8)
        grade = cells(data.columns[1])
        # a level never seen in training, and a fold where "b" is missing
        renamed = Column("x2", CATEGORICAL, np.where(grade == "a", "z", grade))
        unseen = Dataset((data.columns[0], renamed), data.labels)
        missing = data.take(np.flatnonzero(grade != "b"))
        self.predicts_like_the_oracle(data, w, 1, (unseen, missing), unseen, "z")
        # "z" rows were "a" rows: an unseen level takes the false branch
        in_subset = CategoricalSplit(1, ("a", "b")).evaluate(unseen, np.arange(unseen.m))
        assert np.array_equal(in_subset, grade == "b")

    def test_a_fold_of_a_table_above_max_bins_levels_predicts_like_the_oracle(self):
        table, w = graded_column(2 * MAX_BINS, 600, seed=16, mixed=True)
        test = (np.arange(table.m) % 3 == 0) | (cells(table.columns[0]) == "v7")  # v7 only here
        train, held_out = table.take(np.flatnonzero(~test)), table.take(np.flatnonzero(test))
        assert np.unique(train.columns[0].values).size < table.columns[0].levels.size > MAX_BINS
        assert train.columns[0].levels is held_out.columns[0].levels is table.columns[0].levels
        w, cfg = w[~test] / w[~test].sum(), TemperConfig(0.5)
        tree = self.predicts_like_the_oracle(train, w, 0, (held_out,), held_out, "v7")
        gain = best_prefix_gain(train, w, cfg)  # the split scored is the split decoded
        assert root_gain(tree, train, w, cfg) == pytest.approx(gain, rel=0, abs=1e-12)

    @staticmethod
    def predicts_like_the_oracle(data, w, feature, others, unseen, level):
        """The tree grown on ``data`` splits on ``feature`` and predicts every
        Dataset of ``others`` row by row as the oracle does; the rows of
        ``unseen`` that hold ``level`` take the false branch of every split on it."""
        tree = induce_tree(data, w, 9, TemperConfig(0.5))
        assert feature in split_features(tree.root)
        for other in others:
            rowwise = [predict_row(tree, row_of(other, i)) for i in range(other.m)]
            assert np.array_equal(tree.predict(other), rowwise)
        rows = np.flatnonzero(cells(unseen.columns[feature]) == level)
        for node in split_nodes(tree.root):
            if isinstance(node.predicate, CategoricalSplit):
                assert rows.size and not node.predicate.evaluate(unseen, rows).any()
        return tree


class TestBoosterIntegration:
    def test_returned_hypotheses_have_finite_bounds(self):
        data, _ = weighted_mixed_dataset(m=50, seed=15)
        cfg = TemperConfig(0.5)
        weights = uniform_init(data.m, cfg)
        learner = TreeWeakLearner(max_nodes=7)
        tree, predictions = learner(weights, data)
        assert tree.fitted is None  # the hypothesis keeps no training predictions
        assert predictions.tobytes() == tree.predict(data).tobytes()
        margins = data.labels * predictions
        r_max = confidence_bounds(weights, margins)
        assert math.isfinite(r_max) and r_max > 0
        rho = edge_fn(weights, margins, r_max)
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
        leaf_values = {id(leaf): leaf.prediction for leaf in leaves(tree)}
        for i in range(data.m):
            assert predict_row(tree, row_of(data, i)) in leaf_values.values()
