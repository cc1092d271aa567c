"""Tree induction: leaf predictions, gains, growth order, constraints."""

import math

import numpy as np
import pytest

from oracles import describe_tree, naive_tree
from tempboost.booster import boost, confidence_bounds, edge as edge_fn
from tempboost.cpe_loss import bayes_risk
from tempboost.dataio import CATEGORICAL, NUMERIC, Column, Dataset
from tempboost.talgebra import TemperConfig, exp_t, log_t
from tempboost.tree import (
    CategoricalSplit,
    LeafNode,
    LeafStats,
    NumericSplit,
    TreeWeakLearner,
    induce_tree,
    leaf_prediction,
    split_gain,
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
    right = tree.root.predicate.evaluate(data)
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
        tree = induce_tree(data, w, 1, TemperConfig(0.5), np.random.default_rng(0))
        assert tree.n_nodes == 1
        leaf = tree.leaves()[0]
        p = leaf.stats.p
        assert tree.predict_row(data.row(0)) == pytest.approx(
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
        tree = induce_tree(data, w, 7, cfg, np.random.default_rng(0))
        assert tree.n_nodes == 3
        predictions = tree.predict(data)
        errors = np.mean(np.where(predictions >= 0, 1, -1) != data.labels)
        assert errors == 0.5

    def test_matches_naive_reimplementation(self):
        data, w = weighted_mixed_dataset(m=20, seed=3)
        for t in (0.0, 0.5, 1.0):
            cfg = TemperConfig(t)
            tree = induce_tree(data, w, 9, cfg, np.random.default_rng(0))
            assert describe_tree(tree) == naive_tree(data, w, 9, t)

    @pytest.mark.parametrize("t", (0.0, 0.5, 1.0))
    def test_matches_naive_with_ties(self, t):
        data, w = tied_dataset()
        tree = induce_tree(data, w, 15, TemperConfig(t), np.random.default_rng(0), split_cap=10**9)
        assert describe_tree(tree) == naive_tree(data, w, 15, t)
        used = split_features(tree.root)
        assert {0, 1, 3, 4} <= set(used)
        assert not {2, 5, 6, 7} & set(used)  # equal gains break to the lower feature
        rowwise = [tree.predict_row(data.row(i)) for i in range(data.m)]
        assert np.array_equal(tree.predict(data), rowwise)

    @pytest.mark.parametrize("t", (0.0, 0.5, 1.0))
    def test_numeric_and_categorical_ties_break_to_lower_feature(self, t):
        x = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=float)
        labels = np.array([1, 1, 1, -1, 1, -1, -1, -1], dtype=np.int64)
        numeric = Column("x", NUMERIC, x)
        # the subset {"a"} is the x < 0.5 side, so both gains are computed
        # from the same masses in the same order
        mirror = Column("x_cat", CATEGORICAL, np.where(x > 0, "b", "a"))
        w = np.full(x.size, 1.0 / x.size)
        for columns in ((numeric, mirror), (mirror, numeric)):
            tree = induce_tree(
                Dataset(columns, labels), w, 3, TemperConfig(t), np.random.default_rng(0)
            )
            assert tree.root.predicate.feature == 0

    def test_heaviest_leaf_grown_first(self):
        data, w = weighted_mixed_dataset(m=40, seed=6)
        cfg = TemperConfig(0.5)
        tree3 = induce_tree(data, w, 3, cfg, np.random.default_rng(0))
        tree5 = induce_tree(data, w, 5, cfg, np.random.default_rng(0))
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
                tree = induce_tree(data, w, budget, cfg, np.random.default_rng(0))
                risks.append(
                    sum(
                        leaf.stats.r * bayes_risk(leaf.stats.p, cfg)
                        for leaf in tree.leaves()
                    )
                )
            assert all(a >= b - 1e-12 for a, b in zip(risks, risks[1:]))

    def test_leaf_masses_partition_unit(self):
        data, w = weighted_mixed_dataset(m=50, seed=11)
        tree = induce_tree(data, w, 9, TemperConfig(0.4), np.random.default_rng(1))
        total = sum(leaf.stats.r for leaf in tree.leaves())
        assert total == pytest.approx(1.0, abs=1e-12)
        for leaf in tree.leaves():
            assert 0.0 < leaf.stats.p < 1.0
            assert math.isfinite(leaf.prediction)

    def test_uniform_weights_reduce_to_counts(self):
        data, _ = weighted_mixed_dataset(m=30, seed=12)
        w = np.full(data.m, 1.0 / data.m)
        tree = induce_tree(data, w, 5, TemperConfig(0.5), np.random.default_rng(0))
        counts = sum(round(leaf.stats.r * data.m) for leaf in tree.leaves())
        assert counts == data.m

    def test_single_class_rejected(self):
        data, w = weighted_mixed_dataset()
        bad = data.with_labels(np.ones(data.m, dtype=np.int64))
        with pytest.raises(ValueError):
            induce_tree(bad, w, 3, TemperConfig(0.5), np.random.default_rng(0))

    def test_even_budget_rejected(self):
        data, w = weighted_mixed_dataset()
        with pytest.raises(ValueError):
            induce_tree(data, w, 4, TemperConfig(0.5), np.random.default_rng(0))

    def test_deterministic_under_seed(self):
        data, w = weighted_mixed_dataset(m=60, seed=13)
        t1 = induce_tree(data, w, 9, TemperConfig(0.3), np.random.default_rng(7))
        t2 = induce_tree(data, w, 9, TemperConfig(0.3), np.random.default_rng(7))
        assert describe_tree(t1) == describe_tree(t2)

    def test_candidate_sampling_is_deterministic_and_capped(self):
        rng = np.random.default_rng(14)
        m = 300
        x = rng.normal(size=m)
        labels = np.where(x + 0.5 * rng.normal(size=m) > 0, 1, -1).astype(np.int64)
        data = Dataset((Column("x", NUMERIC, x),), labels)
        w = np.full(m, 1.0 / m)
        cfg = TemperConfig(0.5)
        low_cap_a = induce_tree(data, w, 5, cfg, np.random.default_rng(3), split_cap=50)
        low_cap_b = induce_tree(data, w, 5, cfg, np.random.default_rng(3), split_cap=50)
        assert describe_tree(low_cap_a) == describe_tree(low_cap_b)
        full = induce_tree(data, w, 5, cfg, np.random.default_rng(3), split_cap=10**6)
        assert root_gain(low_cap_a, data, w, cfg) <= root_gain(full, data, w, cfg)
        # The sampled tree as grown before the presorted search; any change
        # to the sampler's RNG calls or to the candidate order moves it.
        assert describe_tree(low_cap_a) == (
            "split", 0, 0.014316918739001361,
            ("leaf", 0.1111111111, 0.48),
            (
                "split", 0, 0.7041890531631495,
                ("leaf", 0.76, 0.25),
                ("leaf", 0.962962963, 0.27),
            ),
        )

    def test_categorical_subset_count(self):
        # 4 categories: 2^(4-1) - 1 = 7 distinct subset splits up to complement
        from tempboost.tree import _subset_masks

        assert _subset_masks(4).size == 7
        assert _subset_masks(2).size == 1


class TestBoosterIntegration:
    def test_returned_hypotheses_have_finite_bounds(self):
        data, _ = weighted_mixed_dataset(m=50, seed=15)
        cfg = TemperConfig(0.5)
        weights = uniform_init(data.m, cfg)
        learner = TreeWeakLearner(max_nodes=7, rng=np.random.default_rng(2))
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
            TreeWeakLearner(max_nodes=5, rng=np.random.default_rng(3)),
            1,
            TemperConfig(0.5),
        )
        tree = ens.members[0].hypothesis
        leaf_values = {id(leaf): leaf.prediction for leaf in tree.leaves()}
        for i in range(data.m):
            assert tree.predict_row(data.row(i)) in leaf_values.values()
