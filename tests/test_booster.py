"""Boosting loop: edges, coefficients, guarantees, prediction."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (
    EnforcedEdgeLearner,
    StumpLearner,
    clamped_sum,
    predict,
    row_of,
    textbook_adaboost,
)
from paper_math import exp_t, tempered_exp_loss
from tempboost import booster
from tempboost.booster import (
    RHO_CAP,
    Ensemble,
    ScoreFold,
    boost,
    confidence_bounds,
    edge,
    kt_bound,
    leveraging,
    zero_one_error,
)
from tempboost.dataio import NUMERIC, Column, Dataset
from tempboost.errors import (
    BoundViolatedError,
    DegenerateHypothesisError,
    EdgeSaturatedError,
    SingleClassError,
    TempBoostError,
)
from tempboost.experiment import RunSpec, _folds, _take_fold
from tempboost.synthetic import make_margin_blobs, make_mixed_table, make_wideband
from tempboost.talgebra import CLASSIC_TOLERANCE, TemperConfig, power_mean
from tempboost.tree import TreeWeakLearner
from tempboost.weights import TemWeights, tempered_update, uniform_init


class ConstantHypothesis:
    """Fixed per-row outputs; enough to drive the loop in unit tests."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def predict(self, data):
        return self.values


def constant(values):
    """A weak learner's answer: a ConstantHypothesis and its predictions."""
    hypothesis = ConstantHypothesis(values)
    return hypothesis, hypothesis.values


def numeric_dataset(X, y):
    columns = tuple(
        Column(f"f{j}", NUMERIC, X[:, j]) for j in range(X.shape[1])
    )
    return Dataset(columns, np.asarray(y, dtype=np.int64))


class TestConfidenceBounds:
    def test_classic_reduces_to_max_margin(self):
        w = uniform_init(4, TemperConfig(1.0))
        u = np.array([0.5, -1.5, 0.25, 1.0])
        assert confidence_bounds(w, u) == pytest.approx(1.5)

    def test_all_zero_margins_rejected(self):
        w = uniform_init(3, TemperConfig(0.5))
        with pytest.raises(DegenerateHypothesisError):
            confidence_bounds(w, np.zeros(3))


class TestEdge:
    def test_perfect_hypothesis_has_unit_edge(self):
        w = uniform_init(5, TemperConfig(1.0))
        u = np.full(5, 0.8)
        assert edge(w, u, confidence_bounds(w, u)) == pytest.approx(1.0)

    def test_zero_correlation_gives_zero_edge(self):
        w = uniform_init(4, TemperConfig(0.3))
        u = np.array([1.0, -1.0, 1.0, -1.0])
        assert edge(w, u, confidence_bounds(w, u)) == pytest.approx(0.0, abs=1e-15)

    def test_hand_instance_without_dagger(self):
        # direct evaluation of the weighted-correlation formula, t = 0.5
        t = 0.5
        q3 = (1.0 - 0.6**1.5 - 0.5**1.5) ** (1.0 / 1.5)
        q = np.array([0.6, 0.5, q3])
        w = TemWeights(q, TemperConfig(t))
        u = np.array([1.0, -1.0, 0.5])
        expected_r = max(1.0 / 0.6**0.5, 1.0 / 0.5**0.5, 0.5 / q3**0.5)
        expected_rho = (0.6 * 1.0 + 0.5 * -1.0 + q3 * 0.5) / expected_r
        r_max = confidence_bounds(w, u)
        assert r_max == pytest.approx(expected_r, rel=1e-12)
        assert edge(w, u, r_max) == pytest.approx(expected_rho, rel=1e-12)

    def test_edge_bits_do_not_depend_on_the_blas_thread_count(self):
        # OpenBLAS splits a dot product this long across its threads, which
        # reorders the sum; a numpy reduction does not, so a trace reruns
        code = (
            "import numpy as np\n"
            "from tempboost.booster import confidence_bounds, edge\n"
            "from tempboost.talgebra import TemperConfig\n"
            "from tempboost.weights import TemWeights\n"
            "rng = np.random.default_rng(2306)\n"
            "q = rng.random(20000) * 10.0 ** rng.integers(-6, 1, size=20000)\n"
            "w = TemWeights(q / np.sum(q**1.5) ** (1 / 1.5), TemperConfig(0.5))\n"
            "u = rng.uniform(-1.0, 1.0, size=20000)\n"
            "print(edge(w, u, confidence_bounds(w, u)).hex())\n"
        )
        src = str(Path(booster.__file__).resolve().parents[1])
        bits = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            out = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
            )
            assert out.returncode == 0, out.stderr
            bits.append(out.stdout.strip())
        assert bits[0] == bits[1]


class TestLeveraging:
    def test_zero_edge_means_zero_coefficients(self):
        for t in (0.0, 0.5, 1.0):
            mu, alpha = leveraging(0.0, 1.0, TemperConfig(t), 1.0, 100)
            assert mu == 0.0 and alpha == 0.0

    def test_classic_half_log_odds(self):
        mu, alpha = leveraging(0.6, 1.0, TemperConfig(1.0), 1.0, 100)
        assert mu == pytest.approx(0.5 * math.log(4.0))
        assert alpha == mu

    def test_t_zero_value(self):
        # M_1(0.5, 1.5) = 1, so mu = -log_0(0.5) = 0.5
        mu, _ = leveraging(0.5, 1.0, TemperConfig(0.0), 1.0, 100)
        assert mu == pytest.approx(0.5, rel=1e-12)

    def test_alpha_composition(self):
        m, z_product, rho, t = 50, 0.8, 0.3, 0.6
        cfg = TemperConfig(t)
        mu, alpha = leveraging(rho, 2.0, cfg, z_product, m)
        assert alpha == pytest.approx(
            m ** (1 - cfg.t_star) * z_product ** (1 - t) * mu, rel=1e-14
        )

    def test_saturation_raises(self):
        with pytest.raises(EdgeSaturatedError):
            leveraging(1.0, 1.0, TemperConfig(0.5), 1.0, 10)
        with pytest.raises(EdgeSaturatedError):
            leveraging(-1.0, 1.0, TemperConfig(1.0), 1.0, 10)

    def test_violated_bound_is_a_typed_failure(self, monkeypatch):
        # |mu| far too large, then exactly at the bound 1/(R (1 - t)) = 2, which is excluded
        for log_value in (-1e6, -2.0):
            monkeypatch.setattr(booster, "log_t", lambda z, cfg: log_value)
            with pytest.raises(BoundViolatedError) as raised:
                leveraging(0.5, 1.0, TemperConfig(0.5), 1.0, 10)
            assert isinstance(raised.value, RuntimeError)

    def test_bounded_below_saturation(self):
        for t in (0.0, 0.5, 0.9):
            cfg = TemperConfig(t)
            for rho in (-0.999999, -0.5, 0.5, 0.999999):
                mu, _ = leveraging(rho, 2.0, cfg, 1.0, 10)
                assert abs(mu) < 1.0 / (2.0 * (1.0 - t))


class TestSlackFloor:
    @settings(max_examples=300)
    @given(
        t=st.floats(0.0, 1.0, exclude_max=True),
        m=st.integers(2, 40),
        decades=st.floats(0.0, 12.0),
        agree=st.floats(0.5, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_leveraging_keeps_every_bracket_above_the_floor(self, t, m, decades, agree, seed):
        # (q_i^(1-t) - (1-t) mu u_i) / q_i^(1-t) >= x^(1-t) with
        # x = (1-|rho|) / M_(1-t)(1-|rho|, 1+|rho|); equality where
        # |u_i| / q_i^(1-t) = R and u_i has rho's sign
        rng = np.random.default_rng(seed)
        cfg = TemperConfig(t)
        raw = 10.0 ** -rng.uniform(0.0, decades, m)  # weights spread over some decades
        weights = TemWeights(raw / np.sum(raw ** (2 - t)) ** (1 / (2 - t)), cfg)
        sign = np.where(rng.random(m) < agree, 1.0, -1.0)
        sign[:2] = rng.permutation([1.0, -1.0])  # both signs
        u = sign * weights.q_om * rng.uniform(0.0, 1.0, m)
        u[0] = sign[0] * weights.q_om[0]  # R is attained
        r_max = confidence_bounds(weights, u)
        rho = edge(weights, u, r_max)
        assume(abs(rho) <= 1.0 - RHO_CAP)
        mu, _ = leveraging(rho, r_max, cfg, 1.0, m)
        om, a, b = 1.0 - t, 1.0 - abs(rho), 1.0 + abs(rho)
        floor = (a / power_mean(a, b, om)) ** om
        slack = (weights.q_om - om * mu * u) / weights.q_om
        assert slack.min() >= floor - 4 * np.finfo(float).eps
        updated, _ = tempered_update(weights, u, mu)
        assert np.all(updated.q > 0)


class TestKtBound:
    def test_no_edge_no_progress(self):
        for t in (0.0, 0.5, 1.0, 1.5):
            assert kt_bound(0.0, TemperConfig(t)) == 1.0

    def test_t_zero_is_one_minus_square(self):
        assert kt_bound(0.5, TemperConfig(0.0)) == pytest.approx(0.75)

    def test_classic_is_root_of_one_minus_square(self):
        assert kt_bound(0.6, TemperConfig(1.0)) == pytest.approx(0.8)

    def test_exponential_domination_spot_grid(self):
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            cfg = TemperConfig(t)
            for z in np.linspace(-0.99, 0.99, 67):
                assert kt_bound(float(z), cfg) <= math.exp(-z * z / (2 * cfg.t_star)) + 1e-15

    def test_rejects_a_saturated_or_nan_edge(self):
        # a record's edge is at most 1 - RHO_CAP in magnitude, so |rho| = 1 has no factor
        for rho in (1.0, -1.0, math.nan):
            for t in (0.0, 0.5, 1.0):
                with pytest.raises(ValueError, match="edge"):
                    kt_bound(rho, TemperConfig(t))


class TestBoostLoop:
    @pytest.mark.parametrize("gap", [-1.1e-9, -9e-10, -5e-10, 5e-10, 9e-10, 1.1e-9])
    def test_a_t_within_the_tolerance_of_one_boosts_as_t_one(self, gap):
        # the co-simplex check and the guarantee take such a t as 1 too;
        # just past the tolerance the deformed forms run
        data = make_wideband(m=120)
        _, trace = boost(data, TreeWeakLearner(7), 4, TemperConfig(1 + gap))
        _, classic = boost(data, TreeWeakLearner(7), 4, TemperConfig(1.0))
        steps = [[(r.rho, r.mu, r.alpha, r.z) for r in run] for run in (trace, classic)]
        assert len(steps[0]) == 4
        assert (steps[0] == steps[1]) == (abs(gap) < CLASSIC_TOLERANCE)
        assert np.allclose(*steps, rtol=1e-6, atol=0)

    def test_single_round_fixed_hypothesis(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(6, 1))
        y = np.array([1, 1, 1, -1, -1, -1])
        data = numeric_dataset(X, y)
        values = y * np.array([0.5, 0.5, 0.5, 0.5, -0.5, 0.5])  # one mistake
        ens, trace = boost(
            data, lambda w, d: constant(values), 1, TemperConfig(0.5)
        )
        assert len(trace) == 1
        record = trace[0]
        # uniform weights, |u| = 0.5 everywhere: rho = (4/6 - ... ) direct
        w0 = uniform_init(6, TemperConfig(0.5))
        u = y * values
        expected_r = float(np.max(np.abs(u) / w0.q**0.5))
        expected_rho = float(np.dot(w0.q, u) / expected_r)
        assert record.rho == pytest.approx(expected_rho, rel=1e-12)
        err = zero_one_error(ens.decision_scores(data), data.labels)
        assert err <= kt_bound(record.rho, TemperConfig(0.5)) + 1e-9

    def test_classic_matches_textbook_adaboost(self):
        rng = np.random.default_rng(12)
        m = 100
        X = rng.normal(size=(m, 3))
        y = np.where(X[:, 0] + 0.6 * X[:, 1] + 0.8 * rng.normal(size=m) > 0, 1, -1)
        data = numeric_dataset(X, y)
        reference = textbook_adaboost(X, y.astype(float), 10)
        seen_weights = []
        ens, trace = boost(
            data,
            StumpLearner(),
            10,
            TemperConfig(1.0),
            on_round=lambda record, weights: seen_weights.append(weights.q),
        )
        assert len(trace) == 10
        for j, ref in enumerate(reference):
            assert ens.members[j].hypothesis == ref["stump"]
            assert trace[j].mu == pytest.approx(ref["alpha"], rel=1e-8)
            assert trace[j].alpha == pytest.approx(ref["alpha"], rel=1e-8)
            assert trace[j].z == pytest.approx(ref["z"], rel=1e-8)
            np.testing.assert_allclose(seen_weights[j], ref["weights"], rtol=1e-8)
            assert trace[j].rho == pytest.approx(1.0 - 2.0 * ref["eps"], rel=1e-10)

    def test_guarantee_chain_across_temperatures(self):
        data = make_mixed_table(m=150, seed=3)
        for t in (0.0, 0.4, 0.8, 1.0):
            cfg = TemperConfig(t)
            ens, trace = boost(
                data, TreeWeakLearner(max_nodes=7), 8, cfg
            )
            z_product_pow = np.prod([r.z ** (2 - t) for r in trace])
            err = zero_one_error(ens.decision_scores(data), data.labels)
            assert err <= z_product_pow + 1e-9
            assert z_product_pow <= math.prod(kt_bound(r.rho, cfg) for r in trace) + 1e-9
            for record in trace:
                assert -1.0 <= record.rho <= 1.0
                if t < 1.0:
                    assert abs(record.mu) < 1.0 / (record.r_max * (1.0 - t))

    def test_convergence_with_enforced_edge(self):
        data = make_margin_blobs(m=200, margin=0.4, seed=42)
        cfg = TemperConfig(0.6)
        m = data.m
        scores = np.zeros(m)
        rounds = []
        hit = []  # the first round after which no training row is misclassified

        def on_round(record, weights):
            nonlocal scores
            scores = scores + record.alpha * record.hypothesis.predict(data)
            rounds.append(record)
            if not hit and zero_one_error(scores, data.labels) == 0.0:
                hit.append(len(rounds))

        limit = math.ceil(2 * cfg.t_star / 0.04 * math.log(m))
        ens, trace = boost(data, EnforcedEdgeLearner(0.2), limit, cfg, on_round=on_round)
        assert hit, "training error never reached zero"
        gamma = min(r.rho for r in trace[: hit[0]])
        assert gamma >= 0.2
        assert hit[0] <= math.ceil(2 * cfg.t_star / gamma**2 * math.log(m))

    @staticmethod
    def _saturate_after_one_round(second, t):
        """Boost for up to 5 rounds: round 1 has an edge, and from round 2 the
        learner returns ``second(y, weights)``, which saturates it."""
        y = np.array([1, 1, -1, -1])
        data = numeric_dataset(np.arange(8.0).reshape(4, 2), y)
        calls = []

        def learner(weights, data):
            calls.append(1)
            if len(calls) == 1:
                return constant(y * np.array([0.5, -0.5, 0.5, 0.5]))
            return constant(second(y, weights))

        ens, trace = boost(data, learner, 5, TemperConfig(t))
        assert len(trace) == 1
        assert len(ens.members) == 1

    def test_saturation_returns_partial_ensemble(self):
        # |rho| = 1 needs margins aligned with q^(1-t), not mere correctness
        self._saturate_after_one_round(lambda y, w: y * w.q ** (1.0 - w.cfg.t), 0.5)

    def test_saturation_classic_perfect_hypothesis(self):
        self._saturate_after_one_round(lambda y, w: y.astype(float), 1.0)  # perfect at t=1

    def test_rejects_single_class_labels(self):
        data = make_mixed_table(m=30, seed=0)
        one_class = Dataset(data.columns, np.ones(data.m, dtype=np.int64))
        with pytest.raises(SingleClassError) as raised:
            boost(one_class, TreeWeakLearner(3), 3, TemperConfig(0.5))
        assert isinstance(raised.value, ValueError)

    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 1.5])
    def test_a_weak_learner_that_predicts_a_nan_or_too_few_values_is_named(self, t):
        data = make_mixed_table(m=60)
        good = np.where(data.labels > 0, 1.0, -0.5)
        for bad in (np.where(np.arange(data.m) == 3, np.nan, good), good[:-1]):
            with pytest.raises(ValueError, match="^a weak learner must predict 60 finite") as raised:
                boost(data, lambda weights, data: constant(bad), 3, TemperConfig(t))
            assert not isinstance(raised.value, TempBoostError)  # a programming error

    def test_memory_does_not_grow_with_the_rounds(self):
        # every round's record is an ensemble member, and none may keep an
        # array of the training rows: 35 more rounds add less than 4 m floats
        data = make_mixed_table(m=3000, seed=2)
        data.root_runs  # the Dataset's tables, built once for every tree on it
        peaks = []
        for rounds in (5, 40):
            tracemalloc.start()
            try:
                _, trace = boost(data, TreeWeakLearner(3), rounds, TemperConfig(0.5))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert len(trace) == rounds
        assert peaks[1] - peaks[0] <= 4 * data.m * 8


class TestRunningTrainingScores:
    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 1.5])
    def test_record_errors_equal_refolded_prefixes(self, t):
        data = make_mixed_table(m=120, seed=6)
        learner = TreeWeakLearner(max_nodes=5)
        self._check_prefixes(data, learner, TemperConfig(t), 6)

    def test_clamped_error_while_the_clamp_bites(self):
        # two examples are misclassified with margins near -2 for five
        # rounds, so at t=0 their scores pass -delta = -1; then margins near
        # +4 pull the clamped scores back above 0 before the plain ones
        data = make_mixed_table(m=60, seed=6)
        base = data.labels * np.linspace(0.2, 1.0, data.m)
        calls = []

        def learner(weights, data):
            calls.append(1)
            values = base.copy()
            values[:2] *= -10.0 if len(calls) <= 5 else 20.0
            return constant(values)

        trace = self._check_prefixes(data, learner, TemperConfig(0.0), 13)
        assert any(r.train_err_clamped != r.train_err for r in trace)

    @pytest.mark.parametrize("t", [0.5, 1.0, 1.5])
    def test_guarantee_is_checked_at_every_round(self, t, monkeypatch):
        # factors 1, 1e-12, 1e12, ...: only round 2's errors exceed the running product
        calls = []

        def factor(rho, cfg):
            calls.append(rho)
            return {1: 1.0, 2: 1e-12}.get(len(calls), 1e12)

        monkeypatch.setattr(booster, "kt_bound", factor)
        data, learner = make_mixed_table(m=40, seed=1), TreeWeakLearner(max_nodes=3)
        if t > 1.0:
            boost(data, learner, 3, TemperConfig(t))
            assert calls == []
        else:
            with pytest.raises(BoundViolatedError, match="guarantee violated at round 2: "):
                boost(data, learner, 3, TemperConfig(t))

    def test_guarantee_covers_the_clamped_model(self, monkeypatch):
        monkeypatch.setattr(booster.ScoreFold, "errors", lambda self, labels: (0.0, 1.0))
        data, learner = make_mixed_table(m=40, seed=1), TreeWeakLearner(max_nodes=3)
        with pytest.raises(BoundViolatedError, match=r"at round 1: \(0\.0, 1\.0\) > "):
            boost(data, learner, 2, TemperConfig(0.5))

    @staticmethod
    def _check_prefixes(data, learner, cfg, rounds):
        """Each record's errors against those of the prefix ensembles."""
        ens, trace = boost(data, learner, rounds, cfg)
        assert len(trace) == len(ens.members) == rounds
        assert trace[0].train_err > 0.0
        for j, record in enumerate(trace, start=1):
            prefix = Ensemble(ens.members[:j], cfg)
            plain = zero_one_error(prefix.decision_scores(data), data.labels)
            assert record.train_err == plain
            if cfg.t < 1.0:
                clamped = prefix.decision_scores(data, clamped=True)
                assert record.train_err_clamped == zero_one_error(clamped, data.labels)
            else:
                assert math.isnan(record.train_err_clamped)
        return trace


class TestScoreFold:
    def test_the_clamp_can_flip_the_sign_both_ways(self):
        # delta = 2 at t=0.5: (-3, 2.5) folds to 0.5 clamped, -0.5 plain;
        # (3, -2.5) to -0.5 and 0.5
        fold = ScoreFold(2, TemperConfig(0.5))
        labels = np.array([1, -1])
        fold.add(np.array([-3.0, 3.0]))
        assert fold.errors(labels) == (1.0, 1.0)
        fold.add(np.array([2.5, -2.5]))
        np.testing.assert_array_equal(fold.scores, [-0.5, 0.5])
        np.testing.assert_array_equal(fold.clamped, [0.5, -0.5])
        assert fold.errors(labels) == (1.0, 0.0)

    def test_the_fold_clips_where_real_trees_leave_the_clamp(self):
        # fold 1 of the 3-fold make_wideband(seed=0) grid at t = 0.5: over 100
        # rounds the clip lowers 25 running test scores to +delta (none is
        # raised to -delta), yet neither error moves, so only a row-by-row
        # comparison can see a fault
        cfg = TemperConfig(0.5)
        spec = RunSpec(data_path="", folds=3, rounds=100)
        data = make_wideband(seed=0)
        _, train, test, _ = _take_fold(data, spec, 1, _folds(data, spec))
        ensemble, _ = boost(train, TreeWeakLearner(spec.tree_nodes), spec.rounds, cfg)
        clamped = ensemble.decision_scores(test, clamped=True)  # ScoreFold.clamped
        assert (clamped != ensemble.decision_scores(test)).any()
        by_row = np.array([m.alpha * m.hypothesis.predict(test) for m in ensemble.members]).T
        assert clamped.tolist() == [clamped_sum(row, cfg.clamp_delta) for row in by_row]

    @pytest.mark.parametrize("t", [1.0, 1.5, 1 - 1e-9, math.nextafter(1 - 1e-9, 1)])
    def test_no_clamped_model_from_t_one_up(self, t):
        # t counts as 1 from 1 - CLASSIC_TOLERANCE up; one ulp below, the clamp exists
        assert t >= 1.0 - CLASSIC_TOLERANCE
        assert ScoreFold(2, TemperConfig(math.nextafter(1 - 1e-9, 0))).clamped is not None
        fold = ScoreFold(2, TemperConfig(t))
        fold.add(np.array([-3.0, 3.0]))
        fold.add(np.array([2.5, -2.5]))
        assert fold.clamped is None
        plain, clamped = fold.errors(np.array([1, -1]))
        assert plain == 1.0 and math.isnan(clamped)


class TestWeightUnravel:
    def test_identity_over_short_run(self):
        data = make_mixed_table(m=40, seed=8)
        for t in (0.0, 0.5):
            cfg = TemperConfig(t)
            logged = []
            ens, trace = boost(
                data,
                TreeWeakLearner(max_nodes=5),
                6,
                cfg,
                on_round=lambda record, weights: logged.append(weights.q.copy()),
            )
            labels = data.labels.astype(float)
            margins = np.stack([labels * mm.hypothesis.predict(data) for mm in ens.members])
            vs = np.array([r.alpha for r in trace])
            z_prod = float(np.prod([r.z for r in trace]))
            delta = 1.0 / (1.0 - t)
            lhs = logged[-1] * data.m**cfg.t_star * z_prod
            rhs = np.array(
                [
                    exp_t(-clamped_sum(vs * margins[:, i], delta, "upper"), cfg)
                    for i in range(data.m)
                ]
            )
            np.testing.assert_allclose(lhs, rhs, rtol=1e-8, atol=1e-12)


class TestPrediction:
    def test_zero_one_error_counts_sign_mismatches_with_zero_positive(self):
        scores = np.array([0.0, -0.0, 1e-300, -1e-300, 2.0, -3.0, np.nan])
        for labels in (np.array([1, 1, -1, 1, 1, -1, -1]), np.array([-1, -1, 1, -1, -1, 1, 1])):
            signs = np.where(scores >= 0, 1, -1)
            assert zero_one_error(scores, labels) == np.mean(signs != labels)
            assert zero_one_error(scores, labels.astype(float)) == np.mean(signs != labels)

    def test_vectorized_matches_rowwise(self):
        data = make_mixed_table(m=50, seed=1)
        ens, _ = boost(
            data, TreeWeakLearner(max_nodes=5), 4, TemperConfig(0.5)
        )
        for clamped in (False, True):
            scores = ens.decision_scores(data, clamped=clamped)
            for i in range(0, data.m, 7):
                score, _ = predict(ens, row_of(data, i), clamped=clamped)
                assert score == pytest.approx(scores[i], rel=1e-12, abs=1e-12)


class TestTemperedExpLoss:
    def test_zero_margins_loss_one(self):
        for t in (0.0, 0.5, 1.0, 1.5):
            assert tempered_exp_loss(np.zeros(5), TemperConfig(t)) == 1.0

    def test_classic_exponential_loss(self):
        margins = np.array([0.5, -1.0, 2.0])
        expected = np.exp(-margins).mean()
        assert tempered_exp_loss(margins, TemperConfig(1.0)) == pytest.approx(expected)

    def test_upper_bounds_zero_one_risk(self):
        rng = np.random.default_rng(13)
        for t in (0.0, 0.5, 1.0, 1.5, 1.9):
            cfg = TemperConfig(t)
            for _ in range(20):
                margins = rng.uniform(-2, 2, 30)
                risk = float(np.mean(margins <= 0))
                assert tempered_exp_loss(margins, cfg) >= risk - 1e-12
