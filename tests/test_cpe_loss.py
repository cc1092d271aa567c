"""Tempered CPE losses: partial losses, risks, properness, coverage."""

import math

import numpy as np
import pytest

from oracles import reference_bayes_risk
from paper_math import CPETemperature, bayes_risk_coverage, check_strict_properness
from paper_math import partial_loss_pos, pointwise_risk, scalar_bayes_risk
from tempboost.talgebra import bayes_risk

T_SPAN = [-5.0, -1.0, 0.0, 0.5, 1.0, 1.5, 1.9]
NEG_INF = CPETemperature(-math.inf)


class TestPartialLosses:
    def test_half_point_is_one_for_every_t(self):
        for t in T_SPAN:
            assert partial_loss_pos(0.5, CPETemperature(t)) == pytest.approx(1.0, rel=1e-12)
        assert partial_loss_pos(0.5, NEG_INF) == 2.0  # the step loss doubles there

    def test_half_point_mirror_and_bayes_diagonal(self):
        cfg = CPETemperature(0.5)
        assert partial_loss_pos(0.5, cfg) == pytest.approx(1.0)
        assert scalar_bayes_risk(0.4, 1 - 0.4, cfg) == pytest.approx(pointwise_risk(0.4, 0.4, cfg))

    def test_t_zero_square_form(self):
        # (2 (1-u))^2
        assert partial_loss_pos(0.75, CPETemperature(0.0)) == pytest.approx(0.25, rel=1e-12)

    def test_classic_matusita_partial(self):
        # (1-u)/sqrt(u(1-u)) at u=0.9 is exactly 1/3
        assert partial_loss_pos(0.9, CPETemperature(1.0)) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_step_loss_at_minus_infinity(self):
        cfg = NEG_INF
        u = np.linspace(0, 1, 101)
        np.testing.assert_array_equal(
            partial_loss_pos(u, cfg), 2.0 * (u <= 0.5)
        )

    def test_vanishes_at_one_and_nonincreasing(self):
        for t in T_SPAN:
            cfg = CPETemperature(t)
            assert partial_loss_pos(1.0, cfg) == 0.0
            u = np.linspace(0.001, 0.999, 300)
            values = partial_loss_pos(u, cfg)
            assert np.all(np.diff(values) <= 1e-12)

    def test_diverges_at_zero_for_t_at_least_one(self):
        for t in (1.0, 1.5, 1.9):
            assert partial_loss_pos(0.0, CPETemperature(t)) == math.inf
        # finite below one: 2^((2-t)/(1-t))
        assert partial_loss_pos(0.0, CPETemperature(0.0)) == pytest.approx(4.0)

    def test_numeric_differentiability_inside(self):
        h = 1e-6
        u = np.linspace(0.05, 0.95, 19)
        for t in (-4.5, -1.0, 0.0, 0.5, 1.0, 1.5, 1.9):
            cfg = CPETemperature(t)
            derivative = (partial_loss_pos(u + h, cfg) - partial_loss_pos(u - h, cfg)) / (2 * h)
            assert np.all(np.isfinite(derivative))

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            partial_loss_pos(-0.01, CPETemperature(0.5))
        with pytest.raises(ValueError):
            partial_loss_pos(1.01, CPETemperature(0.5))


class TestPointwiseRisk:
    def test_perfect_confident_guess_costs_nothing(self):
        for t in T_SPAN:
            assert pointwise_risk(1.0, 1.0, CPETemperature(t)) == 0.0

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(0)
        for t in T_SPAN:
            cfg = CPETemperature(t)
            for _ in range(20):
                u, v = rng.uniform(0, 1, 2)
                assert pointwise_risk(u, v, cfg) == pytest.approx(
                    pointwise_risk(1 - u, 1 - v, cfg), rel=1e-12
                )

    def test_grid_minimum_at_truth(self):
        cfg = CPETemperature(0.5)
        u = np.arange(1, 10_000) / 10_000.0
        risks = pointwise_risk(u, 0.3, cfg)
        best = u[np.argmin(risks)]
        assert abs(best - 0.3) <= 1e-4

    def test_endpoint_products_resolve_to_zero(self):
        # v=0 meets the divergent l_pos(0): no mass means no charge
        assert pointwise_risk(0.0, 0.0, CPETemperature(1.5)) == 0.0


class TestBayesRisk:
    def test_zero_at_certainty(self):
        for t in T_SPAN + [-math.inf]:
            cfg = CPETemperature(t)
            assert scalar_bayes_risk(0.0, 1.0, cfg) == 0.0
            assert scalar_bayes_risk(1.0, 0.0, cfg) == 0.0

    def test_gini_at_t_zero(self):
        cfg = CPETemperature(0.0)
        assert scalar_bayes_risk(0.5, 0.5, cfg) == pytest.approx(1.0, abs=1e-15)
        v = np.linspace(0, 1, 101)
        np.testing.assert_allclose(bayes_risk(v, 1 - v, cfg), 4 * v * (1 - v), rtol=0, atol=1e-12)

    def test_matusita_at_classic(self):
        cfg = CPETemperature(1.0)
        assert scalar_bayes_risk(0.2, 1 - 0.2, cfg) == pytest.approx(0.8, rel=1e-12)
        v = np.linspace(0, 1, 101)
        np.testing.assert_allclose(
            bayes_risk(v, 1 - v, cfg), 2 * np.sqrt(v * (1 - v)), rtol=0, atol=1e-12
        )

    def test_min_class_mass_at_minus_infinity(self):
        v = np.linspace(0, 1, 101)  # the limit, approached at a finite t
        risk = bayes_risk(v, 1 - v, CPETemperature(-1e7))
        np.testing.assert_allclose(risk, 2 * np.minimum(v, 1 - v), rtol=1e-6)

    def test_equals_risk_at_truth(self):
        rng = np.random.default_rng(1)
        for t in T_SPAN:
            cfg = CPETemperature(t)
            for v in rng.uniform(0.01, 0.99, 15):
                assert scalar_bayes_risk(v, 1 - v, cfg) == pytest.approx(
                    pointwise_risk(v, v, cfg), rel=1e-10
                )

    def test_concavity_midpoint(self):
        rng = np.random.default_rng(2)
        for t in T_SPAN + [-math.inf]:
            cfg = CPETemperature(t)
            for _ in range(50):
                a, b = rng.uniform(0, 1, 2)
                mid = scalar_bayes_risk((a + b) / 2, 1 - (a + b) / 2, cfg)
                ends = scalar_bayes_risk(a, 1 - a, cfg) + scalar_bayes_risk(b, 1 - b, cfg)
                assert mid >= ends / 2 - 1e-12

    def test_monotone_in_temperature(self):
        grid = [-8.0, -2.0, 0.0, 0.7, 1.0, 1.5, 1.9]
        for v in (0.1, 0.3, 0.5, 0.8):  # from the t = -inf limit 2 min(v, 1 - v)
            risks = [scalar_bayes_risk(v, 1 - v, CPETemperature(t)) for t in grid]
            values = [2 * min(v, 1 - v)] + risks
            assert all(x <= y + 1e-12 for x, y in zip(values, values[1:]))

    def test_mass_form_is_the_posterior_form_times_the_mass(self):
        # r L_t(P / r) at scales r = P + N where 2PN stays a normal double;
        # 1 - p cancels as p nears 1, so that form is checked at bounded
        # class ratios, and extreme ratios against the uncancelled (P/r, N/r)
        rng = np.random.default_rng(2306)
        pos, neg = rng.uniform(0.01, 1.0, (2, 500)) * 10.0 ** rng.integers(-150, 150, 500)
        p = pos / (pos + neg)
        far_pos, far_neg = rng.uniform(0.01, 1.0, (2, 500)) * 10.0 ** rng.integers(-75, 75, (2, 500))
        far_mass = far_pos + far_neg
        for t in T_SPAN + [-math.inf]:
            cfg = CPETemperature(t)
            np.testing.assert_allclose(
                bayes_risk(pos, neg, cfg), (pos + neg) * bayes_risk(p, 1 - p, cfg), rtol=1e-12
            )
            np.testing.assert_allclose(
                bayes_risk(far_pos, far_neg, cfg),
                far_mass * bayes_risk(far_pos / far_mass, far_neg / far_mass, cfg),
                rtol=1e-12,
            )
            assert scalar_bayes_risk(0.3, 0.1, cfg) == pytest.approx(
                0.4 * scalar_bayes_risk(0.75, 0.25, cfg), rel=1e-12
            )

    def test_a_zero_mass_risks_nothing(self):
        pos, neg = np.array([0.0, 0.0, 2.5, 1e-300]), np.array([0.0, 3.0, 0.0, 0.0])
        for t in T_SPAN + [-math.inf]:
            cfg = CPETemperature(t)
            assert np.array_equal(bayes_risk(pos, neg, cfg), np.zeros(4))
            assert scalar_bayes_risk(0.0, 0.7, cfg) == scalar_bayes_risk(0.7, 0.0, cfg) == 0.0

    def test_negative_or_nan_masses_are_rejected(self):
        bad = (([-0.1], [0.5]), ([0.5], [-1e-300]), ([math.nan], [0.5]))
        bad += (([0.5, 0.5], [0.2, math.nan]),)
        for pos, neg in bad:
            for t in (0.5, -math.inf):
                with pytest.raises(ValueError, match="nonnegative"):
                    bayes_risk(np.array(pos), np.array(neg), CPETemperature(t))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_posterior_above_one_neither_warns_nor_overflows(self):
        # at t > 1 the power mean's ratio 1/v overflows to inf, and inf**(1-t) = 0
        for v, t in ((np.array([5e-324, 0.5]), 1.1), (np.array([1e-310]), 1.5)):
            risk = bayes_risk(v, 1 - v, CPETemperature(t))
            assert np.all(np.isfinite(risk)) and np.all(risk >= 0)


def split_block(rng, runs: int) -> np.ndarray:
    """Class masses (2, 2 runs - 1) as a split search scores them: the prefix
    and the suffix sums over ``runs`` runs at every cut, then the total."""
    mass = rng.random((2, runs)) * (rng.random((2, runs)) < 0.5)  # runs missing a class, or both
    mass[rng.random((2, runs)) < 0.1] = 5e-324  # a subnormal mass, and its sums
    mass[:, 0] = 0.0  # the first cut's prefix side is empty: a both-zero pair
    mass[:, -1] = 5e-324, 0.0  # the last cut's suffix side holds one subnormal mass
    prefix = np.cumsum(mass[:, :-1], axis=1)
    suffix = np.cumsum(mass[:, :0:-1], axis=1)[:, ::-1]
    return np.concatenate([prefix, suffix, mass.sum(axis=1, keepdims=True)], axis=1)


# t = -inf runs the kernel at q = +inf, whose mean is the max: 2 pos neg / max(pos, neg)
@pytest.mark.parametrize(
    "t", (-math.inf, 0.0, 0.6, 0.99, 0.995, 1 - 5e-10, 1.0, 1 + 5e-10, 1.01, 1.1, 1.9)
)
@pytest.mark.parametrize("size", (1, 2, 17, 1000, 20_000))
def test_array_risk_is_bitwise_the_plain_expression(t, size):
    rng = np.random.default_rng(size)
    v = rng.random(size)
    v[rng.random(size) < 0.2] = 0.0  # the empty and pure sides a split block holds
    v[rng.random(size) < 0.1] = 1.0
    v[rng.random(size) < 0.05] = 1e-300
    pos, neg = split_block(rng, size)  # off the line pos + neg = 1, as every split block is
    for pos, neg in ((v, 1 - v), (pos, neg)):
        kept = pos.copy(), neg.copy()
        got = bayes_risk(pos, neg, CPETemperature(t))
        assert np.array_equal(got, reference_bayes_risk(*kept, t))
        assert not np.signbit(got).any()
        assert np.array_equal(pos, kept[0]) and np.array_equal(neg, kept[1])  # never written to
        assert scalar_bayes_risk(pos[0], neg[0], CPETemperature(t)) == got[0]


class TestProperness:
    def test_strict_for_classic_matusita(self):
        report = check_strict_properness(CPETemperature(1.0))
        assert report.passed and report.strict

    def test_strict_above_one(self):
        report = check_strict_properness(CPETemperature(1.5))
        assert report.passed

    def test_proper_only_at_minus_infinity(self):
        report = check_strict_properness(NEG_INF)
        assert report.passed and not report.strict
        # below 1/2 every guess u <= 1/2 attains the minimum: not strict
        cfg = NEG_INF
        u = np.array([0.1, 0.2, 0.3, 0.45])
        risks = pointwise_risk(u, 0.3, cfg)
        assert np.allclose(risks, risks[0])

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            check_strict_properness(CPETemperature(0.5), v_grid=np.array([0.0, 0.5]))


class TestCoverage:
    def test_lower_endpoint_maps_to_minus_infinity(self):
        u = 0.3
        assert bayes_risk_coverage(u, 2 * min(u, 1 - u)) == -math.inf

    def test_gini_value_maps_to_zero(self):
        assert bayes_risk_coverage(0.3, 4 * 0.3 * 0.7) == pytest.approx(0.0, abs=1e-6)

    def test_matusita_value_maps_to_one(self):
        assert bayes_risk_coverage(0.3, 2 * math.sqrt(0.21)) == pytest.approx(1.0, abs=1e-6)

    def test_upper_endpoint_maps_to_two(self):
        assert bayes_risk_coverage(0.3, 1.0) == 2.0

    def test_round_trip_through_bayes_risk(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            u = float(rng.uniform(0.05, 0.95))
            target = float(rng.uniform(2 * min(u, 1 - u) + 1e-6, 1.0 - 1e-6))
            t = bayes_risk_coverage(u, target)
            assert scalar_bayes_risk(u, 1 - u, CPETemperature(t)) == pytest.approx(target, abs=1e-8)

    def test_rejects_unattainable_targets(self):
        with pytest.raises(ValueError):
            bayes_risk_coverage(0.3, 0.5)  # below 2 min(u, 1-u) = 0.6
        with pytest.raises(ValueError):
            bayes_risk_coverage(0.3, 1.1)
        with pytest.raises(ValueError):
            bayes_risk_coverage(0.0, 0.5)

