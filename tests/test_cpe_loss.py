"""Tempered CPE losses: partial losses, risks, properness, coverage."""

import math

import numpy as np
import pytest

from oracles import reference_bayes_risk
from tempboost.cpe_loss import (
    bayes_risk,
    bayes_risk_coverage,
    check_strict_properness,
    partial_loss_neg,
    partial_loss_pos,
    pointwise_risk,
)
from tempboost.talgebra import TemperConfig

T_SPAN = [-5.0, -1.0, 0.0, 0.5, 1.0, 1.5, 1.9]
NEG_INF = TemperConfig(-math.inf)


class TestPartialLosses:
    def test_half_point_is_one_for_every_t(self):
        for t in T_SPAN:
            assert partial_loss_pos(0.5, TemperConfig(t)) == pytest.approx(1.0, rel=1e-12)
        assert partial_loss_pos(0.5, NEG_INF) == 2.0  # the step loss doubles there

    def test_half_point_mirror_and_bayes_diagonal(self):
        cfg = TemperConfig(0.5)
        assert partial_loss_pos(0.5, cfg) == pytest.approx(1.0)
        assert partial_loss_neg(0.25, cfg) == pytest.approx(partial_loss_pos(0.75, cfg))
        assert bayes_risk(0.4, cfg) == pytest.approx(pointwise_risk(0.4, 0.4, cfg))

    def test_t_zero_square_form(self):
        # (2 (1-u))^2
        assert partial_loss_pos(0.75, TemperConfig(0.0)) == pytest.approx(0.25, rel=1e-12)

    def test_classic_matusita_partial(self):
        # (1-u)/sqrt(u(1-u)) at u=0.9 is exactly 1/3
        assert partial_loss_pos(0.9, TemperConfig(1.0)) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_step_loss_at_minus_infinity(self):
        cfg = NEG_INF
        u = np.linspace(0, 1, 101)
        np.testing.assert_array_equal(
            partial_loss_pos(u, cfg), 2.0 * (u <= 0.5)
        )

    def test_vanishes_at_one_and_nonincreasing(self):
        for t in T_SPAN:
            cfg = TemperConfig(t)
            assert partial_loss_pos(1.0, cfg) == 0.0
            u = np.linspace(0.001, 0.999, 300)
            values = partial_loss_pos(u, cfg)
            assert np.all(np.diff(values) <= 1e-12)

    def test_symmetry(self):
        u = np.linspace(0.0, 1.0, 41)
        for t in T_SPAN + [-math.inf]:
            cfg = TemperConfig(t)
            np.testing.assert_allclose(
                partial_loss_neg(u, cfg), partial_loss_pos(1.0 - u, cfg), rtol=1e-12
            )

    def test_diverges_at_zero_for_t_at_least_one(self):
        for t in (1.0, 1.5, 1.9):
            assert partial_loss_pos(0.0, TemperConfig(t)) == math.inf
        # finite below one: 2^((2-t)/(1-t))
        assert partial_loss_pos(0.0, TemperConfig(0.0)) == pytest.approx(4.0)

    def test_numeric_differentiability_inside(self):
        h = 1e-6
        u = np.linspace(0.05, 0.95, 19)
        for t in (-4.5, -1.0, 0.0, 0.5, 1.0, 1.5, 1.9):
            cfg = TemperConfig(t)
            derivative = (partial_loss_pos(u + h, cfg) - partial_loss_pos(u - h, cfg)) / (2 * h)
            assert np.all(np.isfinite(derivative))

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            partial_loss_pos(-0.01, TemperConfig(0.5))
        with pytest.raises(ValueError):
            partial_loss_pos(1.01, TemperConfig(0.5))


class TestPointwiseRisk:
    def test_perfect_confident_guess_costs_nothing(self):
        for t in T_SPAN:
            assert pointwise_risk(1.0, 1.0, TemperConfig(t)) == 0.0

    def test_mirror_symmetry(self):
        rng = np.random.default_rng(0)
        for t in T_SPAN:
            cfg = TemperConfig(t)
            for _ in range(20):
                u, v = rng.uniform(0, 1, 2)
                assert pointwise_risk(u, v, cfg) == pytest.approx(
                    pointwise_risk(1 - u, 1 - v, cfg), rel=1e-12
                )

    def test_grid_minimum_at_truth(self):
        cfg = TemperConfig(0.5)
        u = np.arange(1, 10_000) / 10_000.0
        risks = pointwise_risk(u, 0.3, cfg)
        best = u[np.argmin(risks)]
        assert abs(best - 0.3) <= 1e-4

    def test_endpoint_products_resolve_to_zero(self):
        # v=0 meets the divergent l_pos(0): no mass means no charge
        assert pointwise_risk(0.0, 0.0, TemperConfig(1.5)) == 0.0


class TestBayesRisk:
    def test_zero_at_certainty(self):
        for t in T_SPAN + [-math.inf]:
            cfg = TemperConfig(t)
            assert bayes_risk(0.0, cfg) == 0.0
            assert bayes_risk(1.0, cfg) == 0.0

    def test_gini_at_t_zero(self):
        cfg = TemperConfig(0.0)
        assert bayes_risk(0.5, cfg) == pytest.approx(1.0, abs=1e-15)
        v = np.linspace(0, 1, 101)
        np.testing.assert_allclose(bayes_risk(v, cfg), 4 * v * (1 - v), rtol=0, atol=1e-12)

    def test_matusita_at_classic(self):
        cfg = TemperConfig(1.0)
        assert bayes_risk(0.2, cfg) == pytest.approx(0.8, rel=1e-12)
        v = np.linspace(0, 1, 101)
        np.testing.assert_allclose(
            bayes_risk(v, cfg), 2 * np.sqrt(v * (1 - v)), rtol=0, atol=1e-12
        )

    def test_min_class_mass_at_minus_infinity(self):
        v = np.linspace(0, 1, 101)
        np.testing.assert_allclose(bayes_risk(v, NEG_INF), 2 * np.minimum(v, 1 - v))

    def test_equals_risk_at_truth(self):
        rng = np.random.default_rng(1)
        for t in T_SPAN:
            cfg = TemperConfig(t)
            for v in rng.uniform(0.01, 0.99, 15):
                assert bayes_risk(v, cfg) == pytest.approx(
                    pointwise_risk(v, v, cfg), rel=1e-10
                )

    def test_concavity_midpoint(self):
        rng = np.random.default_rng(2)
        for t in T_SPAN + [-math.inf]:
            cfg = TemperConfig(t)
            for _ in range(50):
                a, b = rng.uniform(0, 1, 2)
                mid = bayes_risk((a + b) / 2, cfg)
                assert mid >= (bayes_risk(a, cfg) + bayes_risk(b, cfg)) / 2 - 1e-12

    def test_monotone_in_temperature(self):
        grid = [-math.inf, -8.0, -2.0, 0.0, 0.7, 1.0, 1.5, 1.9]
        for v in (0.1, 0.3, 0.5, 0.8):
            values = [bayes_risk(v, TemperConfig(t)) for t in grid]
            assert all(x <= y + 1e-12 for x, y in zip(values, values[1:]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_subnormal_posterior_above_one_neither_warns_nor_overflows(self):
        # at t > 1 the power mean's ratio 1/v overflows to inf, and inf**(1-t) = 0
        for v, t in ((np.array([5e-324, 0.5]), 1.1), (1e-310, 1.5)):
            risk = bayes_risk(v, TemperConfig(t))
            assert np.all(np.isfinite(risk)) and np.all(risk >= 0)


@pytest.mark.parametrize("t", (-math.inf, 0.0, 0.6, 0.995, 1.0, 1.1, 1.9))
@pytest.mark.parametrize("size", (1, 2, 17, 1000, 20_000))
def test_array_risk_is_bitwise_the_plain_expression(t, size):
    rng = np.random.default_rng(size)
    v = rng.random(size)
    v[rng.random(size) < 0.2] = 0.0  # the empty and pure sides a split block holds
    v[rng.random(size) < 0.1] = 1.0
    v[rng.random(size) < 0.05] = 1e-300
    kept = v.copy()
    got = bayes_risk(v, TemperConfig(t))
    assert np.array_equal(got, reference_bayes_risk(kept, t))
    assert not np.signbit(got).any()
    assert np.array_equal(v, kept)  # the input is never written to
    assert bayes_risk(float(v[0]), TemperConfig(t)) == got[0]


class TestProperness:
    def test_strict_for_classic_matusita(self):
        report = check_strict_properness(TemperConfig(1.0))
        assert report.passed and report.strict

    def test_strict_above_one(self):
        report = check_strict_properness(TemperConfig(1.5))
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
            check_strict_properness(TemperConfig(0.5), v_grid=np.array([0.0, 0.5]))


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
            assert bayes_risk(u, TemperConfig(t)) == pytest.approx(target, abs=1e-8)

    def test_rejects_unattainable_targets(self):
        with pytest.raises(ValueError):
            bayes_risk_coverage(0.3, 0.5)  # below 2 min(u, 1-u) = 0.6
        with pytest.raises(ValueError):
            bayes_risk_coverage(0.3, 1.1)
        with pytest.raises(ValueError):
            bayes_risk_coverage(0.0, 0.5)

