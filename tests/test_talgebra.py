"""Deformed-arithmetic kernel: identities, limits, the power mean."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import reference_power_mean
from paper_math import exp_t
from tempboost.talgebra import CLASSIC_TOLERANCE, TemperConfig, _ordered_power_mean, log_t
from tempboost.talgebra import power_mean

T_GRID = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.5, 1.9]

finite_t = st.sampled_from(T_GRID)


def deformed_log(z: float, cfg: TemperConfig) -> float:
    """log_t, and ln at t = 1, where ``leveraging`` does not call log_t."""
    return math.log(z) if cfg.is_classic() else log_t(z, cfg)


class TestTemperConfig:
    def test_rejects_t_of_two_and_beyond(self):
        for t in (2.0, 2.5):
            with pytest.raises(ValueError, match=r"\[0, 2\)"):
                TemperConfig(t)

    def test_rejects_negative_and_nan_temperatures(self):
        for t in (-1e-300, -3.0, -math.inf, math.nan):
            with pytest.raises(ValueError, match=r"\[0, 2\)"):
                TemperConfig(t)
        assert math.copysign(1.0, TemperConfig(-0.0).t) == 1.0  # in range, and stored as 0.0

    def test_conjugate_exponent(self):
        for t in T_GRID:
            assert TemperConfig(t).t_star == pytest.approx(1.0 / (2.0 - t), rel=0, abs=0)

    def test_classic_dispatch_threshold(self):
        assert TemperConfig(1.0).is_classic()
        assert TemperConfig(1.0 + 0.5 * CLASSIC_TOLERANCE).is_classic()
        assert not TemperConfig(1.0 + 10 * CLASSIC_TOLERANCE).is_classic()
        # stored as 1 within the tolerance, so that every layer agrees; kept past it
        for t in (1 - 9e-10, 1 - 5e-10, 1 + 5e-10, 1 + 9e-10, 1 - 1.1e-9, 1 + 1.1e-9):
            assert TemperConfig(t).t == (1.0 if abs(t - 1) < CLASSIC_TOLERANCE else t)


class TestLogExp:
    def test_log_of_one_is_zero_for_every_t(self):
        for t in T_GRID:
            assert deformed_log(1.0, TemperConfig(t)) == pytest.approx(0.0, abs=1e-15)

    def test_log_at_t_zero_is_z_minus_one(self):
        assert log_t(3.0, TemperConfig(0.0)) == pytest.approx(2.0, rel=1e-12)

    def test_classic_limit_log(self):
        # log_t(e) = 1 + (1 - t)/2 + O((1 - t)^2) on either side of t = 1
        for om in (1e-3, -1e-3, 1e-6, -1e-6):
            value = log_t(math.e, TemperConfig(1.0 - om))
            assert value == pytest.approx(1.0 + om / 2, rel=om**2)

    def test_log_domain_error(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                log_t(bad, TemperConfig(0.5))

    def test_exp_of_zero_is_one_for_every_t(self):
        for t in T_GRID:
            assert exp_t(0.0, TemperConfig(t)) == 1.0

    def test_exp_clamps_at_zero_below_the_branch(self):
        assert exp_t(-2.0, TemperConfig(0.0)) == 0.0

    def test_exp_infinite_sentinel_above_one(self):
        cfg = TemperConfig(1.5)
        assert exp_t(3.0, cfg) == math.inf  # 1 + (1-t) z = -0.5
        assert math.isfinite(exp_t(0.5, cfg))

    def test_round_trip_grid(self):
        # Full spec range: log_t stores -1/(1-t) + z^(1-t)/(1-t) in one
        # float, so recovering z at the edges is conditioned at ~1e-10.
        grids = ((np.geomspace(1e-6, 1e6, 121), 1e-10), (np.geomspace(1e-4, 1e4, 241), 1e-12))
        for zs, rtol in grids:
            for t in list(np.arange(0.0, 2.0, 0.2)) + [1.9]:
                cfg = TemperConfig(round(float(t), 10))
                back = exp_t(np.array([deformed_log(z, cfg) for z in zs]), cfg)
                np.testing.assert_allclose(back, zs, rtol=rtol)

    def test_truncated_round_trip(self):
        for t in (0.0, 0.5, 0.9):
            cfg = TemperConfig(t)
            cap = -1.0 / (1.0 - t)
            for z in (cap + 0.1, -0.9, 0.3, 4.0):
                value = exp_t(z, cfg)
                if value > 0:
                    assert log_t(value, cfg) == pytest.approx(
                        max(cap, z), rel=1e-12, abs=1e-12
                    )
                else:
                    assert z <= cap
            # at and below the truncation point the forward map is exactly 0
            assert exp_t(cap, cfg) == 0.0
            assert exp_t(cap - 1.0, cfg) == 0.0
        for t in (1.3, 1.8):
            cfg = TemperConfig(t)
            cap = 1.0 / (t - 1.0)
            for z in (-4.0, 0.0, cap - 0.25):
                assert log_t(exp_t(z, cfg), cfg) == pytest.approx(
                    min(cap, z), rel=1e-12, abs=1e-12
                )

    @given(z=st.floats(-30, 30), t=finite_t)
    @settings(max_examples=200)
    def test_exp_monotone(self, z, t):
        cfg = TemperConfig(t)
        assert exp_t(z + 0.5, cfg) >= exp_t(z, cfg)

    @given(z=st.floats(1e-3, 1e3), t=finite_t)
    @settings(max_examples=200)
    def test_log_increasing(self, z, t):
        cfg = TemperConfig(t)
        assert deformed_log(z * 1.5, cfg) > deformed_log(z, cfg)

    def test_near_one_temperature_cancellation(self):
        # just outside the classic window the series forms must stay accurate
        cfg = TemperConfig(1.0 + 1e-7)
        assert log_t(5.0, cfg) == pytest.approx(math.log(5.0), rel=1e-6)
        assert exp_t(2.0, cfg) == pytest.approx(math.exp(2.0), rel=1e-6)


class TestPowerMean:
    def test_equal_arguments(self):
        for q in (-1001.0, -2.0, 0.0, 1.0, 3.0, 1001.0):
            assert power_mean(0.8, 0.8, q) == 0.8

    def test_geometric_limit(self):
        assert power_mean(1.0, 4.0, 0.0) == pytest.approx(2.0)

    def test_arithmetic_symmetry(self):
        for z in (0.0, 0.3, 0.99):
            assert power_mean(1 - z, 1 + z, 1.0) == pytest.approx(1.0)

    def test_extreme_exponents(self):
        # toward the max and the min: M_q = 2^(-1/q) max (min) once r^q underflows
        for q, limit in ((1e4, 5.0), (-1e4, 0.2)):
            assert power_mean(0.2, 5.0, q) == pytest.approx(2.0 ** (-1.0 / q) * limit, rel=1e-15)

    def test_zero_with_negative_exponent(self):
        # M_q(a, b) -> 2^(-1/q) a as a -> 0 at q < 0; a zero operand itself is refused
        assert power_mean(1e-300, 3.0, -1.5) == pytest.approx(2.0 ** (2 / 3) * 1e-300, rel=1e-15)
        with pytest.raises(ValueError, match="positive"):
            power_mean(0.0, 3.0, -1.5)

    def test_large_exponent_stability(self):
        value = power_mean(0.3, 0.7, 1001.0)
        assert 0.69 < value < 0.7000001

    @given(
        a=st.floats(1e-3, 10.0),
        b=st.floats(1e-3, 10.0),
        q1=st.floats(-5, 5).filter(lambda q: q == 0 or abs(q) > 1e-9),
        q2=st.floats(-5, 5).filter(lambda q: q == 0 or abs(q) > 1e-9),
    )
    @example(a=5.0, b=7.0, q1=0.0, q2=5.960464477539063e-08)
    @settings(max_examples=300)
    def test_monotone_in_exponent(self, a, b, q1, q2):
        lo, hi = sorted((q1, q2))
        assert power_mean(a, b, lo) <= power_mean(a, b, hi) * (1 + 1e-12) + 1e-15

    def test_rejects_negative_operands(self):
        # and zero and nan ones, at each of the kernel's branches
        for a, b in ((-0.1, 1.0), (1.0, -1e-300), (0.0, 0.2), (1.0, math.nan), (math.nan, 1.0)):
            for q in (2.0, -1.5, 1e-3, -1e-3, 0.0):
                with pytest.raises(ValueError, match="positive"):
                    power_mean(a, b, q)

    @pytest.mark.parametrize("t", (-math.inf, 0.0, 0.6, 0.995, 1.0, 1.1, 1.9))
    @pytest.mark.parametrize("size", (1, 2, 17, 1000, 20_000))
    def test_arrays_are_bitwise_the_plain_expression(self, t, size):
        rng = np.random.default_rng(size)
        a, b = 3.0 * rng.random(size), rng.random(size)
        a[rng.random(size) < 0.1] = 0.0
        b[rng.random(size) < 0.1] = 0.0  # some pairs are both 0
        a[rng.random(size) < 0.05] = 5e-324  # subnormal operands, against 0 and normal ones
        b[rng.random(size) < 0.05] = 1e-310
        # the kernel that bayes_risk runs in place; its 0/0 at a pair of
        # zeros is left to bayes_risk's numerator
        some = (a > 0) | (b > 0)
        for q in (1.0 - t, t - 1.0):  # t = -inf gives q = +inf and -inf
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                got = _ordered_power_mean(np.minimum(a, b), np.maximum(a, b), q)
            assert np.array_equal(got[some], reference_power_mean(a, b, q)[some])
