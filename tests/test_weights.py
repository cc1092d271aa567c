"""Co-simplex weights: construction, divergence, update, projection."""

import math

import numpy as np
import pytest

from oracles import brute_force_projection, grid_min_normalizer, reference_divergence
from paper_math import CollinearError, NoMixedSignsError, clamped_update, solve_projection
from tempboost.errors import WeightOverflowError, WeightUnderflowError
from tempboost.talgebra import TemperConfig
from tempboost.weights import TemWeights, co_density, tempered_update, uniform_init


def random_weights(rng, m, t):
    raw = rng.uniform(0.2, 1.0, m)
    q = raw / (raw ** (2 - t)).sum() ** (1.0 / (2 - t))
    return TemWeights(q, TemperConfig(t))


def mixed_margin(rng, m):
    u = rng.uniform(-1, 1, m)
    u[0] = abs(u[0]) + 0.1
    u[1] = -abs(u[1]) - 0.1
    return u / np.abs(u).max()


class TestTemWeights:
    def test_uniform_init_classic_is_probability_vector(self):
        w = uniform_init(4, TemperConfig(1.0))
        np.testing.assert_allclose(w.q, 0.25)

    def test_uniform_init_t_zero(self):
        w = uniform_init(4, TemperConfig(0.0))
        np.testing.assert_allclose(w.q, 0.5)
        assert (w.q**2).sum() == pytest.approx(1.0, abs=1e-15)

    def test_uniform_init_single_example(self):
        for t in (0.0, 0.7, 1.0, 1.3):
            np.testing.assert_allclose(uniform_init(1, TemperConfig(t)).q, [1.0])

    def test_uniform_init_rejects_empty(self):
        with pytest.raises(ValueError):
            uniform_init(0, TemperConfig(0.5))

    def test_membership_validation(self):
        with pytest.raises(ValueError):
            TemWeights(np.array([0.9, 0.9]), TemperConfig(0.5))
        with pytest.raises(ValueError):
            TemWeights(np.array([-0.1, 1.0]), TemperConfig(0.5))
        for t in (0.0, 0.5, 1.5):  # every weight is positive, at every t
            with pytest.raises(ValueError, match="positive"):
                TemWeights(np.array([0.0, 1.0]), TemperConfig(t))

    def test_vector_is_read_only(self):
        w = uniform_init(3, TemperConfig(0.5))
        with pytest.raises(ValueError):
            w.q[0] = 2.0
        with pytest.raises(ValueError):
            w.q_om[0] = 2.0

    @pytest.mark.parametrize("t", (0.0, 0.3, 0.5, 1.0, 1.1, 1.5))
    def test_q_om_is_the_power_computed_once(self, t):
        w = random_weights(np.random.default_rng(2306), 50, t)
        assert w.q_om.tobytes() == (w.q ** (1.0 - t)).tobytes()


class TestCoDensity:
    def test_classic_identity(self):
        rng = np.random.default_rng(0)
        w = random_weights(rng, 5, 1.0)
        np.testing.assert_allclose(co_density(w), w.q)

    def test_squaring_at_t_zero(self):
        w = TemWeights(np.array([1.0, 1.0]) / math.sqrt(2), TemperConfig(0.0))
        np.testing.assert_allclose(co_density(w), [0.5, 0.5])

    def test_uniform_maps_to_uniform(self):
        for t in (0.0, 0.6, 1.0, 1.4):
            p = co_density(uniform_init(7, TemperConfig(t)))
            np.testing.assert_allclose(p, 1.0 / 7.0, rtol=1e-12)

    def test_read_only_and_exactly_the_power(self):
        rng = np.random.default_rng(3)
        for t in (0.0, 0.6, 1.0, 1.4):
            w = random_weights(rng, 9, t)
            p = co_density(w)
            assert np.array_equal(p, w.q ** (2.0 - t))
            assert co_density(w) is p  # computed once per weight vector
            with pytest.raises(ValueError):
                p[0] = 0.5


class TestTemperedRelativeEntropy:
    def test_identity_of_indiscernibles(self):
        rng = np.random.default_rng(1)
        for t in (0.0, 0.5, 1.0, 1.5):
            w = random_weights(rng, 6, t)
            assert reference_divergence(w.q, w.q, t) == pytest.approx(0.0, abs=1e-12)

    def test_classic_kl_example(self):
        assert reference_divergence([1.0, 0.0], [0.5, 0.5], 1.0) == pytest.approx(math.log(2))

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(2)
        for t in (0.0, 0.3, 0.8, 1.0, 1.2):
            for _ in range(50):
                a = random_weights(rng, 5, t)
                b = random_weights(rng, 5, t)
                assert reference_divergence(a.q, b.q, t) >= -1e-12


class TestTemperedUpdate:
    def test_zero_coefficient_is_noop(self):
        rng = np.random.default_rng(4)
        for t in (0.0, 0.5, 1.0, 1.3):
            w = random_weights(rng, 5, t)
            u = rng.uniform(-1, 1, 5)
            w2, z = tempered_update(w, u, 0.0)
            np.testing.assert_allclose(w2.q, w.q, rtol=1e-13)
            assert z == pytest.approx(1.0, abs=1e-13)

    def test_classic_is_exponential_update(self):
        rng = np.random.default_rng(5)
        w = random_weights(rng, 6, 1.0)
        u = rng.uniform(-1, 1, 6)
        w2, z = tempered_update(w, u, 0.7)
        expected_unnorm = w.q * np.exp(-0.7 * u)
        np.testing.assert_allclose(w2.q, expected_unnorm / expected_unnorm.sum(), rtol=1e-12)
        assert z == pytest.approx(expected_unnorm.sum(), rel=1e-12)

    def test_two_point_closed_form_at_t_zero(self):
        # q=(a,b) on the co-simplex, u=(1,-1), mu=(a-b)/2 equalizes both
        a, b = 0.8, 0.6
        w = TemWeights(np.array([a, b]), TemperConfig(0.0))
        w2, _ = tempered_update(w, np.array([1.0, -1.0]), (a - b) / 2)
        np.testing.assert_allclose(w2.q, [1 / math.sqrt(2)] * 2, rtol=1e-12)

    def test_cosimplex_preserved(self):
        rng = np.random.default_rng(6)
        for t in (0.0, 0.3, 0.9, 1.0, 1.1):
            for _ in range(40):
                m = int(rng.integers(2, 30))
                w = random_weights(rng, m, t)
                u = rng.uniform(-1, 1, m)
                radius = 1.5
                if t < 1:  # inside leveraging's bound |mu| < 1 / (R (1-t)), as in boost
                    radius = min(radius, 1.0 / (np.max(np.abs(u) / w.q_om) * (1.0 - t)))
                w2, _ = tempered_update(w, u, float(rng.uniform(-radius, radius)))
                assert abs((w2.q ** (2 - t)).sum() - 1.0) <= 1e-9

    def test_clamped_weight_is_a_typed_failure(self):
        # beyond leveraging's bound: q^(1-t) - (1-t) mu u <= 0 for u = +1,
        # where exp_t would clamp the weight to 0
        w = uniform_init(2, TemperConfig(0.5))
        message = r"^1 weight\(s\) became 0 before normalization$"
        with pytest.raises(WeightUnderflowError, match=message):
            tempered_update(w, np.array([1.0, -1.0]), 10.0)

    @pytest.mark.parametrize("t", (1.0, 0.99))
    def test_underflow_is_a_typed_failure(self, t):
        # at t = 1, exp(-800) is 0; at t = 0.99 a bracket of 1e-4 inside
        # leveraging's bound gives (1e-4)^100, which is 0 too
        w = uniform_init(2, TemperConfig(t))
        mu = 800.0 if t == 1.0 else (w.q_om[0] - 1e-4) / (1.0 - t)
        if t < 1:
            assert mu < 1.0 / (np.max(1.0 / w.q_om) * (1.0 - t))
        with pytest.raises(WeightUnderflowError, match=r"^1 weight\(s\) underflowed to 0$"):
            tempered_update(w, np.array([1.0, 0.0]), mu)

    def test_misclassified_never_lose_mass_before_normalization(self):
        rng = np.random.default_rng(7)
        for t in (0.0, 0.4, 0.8, 1.0):
            w = random_weights(rng, 8, t)
            u = rng.uniform(-1, 1, 8)
            mu = 0.5
            w2, z = tempered_update(w, u, mu)
            unnormalized = w2.q * z
            wrong = u < 0
            assert np.all(unnormalized[wrong] >= w.q[wrong] - 1e-12)

    def test_overflow_above_one(self):
        cfg = TemperConfig(1.5)
        w = uniform_init(2, cfg)
        message = r"^1 weight\(s\) became infinite before normalization$"
        with pytest.raises(WeightOverflowError, match=message):
            tempered_update(w, np.array([-1.0, 1.0]), 50.0)
        # a positive bracket of 1e-4 at t = 1.01 gives (1e-4)^-100, which overflows
        w = uniform_init(2, TemperConfig(1.01))
        with pytest.raises(WeightOverflowError, match=message):
            tempered_update(w, np.array([-1.0, 0.0]), (w.q_om[0] - 1e-4) / 0.01)

    def test_all_zero_error(self):
        # every bracket q^(1-t) - (1-t) mu u is negative: no weight is left
        w = uniform_init(2, TemperConfig(0.0))
        message = r"^2 weight\(s\) became 0 before normalization$"
        with pytest.raises(WeightUnderflowError, match=message):
            tempered_update(w, np.array([1.0, 1.0]), 10.0)

    def test_zero_weight_rejected_at_classic(self):
        # at t = 1 too no weight is 0: exp underflow is the only way there,
        # and tempered_update raises WeightUnderflowError on it
        with pytest.raises(ValueError, match="positive"):
            TemWeights(np.array([0.0, 1.0]), TemperConfig(1.0))


class TestSolveProjection:
    def test_symmetric_margins_give_zero(self):
        w = uniform_init(4, TemperConfig(0.4))
        u = np.array([0.7, -0.7, 0.7, -0.7])
        mu, projected = solve_projection(w, u)
        assert mu == 0.0
        np.testing.assert_allclose(projected, w.q, rtol=1e-12)

    def test_two_point_closed_form_at_t_zero(self):
        a, b = 0.8, 0.6
        w = TemWeights(np.array([a, b]), TemperConfig(0.0))
        mu, projected = solve_projection(w, np.array([1.0, -1.0]))
        assert mu == pytest.approx((a - b) / 2, abs=1e-10)
        np.testing.assert_allclose(projected, [1 / math.sqrt(2)] * 2, rtol=1e-9)

    def test_constraint_satisfied(self):
        rng = np.random.default_rng(8)
        for t in (0.0, 0.3, 0.7, 1.0, 1.1):
            for _ in range(10):
                m = int(rng.integers(2, 12))
                w = random_weights(rng, m, t)
                u = mixed_margin(rng, m)
                _, projected = solve_projection(w, u)
                assert abs(np.dot(projected, u)) <= 1e-10
                assert abs((projected ** (2 - t)).sum() - 1.0) <= 1e-9

    def test_minimality_against_dense_normalizer_scan(self):
        rng = np.random.default_rng(9)
        for t in (0.0, 0.5, 1.0):
            w = random_weights(rng, 5, t)
            u = mixed_margin(rng, 5)
            mu, projected = solve_projection(w, u)
            radius = max(2.0 * abs(mu), 1.0)
            _, z_grid = grid_min_normalizer(w.q, u, t, radius, n=100_000)
            _, z_solver = clamped_update(w, u, mu)
            assert z_solver <= z_grid + 1e-9

    def test_kkt_zero_characterization(self):
        # components with q^(1-t) - (1-t) mu u <= 0 are exactly the zeros
        rng = np.random.default_rng(10)
        t = 0.4
        for _ in range(20):
            m = int(rng.integers(2, 10))
            w = random_weights(rng, m, t)
            u = mixed_margin(rng, m)
            mu, projected = solve_projection(w, u)
            bracket = w.q ** (1 - t) - (1 - t) * mu * u
            np.testing.assert_array_equal(bracket <= 0, projected == 0.0)

    def test_composition_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for m, t in ((2, 0.5), (3, 0.3), (4, 1.0)):
            w = random_weights(rng, m, t)
            u = mixed_margin(rng, m)
            _, projected = solve_projection(w, u)
            solver_div = reference_divergence(projected, w.q, t)
            oracle_div, _ = brute_force_projection(w.q, u, t, grid=40)
            assert solver_div <= oracle_div + 1e-6

    def test_collinear_rejected_at_t_zero(self):
        q = np.array([0.8, 0.6])
        w = TemWeights(q, TemperConfig(0.0))
        with pytest.raises(CollinearError):
            solve_projection(w, 0.5 * q)

    def test_single_signed_margins_rejected(self):
        w = uniform_init(3, TemperConfig(0.5))
        with pytest.raises(NoMixedSignsError):
            solve_projection(w, np.array([1.0, 0.5, 0.2]))
