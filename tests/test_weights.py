"""Co-simplex weights: construction, divergence, update, projection."""

import math

import numpy as np
import pytest

from oracles import brute_force_projection, grid_min_normalizer, reference_divergence
from paper_math import CollinearError, NoMixedSignsError, solve_projection
from tempboost.errors import AllZeroError, WeightOverflowError, ZeroWeightError
from tempboost.talgebra import TemperConfig
from tempboost.weights import TemWeights, co_density, tempered_update, uniform_init


def random_weights(rng, m, t, strictly_positive=True):
    raw = rng.uniform(0.2 if strictly_positive else 0.0, 1.0, m)
    if not strictly_positive and m > 2:
        raw[rng.integers(m)] = 0.0
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

    def test_dagger_set_derived(self):
        q = np.array([0.0, 1.0])
        w = TemWeights(q, TemperConfig(0.5))
        assert w.dagger.tolist() == [0]

    def test_vector_is_read_only(self):
        w = uniform_init(3, TemperConfig(0.5))
        with pytest.raises(ValueError):
            w.q[0] = 2.0
        with pytest.raises(ValueError):
            w.q_om[0] = 2.0
        with pytest.raises(ValueError):
            TemWeights(np.array([0.0, 1.0]), TemperConfig(0.5)).dagger[0] = 1

    @pytest.mark.parametrize("t", (0.0, 0.3, 0.5, 1.0, 1.1, 1.5))
    def test_q_om_is_the_power_computed_once(self, t):
        rng = np.random.default_rng(2306)
        for strictly_positive in (True, False):  # zero weights at t = 1.5: inf, no warning
            w = random_weights(rng, 50, t, strictly_positive)
            with np.errstate(divide="ignore"):
                want = w.q ** (1.0 - t)
            assert w.q_om.tobytes() == want.tobytes()
        assert w.q_om[w.dagger].tolist() == [0.0 if t < 1 else 1.0 if t == 1 else np.inf]


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
                w2, _ = tempered_update(w, u, float(rng.uniform(-1.5, 1.5)))
                assert abs((w2.q ** (2 - t)).sum() - 1.0) <= 1e-9

    def test_switch_off_and_dagger_tracking(self):
        # drive the first component to the clamp: bracket <= 0
        cfg = TemperConfig(0.5)
        w = uniform_init(2, cfg)
        u = np.array([1.0, -1.0])
        mu = 10.0  # q^(1-t) - (1-t) mu u goes negative for u=+1
        w2, _ = tempered_update(w, u, mu)
        assert w2.q[0] == 0.0
        assert w2.dagger.tolist() == [0]
        # a later update with opposite margin revives the weight
        w3, _ = tempered_update(w2, np.array([-1.0, 1.0]), 1.0)
        assert w3.q[0] > 0.0

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

    def test_zero_weight_rejected_at_classic(self):
        w = TemWeights(np.array([0.0, 1.0]), TemperConfig(1.0))
        with pytest.raises(ZeroWeightError) as raised:
            tempered_update(w, np.array([1.0, -1.0]), 0.1)
        assert isinstance(raised.value, ValueError)

    def test_overflow_above_one(self):
        cfg = TemperConfig(1.5)
        w = uniform_init(2, cfg)
        message = r"^1 weight\(s\) became infinite before normalization$"
        with pytest.raises(WeightOverflowError, match=message):
            tempered_update(w, np.array([-1.0, 1.0]), 50.0)

    def test_all_zero_error(self):
        cfg = TemperConfig(0.0)
        w = uniform_init(2, cfg)
        with pytest.raises(AllZeroError):
            tempered_update(w, np.array([1.0, 1.0]), 10.0)


class TestSolveProjection:
    def test_symmetric_margins_give_zero(self):
        w = uniform_init(4, TemperConfig(0.4))
        u = np.array([0.7, -0.7, 0.7, -0.7])
        mu, projected = solve_projection(w, u)
        assert mu == 0.0
        np.testing.assert_allclose(projected.q, w.q, rtol=1e-12)

    def test_two_point_closed_form_at_t_zero(self):
        a, b = 0.8, 0.6
        w = TemWeights(np.array([a, b]), TemperConfig(0.0))
        mu, projected = solve_projection(w, np.array([1.0, -1.0]))
        assert mu == pytest.approx((a - b) / 2, abs=1e-10)
        np.testing.assert_allclose(projected.q, [1 / math.sqrt(2)] * 2, rtol=1e-9)

    def test_constraint_satisfied(self):
        rng = np.random.default_rng(8)
        for t in (0.0, 0.3, 0.7, 1.0, 1.1):
            for _ in range(10):
                m = int(rng.integers(2, 12))
                w = random_weights(rng, m, t)
                u = mixed_margin(rng, m)
                _, projected = solve_projection(w, u)
                assert abs(np.dot(projected.q, u)) <= 1e-10

    def test_minimality_against_dense_normalizer_scan(self):
        rng = np.random.default_rng(9)
        for t in (0.0, 0.5, 1.0):
            w = random_weights(rng, 5, t)
            u = mixed_margin(rng, 5)
            mu, projected = solve_projection(w, u)
            radius = max(2.0 * abs(mu), 1.0)
            _, z_grid = grid_min_normalizer(w.q, u, t, radius, n=100_000)
            _, z_solver = tempered_update(w, u, mu)
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
            np.testing.assert_array_equal(bracket <= 0, projected.q == 0.0)

    def test_composition_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for m, t in ((2, 0.5), (3, 0.3), (4, 1.0)):
            w = random_weights(rng, m, t)
            u = mixed_margin(rng, m)
            _, projected = solve_projection(w, u)
            solver_div = reference_divergence(projected.q, w.q, t)
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
