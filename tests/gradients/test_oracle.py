"""Tests for the Gaussian oracle estimator."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.gradients.momentum import MomentumEstimator
from repro.gradients.oracle import GaussianOracleEstimator, shared_gradient_fn


def quadratic_gradient(x):
    return 2.0 * x


class TestGaussianOracleEstimator:
    def test_zero_sigma_is_exact(self, rng):
        est = GaussianOracleEstimator(quadratic_gradient, 5, sigma=0.0)
        x = rng.standard_normal(5)
        np.testing.assert_array_equal(est.estimate(x, rng), 2.0 * x)

    def test_unbiased(self, rng):
        est = GaussianOracleEstimator(quadratic_gradient, 4, sigma=1.0)
        x = np.ones(4)
        samples = np.stack([est.estimate(x, rng) for _ in range(5000)])
        np.testing.assert_allclose(samples.mean(axis=0), 2.0 * x, atol=0.1)

    def test_variance_is_d_sigma_squared(self, rng):
        est = GaussianOracleEstimator(quadratic_gradient, 8, sigma=0.7)
        x = np.zeros(8)
        samples = np.stack([est.estimate(x, rng) for _ in range(5000)])
        total_var = np.mean(np.sum((samples - 2.0 * x) ** 2, axis=1))
        assert total_var == pytest.approx(8 * 0.7**2, rel=0.1)

    def test_expected_returns_true_gradient(self, rng):
        est = GaussianOracleEstimator(quadratic_gradient, 3, sigma=2.0)
        x = rng.standard_normal(3)
        np.testing.assert_array_equal(est.expected(x), 2.0 * x)

    def test_expected_returns_copy(self):
        est = GaussianOracleEstimator(quadratic_gradient, 2, sigma=0.0)
        x = np.ones(2)
        out = est.expected(x)
        out[:] = 99.0
        np.testing.assert_array_equal(est.expected(x), 2.0 * np.ones(2))

    def test_empirical_sigma(self, rng):
        est = GaussianOracleEstimator(quadratic_gradient, 12, sigma=0.4)
        measured = est.empirical_sigma(np.zeros(12), rng, num_samples=1500)
        assert measured == pytest.approx(0.4, rel=0.1)

    @pytest.mark.parametrize("rounds", [0, 1, 5])
    def test_noise_block_is_successive_draws(self, rounds):
        """A (k, d) block holds the k one-draw values and leaves the
        stream where those k calls do."""
        est = GaussianOracleEstimator(quadratic_gradient, 7, sigma=0.3)
        one, block = np.random.default_rng(4), np.random.default_rng(4)
        draws = [est.noise(one) for _ in range(rounds)]
        values = est.noise(block, rounds)
        assert values.shape == (rounds, 7)
        assert values.tobytes() == np.reshape(draws, (rounds, 7)).tobytes()
        assert one.bit_generator.state == block.bit_generator.state

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            GaussianOracleEstimator(quadratic_gradient, 0, sigma=1.0)
        with pytest.raises(ConfigurationError):
            GaussianOracleEstimator(quadratic_gradient, 3, sigma=-1.0)


class TestSharedGradientFn:
    def test_common_callable_is_shared(self):
        estimators = [
            GaussianOracleEstimator(quadratic_gradient, 3, sigma=s)
            for s in (0.0, 0.5)
        ]
        assert shared_gradient_fn(estimators) is quadratic_gradient

    def test_block_evaluation_is_declared_per_instance(self):
        # Off by default: only a gradient_fn known to map a block of rows
        # row by row (QuadraticBowl.as_estimator sets it) is called so.
        estimator = GaussianOracleEstimator(quadratic_gradient, 3, 0.5)
        assert not estimator.row_blocks
        estimator.row_blocks = True
        assert not GaussianOracleEstimator(quadratic_gradient, 3, 0.5).row_blocks

    def test_distinct_callables_or_estimators_are_not_shared(self):
        other = GaussianOracleEstimator(lambda x: x, 3, sigma=0.5)
        same = GaussianOracleEstimator(quadratic_gradient, 3, sigma=0.5)
        assert shared_gradient_fn([same, other]) is None
        assert shared_gradient_fn([same, MomentumEstimator(same, beta=0.9)]) is None
