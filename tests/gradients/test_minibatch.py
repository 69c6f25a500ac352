"""Tests for the mini-batch gradient estimator."""

import numpy as np
import pytest

from repro.data.synthetic import make_linear_regression
from repro.exceptions import ConfigurationError, DimensionMismatchError
from repro.gradients.minibatch import MinibatchEstimator
from repro.models.linear import LinearRegressionModel
from repro.models.mlp import MLPClassifier


@pytest.fixture
def setup():
    dataset, _params = make_linear_regression(200, num_features=4, noise=0.1, seed=0)
    model = LinearRegressionModel(4)
    return model, dataset


class TestMinibatchEstimator:
    def test_dimension(self, setup):
        model, dataset = setup
        est = MinibatchEstimator(model, dataset.inputs, dataset.targets, batch_size=16)
        assert est.dimension == 5

    def test_unbiased_for_full_shard_gradient(self, setup, rng):
        model, dataset = setup
        est = MinibatchEstimator(model, dataset.inputs, dataset.targets, batch_size=8)
        params = rng.standard_normal(5)
        samples = np.stack([est.estimate(params, rng) for _ in range(3000)])
        np.testing.assert_allclose(
            samples.mean(axis=0), est.expected(params), atol=0.1
        )

    def test_full_batch_has_low_variance(self, setup, rng):
        model, dataset = setup
        small = MinibatchEstimator(model, dataset.inputs, dataset.targets, batch_size=4)
        large = MinibatchEstimator(
            model, dataset.inputs, dataset.targets, batch_size=128
        )
        params = rng.standard_normal(5)
        sigma_small = small.empirical_sigma(params, rng, num_samples=300)
        sigma_large = large.empirical_sigma(params, rng, num_samples=300)
        assert sigma_large < sigma_small

    def test_batch_variance_scales_inversely(self, setup, rng):
        # Var of a mean of B i.i.d. samples ~ 1/B.
        model, dataset = setup
        params = rng.standard_normal(5)
        sigmas = {}
        for batch in (4, 16, 64):
            est = MinibatchEstimator(
                model, dataset.inputs, dataset.targets, batch_size=batch
            )
            sigmas[batch] = est.empirical_sigma(params, rng, num_samples=400)
        assert sigmas[4] / sigmas[16] == pytest.approx(2.0, rel=0.35)
        assert sigmas[16] / sigmas[64] == pytest.approx(2.0, rel=0.35)

    def test_deterministic_given_rng(self, setup):
        model, dataset = setup
        est = MinibatchEstimator(model, dataset.inputs, dataset.targets, batch_size=8)
        params = np.zeros(5)
        a = est.estimate(params, np.random.default_rng(3))
        b = est.estimate(params, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_rejects_empty_shard(self, setup):
        model, _dataset = setup
        with pytest.raises(ConfigurationError):
            MinibatchEstimator(model, np.zeros((0, 4)), np.zeros(0), batch_size=4)

    def test_rejects_length_mismatch(self, setup):
        model, dataset = setup
        with pytest.raises(DimensionMismatchError):
            MinibatchEstimator(
                model, dataset.inputs, dataset.targets[:-1], batch_size=4
            )

    def test_rejects_shard_width_mismatch(self, setup):
        model, dataset = setup
        with pytest.raises(DimensionMismatchError, match="3 features.*expects 4"):
            MinibatchEstimator(
                model, dataset.inputs[:, :3], dataset.targets, batch_size=4
            )

    def test_rejects_shard_width_mismatch_for_mlp(self, rng):
        model = MLPClassifier(5, 3, (4,))
        with pytest.raises(DimensionMismatchError):
            MinibatchEstimator(
                model, rng.standard_normal((10, 6)), np.zeros(10, int), batch_size=4
            )

    def test_rejects_bad_batch_size(self, setup):
        model, dataset = setup
        with pytest.raises(ConfigurationError):
            MinibatchEstimator(model, dataset.inputs, dataset.targets, batch_size=0)
