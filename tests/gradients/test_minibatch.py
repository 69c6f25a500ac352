"""Tests for the mini-batch gradient estimator."""

import numpy as np
import pytest

from repro.data.mnist_like import make_mnist_like
from repro.data.partition import (
    dirichlet_partition,
    iid_partition,
    label_shard_partition,
)
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

    @pytest.mark.parametrize("batch_size", [2.5, True, np.float64(4.0)])
    def test_rejects_non_integer_batch_size(self, setup, batch_size):
        model, dataset = setup
        with pytest.raises(ConfigurationError, match="batch_size"):
            MinibatchEstimator(
                model, dataset.inputs, dataset.targets, batch_size=batch_size
            )

    def test_accepts_numpy_integer_batch_size(self, setup):
        model, dataset = setup
        est = MinibatchEstimator(
            model, dataset.inputs, dataset.targets, batch_size=np.int64(4)
        )
        assert est.batch_size == 4 and type(est.batch_size) is int


class TestRowShards:
    """``rows=s`` is the shard ``X[s]`` without the copy."""

    @pytest.fixture
    def digits(self):
        train = make_mnist_like(120, seed=0)
        model = MLPClassifier(784, 10, hidden_sizes=(6,), init_seed=1)
        return model, train

    @pytest.mark.parametrize("partition", ["iid", "label-shard", "dirichlet"])
    def test_rows_equal_a_copied_shard_bitwise(self, digits, partition):
        model, train = digits
        shards = {
            "iid": lambda: iid_partition(len(train), 4, seed=3),
            "label-shard": lambda: label_shard_partition(
                train.targets, 4, seed=3
            ),
            "dirichlet": lambda: dirichlet_partition(
                train.targets, 4, alpha=0.5, min_per_worker=2, seed=3
            ),
        }[partition]()
        params = model.init_params(np.random.default_rng(5))
        for shard in shards:
            viewed = MinibatchEstimator(
                model, train.inputs, train.targets, batch_size=8, rows=shard
            )
            copied = MinibatchEstimator(
                model, train.inputs[shard], train.targets[shard], batch_size=8
            )
            assert viewed.shard_size == copied.shard_size == len(shard)
            assert np.shares_memory(viewed.inputs, train.inputs)
            ours, theirs = np.random.default_rng(9), np.random.default_rng(9)
            for _ in range(3):
                indices = viewed.draw_indices(ours)
                assert indices.tobytes() == copied.draw_indices(theirs).tobytes()
                assert (
                    viewed.gradient_at(params, indices).tobytes()
                    == copied.gradient_at(params, indices).tobytes()
                )
                assert (
                    viewed.estimate(params, ours).tobytes()
                    == copied.estimate(params, theirs).tobytes()
                )
            assert ours.bit_generator.state == theirs.bit_generator.state
            assert (
                viewed.expected(params).tobytes()
                == copied.expected(params).tobytes()
            )

    @pytest.mark.parametrize(
        "rows",
        [
            np.array([], dtype=np.int64),
            np.array([[0, 1]]),
            np.array([0.0, 1.0]),
            np.array([True, False]),
            np.array([0, 200]),
            np.array([-1, 3]),
            5,
        ],
        ids=["empty", "2-d", "float", "bool", "past-end", "negative", "scalar"],
    )
    def test_rejects_bad_rows(self, setup, rows):
        model, dataset = setup
        with pytest.raises(ConfigurationError, match="rows"):
            MinibatchEstimator(
                model, dataset.inputs, dataset.targets, batch_size=4, rows=rows
            )
