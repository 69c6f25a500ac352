"""Tests for softmax regression."""

import numpy as np
import pytest

from repro.data.synthetic import make_blobs
from repro.exceptions import ConfigurationError, DimensionMismatchError
from repro.models.softmax import SoftmaxRegressionModel
from tests.helpers import assert_gradients_close, numerical_gradient


class TestSoftmaxRegression:
    def test_dimension(self):
        assert SoftmaxRegressionModel(4, 3).dimension == 4 * 3 + 3
        assert SoftmaxRegressionModel(4, 3, fit_bias=False).dimension == 12

    def test_gradient_matches_numeric(self, rng):
        model = SoftmaxRegressionModel(3, 4, l2=0.01)
        params = rng.standard_normal(model.dimension)
        inputs = rng.standard_normal((7, 3))
        targets = rng.integers(0, 4, size=7)
        analytic = model.gradient(params, inputs, targets)
        numeric = numerical_gradient(
            lambda p: model.loss(p, inputs, targets), params.copy()
        )
        assert_gradients_close(analytic, numeric, rtol=1e-5)

    def test_gradient_no_bias_matches_numeric(self, rng):
        model = SoftmaxRegressionModel(3, 3, fit_bias=False)
        params = rng.standard_normal(model.dimension)
        inputs = rng.standard_normal((5, 3))
        targets = rng.integers(0, 3, size=5)
        numeric = numerical_gradient(
            lambda p: model.loss(p, inputs, targets), params.copy()
        )
        assert_gradients_close(model.gradient(params, inputs, targets), numeric)

    def test_uniform_loss_at_zero_params(self, rng):
        model = SoftmaxRegressionModel(4, 5)
        loss = model.loss(
            np.zeros(model.dimension),
            rng.standard_normal((10, 4)),
            rng.integers(0, 5, size=10),
        )
        assert loss == pytest.approx(np.log(5))

    def test_learns_blobs(self, rng):
        dataset = make_blobs(300, num_classes=3, num_features=2, spread=0.5, seed=4)
        model = SoftmaxRegressionModel(2, 3)
        params = model.init_params(rng)
        for _step in range(200):
            params -= 0.5 * model.gradient(params, dataset.inputs, dataset.targets)
        assert model.accuracy(params, dataset.inputs, dataset.targets) > 0.95

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            SoftmaxRegressionModel(0, 3)
        with pytest.raises(ConfigurationError):
            SoftmaxRegressionModel(3, 1)
        with pytest.raises(ConfigurationError):
            SoftmaxRegressionModel(3, 3, l2=-0.1)


class TestSoftmaxRegressionLabels:
    """Labels are checked like ``SoftmaxCrossEntropy`` checks them."""

    @pytest.fixture
    def batch(self, rng):
        model = SoftmaxRegressionModel(3, 4)
        return model, rng.standard_normal(model.dimension), rng.standard_normal((3, 3))

    @pytest.mark.parametrize(
        "labels",
        [[0, -1, 2], [0, 4, 2], [0, 1.7, 2], [0, np.nan, 2], [0, np.inf, 2]],
        ids=["negative", "too-large", "fractional", "nan", "inf"],
    )
    def test_rejects_invalid_labels(self, batch, labels):
        model, params, inputs = batch
        with pytest.raises(DimensionMismatchError, match="labels"):
            model.gradient(params, inputs, np.array(labels))
        with pytest.raises(DimensionMismatchError, match="labels"):
            model.loss(params, inputs, np.array(labels))

    def test_integral_float_labels_match_int_labels(self, batch):
        model, params, inputs = batch
        ints = np.array([0, 3, 2])
        np.testing.assert_array_equal(
            model.gradient(params, inputs, ints.astype(np.float64)),
            model.gradient(params, inputs, ints),
        )
        assert model.loss(params, inputs, ints.astype(np.float64)) == model.loss(
            params, inputs, ints
        )


def test_stacked_gradient_default_runs_gradient_per_slice(rng):
    """A model without a stacked pass serves stacks slice by slice."""
    model = SoftmaxRegressionModel(3, 4, l2=0.1)
    params = rng.standard_normal(model.dimension)
    inputs = rng.standard_normal((5, 6, 3))
    targets = rng.integers(0, 4, size=(5, 6))
    stacked = model.stacked_gradient(params, inputs, targets)
    assert stacked.shape == (5, model.dimension)
    for i in range(5):
        assert np.array_equal(
            stacked[i], model.gradient(params, inputs[i], targets[i])
        )
