"""Tests for logistic regression."""

import numpy as np
import pytest

from repro.data.synthetic import make_logistic_data
from repro.exceptions import DimensionMismatchError
from repro.models.logistic import LogisticRegressionModel
from tests.helpers import assert_gradients_close, numerical_gradient


class TestLogisticRegression:
    def test_gradient_matches_numeric(self, rng):
        model = LogisticRegressionModel(5, l2=0.05)
        params = rng.standard_normal(6)
        inputs = rng.standard_normal((10, 5))
        targets = rng.integers(0, 2, size=10)
        analytic = model.gradient(params, inputs, targets)
        numeric = numerical_gradient(
            lambda p: model.loss(p, inputs, targets), params.copy()
        )
        assert_gradients_close(analytic, numeric, rtol=1e-5)

    def test_loss_at_zero_params_is_log2(self, rng):
        model = LogisticRegressionModel(4)
        inputs = rng.standard_normal((20, 4))
        targets = rng.integers(0, 2, size=20)
        assert model.loss(np.zeros(5), inputs, targets) == pytest.approx(np.log(2))

    def test_stable_for_extreme_logits(self):
        model = LogisticRegressionModel(1, fit_bias=False)
        inputs = np.array([[1000.0], [-1000.0]])
        targets = np.array([1, 0])
        loss = model.loss(np.array([1.0]), inputs, targets)
        assert np.isfinite(loss)
        grad = model.gradient(np.array([1.0]), inputs, targets)
        assert np.all(np.isfinite(grad))

    def test_learns_separable_data(self, rng):
        dataset, _true = make_logistic_data(
            400, num_features=5, margin_scale=6.0, seed=0
        )
        model = LogisticRegressionModel(5)
        params = model.init_params(rng)
        for _step in range(300):
            grad = model.gradient(params, dataset.inputs, dataset.targets)
            params -= 0.5 * grad
        assert model.accuracy(params, dataset.inputs, dataset.targets) > 0.9

    def test_predict_proba_in_unit_interval(self, rng):
        model = LogisticRegressionModel(3)
        probs = model.predict_proba(
            rng.standard_normal(4), rng.standard_normal((15, 3)) * 10
        )
        assert np.all((probs >= 0) & (probs <= 1))

    def test_predict_threshold(self):
        model = LogisticRegressionModel(1, fit_bias=False)
        preds = model.predict(np.array([1.0]), np.array([[5.0], [-5.0]]))
        np.testing.assert_array_equal(preds, [1, 0])

    def test_accuracy_rejects_non_binary_labels(self, rng):
        model = LogisticRegressionModel(2)
        params = rng.standard_normal(3)
        inputs = rng.standard_normal((3, 2))
        with pytest.raises(DimensionMismatchError, match="labels"):
            model.accuracy(params, inputs, np.array([0, 2, 1]))

    def test_error_rate_complements_accuracy(self, rng):
        model = LogisticRegressionModel(2)
        params = rng.standard_normal(3)
        inputs = rng.standard_normal((30, 2))
        targets = rng.integers(0, 2, size=30)
        assert model.error_rate(params, inputs, targets) == pytest.approx(
            1.0 - model.accuracy(params, inputs, targets)
        )
