"""Gradient-checked tests for every loss."""

import numpy as np
import pytest

from repro.exceptions import DimensionMismatchError
from repro.nn.losses import (
    BinaryCrossEntropyWithLogits,
    MeanSquaredError,
    SoftmaxCrossEntropy,
)
from tests.helpers import assert_gradients_close, numerical_gradient


class TestMeanSquaredError:
    def test_known_value(self):
        loss = MeanSquaredError()
        value = loss.forward(np.array([[1.0, 2.0]]), np.array([[0.0, 0.0]]))
        assert value == pytest.approx(2.5)  # 0.5 * (1 + 4) / 1

    def test_gradient_matches_numeric(self, rng):
        loss = MeanSquaredError()
        preds = rng.standard_normal((4, 3))
        targets = rng.standard_normal((4, 3))
        loss.forward(preds, targets)
        analytic = loss.backward()
        numeric = numerical_gradient(
            lambda p: loss.forward(p, targets), preds.copy()
        )
        assert_gradients_close(analytic, numeric, rtol=1e-5)

    def test_zero_at_perfect_prediction(self, rng):
        loss = MeanSquaredError()
        preds = rng.standard_normal((3, 2))
        assert loss.forward(preds, preds) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            MeanSquaredError().forward(np.ones((2, 2)), np.ones((2, 3)))

    def test_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            MeanSquaredError().backward()


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_c(self):
        loss = SoftmaxCrossEntropy()
        value = loss.forward(np.zeros((5, 4)), np.array([0, 1, 2, 3, 0]))
        assert value == pytest.approx(np.log(4.0))

    def test_gradient_matches_numeric(self, rng):
        loss = SoftmaxCrossEntropy()
        logits = rng.standard_normal((6, 5))
        targets = rng.integers(0, 5, size=6)
        loss.forward(logits, targets)
        analytic = loss.backward()
        numeric = numerical_gradient(
            lambda z: loss.forward(z, targets), logits.copy()
        )
        assert_gradients_close(analytic, numeric, rtol=1e-4, atol=1e-7)

    def test_gradient_rows_sum_to_zero(self, rng):
        loss = SoftmaxCrossEntropy()
        logits = rng.standard_normal((4, 3))
        loss.forward(logits, np.array([0, 1, 2, 0]))
        np.testing.assert_allclose(loss.backward().sum(axis=1), 0.0, atol=1e-12)

    def test_stable_for_large_logits(self):
        loss = SoftmaxCrossEntropy()
        value = loss.forward(np.array([[1000.0, 0.0]]), np.array([0]))
        assert np.isfinite(value)
        assert value == pytest.approx(0.0, abs=1e-10)

    def test_probabilities_available(self, rng):
        loss = SoftmaxCrossEntropy()
        loss.forward(rng.standard_normal((3, 4)), np.array([0, 1, 2]))
        probs = loss.last_probabilities
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(DimensionMismatchError):
            SoftmaxCrossEntropy().forward(np.zeros((2, 3)), np.array([0, 3]))

    def test_rejects_negative_labels(self):
        with pytest.raises(DimensionMismatchError):
            SoftmaxCrossEntropy().forward(np.zeros((2, 3)), np.array([0, -1]))

    def test_rejects_wrong_target_shape(self):
        with pytest.raises(DimensionMismatchError):
            SoftmaxCrossEntropy().forward(np.zeros((2, 3)), np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [1.7, np.nan, -np.inf])
    def test_rejects_non_integral_labels(self, bad):
        with pytest.raises(DimensionMismatchError, match="integral"):
            SoftmaxCrossEntropy().forward(np.zeros((2, 3)), np.array([0.0, bad]))

    def test_accepts_integral_float_labels(self, rng):
        logits = rng.standard_normal((3, 4))
        as_int, as_float = SoftmaxCrossEntropy(), SoftmaxCrossEntropy()
        assert as_int.forward(logits, np.array([0, 3, 1])) == as_float.forward(
            logits, np.array([0.0, 3.0, 1.0])
        )
        np.testing.assert_array_equal(as_int.backward(), as_float.backward())


class TestBinaryCrossEntropyWithLogits:
    def test_known_value(self):
        loss = BinaryCrossEntropyWithLogits()
        value = loss.forward(np.array([0.0]), np.array([1.0]))
        assert value == pytest.approx(np.log(2.0))

    def test_gradient_matches_numeric(self, rng):
        loss = BinaryCrossEntropyWithLogits()
        logits = rng.standard_normal(8)
        targets = rng.integers(0, 2, size=8).astype(float)
        loss.forward(logits, targets)
        analytic = loss.backward()
        numeric = numerical_gradient(
            lambda z: loss.forward(z, targets), logits.copy()
        )
        assert_gradients_close(analytic, numeric, rtol=1e-5)

    def test_stable_for_extreme_logits(self):
        loss = BinaryCrossEntropyWithLogits()
        value = loss.forward(np.array([800.0, -800.0]), np.array([1.0, 0.0]))
        assert np.isfinite(value)
        assert value == pytest.approx(0.0, abs=1e-10)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            BinaryCrossEntropyWithLogits().forward(np.ones(3), np.ones(4))
