"""Tests for the MLP classifier model."""

import numpy as np
import pytest

from repro.data.synthetic import make_blobs
from repro.exceptions import ConfigurationError, DimensionMismatchError
from repro.models.mlp import MLPClassifier
from tests.helpers import assert_gradients_close, numerical_gradient


class TestMLPClassifier:
    def test_dimension_formula(self):
        model = MLPClassifier(10, 3, hidden_sizes=(8, 4))
        expected = (10 * 8 + 8) + (8 * 4 + 4) + (4 * 3 + 3)
        assert model.dimension == expected

    def test_gradient_matches_numeric(self, rng):
        model = MLPClassifier(4, 3, hidden_sizes=(6,), activation="tanh")
        params = model.init_params(rng) * 0.5
        inputs = rng.standard_normal((5, 4))
        targets = rng.integers(0, 3, size=5)
        analytic = model.gradient(params, inputs, targets)
        numeric = numerical_gradient(
            lambda p: model.loss(p, inputs, targets), params.copy()
        )
        assert_gradients_close(analytic, numeric, rtol=1e-4, atol=1e-7)

    def test_loss_and_gradient_consistent(self, rng):
        model = MLPClassifier(3, 2, hidden_sizes=(5,))
        params = model.init_params(rng)
        inputs = rng.standard_normal((6, 3))
        targets = rng.integers(0, 2, size=6)
        loss1 = model.loss(params, inputs, targets)
        loss2, grad = model.loss_and_gradient(params, inputs, targets)
        assert loss1 == pytest.approx(loss2)
        assert grad.shape == (model.dimension,)

    def test_init_params_reproducible(self):
        model = MLPClassifier(4, 2)
        a = model.init_params(np.random.default_rng(0))
        b = model.init_params(np.random.default_rng(0))
        np.testing.assert_array_equal(a, b)

    def test_learns_blobs(self, rng):
        dataset = make_blobs(200, num_classes=3, num_features=2, spread=0.6, seed=8)
        model = MLPClassifier(2, 3, hidden_sizes=(16,))
        params = model.init_params(rng)
        for _step in range(300):
            params -= 0.3 * model.gradient(params, dataset.inputs, dataset.targets)
        assert model.accuracy(params, dataset.inputs, dataset.targets) > 0.95

    def test_predict_shape_and_range(self, rng):
        model = MLPClassifier(5, 4, hidden_sizes=(7,))
        params = model.init_params(rng)
        preds = model.predict(params, rng.standard_normal((9, 5)))
        assert preds.shape == (9,)
        assert np.all((preds >= 0) & (preds < 4))

    def test_all_activations_buildable(self, rng):
        for act in ("relu", "tanh", "sigmoid"):
            model = MLPClassifier(3, 2, hidden_sizes=(4,), activation=act)
            params = model.init_params(rng)
            assert np.isfinite(
                model.loss(params, rng.standard_normal((2, 3)), np.array([0, 1]))
            )

    def test_rejects_unknown_activation(self):
        with pytest.raises(ConfigurationError, match="activation"):
            MLPClassifier(3, 2, activation="swish")

    def test_rejects_bad_hidden_sizes(self):
        with pytest.raises(ConfigurationError):
            MLPClassifier(3, 2, hidden_sizes=(0,))


class TestAccuracyValidation:
    """``accuracy`` validates targets the way ``loss`` does."""

    @pytest.fixture
    def batch(self, rng):
        model = MLPClassifier(4, 3, hidden_sizes=(5,))
        params = model.init_params(rng)
        inputs = rng.standard_normal((6, 4))
        return model, params, inputs, rng.integers(0, 3, size=6)

    @pytest.mark.parametrize(
        "bad",
        [
            lambda t: t[:, None],  # (B, 1) would broadcast to (B, B)
            lambda t: t[:-1],  # one label short
            lambda t: np.where(t == 0, 3, t),  # label out of range
            lambda t: np.where(t == 0, -1, t),  # negative label
            lambda t: t + 0.5,  # fractional label
        ],
        ids=["column", "short", "too-large", "negative", "fractional"],
    )
    def test_rejects_what_loss_rejects(self, batch, bad):
        model, params, inputs, targets = batch
        targets = bad(targets)
        with pytest.raises(DimensionMismatchError):
            model.loss(params, inputs, targets)
        with pytest.raises(DimensionMismatchError):
            model.accuracy(params, inputs, targets)
        with pytest.raises(DimensionMismatchError):
            model.loss_and_accuracy(params, inputs, targets)

    def test_loss_and_accuracy_is_one_pass_of_both(self, batch):
        model, params, inputs, targets = batch
        loss, accuracy = model.loss_and_accuracy(params, inputs, targets)
        assert loss == model.loss(params, inputs, targets)
        assert accuracy == model.accuracy(params, inputs, targets)
        assert accuracy == np.mean(model.predict(params, inputs) == targets)
