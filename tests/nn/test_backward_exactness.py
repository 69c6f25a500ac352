"""The exact-work backward equals the frozen full backward bit for bit.

``Sequential.loss_and_flat_gradient`` skips the first layer's input
gradient, ``Dense.forward`` adds its bias in place and
``Dense.backward_parameters`` takes the weight gradient as ``(gᵀX)ᵀ``.
None of them may change a single bit of any loss or gradient, so every
path that reaches the pass (the network, ``MLPClassifier`` and
``MinibatchEstimator``) is compared with ``np.array_equal`` against
:func:`tests.nn.reference_backward.reference_loss_and_flat_gradient`.

A ``(k, B, features)`` stack runs every matrix product as one
``np.matmul`` call over the slices, so slice ``i`` of a stacked pass
must equal the frozen pass on batch ``i`` bit for bit as well.
"""

import numpy as np
import pytest

from repro.exceptions import DimensionMismatchError
from repro.gradients.minibatch import MinibatchEstimator
from repro.models.mlp import MLPClassifier
from repro.nn.layers import Dense, Dropout, ReLU, Sigmoid, Tanh
from repro.nn.losses import MeanSquaredError, SoftmaxCrossEntropy
from repro.nn.network import Sequential
from tests.nn.reference_backward import reference_loss_and_flat_gradient

NUM_FEATURES = 784
NUM_CLASSES = 10
SHARD = 4096
ACTIVATIONS = {"relu": ReLU, "tanh": Tanh, "sigmoid": Sigmoid}


@pytest.fixture(scope="module")
def shard():
    rng = np.random.default_rng(2017)
    inputs = rng.random((SHARD, NUM_FEATURES))
    targets = rng.integers(0, NUM_CLASSES, size=SHARD)
    return inputs, targets


def _reference(model, params, inputs, targets):
    """The frozen pass on an independently built copy of ``model``."""
    sizes = [NUM_FEATURES, *model.hidden_sizes, NUM_CLASSES]
    rng = np.random.default_rng(0)
    layers = []
    for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        layers.append(Dense(fan_in, fan_out, rng=rng))
        if i < len(sizes) - 2:
            layers.append(ACTIVATIONS[model.activation]())
    network = Sequential(layers)
    network.set_flat_parameters(params)
    value, grad, _input_grad = reference_loss_and_flat_gradient(
        network, inputs, targets, SoftmaxCrossEntropy()
    )
    return value, grad


@pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
@pytest.mark.parametrize("hidden", [(), (32,), (16, 8)], ids=str)
@pytest.mark.parametrize("batch", [1, 32, SHARD])
class TestMLPExactness:
    def test_model_gradient(self, shard, activation, hidden, batch):
        model = MLPClassifier(
            NUM_FEATURES, NUM_CLASSES, hidden, activation=activation
        )
        params = model.init_params(np.random.default_rng(batch))
        inputs, targets = shard[0][:batch], shard[1][:batch]
        want_loss, want_grad = _reference(model, params, inputs, targets)
        loss, grad = model.loss_and_gradient(params, inputs, targets)
        assert loss == want_loss
        assert np.array_equal(grad, want_grad)
        assert np.array_equal(model.gradient(params, inputs, targets), want_grad)
        assert model.loss(params, inputs, targets) == want_loss

    def test_estimator(self, shard, activation, hidden, batch):
        model = MLPClassifier(
            NUM_FEATURES, NUM_CLASSES, hidden, activation=activation
        )
        params = model.init_params(np.random.default_rng(batch + 1))
        inputs, targets = shard
        estimator = MinibatchEstimator(model, inputs, targets, batch_size=batch)
        indices = estimator.draw_indices(np.random.default_rng(batch))
        _, want = _reference(model, params, inputs[indices], targets[indices])
        assert np.array_equal(estimator.gradient_at(params, indices), want)
        if batch == SHARD:
            _, want_full = _reference(model, params, inputs, targets)
            assert np.array_equal(estimator.expected(params), want_full)


def _windows(array, k, batch):
    """``k`` overlapping batches ``array[i : i + batch]`` as one
    ``(k, batch, ...)`` view, so a large stack costs no memory."""
    return np.lib.stride_tricks.as_strided(
        array,
        (k, batch, *array.shape[1:]),
        (array.strides[0], *array.strides),
        writeable=False,
    )


@pytest.fixture(scope="module")
def stack_source():
    """Rows for up to 15 overlapping windows of ``SHARD`` rows."""
    rng = np.random.default_rng(1703)
    inputs = rng.random((SHARD + 14, NUM_FEATURES))
    targets = rng.integers(0, NUM_CLASSES, size=SHARD + 14)
    return inputs, targets


@pytest.mark.parametrize("activation", sorted(ACTIVATIONS))
@pytest.mark.parametrize("hidden", [(), (32,), (16, 8)], ids=str)
@pytest.mark.parametrize("batch", [1, 32, SHARD])
@pytest.mark.parametrize("k", [1, 2, 15])
def test_stacked_pass_matches_reference_per_slice(
    stack_source, activation, hidden, batch, k
):
    model = MLPClassifier(NUM_FEATURES, NUM_CLASSES, hidden, activation=activation)
    params = model.init_params(np.random.default_rng(k * batch))
    inputs = _windows(stack_source[0], k, batch)
    targets = _windows(stack_source[1], k, batch)
    losses, grads = model.loss_and_gradient(params, inputs, targets)
    assert losses.shape == (k,) and grads.shape == (k, model.dimension)
    assert np.array_equal(model.stacked_gradient(params, inputs, targets), grads)
    assert np.array_equal(model.loss(params, inputs, targets), losses)
    for i in range(k):
        want_loss, want_grad = _reference(model, params, inputs[i], targets[i])
        assert losses[i] == want_loss, i
        assert np.array_equal(grads[i], want_grad), i


@pytest.mark.parametrize("batch", [1, 2, 3, 7, 32, 33, 100, 512, SHARD])
def test_transposed_weight_gradient_equals_direct_form(batch):
    """``(gᵀX)ᵀ`` (what ``Dense`` computes) equals the reference's
    ``Xᵀg`` bit for bit on every shape of the sweep."""
    rng = np.random.default_rng(batch)
    for fan_in in (1, 6, 8, 32, NUM_FEATURES):
        inputs = rng.random((batch, fan_in))
        for fan_out in (1, 3, 8, 10, 16, 32, 100):
            grad = rng.standard_normal((batch, fan_out))
            assert np.array_equal((grad.T @ inputs).T, inputs.T @ grad), (
                fan_in,
                fan_out,
            )


def test_stacked_training_pass_through_dropout_raises():
    """Dropout draws one mask per batch; a stacked training pass would
    draw a different stream, so it is refused (evaluation passes, which
    draw nothing, still stack)."""
    network = _dropout_first(0)
    inputs = np.ones((2, 4, 6))
    with pytest.raises(DimensionMismatchError, match="Dropout"):
        network.loss_and_flat_gradient(
            inputs, np.zeros((2, 4, 3)), MeanSquaredError()
        )
    assert network.forward(inputs).shape == (2, 4, 3)


def _relu_first(seed):
    rng = np.random.default_rng(seed)
    return Sequential([ReLU(), Dense(6, 5, rng=rng), Tanh(), Dense(5, 3, rng=rng)])


def _dropout_first(seed):
    rng = np.random.default_rng(seed)
    return Sequential(
        [
            Dropout(0.3, rng=np.random.default_rng(seed + 1)),
            Dense(6, 5, rng=rng),
            Sigmoid(),
            Dense(5, 3, rng=rng, bias=False),
        ]
    )


def _dense_only(seed):
    return Sequential([Dense(6, 3, rng=np.random.default_rng(seed), bias=False)])


NETWORKS = {
    "relu-first": _relu_first,
    "dropout-first": _dropout_first,
    "dense-no-bias": _dense_only,
}


@pytest.mark.parametrize("build", NETWORKS.values(), ids=NETWORKS.keys())
@pytest.mark.parametrize("batch", [1, 32])
class TestSequentialExactness:
    def _data(self, batch):
        rng = np.random.default_rng(batch)
        return rng.standard_normal((batch, 6)), rng.standard_normal((batch, 3))

    def test_loss_and_flat_gradient(self, build, batch):
        inputs, targets = self._data(batch)
        want_loss, want_grad, _ = reference_loss_and_flat_gradient(
            build(3), inputs, targets, MeanSquaredError()
        )
        loss, grad = build(3).loss_and_flat_gradient(
            inputs, targets, MeanSquaredError()
        )
        assert loss == want_loss
        assert np.array_equal(grad, want_grad)

    def test_public_backward_still_returns_input_gradient(self, build, batch):
        inputs, targets = self._data(batch)
        _, want_grad, want_input_grad = reference_loss_and_flat_gradient(
            build(5), inputs, targets, MeanSquaredError()
        )
        network = build(5)
        network.zero_grad()
        loss = MeanSquaredError()
        loss.forward(network.forward(inputs, training=True), targets)
        input_grad = network.backward(loss.backward())
        assert input_grad.shape == inputs.shape
        assert np.array_equal(input_grad, want_input_grad)
        assert np.array_equal(network.get_flat_gradient(), want_grad)
