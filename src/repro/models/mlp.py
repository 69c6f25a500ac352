"""Multi-layer perceptron classifier on the numpy ``nn`` substrate.

This is the reproduction of the full paper's MNIST workload: a dense
network trained by distributed SGD whose flattened parameter vector is
what the server aggregates (d ranges from thousands to hundreds of
thousands depending on the architecture).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.models.base import ClassifierMixin, Model
from repro.nn.initializers import he_normal, xavier_uniform
from repro.nn.layers import Dense, Layer, ReLU, Sigmoid, Tanh
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.network import Sequential
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive_int

__all__ = ["MLPClassifier", "check_architecture"]

_ACTIVATIONS = {"relu": ReLU, "tanh": Tanh, "sigmoid": Sigmoid}


def check_architecture(
    hidden_sizes: Sequence[int], activation: str
) -> tuple[int, ...]:
    """Validate an MLP's hidden layer widths and activation name and
    return the widths as a tuple of ints."""
    if activation not in _ACTIVATIONS:
        raise ConfigurationError(
            f"unknown activation {activation!r}; choose from "
            f"{sorted(_ACTIVATIONS)}"
        )
    return tuple(check_positive_int(h, "hidden size") for h in hidden_sizes)


class MLPClassifier(ClassifierMixin, Model):
    """Fully connected softmax classifier with configurable hidden sizes.

    The underlying :class:`~repro.nn.network.Sequential` instance is a
    scratch buffer: every ``loss``/``gradient`` call loads the supplied
    flat parameters before running, so the model object itself stays
    conceptually stateless (and can be shared across simulated workers
    within one process; it is not thread-safe).
    ``loss``/``gradient`` also take a ``(k, B, features)`` stack with
    ``(k, B)`` targets, one network pass for all slices.
    """

    def __init__(
        self,
        num_features: int,
        num_classes: int,
        hidden_sizes: Sequence[int] = (100,),
        *,
        activation: str = "relu",
        init_seed: int = 0,
    ):
        if num_features < 1 or num_classes < 2:
            raise ConfigurationError(
                f"need num_features >= 1 and num_classes >= 2, got "
                f"({num_features}, {num_classes})"
            )
        self.hidden_sizes = check_architecture(hidden_sizes, activation)
        self.num_features = int(num_features)
        self.num_classes = int(num_classes)
        self.activation = activation
        self._loss = SoftmaxCrossEntropy()
        self._network = self._build(as_generator(init_seed))

    def _build(self, rng: np.random.Generator) -> Sequential:
        activation_cls = _ACTIVATIONS[self.activation]
        weight_init = he_normal if self.activation == "relu" else xavier_uniform
        layers: list[Layer] = []
        sizes = [self.num_features, *self.hidden_sizes, self.num_classes]
        for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            layers.append(Dense(fan_in, fan_out, rng=rng, weight_init=weight_init))
            if i < len(sizes) - 2:
                layers.append(activation_cls())
        return Sequential(layers)

    @property
    def dimension(self) -> int:
        return self._network.num_parameters

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        return self._build(rng).get_flat_parameters()

    def loss(self, params: np.ndarray, inputs: np.ndarray, targets: np.ndarray) -> float:
        self._network.set_flat_parameters(params)
        logits = self._network.forward(np.asarray(inputs, dtype=np.float64))
        return self._loss.forward(logits, np.asarray(targets))

    def gradient(
        self, params: np.ndarray, inputs: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        _loss, grad = self.loss_and_gradient(params, inputs, targets)
        return grad

    def stacked_gradient(
        self, params: np.ndarray, inputs: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        return self.gradient(params, inputs, targets)

    def loss_and_gradient(
        self, params: np.ndarray, inputs: np.ndarray, targets: np.ndarray
    ) -> tuple[float, np.ndarray]:
        self._network.set_flat_parameters(params)
        return self._network.loss_and_flat_gradient(
            np.asarray(inputs, dtype=np.float64), np.asarray(targets), self._loss
        )

    def loss_and_accuracy(
        self, params: np.ndarray, inputs: np.ndarray, targets: np.ndarray
    ) -> tuple[float, float]:
        logits = self.logits(params, inputs)
        loss = self._loss.forward(logits, np.asarray(targets))
        predictions = np.argmax(logits, axis=1).astype(np.int64)
        return loss, self._accuracy_of(predictions, targets)

    def logits(self, params: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        self._network.set_flat_parameters(params)
        return self._network.forward(np.asarray(inputs, dtype=np.float64))

    def predict(self, params: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        return np.argmax(self.logits(params, inputs), axis=1).astype(np.int64)
