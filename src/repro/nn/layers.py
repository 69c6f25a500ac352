"""Neural-network layers with exact backpropagation.

Each layer implements ``forward`` (caching whatever the backward pass
needs) and ``backward`` (returning the gradient with respect to its input
and writing parameter gradients into ``Parameter.grad``).  The contract is
one ``backward`` (or ``backward_parameters``) per ``forward``.

Inputs may carry leading stack axes, ``(k, B, features)``: each matrix
product is one ``np.matmul`` making the per-slice BLAS call a lone batch
makes, so slice ``i`` equals the pass on batch ``i`` bit for bit, and
parameter gradients carry the stack axes in front.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable

import numpy as np

from repro.exceptions import (
    ConfigurationError,
    DimensionMismatchError,
    LifecycleError,
)
from repro.nn.initializers import he_normal, zeros
from repro.nn.parameter import Parameter

__all__ = ["Layer", "Dense", "ReLU", "LeakyReLU", "Tanh", "Sigmoid", "Dropout"]

Initializer = Callable[..., np.ndarray]


class Layer(ABC):
    """Base class for all layers."""

    @abstractmethod
    def forward(self, inputs: np.ndarray, *, training: bool = False) -> np.ndarray:
        """Compute the layer output for a ``(..., batch, features)`` input."""

    @abstractmethod
    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Backpropagate ``dL/d(output)`` and return ``dL/d(input)``."""

    def backward_parameters(self, grad_output: np.ndarray) -> None:
        """Backpropagate into ``Parameter.grad`` only, without ``dL/d(input)``.

        For the first layer of a network, whose input gradient nobody
        reads.  The default runs :meth:`backward` and drops its result;
        layers whose input gradient is a separate computation (``Dense``)
        skip it.
        """
        self.backward(grad_output)

    @property
    def parameters(self) -> list[Parameter]:
        """Trainable parameters of this layer (empty for stateless layers)."""
        return []


class Dense(Layer):
    """Affine layer ``y = x W + b`` with ``W`` of shape ``(in, out)``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        rng: np.random.Generator,
        weight_init: Initializer = he_normal,
        bias: bool = True,
    ):
        if in_features < 1 or out_features < 1:
            raise ConfigurationError(
                f"Dense needs positive sizes, got ({in_features}, {out_features})"
            )
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(weight_init((in_features, out_features), rng), name="W")
        self.bias = Parameter(zeros((out_features,), rng), name="b") if bias else None
        self._inputs: np.ndarray | None = None

    def forward(self, inputs: np.ndarray, *, training: bool = False) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if inputs.ndim < 2 or inputs.shape[-1] != self.in_features:
            raise DimensionMismatchError(
                f"Dense({self.in_features}, {self.out_features}) got input "
                f"shape {inputs.shape}"
            )
        self._inputs = inputs
        # Diverged weights overflow to inf on purpose (see the loss).
        with np.errstate(over="ignore", invalid="ignore"):
            out = inputs @ self.weight.value
            if self.bias is not None:
                out += self.bias.value
        return out

    def backward_parameters(self, grad_output: np.ndarray) -> None:
        if self._inputs is None:
            raise LifecycleError("backward called before forward")
        grad_output = np.asarray(grad_output, dtype=np.float64)
        # (gᵀX)ᵀ, not Xᵀg: equal bit for bit on every shape swept, but
        # OpenBLAS runs Xᵀg, whose output rows are the long in_features
        # side, much slower: 9.9 ms against 5.4 ms for a (4096, 784)
        # input and 32 outputs (one core of a 2-vCPU Xeon host, OpenBLAS
        # 0.3.31).
        self.weight.grad = np.swapaxes(
            np.swapaxes(grad_output, -1, -2) @ self._inputs, -1, -2
        )
        if self.bias is not None:
            self.bias.grad = grad_output.sum(axis=-2)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        self.backward_parameters(grad_output)
        return np.asarray(grad_output, dtype=np.float64) @ self.weight.value.T

    @property
    def parameters(self) -> list[Parameter]:
        params = [self.weight]
        if self.bias is not None:
            params.append(self.bias)
        return params


class ReLU(Layer):
    """Rectified linear unit, elementwise ``max(0, x)``."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, inputs: np.ndarray, *, training: bool = False) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        self._mask = inputs > 0.0
        return np.where(self._mask, inputs, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise LifecycleError("backward called before forward")
        return np.where(self._mask, grad_output, 0.0)


class LeakyReLU(Layer):
    """Leaky ReLU: ``x`` for positive inputs, ``slope * x`` otherwise."""

    def __init__(self, slope: float = 0.01):
        if slope < 0:
            raise ConfigurationError(f"slope must be non-negative, got {slope}")
        self.slope = float(slope)
        self._mask: np.ndarray | None = None

    def forward(self, inputs: np.ndarray, *, training: bool = False) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        self._mask = inputs > 0.0
        return np.where(self._mask, inputs, self.slope * inputs)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise LifecycleError("backward called before forward")
        return np.where(self._mask, grad_output, self.slope * grad_output)


class Tanh(Layer):
    """Hyperbolic tangent activation."""

    def __init__(self) -> None:
        self._output: np.ndarray | None = None

    def forward(self, inputs: np.ndarray, *, training: bool = False) -> np.ndarray:
        self._output = np.tanh(np.asarray(inputs, dtype=np.float64))
        return self._output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise LifecycleError("backward called before forward")
        return grad_output * (1.0 - self._output**2)


class Sigmoid(Layer):
    """Logistic sigmoid activation, computed stably for large |x|."""

    def __init__(self) -> None:
        self._output: np.ndarray | None = None

    def forward(self, inputs: np.ndarray, *, training: bool = False) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        out = np.empty_like(inputs)
        positive = inputs >= 0
        out[positive] = 1.0 / (1.0 + np.exp(-inputs[positive]))
        exp_x = np.exp(inputs[~positive])
        out[~positive] = exp_x / (1.0 + exp_x)
        self._output = out
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._output is None:
            raise LifecycleError("backward called before forward")
        return grad_output * self._output * (1.0 - self._output)


class Dropout(Layer):
    """Inverted dropout: active only when ``training=True``.

    During training each unit is zeroed with probability ``p`` and the
    survivors are scaled by ``1/(1-p)`` so the expected activation is
    unchanged; at evaluation time the layer is the identity.
    """

    def __init__(self, p: float, *, rng: np.random.Generator):
        if not 0.0 <= p < 1.0:
            raise ConfigurationError(f"dropout probability must be in [0, 1), got {p}")
        self.p = float(p)
        self._rng = rng
        self._mask: np.ndarray | None = None

    def forward(self, inputs: np.ndarray, *, training: bool = False) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=np.float64)
        if not training or self.p == 0.0:
            self._mask = None
            return inputs
        if inputs.ndim != 2:
            # One draw per stack would not be the stream of one draw per
            # batch once a network holds two such layers, so refuse it.
            raise DimensionMismatchError(
                f"Dropout draws one mask per (B, features) batch in "
                f"training; got a stacked input of shape {inputs.shape}"
            )
        keep = 1.0 - self.p
        self._mask = (self._rng.random(inputs.shape) < keep) / keep
        return inputs * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return np.asarray(grad_output, dtype=np.float64)
        return grad_output * self._mask
