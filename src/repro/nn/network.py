"""``Sequential`` container and the flat-parameter view used by the server.

The parameter server of the paper works on single vectors in ``R^d``; a
``Sequential`` network exposes exactly that view: ``get_flat_parameters``
/ ``set_flat_parameters`` round-trip all layer parameters through one
float64 vector, and ``loss_and_flat_gradient`` produces the gradient
estimate a worker sends upstream (one row per batch of a stacked pass).
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.exceptions import DimensionMismatchError
from repro.nn.layers import Layer
from repro.nn.losses import Loss
from repro.nn.parameter import Parameter
from repro.utils.linalg import flatten_arrays, unflatten_array

__all__ = ["Sequential"]


class Sequential:
    """A feed-forward stack of layers applied in order."""

    def __init__(self, layers: Iterable[Layer]):
        self.layers: list[Layer] = list(layers)
        if not self.layers:
            raise DimensionMismatchError("Sequential requires at least one layer")
        self._shapes = [p.shape for p in self.parameters]

    @property
    def parameters(self) -> list[Parameter]:
        """All trainable parameters in layer order."""
        params: list[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters)
        return params

    @property
    def num_parameters(self) -> int:
        """Total parameter count d — the dimension Krum aggregates in."""
        return int(sum(p.size for p in self.parameters))

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def forward(self, inputs: np.ndarray, *, training: bool = False) -> np.ndarray:
        out = np.asarray(inputs, dtype=np.float64)
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    __call__ = forward

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = np.asarray(grad_output, dtype=np.float64)
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    # ------------------------------------------------------------------
    # Flat-vector view (the R^d interface of the paper's model section)
    # ------------------------------------------------------------------

    def get_flat_parameters(self) -> np.ndarray:
        """Return all parameters concatenated into one ``(d,)`` vector."""
        flat, _shapes = flatten_arrays([p.value for p in self.parameters])
        return flat

    def set_flat_parameters(self, flat: np.ndarray) -> None:
        """Load parameters from a ``(d,)`` vector (inverse of ``get``)."""
        values = unflatten_array(flat, self._shapes)
        for param, value in zip(self.parameters, values):
            param.value = np.asarray(value, dtype=np.float64).reshape(param.shape)

    def get_flat_gradient(self) -> np.ndarray:
        """Return all parameter gradients concatenated into one vector —
        one row per slice after a stacked backward pass."""
        first = self.parameters[0]
        lead = first.grad.shape[: first.grad.ndim - len(first.shape)]
        flat = np.empty(lead + (self.num_parameters,))
        offset = 0
        for param in self.parameters:
            stop = offset + param.size
            # Splitting the contiguous last axis is always a view, so
            # each gradient is written into its block once.
            flat[..., offset:stop].reshape(lead + param.shape)[...] = param.grad
            offset = stop
        return flat

    def loss_and_flat_gradient(
        self,
        inputs: np.ndarray,
        targets: np.ndarray,
        loss: Loss,
        *,
        training: bool = True,
    ) -> tuple[float | np.ndarray, np.ndarray]:
        """One forward/backward pass; returns (loss, flat gradient).

        This is the worker-side computation of the paper's model: given
        the broadcast parameters (already loaded), estimate the gradient
        on a mini-batch.  Only parameter gradients are needed, so the
        first layer runs :meth:`Layer.backward_parameters` and the
        gradient with respect to the network input is never computed.
        A ``(k, B, features)`` stack through ``SoftmaxCrossEntropy`` gives
        ``(k,)`` losses and ``(k, d)`` gradients.
        """
        self.zero_grad()
        predictions = self.forward(inputs, training=training)
        value = loss.forward(predictions, targets)
        grad = np.asarray(loss.backward(), dtype=np.float64)
        first, *rest = self.layers
        for layer in reversed(rest):
            grad = layer.backward(grad)
        first.backward_parameters(grad)
        return value, self.get_flat_gradient()
