"""Frozen layer-by-layer backward: the oracle for the exact-work pass.

:func:`reference_loss_and_flat_gradient` is the original
``Sequential.loss_and_flat_gradient``: every ``Dense`` layer adds its
bias out of place (``out + b``) and every layer, the first included,
computes its gradient with respect to its input, which the first layer
then discards.  The ``Dense`` forward and backward formulas are written
out here instead of calling the layer, so the library pass is compared
against independent code; other layers run their own ``forward`` and
``backward``.

Do not optimize this module: it is the reference the library pass is
pinned to, bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Dense
from repro.nn.losses import Loss
from repro.nn.network import Sequential

__all__ = ["reference_loss_and_flat_gradient"]


def reference_loss_and_flat_gradient(
    network: Sequential,
    inputs: np.ndarray,
    targets: np.ndarray,
    loss: Loss,
    *,
    training: bool = True,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Return ``(loss, flat parameter gradient, dL/d(network input))``."""
    network.zero_grad()
    cached: list[np.ndarray | None] = []
    out = np.asarray(inputs, dtype=np.float64)
    for layer in network.layers:
        if isinstance(layer, Dense):
            cached.append(out)
            out = out @ layer.weight.value
            if layer.bias is not None:
                out = out + layer.bias.value
        else:
            cached.append(None)
            out = layer.forward(out, training=training)
    value = loss.forward(out, targets)
    grad = np.asarray(loss.backward(), dtype=np.float64)
    for layer, layer_inputs in zip(reversed(network.layers), reversed(cached)):
        if isinstance(layer, Dense):
            layer.weight.grad = layer_inputs.T @ grad
            if layer.bias is not None:
                layer.bias.grad = grad.sum(axis=0)
            grad = grad @ layer.weight.value.T
        else:
            grad = layer.backward(grad)
    return value, network.get_flat_gradient(), grad
