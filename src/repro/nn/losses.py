"""Loss functions with exact gradients.

Each loss implements ``forward(predictions, targets) -> float`` and
``backward() -> dL/d(predictions)``; classification losses fuse the final
softmax/sigmoid with the cross-entropy for numerical stability.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.exceptions import DimensionMismatchError, LifecycleError
from repro.utils.validation import check_class_labels

__all__ = [
    "Loss",
    "MeanSquaredError",
    "SoftmaxCrossEntropy",
    "BinaryCrossEntropyWithLogits",
]


class Loss(ABC):
    """Base class for losses; the contract is one backward per forward."""

    @abstractmethod
    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        """Return the scalar loss averaged over the batch."""

    @abstractmethod
    def backward(self) -> np.ndarray:
        """Return ``dL/d(predictions)`` for the last ``forward`` call."""


def _batch_size(predictions: np.ndarray) -> int:
    """B of a ``(B,)`` batch of scalar outputs, a ``(B, C)`` batch or a
    ``(k, B, C)`` stack of batches (1 for a lone scalar)."""
    if predictions.ndim == 0:
        return 1
    return predictions.shape[-2] if predictions.ndim > 1 else predictions.shape[0]


def _slice_sums(values: np.ndarray) -> np.ndarray:
    """The sum over one batch, or the ``(k,)`` sums over the slices of a
    ``(k, B, C)`` stack, each bit-identical to its own batch's sum."""
    if values.ndim < 3:
        return np.sum(values)
    return np.sum(values, axis=(-2, -1))


def _loss_value(value: np.ndarray) -> float | np.ndarray:
    return float(value) if value.ndim == 0 else value


class MeanSquaredError(Loss):
    """``L = (1/2B) Σ_b ||pred_b - target_b||²`` over a batch of size B.

    A ``(k, B, C)`` stack gives the ``(k,)`` losses of its slices, each
    bit-identical to its own ``(B, C)`` call.
    """

    def __init__(self) -> None:
        self._diff: np.ndarray | None = None
        self._batch: int = 0

    def forward(
        self, predictions: np.ndarray, targets: np.ndarray
    ) -> float | np.ndarray:
        predictions = np.asarray(predictions, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if predictions.shape != targets.shape:
            raise DimensionMismatchError(
                f"predictions {predictions.shape} vs targets {targets.shape}"
            )
        self._batch = _batch_size(predictions)
        self._diff = predictions - targets
        return _loss_value(0.5 * _slice_sums(self._diff**2) / self._batch)

    def backward(self) -> np.ndarray:
        if self._diff is None:
            raise LifecycleError("backward called before forward")
        return self._diff / self._batch


class SoftmaxCrossEntropy(Loss):
    """Softmax + cross-entropy on integer class labels, fused and stable.

    ``forward`` takes raw logits of shape ``(B, C)`` and integer targets of
    shape ``(B,)``; the gradient is ``(softmax(logits) - onehot) / B``.  A
    ``(k, B, C)`` stack of logits with ``(k, B)`` targets gives the ``(k,)``
    losses of its slices, each bit-identical to its own ``(B, C)`` call.
    """

    def __init__(self) -> None:
        self._probs: np.ndarray | None = None
        self._targets: np.ndarray | None = None

    def forward(
        self, predictions: np.ndarray, targets: np.ndarray
    ) -> float | np.ndarray:
        logits = np.asarray(predictions, dtype=np.float64)
        targets = np.asarray(targets)
        if logits.ndim < 2:
            raise DimensionMismatchError(f"logits must be (B, C), got {logits.shape}")
        if targets.shape != logits.shape[:-1]:
            raise DimensionMismatchError(
                f"targets must be (B,) integer labels, got shape "
                f"{targets.shape} for logits {logits.shape}"
            )
        targets = check_class_labels(targets, logits.shape[-1])
        shifted = logits - logits.max(axis=-1, keepdims=True)
        exps = np.exp(shifted)
        sums = exps.sum(axis=-1, keepdims=True)
        self._probs = exps / sums
        self._targets = targets
        picked = np.take_along_axis(shifted, targets[..., None], axis=-1)
        log_likelihood = picked[..., 0] - np.log(sums[..., 0])
        value = -log_likelihood.mean(axis=-1)
        return float(value) if value.ndim == 0 else value

    def backward(self) -> np.ndarray:
        if self._probs is None or self._targets is None:
            raise LifecycleError("backward called before forward")
        grad = self._probs.copy()
        rows = grad.reshape(-1, grad.shape[-1])
        rows[np.arange(len(rows)), self._targets.reshape(-1)] -= 1.0
        return grad / grad.shape[-2]

    @property
    def last_probabilities(self) -> np.ndarray:
        """Class probabilities from the most recent forward pass."""
        if self._probs is None:
            raise LifecycleError("no forward pass has been run")
        return self._probs


class BinaryCrossEntropyWithLogits(Loss):
    """Sigmoid + binary cross-entropy on {0,1} targets, fused and stable.

    Uses ``log(1 + e^z) = max(z, 0) + log(1 + e^{-|z|})`` to avoid
    overflow; gradient is ``(sigmoid(z) - t) / B``.  A ``(k, B, C)``
    stack gives the ``(k,)`` losses of its slices, each bit-identical to
    its own ``(B, C)`` call.
    """

    def __init__(self) -> None:
        self._grad: np.ndarray | None = None

    def forward(
        self, predictions: np.ndarray, targets: np.ndarray
    ) -> float | np.ndarray:
        logits = np.asarray(predictions, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if logits.shape != targets.shape:
            raise DimensionMismatchError(
                f"logits {logits.shape} vs targets {targets.shape}"
            )
        batch = _batch_size(logits)
        softplus = np.maximum(logits, 0.0) + np.log1p(np.exp(-np.abs(logits)))
        loss = softplus - targets * logits
        sigmoid = np.where(
            logits >= 0,
            1.0 / (1.0 + np.exp(-np.clip(logits, -500, None))),
            np.exp(np.clip(logits, None, 500)) / (1.0 + np.exp(np.clip(logits, None, 500))),
        )
        self._grad = (sigmoid - targets) / batch
        return _loss_value(_slice_sums(loss) / batch)

    def backward(self) -> np.ndarray:
        if self._grad is None:
            raise LifecycleError("backward called before forward")
        return self._grad
