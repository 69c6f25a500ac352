"""Multinomial (softmax) regression."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError, DimensionMismatchError
from repro.models.base import ClassifierMixin, Model
from repro.utils.validation import check_class_labels

__all__ = ["SoftmaxRegressionModel"]


class SoftmaxRegressionModel(ClassifierMixin, Model):
    """Linear softmax classifier: cross-entropy on ``X W + b`` logits.

    Parameters are packed as ``[W.ravel(), b]`` with ``W`` of shape
    ``(num_features, num_classes)``.
    """

    def __init__(
        self,
        num_features: int,
        num_classes: int,
        *,
        l2: float = 0.0,
        fit_bias: bool = True,
    ):
        if num_features < 1 or num_classes < 2:
            raise ConfigurationError(
                f"need num_features >= 1 and num_classes >= 2, got "
                f"({num_features}, {num_classes})"
            )
        if l2 < 0:
            raise ConfigurationError(f"l2 must be non-negative, got {l2}")
        self.num_features = int(num_features)
        self.num_classes = int(num_classes)
        self.l2 = float(l2)
        self.fit_bias = bool(fit_bias)

    @property
    def dimension(self) -> int:
        d = self.num_features * self.num_classes
        return d + (self.num_classes if self.fit_bias else 0)

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(0.0, 0.01, size=self.dimension)

    def _split(self, params: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        params = np.asarray(params, dtype=np.float64)
        if params.shape != (self.dimension,):
            raise DimensionMismatchError(
                f"params must have shape ({self.dimension},), got {params.shape}"
            )
        w_size = self.num_features * self.num_classes
        weights = params[:w_size].reshape(self.num_features, self.num_classes)
        bias = params[w_size:] if self.fit_bias else np.zeros(self.num_classes)
        return weights, bias

    def logits(self, params: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        weights, bias = self._split(params)
        return np.asarray(inputs, dtype=np.float64) @ weights + bias

    def _probabilities(self, logits: np.ndarray) -> np.ndarray:
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=1, keepdims=True)

    def loss(self, params: np.ndarray, inputs: np.ndarray, targets: np.ndarray) -> float:
        weights, _bias = self._split(params)
        logits = self.logits(params, inputs)
        targets = check_class_labels(targets, self.num_classes)
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_norm = np.log(np.exp(shifted).sum(axis=1))
        batch = len(logits)
        nll = log_norm - shifted[np.arange(batch), targets]
        return float(nll.mean() + 0.5 * self.l2 * np.sum(weights**2))

    def gradient(
        self, params: np.ndarray, inputs: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        weights, _bias = self._split(params)
        inputs = np.asarray(inputs, dtype=np.float64)
        targets = check_class_labels(targets, self.num_classes)
        probs = self._probabilities(self.logits(params, inputs))
        batch = len(inputs)
        probs[np.arange(batch), targets] -= 1.0
        probs /= batch
        grad_w = inputs.T @ probs + self.l2 * weights
        if not self.fit_bias:
            return grad_w.ravel()
        grad_b = probs.sum(axis=0)
        return np.concatenate([grad_w.ravel(), grad_b])

    def predict(self, params: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        return np.argmax(self.logits(params, inputs), axis=1).astype(np.int64)
