"""Binary logistic regression (the spambase-style workload)."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError, DimensionMismatchError
from repro.models.base import ClassifierMixin, Model

__all__ = ["LogisticRegressionModel"]


def _stable_sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


class LogisticRegressionModel(ClassifierMixin, Model):
    """Binary cross-entropy on logits ``xᵀw + b`` with optional L2.

    Targets are {0, 1} integers.  Convex, so Proposition 4.3's conditions
    hold up to the bounded-moments caveat; used for the spambase-like
    experiments of the full paper.
    """

    num_classes = 2

    def __init__(self, num_features: int, *, l2: float = 0.0, fit_bias: bool = True):
        if num_features < 1:
            raise ConfigurationError(f"num_features must be >= 1, got {num_features}")
        if l2 < 0:
            raise ConfigurationError(f"l2 must be non-negative, got {l2}")
        self.num_features = int(num_features)
        self.l2 = float(l2)
        self.fit_bias = bool(fit_bias)

    @property
    def dimension(self) -> int:
        return self.num_features + (1 if self.fit_bias else 0)

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(0.0, 0.01, size=self.dimension)

    def _split(self, params: np.ndarray) -> tuple[np.ndarray, float]:
        params = np.asarray(params, dtype=np.float64)
        if params.shape != (self.dimension,):
            raise DimensionMismatchError(
                f"params must have shape ({self.dimension},), got {params.shape}"
            )
        if self.fit_bias:
            return params[:-1], float(params[-1])
        return params, 0.0

    def logits(self, params: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        weights, bias = self._split(params)
        return np.asarray(inputs, dtype=np.float64) @ weights + bias

    def loss(self, params: np.ndarray, inputs: np.ndarray, targets: np.ndarray) -> float:
        weights, _bias = self._split(params)
        z = self.logits(params, inputs)
        y = np.asarray(targets, dtype=np.float64)
        softplus = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
        data_term = float(np.mean(softplus - y * z))
        return data_term + 0.5 * self.l2 * float(weights @ weights)

    def gradient(
        self, params: np.ndarray, inputs: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        weights, _bias = self._split(params)
        inputs = np.asarray(inputs, dtype=np.float64)
        z = self.logits(params, inputs)
        errors = _stable_sigmoid(z) - np.asarray(targets, dtype=np.float64)
        batch = len(inputs)
        grad_w = inputs.T @ errors / batch + self.l2 * weights
        if not self.fit_bias:
            return grad_w
        return np.concatenate([grad_w, [errors.mean()]])

    def predict_proba(self, params: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        """P(y = 1 | x) for each row of ``inputs``."""
        return _stable_sigmoid(self.logits(params, inputs))

    def predict(self, params: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        return (self.predict_proba(params, inputs) >= 0.5).astype(np.int64)
