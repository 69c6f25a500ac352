"""Model interface: a parameterized cost over (inputs, targets) batches.

A ``Model`` is stateless with respect to parameters — every method takes
the flat ``(d,)`` parameter vector explicitly.  This matches the paper's
formulation where the parameter vector ``x_t`` lives at the server and is
broadcast each round, and makes the models trivially shareable across
simulated workers.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.exceptions import DimensionMismatchError
from repro.utils.validation import check_class_labels

__all__ = ["Model", "ClassifierMixin"]


class Model(ABC):
    """A differentiable cost ``Q(params; batch)`` with exact gradients."""

    @property
    @abstractmethod
    def dimension(self) -> int:
        """Number of parameters d."""

    @abstractmethod
    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        """Draw an initial flat parameter vector."""

    @abstractmethod
    def loss(self, params: np.ndarray, inputs: np.ndarray, targets: np.ndarray) -> float:
        """Average loss of ``params`` on the batch."""

    @abstractmethod
    def gradient(
        self, params: np.ndarray, inputs: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        """Flat ``(d,)`` gradient of :meth:`loss` with respect to ``params``."""

    def loss_and_gradient(
        self, params: np.ndarray, inputs: np.ndarray, targets: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """Both loss and gradient; override when one pass computes both."""
        return (
            self.loss(params, inputs, targets),
            self.gradient(params, inputs, targets),
        )

    def stacked_gradient(
        self, params: np.ndarray, inputs: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        """``(k, d)`` gradients of k same-sized batches at one ``params``:
        row ``i`` is ``gradient(params, inputs[i], targets[i])`` bit for
        bit.  This default runs :meth:`gradient` per slice; a model whose
        pass takes leading stack axes overrides it with one call."""
        out = np.empty((len(inputs), self.dimension))
        for i, (batch_inputs, batch_targets) in enumerate(zip(inputs, targets)):
            out[i] = self.gradient(params, batch_inputs, batch_targets)
        return out


class ClassifierMixin:
    """Adds label prediction and accuracy to classification models."""

    num_classes: int  # targets are integer labels in [0, num_classes)

    def predict(self, params: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        """Predicted integer labels for ``inputs``."""
        raise NotImplementedError

    def accuracy(
        self, params: np.ndarray, inputs: np.ndarray, targets: np.ndarray
    ) -> float:
        """Fraction of correctly classified samples."""
        return self._accuracy_of(self.predict(params, inputs), targets)

    def loss_and_accuracy(
        self, params: np.ndarray, inputs: np.ndarray, targets: np.ndarray
    ) -> tuple[float, float]:
        """Both loss and accuracy; override when one forward gives both."""
        return (
            self.loss(params, inputs, targets),
            self.accuracy(params, inputs, targets),
        )

    def _accuracy_of(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        """Fraction of ``predictions`` equal to ``targets``, validated the
        way the classification losses validate their labels."""
        targets = np.asarray(targets)
        if targets.shape != predictions.shape:
            raise DimensionMismatchError(
                f"targets must be (B,) integer labels, got shape "
                f"{targets.shape} for {predictions.shape} predictions"
            )
        targets = check_class_labels(targets, self.num_classes)
        return float(np.mean(predictions == targets))

    def error_rate(
        self, params: np.ndarray, inputs: np.ndarray, targets: np.ndarray
    ) -> float:
        """Misclassification rate — the y-axis of the full paper's figures."""
        return 1.0 - self.accuracy(params, inputs, targets)
