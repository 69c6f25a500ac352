"""Analytical gradient oracle with Gaussian noise."""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.exceptions import ConfigurationError
from repro.gradients.base import GradientEstimator

__all__ = ["GaussianOracleEstimator"]


class GaussianOracleEstimator(GradientEstimator):
    """``G(x, ξ) = ∇Q(x) + ξ`` with ``ξ ~ N(0, σ² I_d)``.

    This is the cleanest instantiation of the paper's estimator model:
    exactly unbiased, with ``E‖G − g‖² = d σ²``, so the resilience
    condition ``η(n,f)·√d·σ < ‖g‖`` of Proposition 4.2 can be dialed
    precisely.
    """

    def __init__(
        self,
        gradient_fn: Callable[[np.ndarray], np.ndarray],
        dimension: int,
        sigma: float,
    ):
        if dimension < 1:
            raise ConfigurationError(f"dimension must be >= 1, got {dimension}")
        if not np.isfinite(sigma) or sigma < 0:
            raise ConfigurationError(
                f"sigma must be finite and non-negative, got {sigma}"
            )
        self._gradient_fn = gradient_fn
        self._dimension = int(dimension)
        self.sigma = float(sigma)

    @property
    def dimension(self) -> int:
        return self._dimension

    @property
    def gradient_fn(self) -> Callable[[np.ndarray], np.ndarray]:
        """The wrapped exact-gradient callable (shared across workers when
        several estimators are built from the same model)."""
        return self._gradient_fn

    def estimate(self, params: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        grad = np.asarray(self._gradient_fn(params), dtype=np.float64)
        return self.sample_about(grad, rng)

    def sample_about(
        self, expected: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw one estimate given the precomputed expected gradient.

        Bit-for-bit equivalent to :meth:`estimate` when ``expected`` is
        ``gradient_fn(params)``; the batched engine uses this to evaluate
        the (deterministic) gradient once per scenario instead of once
        per worker.
        """
        if self.sigma == 0.0:
            return expected.copy()
        return expected + rng.normal(0.0, self.sigma, size=self._dimension)

    def expected(self, params: np.ndarray) -> np.ndarray:
        return np.asarray(self._gradient_fn(params), dtype=np.float64).copy()
