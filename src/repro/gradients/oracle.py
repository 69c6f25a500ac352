"""Analytical gradient oracle with Gaussian noise."""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.gradients.base import GradientEstimator

__all__ = ["GaussianOracleEstimator", "shared_gradient_fn"]


class GaussianOracleEstimator(GradientEstimator):
    """``G(x, ξ) = ∇Q(x) + ξ`` with ``ξ ~ N(0, σ² I_d)``.

    This is the cleanest instantiation of the paper's estimator model:
    exactly unbiased, with ``E‖G − g‖² = d σ²``, so the resilience
    condition ``η(n,f)·√d·σ < ‖g‖`` of Proposition 4.2 can be dialed
    precisely.

    :meth:`noise` is the one call that consumes a worker's stream, so
    two workers whose generators hold equal states draw equal noise.
    The grid gives honest worker k of every cell of a seed the same
    stream, and the batched executor draws each such shared stream once
    per round for all the cells that hold it; at the end of each public
    call it re-syncs the other holders' generators to the drawing one,
    so every stream ends where per-cell draws would leave it.

    Setting :attr:`row_blocks` declares that ``gradient_fn`` also maps a
    ``(k, d)`` block of parameter rows to their ``k`` gradients, each
    bit for bit the one-row result (as
    :meth:`~repro.models.quadratic.QuadraticBowl.exact_gradient` does),
    so an executor may evaluate all workers' gradients in one call.
    """

    row_blocks = False

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
        return expected + self.noise(rng)

    def noise(
        self, rng: np.random.Generator, rounds: int | None = None
    ) -> np.ndarray:
        """One draw of ``ξ ~ N(0, σ² I_d)`` from ``rng`` (``σ > 0``), or
        with ``rounds=k`` a ``(k, d)`` block of k successive draws.
        ``Generator.normal`` fills its values in order, so the block has
        the values and leaves ``rng`` in the state of k one-draw calls."""
        size = self._dimension if rounds is None else (rounds, self._dimension)
        return rng.normal(0.0, self.sigma, size=size)

    def expected(self, params: np.ndarray) -> np.ndarray:
        return np.asarray(self._gradient_fn(params), dtype=np.float64).copy()


def shared_gradient_fn(
    estimators: Sequence[GradientEstimator],
) -> Callable[[np.ndarray], np.ndarray] | None:
    """The exact-gradient callable every estimator wraps, or ``None``
    when one is not a :class:`GaussianOracleEstimator` or they wrap
    different callables (callers then ask each estimator in turn)."""
    if not all(isinstance(e, GaussianOracleEstimator) for e in estimators):
        return None
    first = estimators[0].gradient_fn
    if all(e.gradient_fn == first for e in estimators):
        return first
    return None
