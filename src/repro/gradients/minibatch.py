"""Mini-batch gradient estimator over a worker's data shard."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError, DimensionMismatchError
from repro.gradients.base import GradientEstimator
from repro.models.base import Model

__all__ = ["MinibatchEstimator"]


class MinibatchEstimator(GradientEstimator):
    """Gradient of ``model``'s loss on a uniform random mini-batch.

    Samples ``batch_size`` indices *with replacement* from the shard so
    the per-draw distribution is exactly i.i.d. uniform — the assumption
    the paper makes for correct workers ("each sample of data used for
    computing the gradient is drawn uniformly and independently").

    ``expected`` returns the full-shard gradient, which is the estimator
    mean under uniform sampling.
    """

    def __init__(
        self,
        model: Model,
        inputs: np.ndarray,
        targets: np.ndarray,
        *,
        batch_size: int,
    ):
        inputs = np.asarray(inputs, dtype=np.float64)
        targets = np.asarray(targets)
        if inputs.ndim != 2:
            raise DimensionMismatchError(f"inputs must be (n, d), got {inputs.shape}")
        num_features = getattr(model, "num_features", None)
        if num_features is not None and inputs.shape[1] != num_features:
            raise DimensionMismatchError(
                f"shard has {inputs.shape[1]} features but the model expects "
                f"{num_features}"
            )
        if len(inputs) != len(targets):
            raise DimensionMismatchError(
                f"{len(inputs)} inputs vs {len(targets)} targets"
            )
        if len(inputs) == 0:
            raise ConfigurationError("estimator needs a non-empty data shard")
        if batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
        self.model = model
        self.inputs = inputs
        self.targets = targets
        self.batch_size = int(batch_size)

    @property
    def dimension(self) -> int:
        return self.model.dimension

    @property
    def shard_size(self) -> int:
        return len(self.inputs)

    def draw_indices(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one mini-batch worth of shard indices from ``rng``.

        Split out from :meth:`estimate` so the batched engine executor
        can consume every worker's RNG stream in loop order first and
        compute the gradients afterwards — the draw is the only
        stream-consuming step, so the two-phase schedule is bit-for-bit
        identical to interleaved ``estimate`` calls.
        """
        return rng.integers(0, self.shard_size, size=self.batch_size)

    def gradient_at(self, params: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """The model gradient on the mini-batch at ``indices``."""
        return self.model.gradient(
            params, self.inputs[indices], self.targets[indices]
        )

    def estimate(self, params: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return self.gradient_at(params, self.draw_indices(rng))

    def expected(self, params: np.ndarray) -> np.ndarray:
        return self.model.gradient(params, self.inputs, self.targets)
