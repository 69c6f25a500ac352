"""Mini-batch gradient estimator over a worker's data shard."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError, DimensionMismatchError
from repro.gradients.base import GradientEstimator
from repro.models.base import Model
from repro.utils.validation import check_positive_int

__all__ = ["MinibatchEstimator"]


class MinibatchEstimator(GradientEstimator):
    """Gradient of ``model``'s loss on a uniform random mini-batch.

    Samples ``batch_size`` indices *with replacement* from the shard so
    the per-draw distribution is exactly i.i.d. uniform — the assumption
    the paper makes for correct workers ("each sample of data used for
    computing the gradient is drawn uniformly and independently").

    The shard is all of ``inputs``/``targets`` unless ``rows`` is given:
    then it is the rows of a shared train set at those ids, in that
    order, and the estimator keeps only the ids, not a copy of the rows.
    ``MinibatchEstimator(model, X, y, rows=s)`` draws and computes
    exactly what ``MinibatchEstimator(model, X[s], y[s])`` does.

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
        rows: np.ndarray | None = None,
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
        if rows is not None:
            rows = np.asarray(rows)
            if rows.ndim != 1 or rows.size == 0 or rows.dtype.kind not in "iu":
                raise ConfigurationError(
                    f"rows must be a non-empty 1-D integer array, got "
                    f"dtype {rows.dtype} and shape {rows.shape}"
                )
            if rows.min() < 0 or rows.max() >= len(inputs):
                raise ConfigurationError(
                    f"rows must lie in [0, {len(inputs)}), got "
                    f"[{rows.min()}, {rows.max()}]"
                )
        self.model = model
        self.inputs = inputs
        self.targets = targets
        self.rows = rows
        self.batch_size = check_positive_int(batch_size, "batch_size")

    @property
    def dimension(self) -> int:
        return self.model.dimension

    @property
    def shard_size(self) -> int:
        return len(self.inputs) if self.rows is None else len(self.rows)

    def draw_indices(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one mini-batch worth of shard indices from ``rng``.

        The only step of :meth:`estimate` that consumes the stream.
        """
        return rng.integers(0, self.shard_size, size=self.batch_size)

    def draw_rows(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one mini-batch from ``rng`` as row ids into ``inputs``."""
        indices = self.draw_indices(rng)
        return indices if self.rows is None else self.rows[indices]

    def gradient_at(self, params: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """The model gradient on the mini-batch at shard ``indices``."""
        if self.rows is not None:
            indices = self.rows[indices]
        return self.model.gradient(
            params, self.inputs[indices], self.targets[indices]
        )

    def estimate(self, params: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return self.gradient_at(params, self.draw_indices(rng))

    def expected(self, params: np.ndarray) -> np.ndarray:
        if self.rows is None:
            return self.model.gradient(params, self.inputs, self.targets)
        return self.model.gradient(
            params, self.inputs[self.rows], self.targets[self.rows]
        )
