"""Random-noise attacks (the full paper's "Gaussian" attacker)."""

from __future__ import annotations

import numpy as np

from repro.attacks.base import Attack, AttackBatch, AttackContext
from repro.exceptions import ConfigurationError

__all__ = ["GaussianAttack"]


class GaussianAttack(Attack):
    """Each Byzantine worker sends ``N(mean, σ² I_d)`` noise.

    With a large σ (the full paper uses σ = 200) this destroys a linear
    aggregate immediately while being trivially filtered by Krum — it is
    the "loud" attack of the evaluation section.
    """

    reads = frozenset({"rng"})

    def __init__(self, sigma: float = 200.0, mean: float = 0.0):
        if sigma < 0:
            raise ConfigurationError(f"sigma must be non-negative, got {sigma}")
        self.sigma = float(sigma)
        self.mean = float(mean)
        self.name = f"gaussian(sigma={self.sigma:g})"

    def craft(self, context: AttackContext) -> np.ndarray:
        proposals = context.rng.normal(
            self.mean, self.sigma, size=(context.num_byzantine, context.dimension)
        )
        return self._output(context, proposals)

    def craft_batch(self, batch: AttackBatch) -> np.ndarray:
        proposals = np.empty((batch.size, batch.num_byzantine, batch.dimension))
        for cell, rng in enumerate(batch.rngs):
            proposals[cell] = rng.normal(
                self.mean, self.sigma, size=(batch.num_byzantine, batch.dimension)
            )
        return self._output_batch(batch, proposals)
