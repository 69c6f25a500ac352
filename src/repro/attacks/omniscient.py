"""The full paper's "omniscient" attack.

The omniscient adversary knows the exact gradient (it can read every
worker's data and the cost function) and proposes its *opposite*, scaled
large, trying to drive gradient ascent.  Against averaging this erases
the progress of all correct workers; against Krum the proposal's distance
to the correct cluster grows with the scale, so it is filtered out.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import Attack, AttackBatch, AttackContext
from repro.exceptions import ConfigurationError

__all__ = ["OmniscientAttack"]


class OmniscientAttack(Attack):
    """Propose ``−scale × ∇Q(x_t)`` (estimated by the honest mean if hidden).

    ``compensate_average=True`` strengthens the attack against linear
    rules: the proposal is chosen so the *average* of all n proposals
    equals ``−scale × g`` exactly, i.e. the adversary cancels the honest
    workers' contribution and injects pure ascent.
    """

    reads = frozenset({"true_gradient", "honest_gradients"})

    def __init__(self, scale: float = 10.0, *, compensate_average: bool = False):
        if scale <= 0:
            raise ConfigurationError(f"scale must be positive, got {scale}")
        self.scale = float(scale)
        self.compensate_average = bool(compensate_average)
        self.name = f"omniscient(scale={self.scale:g})"

    def craft(self, context: AttackContext) -> np.ndarray:
        gradient = (
            context.true_gradient
            if context.true_gradient is not None
            else context.honest_mean
        )
        gradient = np.asarray(gradient, dtype=np.float64)
        f = context.num_byzantine
        if not self.compensate_average:
            proposal = -self.scale * gradient
            return self._output(context, np.tile(proposal, (f, 1)))
        # Solve (Σ honest + f · V) / n = −scale · g for the shared V.
        n = context.num_workers
        honest_sum = context.honest_gradients.sum(axis=0)
        proposal = (-self.scale * gradient * n - honest_sum) / f
        return self._output(context, np.tile(proposal, (f, 1)))

    def craft_batch(self, batch: AttackBatch) -> np.ndarray:
        gradients = (
            batch.true_gradient
            if batch.true_gradient is not None
            else batch.honest_gradients.mean(axis=1)
        )
        gradients = np.asarray(gradients, dtype=np.float64)
        f = batch.num_byzantine
        if not self.compensate_average:
            proposals = -self.scale * gradients
        else:
            n = batch.num_workers
            honest_sums = batch.honest_gradients.sum(axis=1)
            proposals = (-self.scale * gradients * n - honest_sums) / f
        return self._output_batch(batch, np.repeat(proposals[:, None], f, axis=1))
