"""Post-2017 attacks included as extensions for the ablation benches.

These were designed specifically to evade distance-based defenses like
Krum, and bound what the paper's guarantee does **not** promise: the
(α, f) resilience property constrains the aggregate's direction and
moments, not worst-case behaviour outside the variance condition.

* :class:`LittleIsEnoughAttack` — Baruch et al., "A Little Is Enough"
  (NeurIPS 2019): perturb the mean by z standard deviations per
  coordinate, with z small enough to stay inside the honest cloud.
* :class:`InnerProductAttack` — Xie et al., "Fall of Empires" (UAI
  2019): send ``−ε · mean`` with small ε, flipping the aggregate's inner
  product with the gradient while remaining close to the origin-side of
  the honest cluster.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import Attack, AttackBatch, AttackContext
from repro.exceptions import ConfigurationError

__all__ = ["LittleIsEnoughAttack", "InnerProductAttack"]


class LittleIsEnoughAttack(Attack):
    """All Byzantine workers send ``mean − z · std`` (coordinate-wise).

    ``z=None`` picks the classic heuristic z from the normal quantile
    such that the perturbed point still has sufficiently many honest
    supporters: ``z = Φ⁻¹((n − f − s) / (n − f))`` with
    ``s = ⌊n/2⌋ + 1 − f`` supporters needed.
    """

    reads = frozenset({"honest_gradients"})

    def __init__(self, z: float | None = None):
        if z is not None and z <= 0:
            raise ConfigurationError(f"z must be positive, got {z}")
        self.z = z
        self.name = f"little-is-enough(z={'auto' if z is None else f'{z:g}'})"

    def _auto_z(self, n: int, f: int) -> float:
        supporters = n // 2 + 1 - f
        quantile = max((n - f - supporters) / max(n - f, 1), 1e-6)
        # Inverse normal CDF via the Acklam rational approximation is
        # overkill here; a coarse bisection on erf is exact enough.
        from math import erf, sqrt

        lo, hi = 0.0, 10.0
        for _ in range(80):
            mid = (lo + hi) / 2
            if 0.5 * (1 + erf(mid / sqrt(2))) < quantile:
                lo = mid
            else:
                hi = mid
        return max((lo + hi) / 2, 1e-3)

    def craft(self, context: AttackContext) -> np.ndarray:
        mean = context.honest_mean
        std = context.honest_gradients.std(axis=0)
        z = self.z if self.z is not None else self._auto_z(
            context.num_workers, context.num_byzantine
        )
        proposal = mean - z * std
        return self._output(
            context, np.tile(proposal, (context.num_byzantine, 1))
        )

    def craft_batch(self, batch: AttackBatch) -> np.ndarray:
        honest = batch.honest_gradients
        z = self.z if self.z is not None else self._auto_z(
            batch.num_workers, batch.num_byzantine
        )
        proposals = honest.mean(axis=1) - z * honest.std(axis=1)
        return self._output_batch(
            batch, np.repeat(proposals[:, None], batch.num_byzantine, axis=1)
        )


class InnerProductAttack(Attack):
    """All Byzantine workers send ``−ε ×`` the honest mean (small ε).

    Keeps the proposal norm comparable to honest ones (unlike the loud
    omniscient attack) while making the aggregate's inner product with
    the true gradient negative whenever it is selected.
    """

    reads = frozenset({"honest_gradients"})

    def __init__(self, epsilon: float = 0.5):
        if epsilon <= 0:
            raise ConfigurationError(f"epsilon must be positive, got {epsilon}")
        self.epsilon = float(epsilon)
        self.name = f"inner-product(eps={self.epsilon:g})"

    def craft(self, context: AttackContext) -> np.ndarray:
        proposal = -self.epsilon * context.honest_mean
        return self._output(
            context, np.tile(proposal, (context.num_byzantine, 1))
        )

    def craft_batch(self, batch: AttackBatch) -> np.ndarray:
        proposals = -self.epsilon * batch.honest_gradients.mean(axis=1)
        return self._output_batch(
            batch, np.repeat(proposals[:, None], batch.num_byzantine, axis=1)
        )
