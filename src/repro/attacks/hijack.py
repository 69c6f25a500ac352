"""The constructive attack behind Lemma 3.1.

Lemma 3.1: for any linear choice function ``F = Σ λ_i V_i`` with non-zero
coefficients and any target ``U``, a single Byzantine worker can make F
output exactly U.  The construction: the Byzantine worker in slot b sends

    V_b = (U − Σ_{i ≠ b} λ_i V_i) / λ_b.

With f > 1 Byzantine workers the extra ones send zero vectors (any known
value works); the designated one compensates for everything.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import Attack, AttackContext
from repro.exceptions import ConfigurationError, DimensionMismatchError

__all__ = ["LinearHijackAttack"]


class LinearHijackAttack(Attack):
    """Force a linear rule to output the target vector ``U``.

    Parameters
    ----------
    target:
        The vector U the server should be forced to apply.  Passing the
        negative of the current gradient direction makes SGD *ascend*;
        passing a fixed point's pull makes SGD converge to an
        attacker-chosen parameter vector.
    weights:
        The rule's coefficients λ.  ``None`` (default) means uniform
        averaging, λ_i = 1/n.
    """

    reads = frozenset({"honest_gradients"})

    def __init__(self, target: np.ndarray, weights: np.ndarray | None = None):
        self.target = np.asarray(target, dtype=np.float64)
        if self.target.ndim != 1:
            raise DimensionMismatchError(
                f"target must be a 1-d vector, got shape {self.target.shape}"
            )
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.ndim != 1:
                raise DimensionMismatchError(
                    f"weights must be 1-d, got shape {weights.shape}"
                )
            if np.any(weights == 0.0):
                raise ConfigurationError("hijack requires non-zero coefficients")
        self.weights = weights
        self.name = "linear-hijack"

    def craft(self, context: AttackContext) -> np.ndarray:
        if context.dimension != self.target.shape[0]:
            raise DimensionMismatchError(
                f"target has dimension {self.target.shape[0]}, context has "
                f"{context.dimension}"
            )
        n = context.num_workers
        if self.weights is None:
            weights = np.full(n, 1.0 / n)
        else:
            if len(self.weights) != n:
                raise DimensionMismatchError(
                    f"weights built for {len(self.weights)} workers, round has {n}"
                )
            weights = self.weights

        proposals = np.zeros((context.num_byzantine, context.dimension))
        # All Byzantine workers except the last send zeros; the last sends
        # the compensating vector of Lemma 3.1.
        designated = context.num_byzantine - 1
        designated_slot = int(context.byzantine_indices[designated])
        lam = weights[designated_slot]
        contribution = weights[context.honest_indices] @ context.honest_gradients
        proposals[designated] = (self.target - contribution) / lam
        return self._output(context, proposals)
