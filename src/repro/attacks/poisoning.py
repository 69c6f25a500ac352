"""Data-poisoning Byzantine behaviour: label flipping.

A label-flipping worker is "Byzantine" in the mildest data-driven sense:
it runs the correct gradient computation but on corrupted labels.  The
introduction motivates Byzantine tolerance partly by such "biases in the
way the data samples are distributed among the processes".
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import Attack, AttackContext
from repro.exceptions import ConfigurationError
from repro.gradients.minibatch import MinibatchEstimator
from repro.models.base import Model

__all__ = ["LabelFlipAttack"]


def _flip_labels(targets: np.ndarray, num_classes: int) -> np.ndarray:
    """Deterministic label permutation: y → (num_classes − 1) − y."""
    return (num_classes - 1) - np.asarray(targets, dtype=np.int64)


class LabelFlipAttack(Attack):
    """Byzantine workers compute true gradients on label-flipped shards.

    Each Byzantine worker owns a shard (like a correct worker would) but
    flips every label with the standard ``y → C−1−y`` permutation before
    computing its mini-batch gradient.  Unlike the vector-space attacks
    this one produces plausible-looking gradients whose *direction* is
    wrong — a harder case for detection-style defenses, and a realistic
    rendering of dataset bias.

    ``boost`` scales the poisoned gradients (default 1.0 = plain data
    bias).  Boosted poisoning — the attacker amplifying its update to
    outweigh the honest mass — is the "model replacement" escalation
    studied in the federated-learning literature; it devastates linear
    aggregation while making the proposals *easier* for Krum to filter
    (their norm grows with the boost).
    """

    reads = frozenset({"params", "rng"})

    def __init__(
        self,
        model: Model,
        shards: list[tuple[np.ndarray, np.ndarray]],
        *,
        num_classes: int,
        batch_size: int,
        boost: float = 1.0,
    ):
        if num_classes < 2:
            raise ConfigurationError(f"num_classes must be >= 2, got {num_classes}")
        if not shards:
            raise ConfigurationError("need at least one Byzantine data shard")
        if boost <= 0:
            raise ConfigurationError(f"boost must be positive, got {boost}")
        self.boost = float(boost)
        self.name = "label-flip" if boost == 1.0 else f"label-flip(boost={boost:g})"
        self._estimators = [
            MinibatchEstimator(
                model,
                inputs,
                _flip_labels(targets, num_classes),
                batch_size=batch_size,
            )
            for inputs, targets in shards
        ]

    def craft(self, context: AttackContext) -> np.ndarray:
        f = context.num_byzantine
        proposals = np.empty((f, context.dimension))
        for k in range(f):
            estimator = self._estimators[k % len(self._estimators)]
            proposals[k] = self.boost * estimator.estimate(
                context.params, context.rng
            )
        return self._output(context, proposals)
