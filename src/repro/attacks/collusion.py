"""The Figure 2 collusion attack against the "closest to all" rule.

The distance-based rule selects the proposal minimizing
``Σ_j ‖U − V_j‖²``, which algebraically equals
``n·‖U − barycenter‖² + const`` — so it always selects the proposal
*closest to the barycenter of all proposals*.  With f ≥ 2 colluders:
f − 1 of them park decoys in an arbitrarily remote area B, dragging the
barycenter toward B, and the remaining one proposes a "trojan" placed
exactly at the resulting barycenter.  The trojan wins the selection no
matter how far B is, so the adversary steers the server arbitrarily.

Krum defeats this because the decoys (and, for large displacement, the
trojan itself) are excluded from every correct proposal's n − f − 2
nearest neighbours.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import Attack, AttackContext
from repro.exceptions import ByzantineToleranceError, ConfigurationError
from repro.utils.rng import as_generator
from repro.utils.validation import check_positive_int

__all__ = ["CollusionAttack"]


class CollusionAttack(Attack):
    """Figure 2: f − 1 remote decoys plus one barycenter trojan.

    Parameters
    ----------
    decoy_distance:
        How far (in units of the honest proposals' spread) the decoy
        cluster sits from the honest barycenter.  The lemma's point is
        that the attack works for *any* distance.
    direction_seed:
        The decoy direction is a fixed random unit vector so the attack
        is deterministic given the seed (colluders agree on it offline).
    against_gradient:
        When true, the colluders aim the decoys at the *negative* of the
        (estimated) true gradient instead of a random direction, so the
        selected trojan also reverses the descent direction — the
        strongest form of the Figure 2 attack.
    """

    def __init__(
        self,
        decoy_distance: float = 100.0,
        direction_seed: int = 7,
        *,
        against_gradient: bool = False,
    ):
        if decoy_distance <= 0:
            raise ConfigurationError(
                f"decoy_distance must be positive, got {decoy_distance}"
            )
        self.decoy_distance = float(decoy_distance)
        self.direction_seed = check_positive_int(
            direction_seed, "direction_seed", minimum=0
        )
        self.against_gradient = bool(against_gradient)
        self.name = f"collusion(R={self.decoy_distance:g})"

    def craft(self, context: AttackContext) -> np.ndarray:
        f = context.num_byzantine
        if f < 2:
            raise ByzantineToleranceError(
                f"the Figure 2 collusion needs f >= 2, got f={f}",
                n=context.num_workers,
                f=f,
            )
        if self.against_gradient:
            gradient = (
                context.true_gradient
                if context.true_gradient is not None
                else context.honest_mean
            )
            direction = -np.asarray(gradient, dtype=np.float64)
        else:
            direction_rng = as_generator(self.direction_seed)
            direction = direction_rng.standard_normal(context.dimension)
        norm = float(np.linalg.norm(direction))
        if norm < 1e-30:
            direction = np.zeros(context.dimension)
            direction[0] = 1.0
        else:
            direction = direction / norm

        honest = context.honest_gradients
        honest_mean = context.honest_mean
        spread = float(np.mean(np.linalg.norm(honest - honest_mean, axis=1)))
        scale = max(spread, 1e-12) * self.decoy_distance
        decoy = honest_mean + scale * direction

        n = context.num_workers
        # Trojan T solves T = (Σ honest + (f−1)·decoy + T) / n  restricted
        # to the candidate set: place it at the barycenter of the OTHER
        # n − 1 proposals; then T is strictly the proposal closest to the
        # overall barycenter, so closest-to-all must select it.
        others_sum = honest.sum(axis=0) + (f - 1) * decoy
        trojan = others_sum / (n - 1)

        proposals = np.tile(decoy, (f, 1))
        proposals[-1] = trojan
        return self._output(context, proposals)
