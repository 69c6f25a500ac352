"""Simple failure-mode attacks: sign flips, crashes, stragglers.

These model the non-malicious Byzantine sources the introduction lists —
"stalled processes, or biases in the way the data samples are
distributed" — plus the classic adversarial sign flip.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import Attack, AttackBatch, AttackContext
from repro.exceptions import ConfigurationError
from repro.utils.validation import check_positive_int

__all__ = ["SignFlipAttack", "CrashAttack", "StragglerAttack", "NonFiniteAttack"]


class SignFlipAttack(Attack):
    """Send ``−scale ×`` the (estimated) true gradient.

    Uses the exact gradient when the context exposes it, otherwise the
    honest barycenter — the omniscient adversary's best estimator.
    """

    reads = frozenset({"true_gradient", "honest_gradients"})

    def __init__(self, scale: float = 1.0):
        if scale <= 0:
            raise ConfigurationError(f"scale must be positive, got {scale}")
        self.scale = float(scale)
        self.name = f"sign-flip(scale={self.scale:g})"

    def craft(self, context: AttackContext) -> np.ndarray:
        gradient = (
            context.true_gradient
            if context.true_gradient is not None
            else context.honest_mean
        )
        flipped = -self.scale * np.asarray(gradient, dtype=np.float64)
        return self._output(
            context, np.tile(flipped, (context.num_byzantine, 1))
        )

    def craft_batch(self, batch: AttackBatch) -> np.ndarray:
        gradients = (
            batch.true_gradient
            if batch.true_gradient is not None
            else batch.honest_gradients.mean(axis=1)
        )
        flipped = -self.scale * np.asarray(gradients, dtype=np.float64)
        return self._output_batch(
            batch, np.repeat(flipped[:, None], batch.num_byzantine, axis=1)
        )


class CrashAttack(Attack):
    """Stalled process: the worker contributes an all-zero vector.

    In a synchronous parameter server a crashed worker's slot is either
    dropped or zero-filled; zero-filling is the adversarially *mildest*
    Byzantine behaviour and still biases a linear aggregate toward zero
    (slowing convergence by a factor n/(n−f)).
    """

    name = "crash"
    reads = frozenset()

    def craft(self, context: AttackContext) -> np.ndarray:
        return self._output(
            context,
            np.zeros((context.num_byzantine, context.dimension)),
        )

    def craft_batch(self, batch: AttackBatch) -> np.ndarray:
        return self._output_batch(
            batch,
            np.zeros((batch.size, batch.num_byzantine, batch.dimension)),
        )


class NonFiniteAttack(Attack):
    """Computation error: the worker sends NaN/Inf coordinates.

    The crudest real-world Byzantine failure (bit flips, overflow bugs,
    uninitialized buffers).  A linear aggregate is destroyed instantly —
    one NaN poisons the mean — while distance-filtering rules treat the
    proposal as infinitely far and ignore it.
    """

    reads = frozenset()

    def __init__(self, value: float = float("nan")):
        if np.isfinite(value):
            raise ConfigurationError(
                f"NonFiniteAttack needs NaN or +/-Inf, got {value}"
            )
        self.value = float(value)
        self.name = f"non-finite({self.value})"

    def craft(self, context: AttackContext) -> np.ndarray:
        return self._output(
            context,
            np.full((context.num_byzantine, context.dimension), self.value),
        )

    def craft_batch(self, batch: AttackBatch) -> np.ndarray:
        return self._output_batch(
            batch,
            np.full(
                (batch.size, batch.num_byzantine, batch.dimension), self.value
            ),
        )


class StragglerAttack(Attack):
    """Stale gradients: replay the honest barycenter from ``delay`` rounds ago.

    Models workers that lag behind the broadcast round counter.  The
    replayed vector is stale but not adversarial, so robust rules should
    tolerate it; plain averaging merely slows down.
    """

    stateful = True
    reads = frozenset({"honest_gradients"})

    def __init__(self, delay: int = 5):
        self.delay = check_positive_int(delay, "delay")
        self.name = f"straggler(delay={self.delay})"
        self._history: list[np.ndarray] = []

    def craft(self, context: AttackContext) -> np.ndarray:
        self._history.append(context.honest_mean.copy())
        if len(self._history) > self.delay + 1:
            self._history.pop(0)
        stale = self._history[0]
        return self._output(context, np.tile(stale, (context.num_byzantine, 1)))

    def reset(self) -> None:
        """Clear replay history (call between independent runs)."""
        self._history.clear()
