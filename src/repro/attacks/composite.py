"""Composite attack: different Byzantine workers run different behaviours.

Realistic failure scenarios mix causes — some workers crash, some lag,
one is actively malicious.  ``CompositeAttack`` partitions the f
Byzantine slots among sub-attacks and lets each craft its share, while
every sub-attack still sees the full omniscient context.
"""

from __future__ import annotations

import numpy as np

from repro.attacks.base import Attack, AttackContext
from repro.exceptions import ConfigurationError

__all__ = ["CompositeAttack"]

_SHARED_FIELDS = frozenset(
    {
        "params",
        "honest_gradients",
        "rng",
        "aggregator",
        "true_gradient",
        "honest_staleness",
        "honest_params",
    }
)
_PER_SLOT_FIELDS = frozenset({"byzantine_staleness", "selected_last_round"})


class CompositeAttack(Attack):
    """Split the Byzantine slots among several attacks.

    ``parts`` maps each sub-attack to the number of workers it controls;
    the counts must sum to the round's f.  Slots are assigned to
    sub-attacks in order (the first ``counts[0]`` Byzantine ids go to the
    first attack, and so on).
    """

    def __init__(self, parts: list[tuple[Attack, int]]):
        if not parts:
            raise ConfigurationError("CompositeAttack needs at least one part")
        for attack, count in parts:
            if not isinstance(attack, Attack):
                raise ConfigurationError(f"{attack!r} is not an Attack")
            if count < 1:
                raise ConfigurationError(
                    f"each part needs >= 1 worker, got {count} for {attack.name}"
                )
        self.parts = list(parts)
        total = sum(count for _a, count in parts)
        self.name = "composite(" + "+".join(
            f"{count}x{attack.name}" for attack, count in parts
        ) + ")"
        self._total = total
        self.stateful = any(attack.stateful for attack, _count in parts)
        self.reads = frozenset().union(*(attack.reads for attack, _ in parts))

    def reset(self) -> None:
        for attack, _count in self.parts:
            attack.reset()

    def craft(self, context: AttackContext) -> np.ndarray:
        if context.num_byzantine != self._total:
            raise ConfigurationError(
                f"{self.name} controls {self._total} workers but the round "
                f"has {context.num_byzantine} Byzantine slots"
            )
        proposals = np.empty((context.num_byzantine, context.dimension))
        # Each part sees the declared fields, its own Byzantine slots and
        # their per-slot fields; neighbor views and the receiver stay
        # with the composite.
        shared = {
            name: getattr(context, name)
            for name in self.reads & _SHARED_FIELDS
        }
        per_slot = {
            name: getattr(context, name)
            for name in self.reads & _PER_SLOT_FIELDS
        }
        offset = 0
        for attack, count in self.parts:
            part = slice(offset, offset + count)
            declared = {"params": None, "honest_gradients": None, "rng": None}
            declared.update(shared)
            for name, value in per_slot.items():
                declared[name] = None if value is None else value[part]
            sub_context = AttackContext(
                round_index=context.round_index,
                byzantine_indices=context.byzantine_indices[part],
                honest_indices=context.honest_indices,
                num_workers=context.num_workers,
                dimension=context.dimension,
                **declared,
            )
            proposals[part] = attack.craft(sub_context)
            offset += count
        return self._output(context, proposals)
