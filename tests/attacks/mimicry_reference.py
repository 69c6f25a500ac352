"""Frozen per-worker observer of the Lipschitz-mimicry attack.

:class:`ReferenceLipschitzMimicry` is :class:`LipschitzMimicryAttack`
with its honest-rate observer in its original form: one
``np.linalg.norm`` pair and one ``.copy()`` pair per honest worker, the
previous observations held in a dict keyed by worker id.  The library's
observer stacks the same work into per-worker tables, and
``tests/attacks/test_adaptive.py`` pins it against this reference bit
for bit (rate windows and crafted proposals).  Do not edit this file to
follow the library: it is the fixed point the stacked observer is
checked against.
"""

from __future__ import annotations

import numpy as np

from repro.attacks import LipschitzMimicryAttack
from repro.attacks.base import AttackContext

__all__ = ["ReferenceLipschitzMimicry"]


class ReferenceLipschitzMimicry(LipschitzMimicryAttack):
    """The mimicry attack with the per-worker observer loop."""

    def reset(self) -> None:
        super().reset()
        # Per honest worker id: previous (gradient, params) observation.
        self._prev_honest: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _observe_honest(self, context: AttackContext) -> None:
        honest_params = context.honest_params
        for row, worker_id in enumerate(context.honest_indices):
            gradient = context.honest_gradients[row]
            params = (
                context.params
                if honest_params is None
                else honest_params[row]
            )
            previous = self._prev_honest.get(int(worker_id))
            if previous is not None:
                prev_gradient, prev_params = previous
                displacement = float(np.linalg.norm(params - prev_params))
                if displacement > 0.0:
                    rate = (
                        float(np.linalg.norm(gradient - prev_gradient))
                        / displacement
                    )
                    if np.isfinite(rate):
                        self._rates.append(rate)
            self._prev_honest[int(worker_id)] = (
                gradient.copy(),
                params.copy(),
            )
