"""Frozen per-cell Lipschitz-mimicry attack.

:class:`ReferenceLipschitzMimicry` is :class:`LipschitzMimicryAttack` as
it crafted one cell at a time: the honest-rate observer in its original
form (one ``np.linalg.norm`` pair and one ``.copy()`` pair per honest
worker, the previous observations held in a dict keyed by worker id),
the parameter memory as a dict keyed by round index, the judged
parameters and the step decision per Byzantine slot.  Only the
constructor (argument checks and name) comes from the library.  The
library crafts every cell of a configuration in one batched call, and
``tests/attacks/test_adaptive.py`` and
``tests/attacks/test_batched_craft.py`` pin it against this reference
bit for bit (rate windows and crafted proposals).  Do not edit this file
to follow the library: it is the fixed point the batched craft is
checked against.
"""

from __future__ import annotations

import numpy as np

from repro.attacks import LipschitzMimicryAttack
from repro.attacks.base import AttackContext
from repro.core.staleness import RateWindow
from repro.utils.linalg import exact_row_norms

__all__ = ["ReferenceLipschitzMimicry"]


class ReferenceLipschitzMimicry(LipschitzMimicryAttack):
    """The mimicry attack, one cell per craft."""

    #: How many of its own past parameter snapshots the adversary keeps
    #: for stale-parameter lookups.
    _PARAMS_MEMORY = 64

    def reset(self) -> None:
        # x_t by round index, for reconstructing the stale parameters a
        # lagging Byzantine slot is judged at.
        self._params_by_round: dict[int, np.ndarray] = {}
        # Per honest worker id: previous (gradient, params) observation.
        self._prev_honest: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # Observed honest growth rates (the filter's window, mimicked).
        self._rates = RateWindow(maxlen=self.window)
        # Our previous shared proposal, and per Byzantine slot the
        # parameters that proposal was judged against.
        self._prev_vector: np.ndarray | None = None
        self._prev_judged: dict[int, np.ndarray] = {}

    def _judged_params(
        self, context: AttackContext, slot: int, tau: int
    ) -> np.ndarray:
        """The parameters slot ``slot``'s proposal is filtered at:
        ``x_{t−τ}`` when retained, else the freshest known vector."""
        stored = self._params_by_round.get(context.round_index - tau)
        return context.params if stored is None else stored

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

    def craft(self, context: AttackContext) -> np.ndarray:
        t = context.round_index
        self._params_by_round[t] = np.asarray(
            context.params, dtype=np.float64
        ).copy()
        for old in [
            r for r in self._params_by_round if r < t - self._PARAMS_MEMORY
        ]:
            del self._params_by_round[old]
        self._observe_honest(context)

        gradient = (
            context.true_gradient
            if context.true_gradient is not None
            else context.honest_mean
        )
        target = -self.scale * np.asarray(gradient, dtype=np.float64)

        if context.byzantine_staleness is None:
            staleness = np.zeros(context.num_byzantine, dtype=np.int64)
        else:
            staleness = context.byzantine_staleness
        judged = {
            int(slot): self._judged_params(context, int(slot), int(tau))
            for slot, tau in zip(context.byzantine_indices, staleness)
        }

        if self._prev_vector is None:
            # Perfect mimicry on the first round: indistinguishable from
            # a correct worker, and the anchor the drift starts from.
            vector = context.honest_mean.copy()
        else:
            # The filter measures each slot's rate against how far *its*
            # judged parameters moved; the tightest slot constrains the
            # shared proposal.
            moved = [
                judged[slot] - self._prev_judged[slot]
                for slot in judged
                if slot in self._prev_judged
            ]
            displacements = (
                exact_row_norms(np.array(moved)).tolist() if moved else []
            )
            positive = [d for d in displacements if d > 0.0]
            step = target - self._prev_vector
            step_norm = float(np.linalg.norm(step))
            if not positive or not self._rates:
                # No measurable rate this round (parameters static, or
                # no honest observations yet): the filter has nothing to
                # reject, jump straight to the target.
                vector = target
            else:
                threshold = self._rates.quantile(self.quantile)
                allowed = self.margin * threshold * min(positive)
                if step_norm <= allowed or step_norm == 0.0:
                    vector = target
                else:
                    vector = self._prev_vector + (allowed / step_norm) * step

        self._prev_vector = vector.copy()
        self._prev_judged = {
            slot: params.copy() for slot, params in judged.items()
        }
        return self._output(
            context, np.repeat(vector[None], context.num_byzantine, axis=0)
        )
