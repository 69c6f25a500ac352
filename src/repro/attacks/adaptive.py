"""Adaptive adversaries that exploit the defenses themselves.

The static attacks pick their poison once; the defenses added since —
Kardam dampening, the empirical-Lipschitz filter, selection-based rules —
are adaptive, so a faithful robustness evaluation needs adversaries that
adapt back.  Three strategies, each keyed to one defensive mechanism:

* :class:`StalenessGamingAttack` rides the dampening curve ``Λ(τ)``:
  it pre-amplifies its proposal by ``1 / Λ(τ)`` so a Kardam-style
  wrapper dampens it back to exactly the intended push, while an
  unfiltered rule receives the amplified vector raw.
* :class:`LipschitzMimicryAttack` estimates the honest workers'
  empirical Lipschitz rates from the omniscient context and steers the
  aggregate toward ``−scale · ∇Q`` only as fast as the filter's
  quantile window allows, so its own growth rate never looks like an
  outlier.
* :class:`DefenseProbingAttack` wraps any inner attack and adapts an
  amplitude multiplier each round from the
  ``AttackContext.selected_last_round`` feedback: scale up while the
  choice function keeps accepting the proposal, back off toward the
  honest barycenter when it gets filtered.
* :class:`BanditProbingAttack` replaces the probe's fixed grow/shrink
  walk with a UCB bandit over a grid of amplitude arms, treating
  "selected last round" as the reward — it converges on the largest
  amplitude the choice function still accepts instead of oscillating
  around it.
"""

from __future__ import annotations

import math

import numpy as np

from repro.attacks.base import Attack, AttackContext
from repro.core.staleness import DAMPENING_MODES, RateWindow
from repro.exceptions import ConfigurationError
from repro.utils.linalg import exact_row_dots, exact_row_norms
from repro.utils.validation import check_positive_int

__all__ = [
    "StalenessGamingAttack",
    "LipschitzMimicryAttack",
    "DefenseProbingAttack",
    "BanditProbingAttack",
]


class StalenessGamingAttack(Attack):
    """Pre-amplify by the inverse dampening factor ``1 / Λ(τ)``.

    Each Byzantine slot submitting with staleness ``τ`` sends
    ``−(scale / Λ(τ)) · ∇Q`` (honest barycenter when the exact gradient
    is hidden).  A staleness-aware rule using the same dampening mode
    shrinks the proposal back to a constant ``−scale · ∇Q`` — the attack
    never loses strength to the dampening — while any rule that ignores
    staleness receives the amplified vector at full magnitude, degrading
    the worse the more the adversary lags.  In a synchronous round
    (``byzantine_staleness`` absent) ``τ = 0`` and ``Λ = 1``, so the
    attack degenerates to a plain sign flip.

    Stateless: the timing information lives in the context.
    """

    def __init__(
        self, scale: float = 1.0, dampening: str = "inverse", gamma: float = 0.5
    ):
        if scale <= 0:
            raise ConfigurationError(f"scale must be positive, got {scale}")
        if dampening not in DAMPENING_MODES:
            raise ConfigurationError(
                f"dampening must be one of {DAMPENING_MODES}, got {dampening!r}"
            )
        if not 0.0 < float(gamma) <= 1.0:
            raise ConfigurationError(f"gamma must be in (0, 1], got {gamma}")
        self.scale = float(scale)
        self.dampening = dampening
        self.gamma = float(gamma)
        extras = "" if dampening == "inverse" else f",dampening={dampening}"
        if dampening == "exponential" and self.gamma != 0.5:
            extras += f",gamma={self.gamma:g}"
        self.name = f"staleness-gaming(scale={self.scale:g}{extras})"

    def _inverse_dampening(self, staleness: np.ndarray) -> np.ndarray:
        """``1 / Λ(τ)`` per Byzantine slot (the amplification factor)."""
        staleness = np.asarray(staleness, dtype=np.float64)
        if self.dampening == "none":
            return np.ones_like(staleness)
        if self.dampening == "inverse":
            return 1.0 + staleness
        return self.gamma ** (-staleness)

    def craft(self, context: AttackContext) -> np.ndarray:
        gradient = (
            context.true_gradient
            if context.true_gradient is not None
            else context.honest_mean
        )
        gradient = np.asarray(gradient, dtype=np.float64)
        if context.byzantine_staleness is None:
            staleness = np.zeros(context.num_byzantine, dtype=np.int64)
        else:
            staleness = context.byzantine_staleness
        amplification = self._inverse_dampening(staleness)
        proposals = (-self.scale * amplification)[:, None] * gradient[None, :]
        return self._output(context, proposals)


class LipschitzMimicryAttack(Attack):
    """Steer the mean while staying inside the Lipschitz quantile window.

    The empirical-Lipschitz filter drops a slot whose growth rate
    ``‖v(t) − v(t−1)‖ / ‖x(t) − x(t−1)‖`` exceeds a quantile of the
    recently accepted rates.  This adversary runs the same estimator on
    the honest proposals it observes (the omniscient context exposes
    them, with the stale parameters each was computed at), takes the
    ``quantile`` of its own rate window shrunk by ``margin``, and moves
    its proposal toward ``−scale · ∇Q`` no faster than that budget per
    round.  Its rate therefore sits *inside* the filter's learned
    distribution while the proposal drifts adversarial.

    The first round sends the honest barycenter (perfect mimicry, and
    the anchor the drift starts from).  Stateful across rounds — one
    instance per simulation cell.
    """

    stateful = True

    #: How many of its own past parameter snapshots the adversary keeps
    #: for stale-parameter lookups; comfortably above any realistic
    #: bounded-staleness window.
    _PARAMS_MEMORY = 64

    def __init__(
        self,
        scale: float = 1.0,
        quantile: float = 0.9,
        window: int = 256,
        margin: float = 0.9,
    ):
        if scale <= 0:
            raise ConfigurationError(f"scale must be positive, got {scale}")
        if not 0.0 < float(quantile) <= 1.0:
            raise ConfigurationError(
                f"quantile must be in (0, 1], got {quantile}"
            )
        window = check_positive_int(window, "window")
        if margin <= 0:
            raise ConfigurationError(f"margin must be positive, got {margin}")
        self.scale = float(scale)
        self.quantile = float(quantile)
        self.window = window
        self.margin = float(margin)
        self.name = (
            f"lipschitz-mimicry(scale={self.scale:g},"
            f"quantile={self.quantile:g})"
        )
        self.reset()

    def reset(self) -> None:
        # x_t by round index, for reconstructing the stale parameters a
        # lagging Byzantine slot is judged at.
        self._params_by_round: dict[int, np.ndarray] = {}
        # Per honest worker id (one row each): the previous gradient and
        # parameters observed, and whether the worker was observed yet.
        self._prev_gradients = np.empty((0, 0))
        self._prev_params = np.empty((0, 0))
        self._seen = np.zeros(0, dtype=bool)
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
        """Append the honest workers' growth rates, in worker order, and
        remember their gradients and parameters.

        All row differences come from one subtraction per table, and
        their norms ``sqrt(v.dot(v))`` from one
        :func:`~repro.utils.linalg.exact_row_dots` call each, the dot in
        the input dtype and the root in float64 (as ``math.sqrt`` of the
        dot, also under a float32 backend).
        """
        ids = np.asarray(context.honest_indices, dtype=np.int64)
        if ids.size == 0:
            return
        gradients = context.honest_gradients
        params = (
            context.params
            if context.honest_params is None
            else context.honest_params
        )
        if self._seen.size <= ids.max():
            self._grow_tables(
                max(context.num_workers, int(ids.max()) + 1),
                gradients,
                params,
            )
        seen = self._seen[ids]
        if seen.any():
            rows, at, old = gradients, params, ids
            if not seen.all():
                rows, old = gradients[seen], ids[seen]
                at = params if params.ndim == 1 else params[seen]
            moved = at - self._prev_params[old]
            changed = rows - self._prev_gradients[old]
            for displacement, change in zip(
                np.sqrt(exact_row_dots(moved), dtype=np.float64).tolist(),
                np.sqrt(exact_row_dots(changed), dtype=np.float64).tolist(),
            ):
                if displacement > 0.0:
                    rate = change / displacement
                    if math.isfinite(rate):
                        self._rates.append(rate)
        self._prev_gradients[ids] = gradients
        self._prev_params[ids] = params
        self._seen[ids] = True

    def _grow_tables(self, rows: int, gradients, params) -> None:
        """Extend the per-worker tables to ``rows`` worker ids, keeping
        the observations already made."""
        kept = self._seen.size
        prev_gradients = np.empty(
            (rows, gradients.shape[-1]), dtype=gradients.dtype
        )
        prev_params = np.empty((rows, params.shape[-1]), dtype=params.dtype)
        if kept:
            prev_gradients[:kept] = self._prev_gradients
            prev_params[:kept] = self._prev_params
        self._prev_gradients = prev_gradients
        self._prev_params = prev_params
        self._seen = np.concatenate([self._seen, np.zeros(rows - kept, bool)])

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


class DefenseProbingAttack(Attack):
    """Adapt an inner attack's amplitude to the selection feedback.

    Each round the wrapper reads ``context.selected_last_round``: if any
    of its slots was selected by the choice function, the defense
    accepted the previous proposal and the scale multiplies by ``grow``;
    if every slot was rejected, it multiplies by ``shrink``.  The inner
    attack's proposals are then interpolated away from the honest
    barycenter: ``mean + scale · (inner − mean)``, so ``scale → 0``
    degenerates to benign-looking behaviour and ``scale > 1``
    extrapolates beyond the inner attack.  Against selection-based rules
    (krum, multi-krum, bulyan) this walks the amplitude to the largest
    value the rule still accepts.

    Rules that select nothing (statistical rules like the medians or
    plain averaging report an empty selected set) always read as
    "rejected", so the probe decays toward benign against them — the
    honest outcome for an adversary whose probe signal is silent.

    Stateful across rounds — one instance per simulation cell.
    """

    stateful = True

    def __init__(
        self,
        inner: Attack | None = None,
        *,
        grow: float = 2.0,
        shrink: float = 0.5,
        initial_scale: float = 1.0,
        min_scale: float = 1e-3,
        max_scale: float = 1e3,
    ):
        if inner is None:
            from repro.attacks.simple import SignFlipAttack

            inner = SignFlipAttack()
        if not isinstance(inner, Attack):
            raise ConfigurationError(
                f"inner must be an Attack, got {type(inner).__name__}"
            )
        if grow < 1.0:
            raise ConfigurationError(f"grow must be >= 1, got {grow}")
        if not 0.0 < float(shrink) <= 1.0:
            raise ConfigurationError(
                f"shrink must be in (0, 1], got {shrink}"
            )
        if initial_scale <= 0:
            raise ConfigurationError(
                f"initial_scale must be positive, got {initial_scale}"
            )
        if not 0.0 < float(min_scale) <= float(max_scale):
            raise ConfigurationError(
                f"need 0 < min_scale <= max_scale, got "
                f"{min_scale} and {max_scale}"
            )
        self.inner = inner
        self.grow = float(grow)
        self.shrink = float(shrink)
        self.initial_scale = float(
            np.clip(initial_scale, min_scale, max_scale)
        )
        self.min_scale = float(min_scale)
        self.max_scale = float(max_scale)
        self.name = f"probe({inner.name})"
        self.reset()

    def reset(self) -> None:
        self._scale = self.initial_scale
        self.inner.reset()

    @property
    def scale(self) -> float:
        """The current amplitude multiplier (probing state)."""
        return self._scale

    def craft(self, context: AttackContext) -> np.ndarray:
        feedback = context.selected_last_round
        if feedback is not None:
            if bool(np.any(feedback)):
                self._scale = min(self._scale * self.grow, self.max_scale)
            else:
                self._scale = max(self._scale * self.shrink, self.min_scale)
        base = self.inner.craft(context)
        mean = context.honest_mean[None, :]
        proposals = mean + self._scale * (base - mean)
        return self._output(context, proposals)


class BanditProbingAttack(Attack):
    """UCB amplitude search over the selection feedback.

    Where :class:`DefenseProbingAttack` walks its amplitude with a fixed
    grow/shrink rule — forever oscillating around the acceptance
    boundary — this adversary treats each amplitude in ``arms`` as a
    bandit arm.  A round's reward is 1 when any of its slots appears in
    ``selected_last_round`` (the choice function accepted the previous
    proposal, which was crafted at the previously pulled arm) and 0
    otherwise.  Arms are pulled by the UCB1 index
    ``mean + exploration · sqrt(ln N / n_arm)`` after one warm-up pull
    each, so play concentrates on the largest amplitude the defense
    still accepts while cheaper arms keep a logarithmic trial budget.

    The proposal is the probe interpolation ``mean + arm · (inner −
    mean)``.  Fully deterministic — ties break toward the first
    (smallest) arm and no RNG is consumed — so loop and batched
    executors agree.  Stateful across rounds — one instance per
    simulation cell.
    """

    stateful = True

    def __init__(
        self,
        inner: Attack | None = None,
        *,
        arms: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0),
        exploration: float = 1.0,
    ):
        if inner is None:
            from repro.attacks.simple import SignFlipAttack

            inner = SignFlipAttack()
        if not isinstance(inner, Attack):
            raise ConfigurationError(
                f"inner must be an Attack, got {type(inner).__name__}"
            )
        arms = tuple(float(a) for a in arms)
        if not arms or any(a <= 0 for a in arms):
            raise ConfigurationError(
                f"arms must be a non-empty tuple of positive amplitudes, "
                f"got {arms}"
            )
        if len(set(arms)) != len(arms):
            raise ConfigurationError(f"arms must be distinct, got {arms}")
        if exploration < 0:
            raise ConfigurationError(
                f"exploration must be >= 0, got {exploration}"
            )
        self.inner = inner
        self.arms = arms
        self.exploration = float(exploration)
        self.name = f"probe-bandit({inner.name})"
        self.reset()

    def reset(self) -> None:
        self._pulls = np.zeros(len(self.arms), dtype=np.int64)
        self._rewards = np.zeros(len(self.arms), dtype=np.float64)
        self._last_arm: int | None = None
        self.inner.reset()

    @property
    def scale(self) -> float:
        """The amplitude the bandit pulled in the most recent round."""
        if self._last_arm is None:
            return self.arms[0]
        return self.arms[self._last_arm]

    def _choose_arm(self) -> int:
        unplayed = np.flatnonzero(self._pulls == 0)
        if unplayed.size:
            return int(unplayed[0])
        total = float(self._pulls.sum())
        means = self._rewards / self._pulls
        index = means + self.exploration * np.sqrt(
            np.log(total) / self._pulls
        )
        return int(np.argmax(index))

    def craft(self, context: AttackContext) -> np.ndarray:
        feedback = context.selected_last_round
        if feedback is not None and self._last_arm is not None:
            # Credit the previous round's arm: the feedback describes
            # the proposal that arm produced.
            self._pulls[self._last_arm] += 1
            self._rewards[self._last_arm] += float(bool(np.any(feedback)))
        arm = self._choose_arm()
        self._last_arm = arm
        base = self.inner.craft(context)
        mean = context.honest_mean[None, :]
        proposals = mean + self.arms[arm] * (base - mean)
        return self._output(context, proposals)
