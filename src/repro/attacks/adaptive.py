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

import numpy as np

from repro.attacks.base import Attack, AttackBatch, AttackContext
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

    reads = frozenset({"true_gradient", "honest_gradients", "byzantine_staleness"})
    fallback_reads = frozenset({"honest_gradients"})

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

    def craft_batch(self, batch: AttackBatch) -> np.ndarray:
        gradients = (
            batch.true_gradient
            if batch.true_gradient is not None
            else batch.honest_gradients.mean(axis=1)
        )
        gradients = np.asarray(gradients, dtype=np.float64)
        if batch.byzantine_staleness is None:
            staleness = np.zeros(
                (batch.size, batch.num_byzantine), dtype=np.int64
            )
        else:
            staleness = batch.byzantine_staleness
        amplification = self._inverse_dampening(staleness)
        proposals = (-self.scale * amplification)[:, :, None] * gradients[:, None]
        return self._output_batch(batch, proposals)


class _MimicryState:
    """The state of the B mimicry cells crafted in one call: row ``b`` is
    cell ``b``'s, and each cell's instance holds the state and its row.

    Per honest worker id: the previous gradient and parameters observed,
    and whether the worker was observed yet.  Per cell: its previous
    shared proposal (once ``has_vector``), the Byzantine ids it was sent
    from and the parameters each of them was judged at.  Per round
    index: the parameters every cell read, and which cells read them.
    """

    def __init__(self, size: int, dimension: int):
        self.size = size
        self.gradients = np.zeros((size, 0, dimension))
        self.params = np.zeros((size, 0, dimension))
        self.seen = np.zeros((size, 0), dtype=bool)
        self.vector = np.zeros((size, dimension))
        self.has_vector = np.zeros(size, dtype=bool)
        self.judged = np.zeros((size, 0, dimension))
        self.judged_ids = np.zeros((size, 0), dtype=np.int64)
        self.memory: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._everyone = np.ones(size, dtype=bool)

    @classmethod
    def stack(
        cls, rows: list[tuple[_MimicryState | None, int]], dimension: int
    ) -> _MimicryState:
        """A state whose row ``b`` is row ``rows[b][1]`` of the state
        ``rows[b][0]`` (a fresh cell's for ``None``)."""
        state = cls(len(rows), dimension)
        held = [
            (b, old, row) for b, (old, row) in enumerate(rows) if old is not None
        ]
        if not held:
            return state
        width = max(old.seen.shape[1] for _, old, _ in held)
        slots = max(old.judged_ids.shape[1] for _, old, _ in held)
        state.gradients = np.zeros(
            (state.size, width, dimension),
            dtype=np.result_type(*(old.gradients for _, old, _ in held)),
        )
        state.params = np.zeros(
            (state.size, width, dimension),
            dtype=np.result_type(*(old.params for _, old, _ in held)),
        )
        state.seen = np.zeros((state.size, width), dtype=bool)
        state.judged = np.zeros((state.size, slots, dimension))
        state.judged_ids = np.full((state.size, slots), -1, dtype=np.int64)
        for b, old, row in held:
            kept, judged = old.seen.shape[1], old.judged_ids.shape[1]
            state.gradients[b, :kept] = old.gradients[row]
            state.params[b, :kept] = old.params[row]
            state.seen[b, :kept] = old.seen[row]
            state.vector[b] = old.vector[row]
            state.has_vector[b] = old.has_vector[row]
            state.judged[b, :judged] = old.judged[row]
            state.judged_ids[b, :judged] = old.judged_ids[row]
            for r, (values, valid) in old.memory.items():
                if valid[row]:
                    into, read = state.memory.setdefault(
                        r,
                        (
                            np.zeros((state.size, dimension)),
                            np.zeros(state.size, dtype=bool),
                        ),
                    )
                    into[b], read[b] = values[row], True
        return state

    def remember(self, t: int, params: np.ndarray, rounds: int) -> None:
        """Keep round ``t``'s parameters, and forget the rounds more than
        ``rounds`` before it."""
        self.memory[t] = (np.array(params, dtype=np.float64), self._everyone)
        for old in [r for r in self.memory if r < t - rounds]:
            del self.memory[old]

    def judged_at(self, rounds: np.ndarray, params: np.ndarray) -> np.ndarray:
        """The ``(B, f, d)`` parameters of the ``(B, f)`` ``rounds``: the
        remembered ones, else the cell's current ``params``."""
        if rounds.size == 0:
            return np.empty(rounds.shape + params.shape[-1:])
        keys = sorted(set(rounds.ravel().tolist()))
        blocks = []
        for r in keys:
            entry = self.memory.get(r)
            if entry is None:
                blocks.append(params)
            elif entry[1] is self._everyone:
                blocks.append(entry[0])
            else:
                blocks.append(np.where(entry[1][:, None], entry[0], params))
        cells = np.arange(self.size)[:, None]
        return np.stack(blocks)[np.searchsorted(keys, rounds), cells]

    def observe(self, batch: AttackBatch, windows: list[RateWindow]) -> None:
        """Append each cell's honest growth rates to its window, in worker
        order, and remember the honest gradients and parameters.

        The rates of all cells come from one subtraction per table and
        one :func:`~repro.utils.linalg.exact_row_dots` call each, the
        dot in the input dtype and the root in float64 (as ``math.sqrt``
        of the dot, also for float32 input)."""
        ids = np.asarray(batch.honest_indices, dtype=np.int64)
        if ids.size == 0:
            return
        gradients = batch.honest_gradients
        params = (
            np.asarray(batch.params)[:, None]
            if batch.honest_params is None
            else batch.honest_params
        )
        if self.seen.shape[1] <= ids.max():
            self._grow(
                max(batch.num_workers, int(ids.max()) + 1),
                gradients.dtype,
                params.dtype,
            )
        cells = np.arange(self.size)[:, None]
        seen = self.seen[cells, ids]
        if seen.any():
            rows = (cells * self.seen.shape[1] + ids).ravel()
            displacements = self._distances(self.params, rows, params)
            changes = self._distances(self.gradients, rows, gradients)
            with np.errstate(divide="ignore", invalid="ignore"):
                rates = changes / displacements
            kept = seen.ravel() & (displacements > 0.0) & np.isfinite(rates)
            rates = rates[kept].tolist()
            counts = kept.reshape(seen.shape).sum(axis=1).tolist()
            start = 0
            for window, count in zip(windows, counts):
                if count:
                    window.extend(rates[start : start + count])
                    start += count
        self.gradients[cells, ids] = gradients
        self.params[cells, ids] = params
        self.seen[cells, ids] = True

    def _distances(
        self, table: np.ndarray, rows: np.ndarray, values: np.ndarray
    ) -> np.ndarray:
        """``sqrt(v.dot(v))`` of every ``v = values − table row``, pairing
        the ``(B, m, d)`` ``values`` (or ``(B, 1, d)``, one row per cell)
        with the flat table ``rows``.  The rows are gathered and
        subtracted in place in one ``(B·m, d)`` block, the only
        temporary of that size."""
        dimension = table.shape[-1]
        work = np.asarray(
            table.reshape(-1, dimension)[rows],
            dtype=np.result_type(values, table),
        )
        stacked = work.reshape(self.size, -1, dimension)
        np.subtract(values, stacked, out=stacked)
        return np.sqrt(exact_row_dots(work), dtype=np.float64)

    def _grow(self, width: int, gradient_dtype, params_dtype) -> None:
        """Extend the per-worker tables to ``width`` worker ids, keeping
        the observations already made."""
        kept = self.seen.shape[1]
        shape = (self.size, width, self.vector.shape[1])
        gradients = np.zeros(shape, dtype=gradient_dtype)
        params = np.zeros(shape, dtype=params_dtype)
        gradients[:, :kept] = self.gradients
        params[:, :kept] = self.params
        seen = np.zeros((self.size, width), dtype=bool)
        seen[:, :kept] = self.seen
        self.gradients, self.params, self.seen = gradients, params, seen


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
    instance per simulation cell.  :meth:`craft_batch` crafts the cells
    of one configuration in one call, each from its own instance in
    ``batch.attacks``; :meth:`craft` is its ``B = 1`` case.  The cells'
    state is stacked into one :class:`_MimicryState`, re-stacked only
    when a call's instances differ from the previous call's.
    """

    stateful = True
    reads = frozenset(
        {
            "params",
            "honest_gradients",
            "honest_params",
            "true_gradient",
            "byzantine_staleness",
        }
    )

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
        # Observed honest growth rates (the filter's window, mimicked).
        self._rates = RateWindow(maxlen=self.window)
        # The stacked state this cell's row lives in (none yet).
        self._state: _MimicryState | None = None
        self._row = 0

    def _state_of(
        self, attacks: tuple[LipschitzMimicryAttack, ...], dimension: int
    ) -> _MimicryState:
        """The state of ``attacks``' cells, row ``b`` cell ``b``'s: the
        previous call's when it crafted the same instances in the same
        order, else a new stack of their rows."""
        state = attacks[0]._state
        if (
            state is not None
            and state.size == len(attacks)
            and all(
                a._state is state and a._row == b for b, a in enumerate(attacks)
            )
        ):
            return state
        if len({id(a) for a in attacks}) < len(attacks):
            raise ConfigurationError(
                f"one {self.name} instance crafts for two cells of a batch; "
                f"build one instance per cell"
            )
        state = _MimicryState.stack(
            [(a._state, a._row) for a in attacks], dimension
        )
        for b, attack in enumerate(attacks):
            attack._state, attack._row = state, b
        return state

    def craft(self, context: AttackContext) -> np.ndarray:
        def one(value):
            return None if value is None else np.asarray(value)[None]

        batch = AttackBatch(
            round_index=context.round_index,
            num_workers=context.num_workers,
            num_byzantine=context.num_byzantine,
            dimension=context.dimension,
            size=1,
            honest_gradients=one(context.honest_gradients),
            true_gradient=one(context.true_gradient),
            byzantine_staleness=one(context.byzantine_staleness),
            params=one(context.params),
            honest_params=one(context.honest_params),
            honest_indices=one(context.honest_indices),
            byzantine_indices=one(context.byzantine_indices),
            attacks=(self,),
        )
        return self._output(context, self.craft_batch(batch)[0])

    def craft_batch(self, batch: AttackBatch) -> np.ndarray:
        if batch.attacks is None and batch.size != 1:
            raise ConfigurationError(
                f"a batch of {batch.size} {self.name} cells must carry each "
                f"cell's instance"
            )
        attacks = (self,) if batch.attacks is None else tuple(batch.attacks)
        state = self._state_of(attacks, batch.dimension)
        t = batch.round_index
        params = np.asarray(batch.params)
        state.remember(t, params, self._PARAMS_MEMORY)
        state.observe(batch, [attack._rates for attack in attacks])

        gradients = (
            batch.true_gradient
            if batch.true_gradient is not None
            else batch.honest_gradients.mean(axis=1)
        )
        target = -self.scale * np.asarray(gradients, dtype=np.float64)

        f = batch.num_byzantine
        if batch.byzantine_staleness is None:
            staleness = np.zeros((batch.size, f), dtype=np.int64)
        else:
            staleness = np.asarray(batch.byzantine_staleness, dtype=np.int64)
        judged = state.judged_at(t - staleness, params)
        ids = np.asarray(batch.byzantine_indices, dtype=np.int64)
        # The filter measures each slot's rate against how far *its*
        # judged parameters moved; the tightest slot constrains the
        # shared proposal.
        matches = ids[:, :, None] == state.judged_ids[:, None, :]
        present = matches.any(axis=2)
        moved = np.full(present.shape, np.nan)
        if present.any():
            cells, slots = np.nonzero(present)
            previous = state.judged[cells, matches.argmax(axis=2)[cells, slots]]
            moved[cells, slots] = exact_row_norms(
                judged[cells, slots] - previous
            )
        positive = moved > 0.0
        has_positive = positive.any(axis=1).tolist()
        tightest = np.where(positive, moved, np.inf).min(axis=1, initial=np.inf)

        first = ~state.has_vector
        step = target - state.vector
        step_norms = exact_row_norms(step).tolist()
        vectors = target
        clamped: list[int] = []
        fractions: list[float] = []
        for b, (attack, limit, fresh, measured) in enumerate(
            zip(attacks, tightest.tolist(), first.tolist(), has_positive)
        ):
            if fresh or not measured or not attack._rates:
                # The first round, or no measurable rate this round
                # (parameters static, or no honest observations yet):
                # the filter has nothing to reject, jump to the target.
                continue
            threshold = attack._rates.quantile(self.quantile)
            allowed = self.margin * threshold * limit
            step_norm = step_norms[b]
            if not (step_norm <= allowed or step_norm == 0.0):
                clamped.append(b)
                fractions.append(allowed / step_norm)
        if clamped:
            vectors[clamped] = (
                state.vector[clamped]
                + np.array(fractions)[:, None] * step[clamped]
            )
        if first.any():
            # Perfect mimicry on the first round: indistinguishable from
            # a correct worker, and the anchor the drift starts from.
            vectors[first] = batch.honest_gradients[first].mean(axis=1)

        state.vector = vectors
        state.has_vector[:] = True
        state.judged, state.judged_ids = judged, ids.copy()
        return self._output_batch(batch, np.repeat(vectors[:, None], f, axis=1))


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
        self.reads = inner.reads | {"selected_last_round", "honest_gradients"}
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
        self.reads = inner.reads | {"selected_last_round", "honest_gradients"}
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
