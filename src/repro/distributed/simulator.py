"""The round-based training simulation.

``TrainingSimulation`` wires together the paper's cast: one reliable
parameter server, ``n − f`` correct workers with private i.i.d. gradient
estimators, ``f`` Byzantine slots whose proposals an omniscient
:class:`~repro.attacks.Attack` crafts after seeing everything, and a
choice function ``F``.  ``run`` executes rounds and records metrics.

Rounds are synchronous by default.  The asynchronous mode —
``max_staleness > 0`` and/or a ``delay_schedule`` — relaxes the barrier:
a worker whose schedule says it lags ``τ`` at round ``t`` submits the
gradient it computed at ``x_{t−τ}``, tagged with round ``t − τ``, and
the server accepts it inside its bounded-staleness window.  Effective
staleness is ``min(τ, t, max_staleness)`` (a worker cannot predate
round 0, and the bounded-staleness protocol caps the lag — the
stale-synchronous-parallel contract), so ``max_staleness = 0`` is the
synchronous loop bit for bit, whatever schedule is configured.

The server side is a :class:`~repro.servers.ReplicatedServerGroup`:
``num_servers`` replicas of which up to ``byzantine_servers`` broadcast
corrupted parameters (crafted by a registered server attack), defended
by a worker-side coordinate median over the replica broadcasts, with
``num_shards`` splitting aggregation across coordinate slices.  The
degenerate tier ``num_servers=1, byzantine_servers=0, num_shards=1`` is
the paper's single reliable server, bit for bit.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.attacks.base import Attack, AttackContext
from repro.core.aggregator import Aggregator
from repro.distributed.delays import DelaySchedule, make_delay_schedule
from repro.distributed.messages import GradientMessage, ParameterBroadcast
from repro.distributed.metrics import RoundRecord, TrainingHistory
from repro.distributed.schedules import LearningRateSchedule
from repro.distributed.worker import ByzantineWorker, HonestWorker
from repro.exceptions import ConfigurationError, SimulationError
from repro.gradients.base import GradientEstimator
from repro.servers.attacks import ServerAttack
from repro.servers.replication import ReplicatedServerGroup
from repro.utils.linalg import stack_vectors
from repro.utils.rng import SeedLike, spawn_generators

__all__ = ["TrainingSimulation", "resolve_byzantine_slots", "evaluated_record"]

Evaluator = Callable[[np.ndarray], dict[str, float]]


def resolve_byzantine_slots(
    spec: str | Sequence[int], num_workers: int, num_byzantine: int
) -> list[int]:
    """The sorted ids the adversary controls among ``num_workers``:
    ``"last"``, ``"first"`` or an explicit sequence of ``num_byzantine``
    distinct ids in ``[0, num_workers)``."""
    n, f = num_workers, num_byzantine
    if isinstance(spec, str):
        if spec == "last":
            return list(range(n - f, n))
        if spec == "first":
            return list(range(f))
        raise ConfigurationError(
            f"byzantine_slots must be 'first', 'last' or explicit ids, "
            f"got {spec!r}"
        )
    slots = sorted(int(s) for s in spec)
    if len(slots) != f:
        raise ConfigurationError(
            f"expected {f} byzantine slots, got {len(slots)}"
        )
    if len(set(slots)) != len(slots) or any(s < 0 or s >= n for s in slots):
        raise ConfigurationError(
            f"byzantine slots must be distinct ids in [0, {n}), got {slots}"
        )
    return slots


def evaluated_record(
    record: RoundRecord,
    params: np.ndarray,
    evaluate: Evaluator | None,
    true_gradient_fn: Callable[[np.ndarray], np.ndarray] | None,
    extras: dict[str, float] | None = None,
) -> RoundRecord:
    """``record`` with the evaluation of ``params`` attached.

    The evaluator's ``loss``/``accuracy``/``grad_norm`` keys land in the
    record fields and every other metric in ``extras``, followed by the
    caller's ``extras``.  Without an evaluated ``grad_norm`` the norm of
    ``true_gradient_fn(params)`` stands in.
    """
    loss = accuracy = grad_norm = None
    merged: dict[str, float] = {}
    if evaluate is not None:
        metrics = dict(evaluate(params))
        loss = metrics.pop("loss", None)
        accuracy = metrics.pop("accuracy", None)
        grad_norm = metrics.pop("grad_norm", None)
        merged = {k: float(v) for k, v in metrics.items()}
    if grad_norm is None and true_gradient_fn is not None:
        grad_norm = float(np.linalg.norm(true_gradient_fn(params)))
    merged.update(extras or {})
    return RoundRecord(
        round_index=record.round_index,
        learning_rate=record.learning_rate,
        aggregate_norm=record.aggregate_norm,
        params_norm=record.params_norm,
        selected=record.selected,
        byzantine_selected=record.byzantine_selected,
        loss=None if loss is None else float(loss),
        accuracy=None if accuracy is None else float(accuracy),
        grad_norm=None if grad_norm is None else float(grad_norm),
        extras=merged,
    )


class TrainingSimulation:
    """Distributed SGD under Byzantine attack, as one reproducible object.

    Parameters
    ----------
    aggregator:
        The server's choice function F.
    schedule:
        Learning-rate schedule γ_t.
    honest_estimators:
        One gradient estimator per correct worker (n − f of them).
    initial_params:
        The ``x_0`` vector.
    num_byzantine:
        f; requires ``attack`` when positive.
    attack:
        Crafts the f Byzantine proposals each round.
    byzantine_slots:
        Which worker ids the adversary controls: "last" (default),
        "first", or an explicit sequence of f distinct ids in [0, n).
        Krum's tie-break depends on identifiers, so the placement is an
        ablation knob.
    true_gradient_fn:
        Optional exact-gradient oracle ∇Q(x) exposed to omniscient
        attacks and recorded as ``grad_norm`` each evaluation.
    evaluate:
        Optional callable mapping params to metric dict; recognized keys
        ``loss``/``accuracy`` land in the record fields, everything else
        goes into ``extras``.
    halt_on_nonfinite:
        Threaded to the :class:`~repro.distributed.server.ParameterServer`:
        when true, a non-finite parameter vector after an update raises
        ``SimulationError`` instead of silently training on NaN.
    max_staleness:
        The server's bounded-staleness window (0 = synchronous).
    delay_schedule:
        A :class:`~repro.distributed.delays.DelaySchedule` instance or
        registry name modeling per-worker lag; ``None`` keeps every
        worker fresh.  Randomized schedules are bound to a stream
        spawned from the root seed, so the delay pattern is reproducible
        from the cell's seed alone.
    num_servers:
        Parameter-server replica count (1 = the paper's single server).
    byzantine_servers:
        How many replicas broadcast corrupted parameters; requires
        ``server_attack`` when positive.
    num_shards:
        Coordinate shards for per-shard aggregation (1 = unsharded).
    server_attack:
        A :class:`~repro.servers.ServerAttack` instance or registry name
        crafting the corrupted replica broadcasts.
    seed:
        Root seed; worker streams, the attack stream, the delay stream
        and the server-attack stream are spawned from it independently.
    """

    def __init__(
        self,
        *,
        aggregator: Aggregator,
        schedule: LearningRateSchedule,
        honest_estimators: Sequence[GradientEstimator],
        initial_params: np.ndarray,
        num_byzantine: int = 0,
        attack: Attack | None = None,
        byzantine_slots: str | Sequence[int] = "last",
        true_gradient_fn: Callable[[np.ndarray], np.ndarray] | None = None,
        evaluate: Evaluator | None = None,
        halt_on_nonfinite: bool = False,
        max_staleness: int = 0,
        delay_schedule: DelaySchedule | str | None = None,
        num_servers: int = 1,
        byzantine_servers: int = 0,
        num_shards: int = 1,
        server_attack: ServerAttack | str | None = None,
        seed: SeedLike = 0,
    ):
        if num_byzantine < 0:
            raise ConfigurationError(f"num_byzantine must be >= 0, got {num_byzantine}")
        if num_byzantine > 0 and attack is None:
            raise ConfigurationError(
                f"num_byzantine={num_byzantine} requires an attack"
            )
        if num_byzantine == 0 and attack is not None:
            raise ConfigurationError("an attack was supplied but num_byzantine=0")
        if not honest_estimators:
            raise ConfigurationError("need at least one honest estimator")
        if int(max_staleness) < 0:
            raise ConfigurationError(
                f"max_staleness must be >= 0, got {max_staleness}"
            )

        self.num_honest = len(honest_estimators)
        self.num_byzantine = int(num_byzantine)
        self.num_workers = self.num_honest + self.num_byzantine
        aggregator.check_tolerance(self.num_workers)

        self.byzantine_ids = resolve_byzantine_slots(
            byzantine_slots, self.num_workers, self.num_byzantine
        )
        honest_ids = [
            i for i in range(self.num_workers) if i not in set(self.byzantine_ids)
        ]

        # num_honest worker streams, the attack stream, one delay stream
        # used to bind randomized delay schedules, and the server-attack
        # stream.  Spawning is sequential and prefix-stable, so the
        # earlier streams are identical to the pre-tier (and pre-async)
        # layouts — existing trajectories are unchanged.
        streams = spawn_generators(seed, self.num_honest + 3)
        self.attack_rng = streams[self.num_honest]
        self.honest_workers = [
            HonestWorker(worker_id, estimator, rng)
            for worker_id, estimator, rng in zip(
                honest_ids, honest_estimators, streams[: self.num_honest]
            )
        ]
        self.byzantine_workers = [ByzantineWorker(i) for i in self.byzantine_ids]

        self.max_staleness = int(max_staleness)
        if isinstance(delay_schedule, str):
            delay_schedule = make_delay_schedule(delay_schedule)
        if delay_schedule is not None and not isinstance(
            delay_schedule, DelaySchedule
        ):
            raise ConfigurationError(
                f"delay_schedule must be a DelaySchedule, registry name or "
                f"None, got {type(delay_schedule).__name__}"
            )
        self.delay_schedule = (
            None
            if delay_schedule is None
            else delay_schedule.bind(streams[self.num_honest + 1])
        )

        self.server = ReplicatedServerGroup(
            initial_params,
            aggregator,
            schedule,
            num_servers=num_servers,
            byzantine_servers=byzantine_servers,
            num_shards=num_shards,
            server_attack=server_attack,
            rng=streams[self.num_honest + 2],
            halt_on_nonfinite=halt_on_nonfinite,
            max_staleness=self.max_staleness,
        )
        dims = {est.dimension for est in honest_estimators}
        if dims != {self.server.dimension}:
            raise ConfigurationError(
                f"estimator dimensions {sorted(dims)} do not match parameter "
                f"dimension {self.server.dimension}"
            )
        self.attack = attack
        if self.attack is not None:
            # Fresh run: discard any state a reused attack instance may
            # carry from a previous simulation (stragglers' queues,
            # probing scales, ...), so sequential reuse is deterministic.
            self.attack.reset()
        self.true_gradient_fn = true_gradient_fn
        self.evaluate = evaluate

    @property
    def params(self) -> np.ndarray:
        return self.server.params

    @property
    def is_async(self) -> bool:
        """Whether this simulation runs the staleness-aware round path
        (a delay schedule and/or a positive staleness window)."""
        return self.delay_schedule is not None or self.max_staleness > 0

    def effective_staleness(self, worker_id: int, round_index: int) -> int:
        """The lag actually applied to a worker's round-t proposal:
        the schedule's desired τ, clipped by the start of time and by
        the bounded-staleness window (SSP semantics — a worker cannot
        fall further behind than the server's bound)."""
        if self.delay_schedule is None:
            return 0
        tau = int(self.delay_schedule.staleness(worker_id, round_index))
        if tau < 0:
            raise SimulationError(
                f"delay schedule produced negative staleness {tau} for "
                f"worker {worker_id} at round {round_index}"
            )
        return min(tau, round_index, self.max_staleness)

    def run_round(self) -> RoundRecord:
        """Execute one round (synchronous or bounded-stale) and return
        its record."""
        broadcast = self.server.broadcast()
        t = broadcast.round_index
        rate = self.server.schedule(t)
        is_async = self.is_async

        honest_messages = []
        honest_staleness = []
        for worker in self.honest_workers:
            tau = self.effective_staleness(worker.worker_id, t)
            if tau == 0:
                honest_messages.append(worker.compute(broadcast))
            else:
                stale = ParameterBroadcast(
                    round_index=t - tau,
                    params=self.server.params_at(t - tau),
                )
                honest_messages.append(worker.compute(stale))
            honest_staleness.append(tau)
        messages = list(honest_messages)

        if self.num_byzantine > 0:
            assert self.attack is not None
            byzantine_staleness = [
                self.effective_staleness(worker.worker_id, t)
                for worker in self.byzantine_workers
            ]
            context = AttackContext(
                round_index=t,
                params=broadcast.params,
                honest_gradients=stack_vectors(
                    [m.vector for m in honest_messages]
                ),
                byzantine_indices=np.asarray(self.byzantine_ids, dtype=np.int64),
                honest_indices=np.asarray(
                    [w.worker_id for w in self.honest_workers], dtype=np.int64
                ),
                num_workers=self.num_workers,
                rng=self.attack_rng,
                aggregator=self.server.aggregator,
                true_gradient=(
                    self.true_gradient_fn(broadcast.params)
                    if self.true_gradient_fn is not None
                    else None
                ),
                honest_staleness=(
                    np.asarray(honest_staleness, dtype=np.int64)
                    if is_async
                    else None
                ),
                byzantine_staleness=(
                    np.asarray(byzantine_staleness, dtype=np.int64)
                    if is_async
                    else None
                ),
                honest_params=(
                    np.stack(
                        [
                            self.server.params_at(t - tau)
                            for tau in honest_staleness
                        ]
                    )
                    if is_async
                    else None
                ),
                selected_last_round=(
                    np.isin(
                        np.asarray(self.byzantine_ids, dtype=np.int64),
                        self.server.last_selected,
                    )
                    if self.server.last_selected is not None
                    else None
                ),
            )
            crafted = self.attack.craft(context)
            for worker, vector, tau in zip(
                self.byzantine_workers, crafted, byzantine_staleness
            ):
                messages.append(
                    GradientMessage(
                        round_index=t - tau,
                        worker_id=worker.worker_id,
                        vector=vector,
                    )
                )

        result = self.server.step(messages)
        byzantine_set = set(self.byzantine_ids)
        selected = tuple(int(i) for i in result.selected)
        return RoundRecord(
            round_index=t,
            learning_rate=rate,
            aggregate_norm=float(np.linalg.norm(result.vector)),
            params_norm=float(np.linalg.norm(self.server.params)),
            selected=selected,
            byzantine_selected=sum(1 for i in selected if i in byzantine_set),
        )

    def run(self, num_rounds: int, *, eval_every: int = 10) -> TrainingHistory:
        """Run ``num_rounds`` rounds, evaluating every ``eval_every``-th.

        The final round is always evaluated so ``history.final_loss`` is
        well defined when an evaluator is configured.
        """
        if num_rounds < 1:
            raise ConfigurationError(f"num_rounds must be >= 1, got {num_rounds}")
        if eval_every < 1:
            raise ConfigurationError(f"eval_every must be >= 1, got {eval_every}")
        history = TrainingHistory()
        for t in range(num_rounds):
            record = self.run_round()
            if t % eval_every == 0 or t == num_rounds - 1:
                record = self.evaluate_record(record)
            history.append(record)
        return history

    def evaluate_record(
        self, record: RoundRecord, params: np.ndarray | None = None
    ) -> RoundRecord:
        """Attach this simulation's evaluation metrics to a round record.

        ``params`` defaults to the server's current parameters; the
        batched engine executor passes the scenario's externally-tracked
        parameter vector instead (it advances parameters outside the
        server).
        """
        if params is None:
            params = self.server.params
        return evaluated_record(
            record, params, self.evaluate, self.true_gradient_fn
        )
