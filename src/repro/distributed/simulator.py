"""The round-based training simulation.

``TrainingSimulation`` wires together the paper's cast: the parameter
server (a :class:`~repro.servers.ReplicatedServerGroup`), ``n − f``
correct workers with private i.i.d. gradient estimators, ``f``
Byzantine slots whose proposals an omniscient
:class:`~repro.attacks.Attack` crafts after seeing everything, and a
choice function ``F``.  ``run`` executes rounds and records metrics.

A round is the engine's stage pipeline at batch size one (see
:mod:`repro.engine.simulation`): the workers read the broadcast
``x_t``, the honest ones propose ``G(x_t, ξ)``, the adversary crafts,
the cell's own rule aggregates, and the server applies
``x_{t+1} = x_t − γ_t · F(V_1, ..., V_n)``.  The executor that runs the
rounds owns the cell's state, so a simulation a
:class:`~repro.engine.BatchedSimulation` consumed cannot run again.

Rounds are synchronous by default.  The asynchronous mode —
``max_staleness > 0`` and/or a ``delay_schedule`` — relaxes the barrier:
a worker whose schedule says it lags ``τ`` at round ``t`` submits the
gradient it computed at ``x_{t−τ}``.  Effective staleness is
``min(τ, t, max_staleness)`` (a worker cannot predate round 0, and the
bounded-staleness protocol caps the lag — the stale-synchronous-parallel
contract), so ``max_staleness = 0`` is the synchronous loop bit for bit,
whatever schedule is configured.

The server side is ``num_servers`` replicas of which up to
``byzantine_servers`` broadcast corrupted parameters, defended by a
worker-side coordinate median over the replica broadcasts, with
``num_shards`` splitting aggregation across coordinate slices.  The
degenerate tier ``num_servers=1, byzantine_servers=0, num_shards=1`` is
the paper's single reliable server, bit for bit.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Sequence
from dataclasses import dataclass

import numpy as np

from repro.attacks.base import Attack
from repro.core.aggregator import Aggregator
from repro.distributed.delays import DelaySchedule, make_delay_schedule
from repro.distributed.metrics import RoundRecord, TrainingHistory
from repro.distributed.schedules import LearningRateSchedule
from repro.exceptions import ConfigurationError, SimulationError
from repro.gradients.base import GradientEstimator
from repro.servers.attacks import ServerAttack
from repro.servers.replication import ReplicatedServerGroup
from repro.utils.rng import SeedLike, spawn_generators

__all__ = [
    "TrainingSimulation",
    "HonestWorker",
    "resolve_byzantine_slots",
    "evaluated_record",
    "round_record",
    "halt_if_nonfinite",
    "selected_last_round",
]

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


def round_record(
    round_index: int,
    learning_rate: float,
    aggregate: np.ndarray,
    params: np.ndarray,
    selected: Sequence[int],
    byzantine_ids: Collection[int],
) -> RoundRecord:
    """One round's record: the norms of the aggregate and of the updated
    ``params``, and the selected ids of which the Byzantine ones are
    counted."""
    chosen = tuple(int(i) for i in selected)
    return RoundRecord(
        round_index=round_index,
        learning_rate=float(learning_rate),
        aggregate_norm=float(np.linalg.norm(aggregate)),
        params_norm=float(np.linalg.norm(params)),
        selected=chosen,
        byzantine_selected=sum(1 for i in chosen if i in byzantine_ids),
    )


def halt_if_nonfinite(
    params: np.ndarray,
    round_index: int,
    aggregator: Aggregator,
    node: int | None = None,
) -> None:
    """The ``halt_on_nonfinite`` guard: raise ``SimulationError`` when an
    update left ``params`` (of gossip ``node``, if given) non-finite."""
    if np.all(np.isfinite(params)):
        return
    owner = "parameters" if node is None else f"parameters of node {node}"
    raise SimulationError(
        f"{owner} became non-finite at round {round_index} (aggregator "
        f"{aggregator.name}); a Byzantine proposal reached the update"
    )


def selected_last_round(
    byzantine_ids: np.ndarray, last_selected: np.ndarray | None
) -> np.ndarray | None:
    """Selection feedback for defense-probing attacks: per Byzantine id,
    whether the rule selected it last round (``None`` before the first
    round)."""
    if last_selected is None:
        return None
    return np.isin(byzantine_ids, last_selected)


@dataclass(frozen=True)
class HonestWorker:
    """A correct worker: its id, private gradient estimator and RNG
    stream."""

    worker_id: int
    estimator: GradientEstimator
    rng: np.random.Generator


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
        Held by the server group: when true, a non-finite parameter
        vector after an update raises ``SimulationError`` instead of
        silently training on NaN.
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
        self._initial_params = np.array(initial_params, dtype=np.float64)
        # The executor that owns the round state once the cell runs:
        # this simulation's own loop executor, or a BatchedSimulation
        # that consumed it (the engine sets it).
        self._executor = None

    @property
    def params(self) -> np.ndarray:
        """The current parameter vector x_t (a defensive copy)."""
        if self._executor is None:
            return self._initial_params.copy()
        return self._loop().params[0]

    @property
    def is_async(self) -> bool:
        """Whether this simulation runs the staleness-aware round path
        (a delay schedule and/or a positive staleness window)."""
        return self.delay_schedule is not None or self.max_staleness > 0

    def _loop(self):
        """This cell's own executor: the engine's round stages at B = 1,
        aggregating through the cell's rule.  Built on first use; a cell
        another executor consumed refuses to run again."""
        # Imported here: the engine imports this module.
        from repro.engine.simulation import LoopExecutor

        if self._executor is None:
            LoopExecutor([self])
        if not isinstance(self._executor, LoopExecutor):
            raise ConfigurationError(
                f"this simulation was consumed by "
                f"{type(self._executor).__name__}; build a fresh one"
            )
        return self._executor

    def run_round(self) -> RoundRecord:
        """Execute one round (synchronous or bounded-stale) and return
        its record."""
        return self._loop().run_round()[0]

    def run(self, num_rounds: int, *, eval_every: int = 10) -> TrainingHistory:
        """Run ``num_rounds`` rounds, evaluating every ``eval_every``-th.

        The final round is always evaluated so ``history.final_loss`` is
        well defined when an evaluator is configured.
        """
        return self._loop().run(num_rounds, eval_every=eval_every)[0]

    def evaluate_record(
        self, record: RoundRecord, params: np.ndarray | None = None
    ) -> RoundRecord:
        """Attach this simulation's evaluation metrics to a round record.

        ``params`` defaults to the current parameters; the executors
        pass the row they advance.
        """
        if params is None:
            params = self.params
        return evaluated_record(
            record, params, self.evaluate, self.true_gradient_fn
        )
