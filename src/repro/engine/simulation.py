"""The round stages, and the two executors that run them.

A training round is one pipeline of stages over a ``(B, n, d)`` batch of
B same-shaped cells: *view* (the server tier's worker view), *propose*
(honest proposals, fresh or from the staleness window), *craft* (the
attack), *aggregate*, *update* (one ``(B, d)`` SGD step plus the
non-finite halt) and *record*.  The stage code owns each cell's state —
its parameter row, history and view windows and last selection — and
takes the :class:`~repro.distributed.simulator.TrainingSimulation` it
runs: a consumed simulation refuses to run again.

The two executors differ only in the aggregate stage:

* :class:`BatchedSimulation` groups cells by rule configuration and
  aggregates each group through one kernel of :mod:`repro.core.batched`
  (with a per-cell loop fallback for rules without a kernel);
* :class:`LoopExecutor` is one cell aggregated by its own rule through
  :class:`~repro.core.batched.LoopBatchedAggregator` — the executor
  behind ``TrainingSimulation.run``.

The native kernels are bit-for-bit equal to the per-cell rules, so every
``TrainingHistory`` matches across executors record for record, float
for float.  ``tests/engine/test_differential.py`` enforces that, and
``tests/distributed/server_reference.py`` pins the stages against a
frozen message-passing round.

What makes the batched executor faster than B loops:

* one batched aggregation kernel call per rule group per round instead
  of B Python dispatches (the O(n²·d) GEMM of Lemma 4.1 amortizes);
* one parameter update for the whole batch;
* gradient sharing: when a cell's honest workers all wrap the same
  deterministic gradient function (the Gaussian-oracle workload), the
  gradient is evaluated once per cell-round instead of once per
  worker-round — bit-identical because the oracle adds its noise to the
  same expected vector either way.

Minibatch (dataset-backed) workloads take a per-worker path instead:
each round the propose stage first draws every worker's mini-batch
indices in worker order — the only RNG-consuming step, so each private
stream advances exactly as interleaved ``estimate`` calls would — and
then computes the per-worker model gradients.

Asynchronous cells (``max_staleness``/``delay_schedule``) fill each
stale worker's proposal from the history row its delay schedule
selects.  The effective staleness ``min(τ, t, max_staleness)`` is
prefetched: each async cell keeps a table for a chunk of upcoming
rounds, filled by one
:meth:`~repro.distributed.delays.DelaySchedule.staleness_block` call.
Staleness-aware rules (the Kardam-style filter) have no vectorized
kernel, so their cells take the loop fallback, which receives the
per-proposal staleness and used-parameter blocks; plain rules under
staleness keep their native kernels.  ``native_fraction`` reports the
split.

Server-tier cells (``num_servers``/``byzantine_servers``) materialize
the round's worker view — the coordinate median over replica
broadcasts of the cell's canonical row — exactly once per round, and
route every worker read (fresh and stale proposals, the attack's
omniscient context, the used-parameter blocks) through a per-cell view
window.  The SGD update, records and evaluation stay on the canonical
row, and the server-attack RNG stream advances once per cell-round.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.attacks.base import AttackContext
from repro.backend import ArrayBackend, resolve_backend
from repro.core.aggregator import Aggregator
from repro.core.batched import (
    BatchedAggregator,
    LoopBatchedAggregator,
    batch_group_key,
    make_batched_aggregator,
)
from repro.distributed.metrics import RoundRecord, TrainingHistory
from repro.distributed.simulator import (
    TrainingSimulation,
    halt_if_nonfinite,
    round_record,
    selected_last_round,
)
from repro.exceptions import ConfigurationError, SimulationError
from repro.gradients.minibatch import MinibatchEstimator
from repro.gradients.oracle import GaussianOracleEstimator

__all__ = ["BatchedSimulation", "LoopExecutor"]

#: Rounds of effective staleness prefetched per async cell and block
#: query; bounds each cell's staleness table at O(chunk · n).
_STALENESS_CHUNK = 64


@dataclass
class _Scenario:
    """Per-scenario state extracted from one TrainingSimulation."""

    index: int  # position in the caller's input order
    simulation: TrainingSimulation
    params: np.ndarray  # (d,) current x_t — row view into the batch matrix
    shared_gradient_fn: object | None  # fast path: one ∇Q call per round
    minibatch: bool  # all honest estimators are MinibatchEstimators
    honest_ids: np.ndarray  # ascending honest worker ids
    byzantine_ids: np.ndarray  # ascending Byzantine worker ids
    byzantine_set: frozenset[int]
    # Worker indices the scenario's rule selected in the previous round
    # (None before the first), feeding defense-probing attacks.
    last_selected: np.ndarray | None = None
    # Worker-view window of an active server tier (None for the
    # degenerate single reliable server): the last max_staleness + 1
    # coordinate-median views, views[-1] being the current round's.
    views: deque[np.ndarray] | None = None
    # Prefetched effective staleness of an async scenario: row r is
    # round staleness_start + r (see BatchedSimulation._prefetch_staleness).
    staleness_start: int = 0
    staleness_table: np.ndarray | None = None


class _Group:
    """A contiguous run of scenarios sharing one batched kernel."""

    def __init__(self, start: int, stop: int, adapter: BatchedAggregator):
        self.start = start
        self.stop = stop
        self.adapter = adapter


def _shared_gradient_fn(sim: TrainingSimulation):
    """The common deterministic gradient callable of a simulation's honest
    estimators, or ``None`` when the workers are not oracle-backed (then
    the engine falls back to per-worker ``estimate`` calls)."""
    estimators = [worker.estimator for worker in sim.honest_workers]
    if not all(isinstance(e, GaussianOracleEstimator) for e in estimators):
        return None
    first = estimators[0].gradient_fn
    if all(e.gradient_fn == first for e in estimators):
        return first
    return None


class BatchedSimulation:
    """Execute B same-shaped training simulations as one batched loop.

    Parameters
    ----------
    simulations:
        Freshly-constructed simulations sharing ``num_workers`` and
        parameter dimension.  Aggregators, attacks, schedules, Byzantine
        placement and seeds may all differ per scenario.
    chunk_size:
        Passed to the batched distance kernels to cap the ``(B, n, n)``
        intermediate memory; ``None`` processes each rule group in one
        chunk.
    backend:
        Array backend the native aggregation kernels compute through —
        a registered name ("numpy", "torch"), a configured
        :class:`~repro.backend.ArrayBackend` instance, or ``None`` for
        the default numpy backend (the configuration whose trajectories
        are bit-for-bit identical to the per-scenario loop).  Worker
        gradient estimation, attacks and bookkeeping stay host-side
        (numpy); the backend is handed the stacked ``(B, n, d)``
        proposal tensor each round — the O(n²·d) part of the round.
        Host staging buffers allocate with the backend's float dtype so
        a reduced-precision backend is not silently up-cast.
    """

    def __init__(
        self,
        simulations: Sequence[TrainingSimulation],
        *,
        chunk_size: int | None = None,
        backend: ArrayBackend | str | None = None,
    ):
        sims = list(simulations)
        if not sims:
            raise ConfigurationError("need at least one simulation to batch")
        self.num_workers = sims[0].num_workers
        self.dimension = sims[0].server.dimension
        for sim in sims:
            if sim.num_workers != self.num_workers:
                raise ConfigurationError(
                    f"all scenarios must share n; got {sim.num_workers} "
                    f"and {self.num_workers}"
                )
            if sim.server.dimension != self.dimension:
                raise ConfigurationError(
                    f"all scenarios must share d; got {sim.server.dimension} "
                    f"and {self.dimension}"
                )
            if sim._executor is not None:
                # A partially-run simulation would restart schedules and
                # attack round counters at t = 0 on advanced RNG streams
                # — a silently wrong trajectory.
                raise ConfigurationError(
                    f"simulations must be freshly built; one was already "
                    f"run by {type(sim._executor).__name__}"
                )
        # A stateful attack instance interleaves its per-round state
        # across every scenario that shares it, silently diverging from
        # the per-scenario loop execution — reject the sharing outright.
        seen_stateful: dict[int, int] = {}
        for slot, sim in enumerate(sims):
            if sim.attack is None or not sim.attack.stateful:
                continue
            other = seen_stateful.setdefault(id(sim.attack), slot)
            if other != slot:
                raise ConfigurationError(
                    f"stateful attack {sim.attack.name!r} is shared by "
                    f"scenarios {other} and {slot}; build one instance "
                    f"per scenario"
                )
        # The same sharing hazard exists on the server side: a stateful
        # server attack (stale-replay's broadcast history) interleaved
        # across scenarios would replay the wrong scenario's parameters.
        seen_server_stateful: dict[int, int] = {}
        for slot, sim in enumerate(sims):
            server_attack = sim.server.server_attack
            if server_attack is None or not server_attack.stateful:
                continue
            other = seen_server_stateful.setdefault(id(server_attack), slot)
            if other != slot:
                raise ConfigurationError(
                    f"stateful server attack {server_attack.name!r} is "
                    f"shared by scenarios {other} and {slot}; build one "
                    f"instance per scenario"
                )
        self.batch_size = len(sims)
        self.chunk_size = chunk_size
        self.backend = resolve_backend(backend)
        # Host-side staging matches the backend's float precision so a
        # float32 backend is not silently promoted back to float64
        # between rounds.
        self._float_dtype = self.backend.numpy_float_dtype

        # Reorder scenarios so each kernel group is a contiguous batch
        # slice (no gather copies in the round loop); remember the
        # caller's order for the returned histories.
        keyed = sorted(
            range(len(sims)),
            key=lambda i: (batch_group_key(sims[i].server.aggregator), i),
        )
        self._params = np.empty(
            (self.batch_size, self.dimension), dtype=self._float_dtype
        )
        self._scenarios: list[_Scenario] = []
        for slot, original_index in enumerate(keyed):
            sim = sims[original_index]
            self._params[slot] = sim.params
            self._scenarios.append(
                _Scenario(
                    index=original_index,
                    simulation=sim,
                    params=self._params[slot],
                    shared_gradient_fn=_shared_gradient_fn(sim),
                    minibatch=all(
                        isinstance(w.estimator, MinibatchEstimator)
                        # A subclass overriding estimate() may not
                        # decompose into draw_indices + gradient_at;
                        # route it through the generic per-worker
                        # estimate() path so the loop/batched identity
                        # holds regardless.
                        and type(w.estimator).estimate
                        is MinibatchEstimator.estimate
                        for w in sim.honest_workers
                    ),
                    honest_ids=np.asarray(
                        [w.worker_id for w in sim.honest_workers],
                        dtype=np.int64,
                    ),
                    byzantine_ids=np.asarray(
                        sim.byzantine_ids, dtype=np.int64
                    ),
                    byzantine_set=frozenset(sim.byzantine_ids),
                    views=(
                        deque(maxlen=sim.max_staleness + 1)
                        if sim.server.tier_active
                        else None
                    ),
                )
            )

        self._groups: list[_Group] = []
        start = 0
        while start < self.batch_size:
            key = batch_group_key(
                self._scenarios[start].simulation.server.aggregator
            )
            stop = start
            while (
                stop < self.batch_size
                and batch_group_key(
                    self._scenarios[stop].simulation.server.aggregator
                )
                == key
            ):
                stop += 1
            adapter = self._adapter(
                [
                    s.simulation.server.aggregator
                    for s in self._scenarios[start:stop]
                ]
            )
            self._groups.append(_Group(start, stop, adapter))
            start = stop

        self._proposals = np.empty(
            (self.batch_size, self.num_workers, self.dimension),
            dtype=self._float_dtype,
        )
        self._round_index = 0
        # Bounded parameter history for stale proposal filling (and the
        # used-parameter blocks of staleness-aware rules): one (B, d)
        # matrix per retained round, history[-1] being the current
        # round's parameters — the executor's analogue of the server's
        # window.  Each round *replaces* self._params, so appending the
        # matrix itself snapshots it without a copy.
        window = 1 + max(sim.max_staleness for sim in sims)
        self._history: deque[np.ndarray] = deque(maxlen=window)
        self._history.append(self._params)
        for sim in sims:
            sim._executor = self

    def _adapter(self, rules: list[Aggregator]) -> BatchedAggregator:
        """The aggregate stage of one rule group: its native kernel, or
        the loop fallback for a rule without one."""
        return make_batched_aggregator(
            rules, chunk_size=self.chunk_size, backend=self.backend
        )

    # ------------------------------------------------------------------

    @property
    def params(self) -> np.ndarray:
        """Current parameters, one row per scenario in input order."""
        out = np.empty_like(self._params)
        for scenario in self._scenarios:
            out[scenario.index] = scenario.params
        return out

    @property
    def native_fraction(self) -> float:
        """Fraction of scenarios aggregated by vectorized kernels."""
        native = sum(
            group.stop - group.start
            for group in self._groups
            if group.adapter.is_native
        )
        return native / self.batch_size

    # ------------------------------------------------------------------

    def _params_at(self, slot: int, staleness: int) -> np.ndarray:
        """One scenario's parameter row as of ``staleness`` rounds ago."""
        return self._history[-1 - staleness][slot]

    def _prefetch_staleness(self, start: int, stop: int) -> None:
        """Fill every async scenario's staleness table with rounds
        ``[start, stop)``: one ``staleness_block`` call per scenario,
        clipped to ``min(τ, t, max_staleness)``.  Negative lags survive
        the clip and are reported when their round runs."""
        rounds = np.arange(start, stop, dtype=np.int64)
        workers = np.arange(self.num_workers, dtype=np.int64)
        for scenario in self._scenarios:
            sim = scenario.simulation
            if not sim.is_async:
                continue
            if sim.delay_schedule is None:
                table = np.zeros((rounds.size, workers.size), dtype=np.int64)
            else:
                block = np.asarray(
                    sim.delay_schedule.staleness_block(workers, rounds),
                    dtype=np.int64,
                )
                if block.shape != (rounds.size, workers.size):
                    raise SimulationError(
                        f"delay schedule {sim.delay_schedule.name!r} "
                        f"returned a staleness block of shape "
                        f"{block.shape}, expected "
                        f"{(rounds.size, workers.size)}"
                    )
                table = np.minimum(
                    np.minimum(block, rounds[:, None]), sim.max_staleness
                )
            scenario.staleness_start = start
            scenario.staleness_table = table

    def _staleness_row(self, slot: int, round_index: int) -> np.ndarray | None:
        """Per-worker effective staleness of one scenario this round, or
        ``None`` for a synchronous scenario (nothing to look up).  A
        round outside the prefetched tables (``run_round`` called
        directly) prefetches the chunk starting at it."""
        scenario = self._scenarios[slot]
        if not scenario.simulation.is_async:
            return None
        offset = round_index - scenario.staleness_start
        table = scenario.staleness_table
        if table is None or not 0 <= offset < len(table):
            self._prefetch_staleness(
                round_index, round_index + _STALENESS_CHUNK
            )
            offset, table = 0, scenario.staleness_table
        row = table[offset]
        if row.min() < 0:
            # Report the first offender in worker query order: honest
            # workers in order, then the Byzantine ones.
            order = np.concatenate(
                [scenario.honest_ids, scenario.byzantine_ids]
            )
            worker_id = int(order[np.argmax(row[order] < 0)])
            raise SimulationError(
                f"delay schedule produced negative staleness "
                f"{int(row[worker_id])} for worker {worker_id} at round "
                f"{round_index}"
            )
        return row

    def _fill_proposals(
        self, slot: int, staleness_row: np.ndarray | None
    ) -> np.ndarray | None:
        """Compute one scenario's honest proposals into the batch tensor;
        returns the *fresh* expected gradient when the shared-oracle fast
        path evaluated it (for reuse as the attack's omniscient oracle).

        ``staleness_row`` routes each worker to the parameter history
        row its delay schedule selects; ``None`` (or an all-zero row)
        reads the current parameters, exactly like the synchronous path.
        """
        scenario = self._scenarios[slot]
        sim = scenario.simulation

        # One defensive copy per *distinct staleness* this round (one
        # total in the synchronous case): workers sharing a staleness
        # read the same snapshot, as they would share one broadcast.
        params_cache: dict[int, np.ndarray] = {}

        def worker_params(worker_id: int) -> np.ndarray:
            tau = (
                0
                if staleness_row is None
                else int(staleness_row[worker_id])
            )
            if tau not in params_cache:
                if scenario.views is not None:
                    # Tier scenario: workers read the replica-median
                    # view window, never the raw parameter rows.
                    source = scenario.views[-1 - tau]
                elif tau == 0:
                    source = scenario.params
                else:
                    source = self._params_at(slot, tau)
                params_cache[tau] = source.copy()
            return params_cache[tau]

        row = self._proposals[slot]
        if scenario.shared_gradient_fn is not None:
            # One gradient evaluation per distinct staleness this round
            # — bit-identical to per-worker evaluation because the
            # oracle is deterministic in its parameters.
            expected_at: dict[int, np.ndarray] = {}
            for worker in sim.honest_workers:
                tau = (
                    0
                    if staleness_row is None
                    else int(staleness_row[worker.worker_id])
                )
                if tau not in expected_at:
                    expected_at[tau] = np.asarray(
                        scenario.shared_gradient_fn(
                            worker_params(worker.worker_id)
                        ),
                        dtype=self._float_dtype,
                    )
                row[worker.worker_id] = worker.estimator.sample_about(
                    expected_at[tau], worker.rng
                )
            return expected_at.get(0)
        if scenario.minibatch:
            # Per-worker batched path for dataset workloads: draw every
            # worker's mini-batch indices first, in worker order — the
            # only RNG-consuming step, so the streams advance exactly as
            # interleaved estimate() calls would — then compute the
            # per-worker model gradients.
            draws = [
                (worker, worker.estimator.draw_indices(worker.rng))
                for worker in sim.honest_workers
            ]
            for worker, indices in draws:
                row[worker.worker_id] = worker.estimator.gradient_at(
                    worker_params(worker.worker_id), indices
                )
            return None
        for worker in sim.honest_workers:
            row[worker.worker_id] = worker.estimator.estimate(
                worker_params(worker.worker_id), worker.rng
            )
        return None

    def _craft_attack(
        self,
        slot: int,
        expected: np.ndarray | None,
        staleness_row: np.ndarray | None,
    ) -> None:
        scenario = self._scenarios[slot]
        sim = scenario.simulation
        if sim.num_byzantine == 0:
            return
        assert sim.attack is not None
        # The omniscient attack sees what was broadcast — under an
        # active tier that is the worker view, not the canonical row.
        params = (
            scenario.views[-1].copy()
            if scenario.views is not None
            else scenario.params.copy()
        )
        true_gradient = None
        if sim.true_gradient_fn is not None:
            if (
                expected is not None
                and scenario.shared_gradient_fn == sim.true_gradient_fn
            ):
                true_gradient = expected
            else:
                true_gradient = sim.true_gradient_fn(params)
        honest_params = None
        if staleness_row is not None:
            # np.stack copies, so the rows need no defensive copy.
            if scenario.views is not None:
                honest_params = np.stack(
                    [
                        scenario.views[-1 - int(staleness_row[i])]
                        for i in scenario.honest_ids
                    ]
                )
            else:
                honest_params = np.stack(
                    [
                        self._params_at(slot, int(staleness_row[i]))
                        for i in scenario.honest_ids
                    ]
                )
        context = AttackContext(
            round_index=self._round_index,
            params=params,
            honest_gradients=self._proposals[slot][scenario.honest_ids],
            byzantine_indices=scenario.byzantine_ids,
            honest_indices=scenario.honest_ids,
            num_workers=sim.num_workers,
            rng=sim.attack_rng,
            aggregator=sim.server.aggregator,
            true_gradient=true_gradient,
            honest_staleness=(
                None
                if staleness_row is None
                else staleness_row[scenario.honest_ids]
            ),
            byzantine_staleness=(
                None
                if staleness_row is None
                else staleness_row[scenario.byzantine_ids]
            ),
            honest_params=honest_params,
            selected_last_round=selected_last_round(
                scenario.byzantine_ids, scenario.last_selected
            ),
        )
        crafted = sim.attack.craft(context)
        self._proposals[slot][scenario.byzantine_ids] = crafted

    def _group_staleness(
        self, group: _Group, rows: list[np.ndarray | None]
    ) -> tuple[np.ndarray, np.ndarray]:
        """The per-proposal staleness and used-parameter blocks of one
        staleness-aware rule group for ``aggregate_detailed_stale``
        (zeros and the current parameters for synchronous scenarios in
        the group)."""
        size = group.stop - group.start
        staleness = np.zeros((size, self.num_workers), dtype=np.int64)
        used = np.empty(
            (size, self.num_workers, self.dimension), dtype=self._float_dtype
        )
        for offset in range(size):
            slot = group.start + offset
            row = rows[slot]
            views = self._scenarios[slot].views
            if row is None:
                used[offset] = (
                    views[-1] if views is not None else self._history[-1][slot]
                )
                continue
            staleness[offset] = row
            for tau in np.unique(row).tolist():
                used[offset, row == tau] = (
                    views[-1 - tau]
                    if views is not None
                    else self._params_at(slot, tau)
                )
        return staleness, used

    def run_round(self) -> list[RoundRecord]:
        """Execute one round (synchronous or bounded-stale) for every
        scenario.

        Returns the per-scenario records in the caller's input order.
        """
        t = self._round_index
        rates = np.empty(self.batch_size, dtype=self._float_dtype)
        rows: list[np.ndarray | None] = [None] * self.batch_size
        for slot, scenario in enumerate(self._scenarios):
            server = scenario.simulation.server
            rates[slot] = server.schedule(t)
            if scenario.views is not None:
                # Materialize the round's worker view exactly once per
                # scenario, from the canonical row: one server-attack
                # RNG draw per round.
                scenario.views.append(
                    server.corrupted_view(scenario.params, t)
                )
            rows[slot] = self._staleness_row(slot, t)
            expected = self._fill_proposals(slot, rows[slot])
            self._craft_attack(slot, expected, rows[slot])

        aggregate = np.empty(
            (self.batch_size, self.dimension), dtype=self._float_dtype
        )
        selected: list[np.ndarray] = [None] * self.batch_size  # type: ignore[list-item]
        for group in self._groups:
            if group.adapter.supports_staleness:
                staleness, used = self._group_staleness(group, rows)
                result = group.adapter.aggregate_batch(
                    self._proposals[group.start : group.stop],
                    staleness=staleness,
                    used_params=used,
                )
            else:
                result = group.adapter.aggregate_batch(
                    self._proposals[group.start : group.stop]
                )
            # Native kernels return backend-typed arrays (torch tensors
            # on the torch backend); materialize them host-side once per
            # round for the SGD update and record bookkeeping.
            aggregate[group.start : group.stop] = self.backend.to_numpy(
                result.vectors
            )
            for offset, rows_selected in enumerate(result.selected):
                selected[group.start + offset] = rows_selected

        # One batched SGD step: x_{t+1} = x_t − γ_t · F(...), elementwise
        # identical to the per-scenario update.  The subtraction builds a
        # fresh matrix, so the retained history rounds stay valid
        # snapshots.
        self._params = self._params - rates[:, None] * aggregate
        self._history.append(self._params)
        records: list[RoundRecord] = [None] * self.batch_size  # type: ignore[list-item]
        for slot, scenario in enumerate(self._scenarios):
            scenario.params = self._params[slot]
            server = scenario.simulation.server
            if server.halt_on_nonfinite:
                halt_if_nonfinite(scenario.params, t, server.aggregator)
            scenario.last_selected = np.asarray(
                selected[slot], dtype=np.int64
            ).copy()
            records[scenario.index] = round_record(
                t,
                rates[slot],
                aggregate[slot],
                scenario.params,
                selected[slot],
                scenario.byzantine_set,
            )
        self._round_index += 1
        return records

    def run(
        self, num_rounds: int, *, eval_every: int = 10
    ) -> list[TrainingHistory]:
        """Run all scenarios for ``num_rounds`` rounds.

        Every ``eval_every``-th round and the final round are evaluated.
        Returns one history per scenario, in the order the simulations
        were passed in.
        """
        if num_rounds < 1:
            raise ConfigurationError(
                f"num_rounds must be >= 1, got {num_rounds}"
            )
        if eval_every < 1:
            raise ConfigurationError(
                f"eval_every must be >= 1, got {eval_every}"
            )
        histories = [TrainingHistory() for _ in range(self.batch_size)]
        start = self._round_index
        for t in range(num_rounds):
            # Prefetch only rounds this call runs: no schedule is ever
            # queried past the requested horizon.
            if t % _STALENESS_CHUNK == 0:
                self._prefetch_staleness(
                    start + t, start + min(t + _STALENESS_CHUNK, num_rounds)
                )
            records = self.run_round()
            evaluate_now = t % eval_every == 0 or t == num_rounds - 1
            for scenario in self._scenarios:
                record = records[scenario.index]
                if evaluate_now:
                    record = scenario.simulation.evaluate_record(
                        record, params=scenario.params.copy()
                    )
                histories[scenario.index].append(record)
        return histories


class LoopExecutor(BatchedSimulation):
    """The loop executor: the same stages over one cell, aggregated by
    the cell's own rule instead of a native kernel.
    ``TrainingSimulation.run`` drives one, so loop/batched comparisons
    check the kernels against the rules."""

    def _adapter(self, rules: list[Aggregator]) -> BatchedAggregator:
        return LoopBatchedAggregator(rules)
