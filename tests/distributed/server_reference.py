"""Frozen message-passing server round: the oracle for the shared stages.

:func:`reference_run` keeps the round the library ran before the
server path became the engine's stage pipeline: the server broadcasts
(under an active tier, the replica-median view, materialized once per
round), each honest worker reads the broadcast or a stale view from the
server's retained window, queried one scalar ``staleness`` call at a
time, the attack crafts from the full context, and the server orders
the proposals by worker id, aggregates them through the rule's own
``aggregate_detailed`` (``aggregate_detailed_stale`` for
staleness-aware rules), applies the SGD step and enforces the
non-finite halt.

It reads only a freshly built
:class:`~repro.distributed.TrainingSimulation`'s public cast — workers,
attack, delay schedule and server group — and calls
``corrupted_view`` and the rule directly, so the propose, craft,
aggregate, update, halt and record stages of both executors are
compared against independent code.

Do not optimize this module: it is the reference the executors are
pinned to, bit for bit.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.attacks.base import AttackContext
from repro.core.staleness import StalenessAwareAggregator
from repro.distributed.metrics import RoundRecord, TrainingHistory
from repro.engine.grid import ScenarioGrid
from repro.engine.workloads import make_workload, workload_key
from repro.exceptions import SimulationError
from repro.utils.linalg import stack_vectors

__all__ = ["reference_run", "reference_grid", "assert_matches_reference"]


def reference_run(
    sim,
    num_rounds: int,
    *,
    eval_every: int = 10,
    history: TrainingHistory | None = None,
) -> tuple[TrainingHistory, np.ndarray]:
    """Run ``num_rounds`` rounds of a fresh simulation's cast.

    Returns the history and the final parameters.  Records are appended
    to ``history`` when one is given, so a caller catching an error can
    tell the round it was raised at from the records before it.
    """
    history = TrainingHistory() if history is None else history
    server = sim.server
    aggregator = server.aggregator
    byzantine_ids = np.asarray(sim.byzantine_ids, dtype=np.int64)
    byzantine_set = set(sim.byzantine_ids)
    honest_ids = np.asarray(
        [w.worker_id for w in sim.honest_workers], dtype=np.int64
    )
    window = sim.max_staleness + 1
    params = sim.params
    # The server's retained parameter vectors (history[-1] is x_t) and,
    # under an active tier, the worker views it served.
    params_history: deque[np.ndarray] = deque([params.copy()], maxlen=window)
    views: deque[np.ndarray] = deque(maxlen=window)
    last_selected = None

    for t in range(num_rounds):
        if server.tier_active:
            views.append(server.corrupted_view(params, t))
        served = views if server.tier_active else params_history

        def params_at(round_index: int) -> np.ndarray:
            offset = t - round_index
            if offset < 0 or offset >= len(served):
                raise SimulationError(
                    f"round {round_index} is outside the retained window"
                )
            return served[-1 - offset].copy()

        def effective_staleness(worker_id: int) -> int:
            if sim.delay_schedule is None:
                return 0
            tau = int(sim.delay_schedule.staleness(worker_id, t))
            if tau < 0:
                raise SimulationError(
                    f"delay schedule produced negative staleness {tau} for "
                    f"worker {worker_id} at round {t}"
                )
            return min(tau, t, sim.max_staleness)

        broadcast = params_at(t)
        messages = []  # (computed round, worker id, vector)
        honest_staleness = []
        for worker in sim.honest_workers:
            tau = effective_staleness(worker.worker_id)
            read = broadcast if tau == 0 else params_at(t - tau)
            vector = worker.estimator.estimate(read, worker.rng)
            messages.append((t - tau, worker.worker_id, vector))
            honest_staleness.append(tau)

        if sim.num_byzantine > 0:
            byzantine_staleness = [
                effective_staleness(int(i)) for i in byzantine_ids
            ]
            context = AttackContext(
                round_index=t,
                params=broadcast,
                honest_gradients=stack_vectors([m[2] for m in messages]),
                byzantine_indices=byzantine_ids,
                honest_indices=honest_ids,
                num_workers=sim.num_workers,
                rng=sim.attack_rng,
                aggregator=aggregator,
                true_gradient=(
                    sim.true_gradient_fn(broadcast)
                    if sim.true_gradient_fn is not None
                    else None
                ),
                honest_staleness=(
                    np.asarray(honest_staleness, dtype=np.int64)
                    if sim.is_async
                    else None
                ),
                byzantine_staleness=(
                    np.asarray(byzantine_staleness, dtype=np.int64)
                    if sim.is_async
                    else None
                ),
                honest_params=(
                    np.stack([params_at(t - tau) for tau in honest_staleness])
                    if sim.is_async
                    else None
                ),
                selected_last_round=(
                    np.isin(byzantine_ids, last_selected)
                    if last_selected is not None
                    else None
                ),
            )
            crafted = sim.attack.craft(context)
            for worker_id, vector, tau in zip(
                byzantine_ids, crafted, byzantine_staleness
            ):
                messages.append((t - tau, int(worker_id), vector))

        ordered = sorted(messages, key=lambda m: m[1])
        stack = stack_vectors([m[2] for m in ordered])
        if isinstance(aggregator, StalenessAwareAggregator):
            result = aggregator.aggregate_detailed_stale(
                stack,
                np.asarray([t - m[0] for m in ordered], dtype=np.int64),
                used_params=np.stack([params_at(m[0]) for m in ordered]),
            )
        else:
            result = aggregator.aggregate_detailed(stack)
        rate = server.schedule(t)
        params = params - rate * result.vector
        if server.halt_on_nonfinite and not np.all(np.isfinite(params)):
            raise SimulationError(
                f"parameters became non-finite at round {t} (aggregator "
                f"{aggregator.name}); a Byzantine proposal reached the update"
            )
        params_history.append(params.copy())
        last_selected = np.asarray(result.selected, dtype=np.int64).copy()

        selected = tuple(int(i) for i in result.selected)
        record = RoundRecord(
            round_index=t,
            learning_rate=rate,
            aggregate_norm=float(np.linalg.norm(result.vector)),
            params_norm=float(np.linalg.norm(params)),
            selected=selected,
            byzantine_selected=sum(1 for i in selected if i in byzantine_set),
        )
        if t % eval_every == 0 or t == num_rounds - 1:
            record = sim.evaluate_record(record, params=params.copy())
        history.append(record)
    return history, params


def reference_grid(
    grid: ScenarioGrid, *, eval_every: int = 10
) -> dict[str, tuple[TrainingHistory, np.ndarray]]:
    """``(history, final params)`` of every server-path cell of
    ``grid``, each built fresh and run through :func:`reference_run`.
    Cells naming the same workload share one workload object, as in
    ``run_grid``."""
    workloads: dict[tuple, object] = {}
    out = {}
    for spec in grid.scenarios():
        if spec.is_gossip:
            continue
        key = workload_key(spec.workload, spec.workload_kwargs)
        if key not in workloads:
            workloads[key] = make_workload(spec.workload, spec.workload_kwargs)
        out[spec.label] = reference_run(
            workloads[key].build(spec), grid.num_rounds, eval_every=eval_every
        )
    return out


def assert_matches_reference(result, grid: ScenarioGrid, *, eval_every: int) -> None:
    """Every server-path cell of the ``run_grid`` ``result`` equals its
    reference run: final parameters bit for bit, records by ``repr``."""
    for label, (history, params) in reference_grid(
        grid, eval_every=eval_every
    ).items():
        assert result.final_params[label].tobytes() == params.tobytes(), label
        assert [repr(r) for r in result.histories[label]] == [
            repr(r) for r in history
        ], label
