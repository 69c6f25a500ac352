"""The round stages, and the two executors that run them.

A training round is one pipeline of stages over a ``(B, n, d)`` batch of
B same-shaped cells: *view* (what each cell's workers read: its
canonical row, or the server tier's worker view), *propose* (honest
proposals, fresh or stale), *craft* (the attack), *aggregate*, *update*
(one ``(B, d)`` SGD step plus the non-finite halt) and *record*.  Each
of view, propose and craft is one pass over the whole batch per round,
not a per-cell pipeline: every cell reads its views before any cell
proposes, and proposes before any cell crafts.  The stage code owns
each cell's state — its parameter row, the read and gradient windows
and its last selection — and takes the
:class:`~repro.distributed.simulator.TrainingSimulation` it runs: a
consumed simulation refuses to run again.

The two executors differ only in the aggregate stage:

* :class:`BatchedSimulation` groups cells by rule configuration and
  aggregates each group through one kernel of :mod:`repro.core.batched`
  (with a per-cell loop fallback for rules without a kernel);
* :class:`LoopExecutor` is one cell aggregated by its own rule through
  :class:`~repro.core.batched.LoopBatchedAggregator` — the executor
  behind ``TrainingSimulation.run``.

The native kernels are bit-for-bit equal to the per-cell rules, so every
``TrainingHistory`` matches across executors record for record, float
for float.  ``tests/engine/test_differential.py`` and
``tests/engine/test_stage_grid.py`` enforce that, and
``tests/distributed/server_reference.py`` pins the stages against a
frozen message-passing round.

What makes the batched executor faster than B loops:

* one batched aggregation kernel call per rule group per round instead
  of B Python dispatches (the O(n²·d) GEMM of Lemma 4.1 amortizes);
* one parameter update for the whole batch;
* the read window: a ``(max_staleness + 1, B, d)`` ring whose row
  ``t % window`` holds what every cell's workers read at round ``t``.
  Stale proposals, the attack's parameter views and the used-parameter
  blocks of staleness-aware rules are one indexed read of it;
* the gradient window beside it: when a cell's honest workers all wrap
  the same deterministic gradient function (the Gaussian-oracle
  workload), ∇Q of the round's read is evaluated once per round — one
  call over the ``(cells, d)`` block of every cell sharing an oracle
  that declares ``row_blocks`` (one quadratic bowl serves a whole
  grid), else one call per cell — and kept for as many rounds as the
  read window.  A stale worker's expected gradient is the window row
  its staleness selects, and the newest row is the attack's true
  gradient: bit-identical, because the oracle is deterministic in its
  parameters;
* noise sharing: the grid gives honest worker k of every cell of a seed
  the same stream, so at the start of each public call the Gaussian-
  oracle workers of all cells are grouped by generator state, σ and d,
  and each group's stream is drawn once per round instead of once per
  cell.  A cell's noisy rows are one indexed add of its window rows
  and the round's draws.  At the end of the call (also when a round
  raises) every other holder's generator is re-synced to the drawing
  one, so every stream ends where per-cell draws leave it;
* declared reads: each attack names the
  :class:`~repro.attacks.base.AttackContext` fields its craft reads
  (``Attack.reads``), and the craft stage builds only those, without
  the fallback-only ones (``Attack.fallback_reads``) when it passes the
  true gradient;
* batched crafts: the cells of one attack configuration with a
  registered ``craft_batch`` (equal f, synchrony and true-gradient
  availability) craft in one call per round, each cell's generator
  drawn in slot order and a stateful attack's state kept in each cell's
  own instance; their honest rows and stale parameters are gathered
  into blocks kept across rounds.  Unregistered attacks and attacks
  whose generator is held twice craft one cell at a time, in slot
  order, after them;
* batched views: the tier cells of one rng-free stateless server
  attack configuration (``sign-flip-broadcast``) are corrupted in one
  ``corrupt_batch`` call; the other server attacks corrupt one cell at
  a time, in slot order, first.

Mini-batch workers draw their batches in worker order, then a cell's
workers reading one parameter snapshot share one ``stacked_gradient``
call (per-slice GEMMs, so each row is the worker's ``estimate`` bit for
bit; cells are never stacked together, as that changes the bits).
Every other honest worker calls its ``estimate`` on its own private
stream, in worker order.  The loop executor draws every
worker's noise through its own ``sample_about``: at B = 1 there is no
stream to share, so the loop/batched comparison checks the shared draws
against per-cell ones.  A cell whose oracle is a full-train-set pass
(the dataset workloads) hands the ∇Q its evaluation took of the
canonical row to the next round's craft, which reads that same row; a
tier cell's craft reads the view and computes its own.

Asynchronous cells (``max_staleness``/``delay_schedule``) fill each
stale worker's proposal from the window row its delay schedule
selects.  The effective staleness ``min(τ, t, max_staleness)`` is
prefetched: each async cell keeps a table for a chunk of upcoming
rounds, filled by one
:meth:`~repro.distributed.delays.DelaySchedule.staleness_block` call.
A staleness-aware rule group receives the per-proposal staleness block:
the native Kardam kernel (both filters off) dampens the stale cells and
runs its inner kernel; a Kardam rule with a dropping filter
(``drop_above``/``lipschitz_quantile``) takes the loop fallback, which
also receives the used-parameter block.  ``native_fraction`` reports the
split.

Server-tier cells (``num_servers``/``byzantine_servers``) materialize
the round's worker view — the coordinate median over replica
broadcasts of the cell's canonical row — exactly once per round into
the read window, so every worker read (fresh and stale proposals, the
attack's omniscient context, the used-parameter blocks) sees it.  The
server-attack RNG stream of a cell advances once per round, and each
replica count takes one stacked median.  The SGD update, records and
evaluation stay on the canonical row.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.attacks.base import Attack, AttackBatch, AttackContext
from repro.attacks.registry import has_batched_craft
from repro.core.aggregator import Aggregator
from repro.core.batched import (
    BatchedAggregator,
    LoopBatchedAggregator,
    batch_group_key,
    make_batched_aggregator,
)
from repro.distributed.metrics import RoundRecord, TrainingHistory
from repro.distributed.simulator import (
    HonestWorker,
    TrainingSimulation,
    evaluated_record,
    halt_if_nonfinite,
    round_record,
    selected_last_round,
)
from repro.exceptions import ConfigurationError, SimulationError
from repro.gradients.minibatch import MinibatchEstimator
from repro.gradients.oracle import GaussianOracleEstimator, shared_gradient_fn
from repro.servers.attacks import ServerAttack
from repro.servers.registry import has_batched_corrupt
from repro.servers.replication import replica_view
from repro.utils.linalg import exact_row_norms
from repro.utils.validation import check_positive_int

__all__ = ["BatchedSimulation", "LoopExecutor"]

#: Rounds of effective staleness prefetched per async cell and block
#: query; bounds each cell's staleness table at O(chunk · n).
_STALENESS_CHUNK = 64

#: Bytes of honest rows a batched craft gathers per call.
_CRAFT_CHUNK_BYTES = 1 << 19


@dataclass
class _Scenario:
    """Per-scenario state extracted from one TrainingSimulation."""

    index: int  # position in the caller's input order
    simulation: TrainingSimulation
    params: np.ndarray  # (d,) current x_t — row view into the batch matrix
    shared_gradient_fn: object | None  # one ∇Q call per round (gradient window)
    honest_ids: np.ndarray  # ascending honest worker ids
    byzantine_ids: np.ndarray  # ascending Byzantine worker ids
    byzantine_set: frozenset[int]
    # Fast-path workers whose noise comes from the round's shared draws
    # (see _SharedNoise), their ids, and the ones that draw through
    # their own estimator.
    shared_workers: list[HonestWorker]
    shared_ids: np.ndarray
    own_workers: list[HonestWorker]
    # Whether workers read the replica-median view of an active server
    # tier (else the canonical row).
    tier: bool
    # Whether the gradient window's row is the attack's true gradient.
    window_gradient: bool = False
    # Whether the evaluation's true gradient is handed to the next craft.
    hands_over: bool = False
    # (round, ∇Q of the canonical row) from the last evaluation.
    handover: tuple[int, np.ndarray] | None = None
    # Worker indices the scenario's rule selected in the previous round
    # (None before the first), feeding defense-probing attacks.
    last_selected: np.ndarray | None = None
    # Prefetched effective staleness of an async scenario: row r is
    # round staleness_start + r (see BatchedSimulation._prefetch_staleness).
    staleness_start: int = 0
    staleness_table: np.ndarray | None = None


def _frozen(state):
    """A hashable copy of a bit generator's state dict."""
    if isinstance(state, dict):
        return tuple((key, _frozen(value)) for key, value in sorted(state.items()))
    if isinstance(state, np.ndarray):
        return (state.dtype.str, state.shape, state.tobytes())
    return state


class _SharedNoise:
    """The honest noise streams of one public executor call, each drawn
    once per round for every cell that holds it.

    The shareable workers are grouped by generator type and state, σ and
    d at the start of the call: an equal state and an equal
    :meth:`~repro.gradients.oracle.GaussianOracleEstimator.noise` call
    give an equal draw, so each group's first worker (its leader) draws
    for all of them.  :meth:`sync` then leaves every member's generator
    where its own per-cell draws would: at the leader's state, or, for a
    cell that a raising round stopped before its propose stage, at the
    call's start state advanced by the rounds the cell did propose.
    """

    def __init__(self, scenarios: Sequence[_Scenario], dimension: int):
        index: dict[tuple, int] = {}
        self.leaders: list[tuple[GaussianOracleEstimator, np.random.Generator]] = []
        self.start_states: list[dict] = []
        self.members: list[list[tuple[int, np.random.Generator]]] = []
        self.groups: list[np.ndarray] = []  # per cell: each shared worker's group
        for slot, scenario in enumerate(scenarios):
            groups = []
            for worker in scenario.shared_workers:
                estimator, rng = worker.estimator, worker.rng
                state = rng.bit_generator.state
                key = (type(rng), _frozen(state), estimator.sigma, estimator.dimension)
                group = index.setdefault(key, len(self.leaders))
                if group == len(self.leaders):
                    self.leaders.append((estimator, rng))
                    self.start_states.append(state)
                    self.members.append([])
                self.members[group].append((slot, rng))
                groups.append(group)
            self.groups.append(np.asarray(groups, dtype=np.int64))
        self.values = np.empty((len(self.leaders), dimension))
        self.drawn = 0  # rounds drawn in this call
        self.consumed = [0] * len(scenarios)  # rounds each cell proposed

    def draw(self) -> None:
        """Draw the round's noise of every group into :attr:`values`."""
        # Counted first: a cell never reads a half-drawn round, so an
        # interrupted draw leaves every cell behind and sync replays it.
        self.drawn += 1
        for group, (estimator, rng) in enumerate(self.leaders):
            self.values[group] = estimator.noise(rng)

    def sync(self) -> None:
        """Move every member's generator to where its own draws would
        have left it after the rounds its cell proposed."""
        if self.drawn == 0:
            return
        for group, (estimator, leader) in enumerate(self.leaders):
            state = leader.bit_generator.state
            for slot, rng in self.members[group]:
                rounds = self.consumed[slot]
                if rounds == self.drawn:
                    if rng is not leader:
                        rng.bit_generator.state = state
                    continue
                rng.bit_generator.state = self.start_states[group]
                for _ in range(rounds):
                    estimator.noise(rng)


class _Group:
    """A contiguous run of scenarios sharing one batched kernel."""

    def __init__(self, start: int, stop: int, adapter: BatchedAggregator):
        self.start = start
        self.stop = stop
        self.adapter = adapter


def _index(slots: list[int]) -> slice | np.ndarray:
    """Batch rows ``slots`` (ascending) as a slice when they are one
    contiguous run, so reading them takes a view, not a gather."""
    if slots == list(range(slots[0], slots[-1] + 1)):
        return slice(slots[0], slots[-1] + 1)
    return np.asarray(slots, dtype=np.int64)


def _config_key(attack: object) -> object:
    """Equal for two instances of one configuration: the type and every
    public attribute (the instance itself when one is unhashable).  A
    stateful attack keeps its per-run state in private attributes."""
    key = (
        type(attack),
        tuple(sorted(i for i in vars(attack).items() if not i[0].startswith("_"))),
    )
    try:
        hash(key)
    except TypeError:
        return attack
    return key


@dataclass
class _CraftGroup:
    """Cells of one attack configuration with equal f, the same
    synchrony and the same true-gradient availability: one
    ``craft_batch`` call crafts them all."""

    attack: Attack
    attacks: tuple[Attack, ...] | None  # each cell's own, if stateful
    reads: frozenset[str]  # the fields the craft stage builds
    slots: np.ndarray  # ascending
    honest: np.ndarray  # (cells, n - f) honest ids per cell
    byzantine: np.ndarray  # (cells, f) Byzantine ids per cell
    is_async: bool
    true_gradient: bool  # whether the cells' oracle exists
    window: bool  # whether every cell's true gradient is its window row
    step: int  # cells per ``craft_batch`` call
    # (step, n − f, d) blocks the honest rows and their parameters are
    # gathered into every round, or None when the craft reads neither.
    honest_rows: np.ndarray | None
    honest_params: np.ndarray | None


@dataclass
class _Tier:
    """The tier cells of one replica count: their broadcasts are stacked
    into one ``(cells, servers, d)`` block and take one median."""

    servers: int
    slots: np.ndarray  # ascending
    # (attack, Byzantine replica ids, positions in slots) per batched
    # configuration
    batched: list[tuple[ServerAttack, np.ndarray, np.ndarray]]


class BatchedSimulation:
    """Execute B same-shaped training simulations as one batched loop.

    Parameters
    ----------
    simulations:
        Freshly-constructed simulations sharing ``num_workers`` and
        parameter dimension.  Aggregators, attacks, schedules, Byzantine
        placement and seeds may all differ per scenario.
    """

    #: Whether Gaussian-oracle workers of different cells share draws.
    _shares_noise = True

    def __init__(self, simulations: Sequence[TrainingSimulation]):
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

        # Reorder scenarios so each kernel group is a contiguous batch
        # slice (no gather copies in the round loop); remember the
        # caller's order for the returned histories.
        keyed = sorted(
            range(len(sims)),
            key=lambda i: (batch_group_key(sims[i].server.aggregator), i),
        )
        # The read window: row t % window of the ring is what each
        # cell's workers read at round t (the canonical row, or the tier
        # view), for stale proposals, the attack's context and the
        # used-parameter blocks of staleness-aware rules.  Without tier
        # cells the workers read the canonical rows themselves, so the
        # parameters live in it: row t % window is x_t.
        self._window = 1 + max(sim.max_staleness for sim in sims)
        any_tier = any(sim.server.tier_active for sim in sims)
        self._history = np.empty((self._window, self.batch_size, self.dimension))
        self._params_row: int | None = None if any_tier else 0
        self._params = (
            np.empty((self.batch_size, self.dimension))
            if any_tier
            else self._history[0]
        )
        # A generator held twice (by two workers, or by a worker and an
        # attack) keeps per-worker draws and per-cell crafts: its
        # holders' order matters.
        holders = Counter(
            id(rng)
            for sim in sims
            for rng in [sim.attack_rng] + [w.rng for w in sim.honest_workers]
        )
        self._scenarios: list[_Scenario] = []
        for slot, original_index in enumerate(keyed):
            sim = sims[original_index]
            self._params[slot] = sim.params
            gradient_fn = shared_gradient_fn(
                [worker.estimator for worker in sim.honest_workers]
            )
            shared: list[HonestWorker] = []
            own: list[HonestWorker] = []
            for worker in sim.honest_workers:
                shareable = (
                    self._shares_noise
                    and gradient_fn is not None
                    and type(worker.estimator) is GaussianOracleEstimator
                    and worker.estimator.sigma > 0.0
                    and isinstance(worker.rng, np.random.Generator)
                    and holders[id(worker.rng)] == 1
                )
                (shared if shareable else own).append(worker)
            tier = sim.server.tier_active
            window_gradient = (
                gradient_fn is not None and gradient_fn == sim.true_gradient_fn
            )
            self._scenarios.append(
                _Scenario(
                    index=original_index,
                    simulation=sim,
                    params=self._params[slot],
                    shared_gradient_fn=gradient_fn,
                    honest_ids=np.asarray(
                        [w.worker_id for w in sim.honest_workers],
                        dtype=np.int64,
                    ),
                    byzantine_ids=np.asarray(
                        sim.byzantine_ids, dtype=np.int64
                    ),
                    byzantine_set=frozenset(sim.byzantine_ids),
                    shared_workers=shared,
                    shared_ids=np.asarray(
                        [w.worker_id for w in shared], dtype=np.int64
                    ),
                    own_workers=own,
                    tier=tier,
                    window_gradient=window_gradient,
                    # The record stage's ∇Q of the canonical row is the
                    # next round's craft input when nothing sits between.
                    hands_over=(
                        sim.num_byzantine > 0
                        and sim.true_gradient_fn is not None
                        and "true_gradient" in sim.attack.reads
                        and not tier
                        and not window_gradient
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
            (self.batch_size, self.num_workers, self.dimension)
        )
        self._round_index = 0
        # The canonical rows the view stage copies into the read window.
        plain = [s for s, c in enumerate(self._scenarios) if not c.tier]
        self._plain = _index(plain) if plain and any_tier else None
        self._tiers, self._solo_views = self._tier_plan()
        # The gradient window beside it: row t % window holds ∇Q at what
        # each shared-oracle cell's workers read at round t, evaluated
        # once per round — one call per oracle over the block of its
        # cells when the oracle takes row blocks, else one per cell.
        self._oracle_cells: list[int] = []
        oracles: list[tuple[object, list[int]]] = []
        for slot, scenario in enumerate(self._scenarios):
            fn = scenario.shared_gradient_fn
            if fn is None:
                continue
            if not all(
                w.estimator.row_blocks for w in scenario.simulation.honest_workers
            ):
                self._oracle_cells.append(slot)
                continue
            for other, cells in oracles:
                if other == fn:
                    cells.append(slot)
                    break
            else:
                oracles.append((fn, [slot]))
        self._oracle_blocks = [(fn, _index(cells)) for fn, cells in oracles]
        self._gradients = (
            np.empty((self._window, self.batch_size, self.dimension))
            if oracles or self._oracle_cells
            else None
        )
        self._craft_groups, self._solo_crafts = self._craft_plan(holders)
        # The shared noise streams of the public call in progress.
        self._noise: _SharedNoise | None = None
        for sim in sims:
            sim._executor = self

    def _tier_plan(self) -> tuple[list[_Tier], list[tuple[int, int, int]]]:
        """Group the tier cells by replica count, and within it the
        cells whose rng-free stateless server attack corrupts in one
        batched call per configuration.  The other attacked tier cells
        corrupt one at a time: their ``(slot, tier, position)``, in slot
        order."""
        tiers: dict[int, list[int]] = {}
        for slot, scenario in enumerate(self._scenarios):
            if scenario.tier:
                servers = scenario.simulation.server.num_servers
                tiers.setdefault(servers, []).append(slot)
        plans = []
        solo: list[tuple[int, int, int]] = []
        for index, (servers, slots) in enumerate(tiers.items()):
            batched: dict[object, tuple[ServerAttack, np.ndarray, list[int]]] = {}
            for position, slot in enumerate(slots):
                server = self._scenarios[slot].simulation.server
                attack = server.server_attack
                if attack is None:
                    continue
                if not has_batched_corrupt(attack):
                    solo.append((slot, index, position))
                    continue
                ids = server.byzantine_server_ids
                key = (_config_key(attack), tuple(ids.tolist()))
                batched.setdefault(key, (attack, ids, []))[2].append(position)
            plans.append(
                _Tier(
                    servers=servers,
                    slots=np.asarray(slots, dtype=np.int64),
                    batched=[
                        (attack, ids, np.asarray(positions, dtype=np.int64))
                        for attack, ids, positions in batched.values()
                    ],
                )
            )
        return plans, sorted(solo)

    def _craft_plan(
        self, holders: Counter
    ) -> tuple[list[_CraftGroup], list[int]]:
        """Group the cells whose attack has a registered ``craft_batch``;
        the others (unregistered attacks and attacks whose generator is
        held twice) craft one at a time, in slot order."""
        groups: dict[object, list[int]] = {}
        solo: list[int] = []
        for slot, scenario in enumerate(self._scenarios):
            sim = scenario.simulation
            if sim.num_byzantine == 0:
                continue
            if not has_batched_craft(sim.attack) or holders[id(sim.attack_rng)] > 1:
                solo.append(slot)
                continue
            key = (
                _config_key(sim.attack),
                sim.num_byzantine,
                sim.is_async,
                sim.true_gradient_fn is not None,
            )
            groups.setdefault(key, []).append(slot)
        plans = []
        for slots in groups.values():
            cells = [self._scenarios[slot] for slot in slots]
            sim = cells[0].simulation
            reads = sim.attack.context_reads(sim.true_gradient_fn is not None)
            honest = np.stack([c.honest_ids for c in cells])
            gathers = (
                "honest_gradients" in reads,
                sim.is_async and "honest_params" in reads,
            )
            # Gather the honest rows a cache-sized chunk of cells at a
            # time: a whole-group (cells, n − f, d) copy falls out of
            # cache at large d.  The blocks are kept across rounds, so
            # no round allocates (and page-faults) them anew.
            cell_bytes = sum(gathers) * honest.shape[1] * self.dimension * 8
            step = len(slots)
            if cell_bytes:
                step = max(1, min(step, _CRAFT_CHUNK_BYTES // cell_bytes))
            block = (step, honest.shape[1], self.dimension)
            plans.append(
                _CraftGroup(
                    attack=sim.attack,
                    attacks=(
                        tuple(c.simulation.attack for c in cells)
                        if sim.attack.stateful
                        else None
                    ),
                    reads=reads,
                    slots=np.asarray(slots, dtype=np.int64),
                    honest=honest,
                    byzantine=np.stack([c.byzantine_ids for c in cells]),
                    is_async=sim.is_async,
                    true_gradient=sim.true_gradient_fn is not None,
                    window=all(c.window_gradient for c in cells),
                    step=step,
                    honest_rows=np.empty(block) if gathers[0] else None,
                    honest_params=np.empty(block) if gathers[1] else None,
                )
            )
        return plans, solo

    def _adapter(self, rules: list[Aggregator]) -> BatchedAggregator:
        """The aggregate stage of one rule group: its native kernel, or
        the loop fallback for a rule without one."""
        return make_batched_aggregator(rules)

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

    def _read(self, slot: int, staleness) -> np.ndarray:
        """What cell ``slot``'s workers read ``staleness`` rounds ago — a
        ``(d,)`` row for one int, ``(k, d)`` rows for ``k`` of them — as
        a copy."""
        rows = self._history[(self._round_index - staleness) % self._window, slot]
        # Many rows are a fancy gather, already a copy.
        return rows.copy() if np.ndim(staleness) == 0 else rows

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

    # ------------------------------------------------------------------
    # Round stages

    def _view(self, t: int) -> None:
        """Write round ``t``'s reads into the read window: the canonical
        rows, and for the tier cells the coordinate median over their
        replica broadcasts.  The cells corrupting one at a time draw
        their broadcasts in slot order; each batched configuration
        corrupts all its cells in one call; then each replica count
        takes one stacked median."""
        reads = self._history[t % self._window]
        if self._params_row not in (None, t % self._window):
            # A round raised after its update: x_t sits one row ahead.
            reads[...] = self._params
            self._bind_params(reads, t % self._window)
        if self._plain is not None:
            reads[self._plain] = self._params[self._plain]
        canonical = [
            np.asarray(self._params[tier.slots], dtype=np.float64)
            for tier in self._tiers
        ]
        blocks = [
            np.repeat(rows[:, None], tier.servers, axis=1)
            for tier, rows in zip(self._tiers, canonical)
        ]
        for slot, index, position in self._solo_views:
            scenario = self._scenarios[slot]
            blocks[index][position] = scenario.simulation.server.replica_broadcasts(
                scenario.params, t
            )
        for tier, rows, broadcasts in zip(self._tiers, canonical, blocks):
            for attack, ids, positions in tier.batched:
                broadcasts[positions[:, None], ids] = attack.corrupt_batch(
                    rows[positions], ids.size
                )
            reads[tier.slots] = replica_view(broadcasts)

    def _propose(self, t: int, rows: list[np.ndarray | None]) -> None:
        """Evaluate the round's row of the gradient window, then fill
        every cell's honest proposals into the batch tensor.

        A shared-noise row is its window row (the one its staleness
        selects) plus the round's draw of the worker's stream; an
        oracle worker drawing on its own stream samples about the same
        row.  Mini-batch workers draw their batches in worker order, and
        those reading one snapshot of one model and train set share one
        stacked gradient call, whose row i is worker i's estimate bit
        for bit.  Every other honest worker calls its ``estimate``."""
        ring = t % self._window
        if self._gradients is not None:
            reads = self._history[ring]
            fresh = self._gradients[ring]
            for fn, cells in self._oracle_blocks:
                fresh[cells] = fn(reads[cells])
            for slot in self._oracle_cells:
                fresh[slot] = self._scenarios[slot].shared_gradient_fn(
                    self._read(slot, 0)
                )
        noise = self._noise
        for slot, scenario in enumerate(self._scenarios):
            staleness_row = rows[slot]
            row = self._proposals[slot]
            if scenario.shared_gradient_fn is None:
                self._fill_estimates(slot, scenario, staleness_row)
                continue
            lags = (
                None if staleness_row is None else (t - staleness_row) % self._window
            )
            ids = scenario.shared_ids
            if ids.size:
                expected = (
                    fresh[slot] if lags is None else self._gradients[lags[ids], slot]
                )
                row[ids] = expected + noise.values[noise.groups[slot]]
                noise.consumed[slot] += 1
            for worker in scenario.own_workers:
                wid = worker.worker_id
                worker_ring = ring if lags is None else lags[wid]
                row[wid] = worker.estimator.sample_about(
                    self._gradients[worker_ring, slot], worker.rng
                )

    def _fill_estimates(
        self, slot: int, scenario: _Scenario, staleness_row: np.ndarray | None
    ) -> None:
        """The honest proposals of a cell without a shared oracle; each
        worker reads the snapshot its staleness selects, one copy per
        distinct staleness."""
        snapshots: dict[int, np.ndarray] = {}

        def params_at(tau: int) -> np.ndarray:
            if tau not in snapshots:
                snapshots[tau] = self._read(slot, tau)
            return snapshots[tau]

        taus = (
            [0] * self.num_workers
            if staleness_row is None
            else staleness_row.tolist()
        )
        row = self._proposals[slot]
        stacks: dict[tuple, tuple[MinibatchEstimator, list, list]] = {}
        for worker in scenario.simulation.honest_workers:
            wid, estimator = worker.worker_id, worker.estimator
            if type(estimator) is not MinibatchEstimator:
                row[wid] = estimator.estimate(params_at(taus[wid]), worker.rng)
                continue
            source = (estimator.model, estimator.inputs, estimator.targets)
            key = (taus[wid], estimator.batch_size, *map(id, source))
            _, ids, batches = stacks.setdefault(key, (estimator, [], []))
            ids.append(wid)
            batches.append(estimator.draw_rows(worker.rng))
        for (tau, *_), (estimator, ids, batches) in stacks.items():
            rows = np.stack(batches)
            row[ids] = estimator.model.stacked_gradient(
                params_at(tau), estimator.inputs[rows], estimator.targets[rows]
            )

    def _true_gradient(self, slot: int) -> np.ndarray | None:
        """∇Q at what cell ``slot``'s workers read this round: its window
        row, the evaluation's handed-over gradient, or one oracle call."""
        scenario = self._scenarios[slot]
        fn = scenario.simulation.true_gradient_fn
        if fn is None:
            return None
        t = self._round_index
        if scenario.window_gradient:
            return self._gradients[t % self._window, slot].copy()
        handover, scenario.handover = scenario.handover, None
        if handover is not None and handover[0] == t:
            return handover[1]
        return fn(self._read(slot, 0))

    def _craft(self, rows: list[np.ndarray | None]) -> None:
        """The craft stage: one ``craft_batch`` call per batched attack
        configuration, then the other cells one at a time, in slot
        order."""
        for group in self._craft_groups:
            self._craft_group(group, rows)
        for slot in self._solo_crafts:
            self._craft_cell(slot, rows[slot])

    def _craft_group(
        self, group: _CraftGroup, rows: list[np.ndarray | None]
    ) -> None:
        """One ``craft_batch`` call per chunk of ``group.step`` cells.
        The honest rows and their parameters are gathered into the
        group's blocks (``take``'s ``clip`` mode never clips these
        in-range rows; it fills ``out`` without a buffered copy)."""
        attack, reads = group.attack, group.reads
        t = self._round_index
        f = group.byzantine.shape[1]
        proposals = self._proposals.reshape(-1, self.dimension)
        history = self._history.reshape(-1, self.dimension)
        for start in range(0, group.slots.size, group.step):
            part = slice(start, start + group.step)
            slots = group.slots[part]
            honest = group.honest[part]
            true_gradient = None
            if "true_gradient" in reads and group.true_gradient:
                if group.window:
                    true_gradient = self._gradients[t % self._window, slots]
                else:
                    true_gradient = np.stack(
                        [self._true_gradient(slot) for slot in slots.tolist()]
                    )
            stale = None
            if group.is_async and reads & {"byzantine_staleness", "honest_params"}:
                stale = np.stack([rows[slot] for slot in slots.tolist()])
                cells = np.arange(slots.size)[:, None]
            honest_gradients = None
            if group.honest_rows is not None:
                honest_gradients = np.take(
                    proposals,
                    slots[:, None] * self.num_workers + honest,
                    axis=0,
                    out=group.honest_rows[: slots.size],
                    mode="clip",
                )
            honest_params = None
            if group.honest_params is not None:
                lags = (t - stale[cells, honest]) % self._window
                honest_params = np.take(
                    history,
                    lags * self.batch_size + slots[:, None],
                    axis=0,
                    out=group.honest_params[: slots.size],
                    mode="clip",
                )
            batch = AttackBatch(
                round_index=t,
                num_workers=self.num_workers,
                num_byzantine=f,
                dimension=self.dimension,
                size=slots.size,
                rngs=(
                    tuple(
                        self._scenarios[slot].simulation.attack_rng
                        for slot in slots.tolist()
                    )
                    if "rng" in reads
                    else None
                ),
                honest_gradients=honest_gradients,
                true_gradient=true_gradient,
                byzantine_staleness=(
                    stale[cells, group.byzantine[part]]
                    if stale is not None and "byzantine_staleness" in reads
                    else None
                ),
                # What the workers read: under an active tier that is
                # the worker view, not the canonical row.
                params=(
                    self._history[t % self._window, slots]
                    if "params" in reads
                    else None
                ),
                honest_params=honest_params,
                honest_indices=honest,
                byzantine_indices=group.byzantine[part],
                attacks=None if group.attacks is None else group.attacks[part],
            )
            self._proposals[slots[:, None], group.byzantine[part]] = (
                attack.craft_batch(batch)
            )

    def _craft_cell(self, slot: int, staleness_row: np.ndarray | None) -> None:
        """One cell's craft, from a context holding the fields its attack
        declares (``None`` for the others)."""
        scenario = self._scenarios[slot]
        sim = scenario.simulation
        reads = sim.attack.context_reads(sim.true_gradient_fn is not None)
        honest_ids, byzantine_ids = scenario.honest_ids, scenario.byzantine_ids
        stale = staleness_row is not None
        context = AttackContext(
            round_index=self._round_index,
            # The omniscient attack sees what was broadcast — under an
            # active tier that is the worker view, not the canonical row.
            params=self._read(slot, 0) if "params" in reads else None,
            honest_gradients=(
                self._proposals[slot][honest_ids]
                if "honest_gradients" in reads
                else None
            ),
            byzantine_indices=byzantine_ids,
            honest_indices=honest_ids,
            num_workers=sim.num_workers,
            rng=sim.attack_rng if "rng" in reads else None,
            aggregator=sim.server.aggregator if "aggregator" in reads else None,
            true_gradient=(
                self._true_gradient(slot) if "true_gradient" in reads else None
            ),
            honest_staleness=(
                staleness_row[honest_ids]
                if stale and "honest_staleness" in reads
                else None
            ),
            byzantine_staleness=(
                staleness_row[byzantine_ids]
                if stale and "byzantine_staleness" in reads
                else None
            ),
            honest_params=(
                self._read(slot, staleness_row[honest_ids])
                if stale and "honest_params" in reads
                else None
            ),
            selected_last_round=(
                selected_last_round(byzantine_ids, scenario.last_selected)
                if "selected_last_round" in reads
                else None
            ),
            dimension=self.dimension,
        )
        self._proposals[slot][byzantine_ids] = sim.attack.craft(context)

    def _group_staleness(
        self, group: _Group, rows: list[np.ndarray | None]
    ) -> np.ndarray:
        """The ``(size, n)`` per-proposal staleness block of one
        staleness-aware rule group (zeros for its synchronous
        scenarios)."""
        staleness = np.zeros(
            (group.stop - group.start, self.num_workers), dtype=np.int64
        )
        for offset, row in enumerate(rows[group.start : group.stop]):
            if row is not None:
                staleness[offset] = row
        return staleness

    def _group_used_params(
        self, group: _Group, rows: list[np.ndarray | None]
    ) -> np.ndarray:
        """The ``(size, n, d)`` used-parameter block of one loop-fallback
        staleness-aware group for ``aggregate_detailed_stale``: the
        parameters (or tier view) each proposal was computed at, the
        current ones for synchronous scenarios."""
        size = group.stop - group.start
        used = np.empty((size, self.num_workers, self.dimension))
        t = self._round_index
        for offset in range(size):
            slot = group.start + offset
            row = rows[slot]
            lags = t % self._window if row is None else (t - row) % self._window
            used[offset] = self._history[lags, slot]
        return used

    @contextmanager
    def _call(self) -> Iterator[None]:
        """One public call: its rounds draw from the shared noise streams
        grouped at its start, and every stream is re-synced at its end,
        also when a round raises.  ``run``'s own ``run_round`` calls are
        part of its call."""
        if self._noise is not None:
            yield
            return
        self._noise = _SharedNoise(self._scenarios, self.dimension)
        try:
            yield
        finally:
            noise, self._noise = self._noise, None
            noise.sync()

    def run_round(self) -> list[RoundRecord]:
        """Execute one round (synchronous or bounded-stale) for every
        scenario.

        Returns the per-scenario records in the caller's input order.
        """
        with self._call():
            return self._round()

    def _round(self) -> list[RoundRecord]:
        t = self._round_index
        self._view(t)
        rows = [self._staleness_row(slot, t) for slot in range(self.batch_size)]
        self._noise.draw()
        self._propose(t, rows)
        self._craft(rows)

        rates = np.asarray(
            [scenario.simulation.server.schedule(t) for scenario in self._scenarios],
            dtype=np.float64,
        )
        aggregate = np.empty((self.batch_size, self.dimension))
        selected: list[np.ndarray] = [None] * self.batch_size  # type: ignore[list-item]
        for group in self._groups:
            adapter = group.adapter
            stacks = self._proposals[group.start : group.stop]
            if not adapter.supports_staleness:
                result = adapter.aggregate_batch(stacks)
            elif adapter.is_native:
                result = adapter.aggregate_batch(
                    stacks, staleness=self._group_staleness(group, rows)
                )
            else:
                result = adapter.aggregate_batch(
                    stacks,
                    staleness=self._group_staleness(group, rows),
                    used_params=self._group_used_params(group, rows),
                )
            aggregate[group.start : group.stop] = result.vectors
            for offset, rows_selected in enumerate(result.selected):
                selected[group.start + offset] = rows_selected

        # One batched SGD step: x_{t+1} = x_t − γ_t · F(...), elementwise
        # identical to the per-scenario update.  It writes a fresh matrix
        # (or the read window's next row), so no retained round changes.
        step = rates[:, None] * aggregate
        if self._params_row is None:
            self._bind_params(self._params - step, None)
        else:
            row = (t + 1) % self._window
            self._bind_params(
                np.subtract(self._params, step, out=self._history[row]), row
            )
        aggregate_norms = exact_row_norms(aggregate).tolist()
        params_norms = exact_row_norms(self._params).tolist()
        records: list[RoundRecord] = [None] * self.batch_size  # type: ignore[list-item]
        for slot, scenario in enumerate(self._scenarios):
            server = scenario.simulation.server
            if server.halt_on_nonfinite:
                halt_if_nonfinite(scenario.params, t, server.aggregator)
            scenario.last_selected = np.asarray(
                selected[slot], dtype=np.int64
            ).copy()
            records[scenario.index] = round_record(
                t,
                rates[slot],
                aggregate_norms[slot],
                params_norms[slot],
                selected[slot],
                scenario.byzantine_set,
            )
        self._round_index += 1
        return records

    def _bind_params(self, params: np.ndarray, row: int | None) -> None:
        """Make ``params`` (row ``row`` of the read window, or ``None``
        for a matrix of its own) every cell's parameters."""
        self._params, self._params_row = params, row
        for slot, scenario in enumerate(self._scenarios):
            scenario.params = params[slot]

    def _evaluate(self, scenario: _Scenario, record: RoundRecord) -> RoundRecord:
        """``record`` with the cell's evaluation attached.  A cell that
        hands over keeps the ∇Q its evaluation took of the canonical row,
        which the next round's craft reads unchanged."""
        sim = scenario.simulation
        gradient_fn = sim.true_gradient_fn
        if scenario.hands_over:

            def gradient_fn(params, fn=sim.true_gradient_fn):
                gradient = fn(params)
                scenario.handover = (self._round_index, gradient)
                return gradient

        return evaluated_record(
            record, scenario.params.copy(), sim.evaluate, gradient_fn
        )

    def run(
        self, num_rounds: int, *, eval_every: int = 10
    ) -> list[TrainingHistory]:
        """Run all scenarios for ``num_rounds`` rounds.

        Every ``eval_every``-th round and the final round are evaluated.
        Returns one history per scenario, in the order the simulations
        were passed in.
        """
        num_rounds = check_positive_int(num_rounds, "num_rounds")
        eval_every = check_positive_int(eval_every, "eval_every")
        histories = [TrainingHistory() for _ in range(self.batch_size)]
        start = self._round_index
        with self._call():
            for t in range(num_rounds):
                # Prefetch only rounds this call runs: no schedule is
                # ever queried past the requested horizon.
                if t % _STALENESS_CHUNK == 0:
                    self._prefetch_staleness(
                        start + t, start + min(t + _STALENESS_CHUNK, num_rounds)
                    )
                records = self.run_round()
                evaluate_now = t % eval_every == 0 or t == num_rounds - 1
                for scenario in self._scenarios:
                    record = records[scenario.index]
                    if evaluate_now:
                        record = self._evaluate(scenario, record)
                    histories[scenario.index].append(record)
        return histories


class LoopExecutor(BatchedSimulation):
    """The loop executor: the same stages over one cell, aggregated by
    the cell's own rule instead of a native kernel.
    ``TrainingSimulation.run`` drives one, so loop/batched comparisons
    check the kernels against the rules."""

    # Each worker draws its own noise through ``sample_about``: the
    # per-cell reference the batched executor's shared draws match.
    _shares_noise = False

    def _adapter(self, rules: list[Aggregator]) -> BatchedAggregator:
        return LoopBatchedAggregator(rules)
