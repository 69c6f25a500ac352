"""Decentralized training over a communication graph.

``GossipSimulation`` drops the parameter server entirely: every node
keeps *local* parameters, trains on them, disseminates its proposal to
its graph neighbors (per-edge delays via the
:class:`~repro.distributed.delays.DelaySchedule` registry), and
aggregates whatever it has heard with a registered choice function at a
*local* Byzantine bound — the count of adversarial ids inside its
current in-neighborhood.  Byzantine nodes craft their proposals through
the worker-attack registry, optionally equivocating (a different
message per receiving edge).

A round is a fixed sequence of array stages over one CSR neighborhood
block (:meth:`~repro.topology.base.Topology.neighbors_block`).  Honest
nodes train into an ``(n, d)`` message matrix and the adversary writes
its crafted rows into it.  Under a shared oracle that evaluates row
blocks, every node's expected gradient is one call, and each node whose
noise is its own Gaussian stream draws it ahead in blocks of rounds
(:class:`_NoiseBlocks`), so a round adds all their noise in one array
add.  The streams still end where per-round draws leave them, also
after a run that raises.  Per directed edge into an honest node, the
executor keeps the computed round of the freshest message heard; lagged
messages (one ``staleness_block`` query per round) wait in int arrays,
and delivery keeps the freshest round, so due messages apply in any
order.  Of a past round only the rows an edge or an in-flight message
points at are kept (an edge that left the graph keeps its message: it
is aggregated again if the edge returns).

Honest nodes aggregate their members (self plus the heard neighbors) in
groups keyed by rule :func:`~repro.core.batched.batch_group_key` and
member count: each :mod:`repro.core.batched` kernel call gathers its
``(G, m, d)`` stack in one fancy index, staging at most
``_STAGING_BYTES``; the calls and their adapters are planned once per
neighborhood shape.  Staleness-aware rules and rules without a native
kernel run one node per call, so per-node state advances as before.
Honest rows then update with one subtraction into a fresh parameter
matrix; errors and the non-finite halt keep node-id order (the nodes
before the failing node are updated first), so every trajectory, record
and error is the node-by-node one
(``tests/topology/test_gossip_oracle.py`` pins it against a frozen
per-node reference).  The evaluated rounds' ``disagreement`` is the
exact all-pairs maximum behind a Gram screen
(:func:`~repro.utils.linalg.max_pairwise_distance`).

Degenerate identity: on the ``complete`` graph with no edge delays,
every node hears every proposal fresh, the local ``f`` equals the
global ``f``, and each node's trajectory is bit for bit the server
path's — ``tests/topology/test_gossip_differential.py`` pins this against
:class:`~repro.distributed.TrainingSimulation` and both grid executors.
"""

from __future__ import annotations

import copy
from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import replace

import numpy as np

from repro.attacks.base import Attack, AttackContext
from repro.core.aggregator import Aggregator
from repro.core.batched import (
    batch_group_key,
    has_batched_kernel,
    make_batched_aggregator,
)
from repro.core.staleness import StalenessAwareAggregator
from repro.distributed.delays import DelaySchedule, make_delay_schedule
from repro.distributed.metrics import RoundRecord, TrainingHistory
from repro.distributed.schedules import LearningRateSchedule
from repro.distributed.simulator import (
    evaluated_record,
    halt_if_nonfinite,
    resolve_byzantine_slots,
    round_record,
    selected_last_round,
)
from repro.exceptions import ConfigurationError, ReproError, SimulationError
from repro.gradients.base import GradientEstimator
from repro.gradients.oracle import GaussianOracleEstimator, shared_gradient_fn
from repro.topology.base import Topology
from repro.topology.registry import make_topology
from repro.utils.linalg import exact_row_norms, max_pairwise_distance
from repro.utils.rng import SeedLike, spawn_generators
from repro.utils.validation import check_positive_int

__all__ = ["GossipSimulation"]

Evaluator = Callable[[np.ndarray], dict[str, float]]

# Most proposal bytes one aggregate kernel call stages.  Bounds the
# (G, m, d) stack and the kernel's per-call intermediates: staging a
# whole 200-node ring at d = 100 in one call measurably raised peak RSS,
# and at MLP scale (d ≈ 25k) the cap degrades to one node per call.
_STAGING_BYTES = 1 << 18

# Most noise bytes one block draws ahead, over all block-drawn nodes (see
# _NoiseBlocks): a 200-node ring at d = 100 draws 2 rounds per block.
# Larger blocks save little more time, since the draws themselves
# dominate, and raise peak RSS: on that ring's benchmark run, peak RSS
# read 1.1 MB above per-round draws with 2-round blocks, 1.6 MB with 3.
_NOISE_BYTES = 5 << 16


class _NoiseBlocks:
    """The Gaussian noise of one ``run``'s block-drawn honest nodes.

    Each node draws up to k rounds at once with one
    :meth:`~repro.gradients.oracle.GaussianOracleEstimator.noise` call,
    which leaves its stream where k per-round draws would; k is bounded
    by ``_NOISE_BYTES`` over all nodes, and a round reads one ``(nodes,
    d)`` slice.  :meth:`release` leaves every stream where per-round
    draws would, as ``_SharedNoise.sync`` does on the server path: a
    stream whose node did not propose every round drawn (a round raised)
    goes back to its state at the start of the run and draws again only
    the rounds it proposed.
    """

    def __init__(
        self,
        positions: np.ndarray,
        sampled: list[int],
        estimators: list,
        rngs: list,
        dimension: int,
        rounds: int,
    ):
        self.positions = positions  # the nodes' positions in honest order
        self.sampled = sampled  # the other honest positions (sample_about)
        self.estimators = estimators
        self.rngs = rngs
        self.dimension = dimension
        self.rounds_left = rounds  # not drawn yet
        self.start_states = [rng.bit_generator.state for rng in rngs]
        self.drawn = 0  # rounds drawn in this run
        self.used = np.zeros(positions.size, dtype=np.int64)  # rounds proposed
        self.values: np.ndarray | None = None  # the current (k, nodes, d) block
        self.next = 0  # the block's next round

    def take(self) -> np.ndarray:
        """The next round's ``(nodes, d)`` noise; every node counts it
        as proposed until :meth:`unuse` says otherwise."""
        if self.values is None or self.next == len(self.values):
            nodes, d = self.positions.size, self.dimension
            k = min(self.rounds_left, max(1, _NOISE_BYTES // (8 * nodes * d)))
            # Counted first: a draw cut short leaves every node behind,
            # and release replays it.
            self.rounds_left -= k
            self.drawn += k
            self.values, self.next = None, 0  # freed before the next block
            self.values = np.empty((k, nodes, d))
            for i, (estimator, rng) in enumerate(zip(self.estimators, self.rngs)):
                self.values[:, i] = estimator.noise(rng, k)
        self.used += 1
        self.next += 1
        return self.values[self.next - 1]

    def unuse(self, after: int) -> None:
        """Node-id order: the nodes after honest position ``after`` had
        not drawn the last round when that node's estimate raised."""
        self.used[self.positions > after] -= 1

    def release(self) -> None:
        """Drop the block and move every stream that did not propose all
        the rounds drawn to where per-round draws would leave it."""
        self.values = None
        per_call = max(1, _NOISE_BYTES // (8 * self.dimension))
        for i, (estimator, rng) in enumerate(zip(self.estimators, self.rngs)):
            rounds = int(self.used[i])
            if rounds != self.drawn:
                rng.bit_generator.state = self.start_states[i]
                for done in range(0, rounds, per_call):
                    estimator.noise(rng, min(per_call, rounds - done))


class GossipSimulation:
    """Serverless Byzantine-tolerant SGD over a communication graph.

    Parameters
    ----------
    topology:
        A :class:`~repro.topology.base.Topology` instance or registry
        name; bound to the node count with a stream spawned from the
        root seed.
    aggregator:
        The choice function each node runs locally.  Stateful rules
        (e.g. ``kardam``) are deep-copied per node so no state leaks
        between nodes; supply ``aggregator_builder`` to additionally
        rebuild the rule at each node's *local* ``f``.
    aggregator_builder:
        Optional ``f_local -> Aggregator`` factory.  When given, each
        (node, local-f) pair gets its own instance built at that bound —
        the engine wires this from the cell's registry spec so Krum-style
        rules defend against the adversaries actually inside each
        neighborhood.  Without it the fixed ``aggregator`` (at its
        declared ``f``) is copied per node.
    schedule / honest_estimators / initial_params / num_byzantine /
    attack / byzantine_slots / true_gradient_fn / evaluate /
    halt_on_nonfinite / seed:
        As in :class:`~repro.distributed.TrainingSimulation`.
    edge_delay:
        A :class:`~repro.distributed.delays.DelaySchedule` (or registry
        name) queried per *directed edge* — ``staleness(edge_id, t)``
        with ``edge_id = sender · n + receiver`` — giving the arrival
        lag of each message; ``None`` delivers every message inside its
        round.
    equivocate:
        When true, a Byzantine node crafts a *different* message per
        receiving honest neighbor (the attack context's ``receiver``
        field names the target); by default all edges carry one shared
        crafted proposal, matching the server path's single submission.
    """

    def __init__(
        self,
        *,
        topology: Topology | str,
        aggregator: Aggregator,
        schedule: LearningRateSchedule,
        honest_estimators: Sequence[GradientEstimator],
        initial_params: np.ndarray,
        num_byzantine: int = 0,
        attack: Attack | None = None,
        byzantine_slots: str | Sequence[int] = "last",
        aggregator_builder: Callable[[int], Aggregator] | None = None,
        edge_delay: DelaySchedule | str | None = None,
        equivocate: bool = False,
        true_gradient_fn: Callable[[np.ndarray], np.ndarray] | None = None,
        evaluate: Evaluator | None = None,
        halt_on_nonfinite: bool = False,
        seed: SeedLike = 0,
    ):
        if num_byzantine < 0:
            raise ConfigurationError(
                f"num_byzantine must be >= 0, got {num_byzantine}"
            )
        if num_byzantine > 0 and attack is None:
            raise ConfigurationError(
                f"num_byzantine={num_byzantine} requires an attack"
            )
        if num_byzantine == 0 and attack is not None:
            raise ConfigurationError(
                "an attack was supplied but num_byzantine=0"
            )
        if not honest_estimators:
            raise ConfigurationError("need at least one honest estimator")

        self.num_honest = len(honest_estimators)
        self.num_byzantine = int(num_byzantine)
        self.num_nodes = self.num_honest + self.num_byzantine

        self.byzantine_ids = resolve_byzantine_slots(
            byzantine_slots, self.num_nodes, self.num_byzantine
        )
        byzantine_set = set(self.byzantine_ids)
        self.honest_ids = [
            i for i in range(self.num_nodes) if i not in byzantine_set
        ]
        #: The node whose trajectory the round records report — the
        #: lowest honest id, matching the server path's single history.
        self.reference_node = self.honest_ids[0]
        self._honest = np.asarray(self.honest_ids, dtype=np.int64)
        self._byzantine = np.asarray(self.byzantine_ids, dtype=np.int64)
        self._is_byzantine = np.zeros(self.num_nodes, dtype=bool)
        self._is_byzantine[self._byzantine] = True

        # Stream layout is prefix-stable with TrainingSimulation's:
        # honest nodes, the attack stream, the edge-delay bind stream,
        # one reserved slot (the server path's server-attack stream —
        # serverless here, but keeping it pins the later streams' spawn
        # positions), and the topology bind stream.
        streams = spawn_generators(seed, self.num_honest + 4)
        self.attack_rng = streams[self.num_honest]
        self._node_rng = dict(zip(self.honest_ids, streams[: self.num_honest]))
        self._estimators = dict(zip(self.honest_ids, honest_estimators))
        # One call of a shared block-capable oracle gives every honest
        # node's expected gradient (see _propose).
        block_capable = all(
            isinstance(e, GaussianOracleEstimator) and e.row_blocks
            for e in honest_estimators
        )
        self._block_gradient = (
            shared_gradient_fn(honest_estimators) if block_capable else None
        )

        if isinstance(edge_delay, str):
            edge_delay = make_delay_schedule(edge_delay)
        if edge_delay is not None and not isinstance(edge_delay, DelaySchedule):
            raise ConfigurationError(
                f"edge_delay must be a DelaySchedule, registry name or "
                f"None, got {type(edge_delay).__name__}"
            )
        self.edge_delay = (
            None
            if edge_delay is None
            else edge_delay.bind(streams[self.num_honest + 1])
        )

        if isinstance(topology, str):
            topology = make_topology(topology)
        if not isinstance(topology, Topology):
            raise ConfigurationError(
                f"topology must be a Topology or registry name, got "
                f"{type(topology).__name__}"
            )
        self.topology = topology.bind(
            self.num_nodes, streams[self.num_honest + 3]
        )

        params = np.asarray(initial_params, dtype=np.float64)
        if params.ndim != 1:
            raise ConfigurationError(
                f"initial_params must be 1-d, got shape {params.shape}"
            )
        dims = {est.dimension for est in honest_estimators}
        if dims != {params.shape[0]}:
            raise ConfigurationError(
                f"estimator dimensions {sorted(dims)} do not match parameter "
                f"dimension {params.shape[0]}"
            )
        self.dimension = int(params.shape[0])
        # One local row per node; Byzantine rows stay at x_0.  Each
        # round rebinds the matrix, so a past round's matrix stays the
        # parameters its messages were computed at.
        self._node_params = np.tile(params, (self.num_nodes, 1))

        self._aggregator = aggregator
        self._aggregator_builder = aggregator_builder
        aggregator.check_tolerance(self.num_nodes)
        self._rules: dict[tuple[int, int], Aggregator] = {}
        # Per rule instance (by id): its batch_group_key when several
        # nodes may share one kernel call, None for one node per call.
        self._batch_keys: dict[int, tuple[str, str] | None] = {}

        self.schedule = schedule
        self.attack = attack
        if self.attack is not None:
            self.attack.reset()
        self.equivocate = bool(equivocate)
        self.true_gradient_fn = true_gradient_fn
        self.evaluate = evaluate
        self.halt_on_nonfinite = bool(halt_on_nonfinite)

        # Message state per directed edge into an honest node seen so
        # far, keyed by receiver · n + sender (sorted): the computed
        # round of the freshest message heard (-1: none).  Messages not
        # yet arrived are columns (arrival, computed round, edge).
        self._edge_keys = np.empty(0, dtype=np.int64)
        self._heard = np.empty(0, dtype=np.int64)
        self._in_flight = np.empty((3, 0), dtype=np.int64)
        # round -> (messages, row lookup, parameters, row lookup) of
        # every round an edge or in-flight message points at: message
        # row r is messages[lookup[r]], computed at parameters[lookup[r]].
        self._banks: dict[int, tuple] = {}
        n_rows = self.num_nodes * (1 + self.num_byzantine if equivocate else 1)
        self._rows = np.arange(n_rows)
        # A message row's own node, or for a crafted row the attack's
        # view (the reference node's parameters).
        self._param_rows = np.full(n_rows, self.reference_node)
        self._param_rows[self._honest] = self._honest
        self._edges: tuple | None = None  # see _edge_layout
        self._plan: tuple | None = None  # see _group_nodes
        self._noise: _NoiseBlocks | None = None  # during run (see _noise_blocks)
        # Union of every honest node's selected member ids last round
        # (None before the first round) — feeds the attack context's
        # selected_last_round exactly as the server's last_selected does.
        self._selected_union: np.ndarray | None = None
        self._round = 0

    # ------------------------------------------------------------------
    # Cast and state accessors

    @property
    def params(self) -> np.ndarray:
        """The reference node's current parameters (a defensive copy)."""
        return self._node_params[self.reference_node].copy()

    @property
    def honest_params(self) -> np.ndarray:
        """The ``(num_honest, d)`` stack of honest local parameters."""
        return self._node_params[self._honest]

    def node_params(self, node: int) -> np.ndarray:
        """Node ``node``'s current local parameters (a defensive copy)."""
        if not 0 <= int(node) < self.num_nodes:
            raise ConfigurationError(
                f"node {node} outside [0, {self.num_nodes})"
            )
        return self._node_params[int(node)].copy()

    def consensus_metrics(self) -> dict[str, float]:
        """Disagreement across the honest nodes' local parameters.

        ``consensus_error`` is the mean distance to the honest
        barycenter; ``disagreement`` the largest honest pairwise
        distance, exact (both 0 exactly on the complete zero-delay
        graph, where all honest trajectories coincide).
        """
        stack = self.honest_params
        center = stack.mean(axis=0)
        return {
            "consensus_error": float(
                np.mean(np.linalg.norm(stack - center, axis=1))
            ),
            "disagreement": max_pairwise_distance(stack),
        }

    def _rule_for(self, node: int, f_local: int) -> Aggregator:
        key = (node, f_local)
        rule = self._rules.get(key)
        if rule is None:
            if self._aggregator_builder is not None:
                rule = self._aggregator_builder(f_local)
            else:
                # Per-node copies so stateful rules (kardam windows)
                # never share state across nodes; the declared f stands.
                rule = copy.deepcopy(self._aggregator)
            self._rules[key] = rule
            # Rules without a native kernel run one node per call: the
            # loop fallback may carry per-node state (kardam), and a
            # one-node call keeps every error attributable to its node.
            # Staleness-aware rules do too, because the node-by-node
            # rerun of a failed batch would drop their staleness.
            self._batch_keys[id(rule)] = (
                batch_group_key(rule)
                if has_batched_kernel(rule)
                and not isinstance(rule, StalenessAwareAggregator)
                else None
            )
        return rule

    def _edge_layout(self, indptr: np.ndarray, indices: np.ndarray) -> tuple:
        """The block's edges into honest nodes, receiver-major, as
        ``(receivers, senders, state positions, message rows, send
        order)``; the graph is symmetric, so they are sent sender-major.
        Cached for the last block: a static graph resolves them once."""
        if self._edges is not None and self._edges[0] is indices:
            return self._edges[1]
        n = self.num_nodes
        owners = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        into_honest = ~self._is_byzantine[owners]
        receivers, senders = owners[into_honest], indices[into_honest]
        edge_keys = receivers * n + senders
        keys = np.union1d(self._edge_keys, edge_keys)
        if keys.size != self._edge_keys.size:
            moved = np.searchsorted(keys, self._edge_keys)
            heard = np.full(keys.size, -1, dtype=np.int64)
            heard[moved] = self._heard
            self._in_flight[2] = moved[self._in_flight[2]]
            self._edge_keys, self._heard = keys, heard
        rows = self._message_rows(receivers, senders)
        send_order = np.argsort(senders * n + receivers)
        edges = (receivers, senders, np.searchsorted(keys, edge_keys), rows, send_order)
        self._edges = (indices, edges)
        return edges

    def _message_rows(self, receivers: np.ndarray, senders: np.ndarray) -> np.ndarray:
        """The message-matrix row each edge carries (see _propose)."""
        rows = senders.copy()
        if self.equivocate:
            crafted = self._is_byzantine[senders]
            rows[crafted] = (
                self.num_nodes
                + receivers[crafted] * self.num_byzantine
                + np.searchsorted(self._byzantine, senders[crafted])
            )
        return rows

    # ------------------------------------------------------------------
    # Round stages

    def _propose(self, t: int, indptr: np.ndarray, indices: np.ndarray) -> None:
        """Train and craft round ``t``'s message matrix: row ``v`` is node
        ``v``'s proposal and, under equivocation, row ``n + u·b + j`` is
        Byzantine node ``j``'s message to node ``u``."""
        n, b = self.num_nodes, self.num_byzantine
        params = self._node_params
        messages = np.empty((n + n * b if self.equivocate else n, self.dimension))
        if self._block_gradient is not None:
            # Each row equals the node's own gradient call, and each node
            # still draws its noise from its own stream: the block-drawn
            # nodes in one add, the others through sample_about.
            expected = np.asarray(
                self._block_gradient(params[self._honest]), dtype=np.float64
            )
            noise = self._noise
            assert noise is not None
            if noise.positions.size:
                # The round's block slice is used once, so it takes the sum.
                noisy = noise.take()
                np.add(
                    expected[noise.positions] if noise.sampled else expected,
                    noisy,
                    out=noisy,
                )
                messages[self._honest[noise.positions]] = noisy
            for i in noise.sampled:
                v = self.honest_ids[i]
                try:
                    messages[v] = self._estimators[v].sample_about(
                        expected[i], self._node_rng[v]
                    )
                except BaseException:
                    noise.unuse(after=i)
                    raise
        else:
            for v in self.honest_ids:
                estimator, rng = self._estimators[v], self._node_rng[v]
                messages[v] = estimator.estimate(params[v], rng)
        if b > 0:
            assert self.attack is not None
            reads = self.attack.context_reads(self.true_gradient_fn is not None)
            neighbors = (
                tuple(
                    indices[indptr[v] : indptr[v + 1]] for v in self.byzantine_ids
                )
                if self.equivocate or "byzantine_neighbors" in reads
                else None
            )
            ref_params = (
                params[self.reference_node].copy()
                if reads & {"params", "true_gradient"}
                else None
            )
            context = AttackContext(
                round_index=t,
                params=ref_params if "params" in reads else None,
                honest_gradients=(
                    messages[self._honest] if "honest_gradients" in reads else None
                ),
                byzantine_indices=self._byzantine.copy(),
                honest_indices=self._honest.copy(),
                num_workers=n,
                rng=self.attack_rng if "rng" in reads else None,
                aggregator=self._aggregator if "aggregator" in reads else None,
                true_gradient=(
                    self.true_gradient_fn(ref_params)
                    if self.true_gradient_fn is not None and "true_gradient" in reads
                    else None
                ),
                # The neighbor view: each honest node's *local* parameters
                # (on the complete zero-delay graph these coincide with
                # ``params``, so server-path attacks behave identically).
                honest_params=(
                    self.honest_params if "honest_params" in reads else None
                ),
                selected_last_round=(
                    selected_last_round(self._byzantine, self._selected_union)
                    if "selected_last_round" in reads
                    else None
                ),
                byzantine_neighbors=(
                    neighbors if "byzantine_neighbors" in reads else None
                ),
                dimension=self.dimension,
            )
            if not self.equivocate:
                messages[self._byzantine] = self.attack.craft(context)
            else:
                # One craft per honest receiver adjacent to a Byzantine
                # node this round, in id order (the attack stream
                # advances deterministically).
                assert neighbors is not None
                adjacent = np.unique(np.concatenate(neighbors))
                crafted = messages[n:].reshape(n, b, self.dimension)
                for u in adjacent[~self._is_byzantine[adjacent]].tolist():
                    crafted[u] = self.attack.craft(replace(context, receiver=u))
        self._banks[t] = (messages, self._rows, params, self._param_rows)

    def _send(self, t: int, edges: tuple) -> None:
        """Put round ``t``'s messages on their edges, then deliver the
        zero-lag ones and every in-flight one due by ``t``."""
        n = self.num_nodes
        receivers, senders, positions, _, send_order = edges
        lag = np.zeros(positions.size, dtype=np.int64)
        if self.edge_delay is not None:
            tau = self.edge_delay.staleness_block(
                senders[send_order] * n + receivers[send_order], [t]
            )[0]
            bad = np.flatnonzero(tau < 0)[:1]
            if bad.size:
                e = send_order[bad[0]]
                raise SimulationError(
                    f"edge delay produced negative staleness {tau[bad[0]]} "
                    f"for edge {senders[e]}->{receivers[e]} at round {t}"
                )
            # Nothing can arrive staler than the start of training — the
            # same min(τ, t) clamp TrainingSimulation applies, so round 0
            # always delivers fresh and krum-style local tolerance holds.
            lag[send_order] = np.minimum(tau, t)
        sent = np.stack((t + lag, np.full(lag.size, t), positions))
        flight = np.concatenate((self._in_flight, sent), axis=1)
        due = flight[0] <= t
        np.maximum.at(self._heard, flight[2, due], flight[1, due])
        self._in_flight = flight[:, ~due]
        self._retire(t)

    def _retire(self, t: int) -> None:
        """Keep of each past round only the rows an edge or in-flight
        message points at: drop a round none does, and cut a round down
        once at most half its rows are pointed at, so a row is copied
        about once."""
        n = self.num_nodes
        computed = np.concatenate((self._heard, self._in_flight[1]))
        keys = np.concatenate((self._edge_keys, self._edge_keys[self._in_flight[2]]))
        for c in set(self._banks) - {t}:
            pointing = keys[computed == c]
            if pointing.size == 0:
                del self._banks[c]
                continue
            rows = np.unique(self._message_rows(pointing // n, pointing % n))
            messages, lookup, params, param_lookup = self._banks[c]
            if 2 * rows.size <= len(messages):
                kept = np.full(len(self._rows), -1)
                kept[rows] = np.arange(rows.size)
                cut = (messages[lookup[rows]], kept, params[param_lookup[rows]], kept)
                self._banks[c] = cut

    def _gather(self, part: int, computed: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Elementwise message row ``rows`` of round ``computed``: ``part``
        0 gathers the messages, 1 the parameters they were computed at.
        One fancy index per round present, into one preallocated stack."""
        rounds = np.unique(computed).tolist()
        if len(rounds) == 1:
            matrix, lookup = self._banks[rounds[0]][2 * part : 2 * part + 2]
            return matrix[lookup[rows]]
        out = np.empty(rows.shape + (self.dimension,))
        for c in rounds:
            matrix, lookup = self._banks[c][2 * part : 2 * part + 2]
            at = computed == c
            out[at] = matrix[lookup[rows[at]]]
        return out

    def _aggregate(self, t: int, edges: tuple) -> RoundRecord:
        """Aggregate every honest node, update in node-id order, and
        return the reference node's record."""
        n, honest = self.num_nodes, self._honest
        # Each honest node's members, in id order: itself and every
        # neighbor heard from.  member/computed/row are flat, node after
        # node, with row indexing the computed round's message matrix.
        receivers, senders, positions, rows, _ = edges
        heard = self._heard[positions]
        got = heard >= 0
        owner = np.concatenate((receivers[got], honest))
        member = np.concatenate((senders[got], honest))
        order = np.argsort(owner * n + member)
        owner, member = owner[order], member[order]
        computed = np.concatenate((heard[got], np.full(honest.size, t)))[order]
        row = np.concatenate((rows[got], honest))[order]
        sizes = np.bincount(owner, minlength=n)[honest]
        f_local = np.bincount(owner, self._is_byzantine[member], n)[honest]
        plan_key = (f_local.tobytes(), sizes.tobytes())
        if self._plan is None or self._plan[0] != plan_key:
            self._plan = (plan_key, *self._group_nodes(f_local, sizes))
        _, rules, chunks, failure = self._plan

        errors = [] if failure is None else [(len(rules), failure)]
        vectors = np.empty((len(rules), self.dimension))
        picked = [np.empty(0, dtype=np.int64)]  # selected member positions
        for chunk, index, chunk_rules, adapter in chunks:
            kwargs: dict[str, np.ndarray] = {}
            if adapter.supports_staleness:
                kwargs["staleness"] = t - computed[index]
            if adapter.supports_staleness and not adapter.is_native:
                kwargs["used_params"] = self._gather(1, computed[index], row[index])
            stack = self._gather(0, computed[index], row[index])
            done, selected, error = self._run_kernel(
                adapter, chunk_rules, stack, kwargs
            )
            vectors[chunk[: len(done)]] = np.reshape(done, (-1, self.dimension))
            picked.append(
                np.repeat(index[: len(selected), 0], [len(s) for s in selected])
                + np.concatenate([picked[0], *selected]).astype(np.int64)
            )
            if error is not None:
                errors.append((int(chunk[len(done)]), error))

        # The node-by-node update: the nodes before the first failing
        # node are updated, and a non-finite update halts at its node.
        stop, error = min(errors, key=lambda e: e[0], default=(len(rules), None))
        rate = self.schedule(t)
        updated = self._node_params[honest[:stop]] - rate * vectors[:stop]
        if self.halt_on_nonfinite:
            halted = np.flatnonzero(~np.isfinite(updated).all(axis=1))
            stop = stop if halted.size == 0 else int(halted[0]) + 1
        params = self._node_params.copy()
        params[honest[:stop]] = updated[:stop]
        self._node_params = params
        if self.halt_on_nonfinite and stop:
            last = int(honest[stop - 1])
            halt_if_nonfinite(params[last], t, rules[stop - 1], node=last)
        if error is not None:
            raise error

        positions = np.concatenate(picked)
        # Feed next round's selection feedback: a Byzantine id counts as
        # selected if *any* honest node selected it (on the complete
        # graph every node selects identically, recovering the server's
        # last_selected verdict).
        self._selected_union = np.unique(member[positions])
        own = positions[positions < sizes[0]]  # the reference node's
        ref = self.reference_node
        return round_record(
            t,
            rate,
            exact_row_norms(vectors[:1])[0],
            exact_row_norms(params[ref : ref + 1])[0],
            member[own],
            set(self.byzantine_ids),
        )

    def _group_nodes(self, f_local: np.ndarray, sizes: np.ndarray) -> tuple:
        """Each honest node's rule and the kernel calls as ``(nodes,
        member positions, rules, batched adapter)``, up to the first node
        whose rule fails to build or rejects its member count (that error
        is returned too).  Pure in (node, f, m), so equal rounds reuse the
        plan and its adapters."""
        rules: list[Aggregator] = []
        groups: dict[object, list[int]] = {}
        failure = None
        for i, v in enumerate(self.honest_ids):
            try:
                rule = self._rule_for(v, int(f_local[i]))
                rule.check_tolerance(int(sizes[i]))
            except ReproError as exc:
                failure = exc
                break
            rules.append(rule)
            # Nodes share a kernel call when their rules share a batch
            # key (see _rule_for) and their member count.
            batch_key = self._batch_keys[id(rule)]
            groups.setdefault(
                v if batch_key is None else (batch_key, int(sizes[i])), []
            ).append(i)
        starts = np.cumsum(sizes) - sizes
        chunks = []
        for group in groups.values():
            m = int(sizes[group[0]])
            per_call = max(1, _STAGING_BYTES // (8 * self.dimension * m))
            for lo in range(0, len(group), per_call):
                chunk = np.asarray(group[lo : lo + per_call])
                chunk_rules = [rules[i] for i in chunk]
                chunks.append(
                    (
                        chunk,
                        starts[chunk][:, None] + np.arange(m),
                        chunk_rules,
                        make_batched_aggregator(chunk_rules),
                    )
                )
        return rules, chunks, failure

    @staticmethod
    def _run_kernel(adapter, rules: list, stack: np.ndarray, kwargs: dict) -> tuple:
        """One kernel call: ``(vectors, selections, error)`` of the
        chunk's leading nodes that succeeded and the next node's error."""
        try:
            result = adapter.aggregate_batch(stack, **kwargs)
        except ReproError as exc:
            if len(rules) == 1:
                return [], [], exc
            # Only native (stateless) kernels batch several nodes.  Their
            # errors describe the whole batch, so rerun node by node and
            # keep each failure as the node's own rule reports it.
            vectors, selected = [], []
            for rule, node_stack in zip(rules, stack):
                try:
                    single = rule.aggregate_detailed(node_stack)
                except ReproError as node_exc:
                    return vectors, selected, node_exc
                vectors.append(single.vector)
                selected.append(single.selected)
            return vectors, selected, None
        return np.asarray(result.vectors), list(result.selected), None

    # ------------------------------------------------------------------
    # Driver

    def run(self, num_rounds: int, *, eval_every: int = 10) -> TrainingHistory:
        """Run ``num_rounds`` rounds.

        Returns the reference node's history; evaluated rounds also
        carry the cluster-wide ``consensus_error`` and ``disagreement``
        metrics in ``extras``.  The final round is always evaluated.
        """
        num_rounds = check_positive_int(num_rounds, "num_rounds")
        eval_every = check_positive_int(eval_every, "eval_every")
        history = TrainingHistory()
        start = self._round
        stop = start + num_rounds
        if self._block_gradient is not None:
            self._noise = self._noise_blocks(num_rounds)
        try:
            for t in range(start, stop):
                # One topology query per round, shared by every stage.
                # Crafting follows training so the omniscient adversary
                # sees this round's honest proposals, and sending precedes
                # aggregation so zero-delay edges deliver within the round.
                indptr, indices = self.topology.neighbors_block(t)
                edges = self._edge_layout(indptr, indices)
                self._propose(t, indptr, indices)
                self._send(t, edges)
                record = self._aggregate(t, edges)
                if (t - start) % eval_every == 0 or t == stop - 1:
                    record = evaluated_record(
                        record, self.params, self.evaluate, self.true_gradient_fn,
                        extras=self.consensus_metrics(),
                    )
                history.append(record)
                self._round = t + 1
        finally:
            if self._noise is not None:
                self._noise.release()
                self._noise = None
        return history

    def _noise_blocks(self, rounds: int) -> _NoiseBlocks:
        """The noise blocks of a run of ``rounds`` rounds.  A node draws
        blocks under the test the server path applies to shared noise: an
        exact :class:`GaussianOracleEstimator` with ``σ > 0`` and a
        generator no other node holds.  The other honest nodes keep
        ``sample_about``."""
        rngs = [self._node_rng[v] for v in self.honest_ids]
        holders = Counter(id(rng) for rng in rngs + [self.attack_rng])
        blocked = [
            type(self._estimators[v]) is GaussianOracleEstimator
            and self._estimators[v].sigma > 0.0
            and isinstance(rng, np.random.Generator)
            and holders[id(rng)] == 1
            for v, rng in zip(self.honest_ids, rngs)
        ]
        positions = np.flatnonzero(blocked)
        return _NoiseBlocks(
            positions,
            np.flatnonzero(np.logical_not(blocked)).tolist(),
            [self._estimators[self.honest_ids[i]] for i in positions],
            [rngs[i] for i in positions],
            self.dimension,
            rounds,
        )
