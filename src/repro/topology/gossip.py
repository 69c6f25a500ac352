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

A round is a fixed sequence of phases, each over the nodes in id order:
every node's neighborhood is queried once and shared by the phases;
honest nodes train; the adversary crafts; every node gossips; honest
nodes aggregate; the reference node's record is taken.  A zero-delay
edge therefore delivers inside its own round, while ``τ ≥ 1`` messages
park in a pending queue until their arrival round.

The aggregate phase is one batched stage.  Each honest node's member
stack goes into a bucket keyed by its rule's
:func:`~repro.core.batched.batch_group_key` and its member count, and
each bucket runs through one :mod:`repro.core.batched` kernel call
(split so that a call never stages more than ``_STAGING_BYTES`` of
proposals).  Staleness-aware rules (kardam, through its native kernel
or the loop fallback) and rules without a native kernel run one node
per call, so their per-node state advances exactly as before.
Messages rebind parameter arrays and never mutate them, so a node's
aggregate does not depend on other nodes' updates in the same round:
the updates and the non-finite halt are then applied in node-id order,
and every trajectory, record and error is the node-by-node one
(``tests/topology/test_gossip_oracle.py`` pins this against a frozen
per-node reference).

Degenerate identity: on the ``complete`` graph with no edge delays,
every node hears every proposal fresh, the local ``f`` equals the
global ``f``, and each node's trajectory is bit for bit the server
path's — ``tests/topology/test_gossip_differential.py`` pins this against
:class:`~repro.distributed.TrainingSimulation` and both grid executors.
"""

from __future__ import annotations

import copy
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
from repro.topology.base import Topology
from repro.topology.registry import make_topology
from repro.utils.linalg import stack_vectors
from repro.utils.rng import SeedLike, spawn_generators
from repro.utils.validation import check_positive_int

__all__ = ["GossipSimulation"]

Evaluator = Callable[[np.ndarray], dict[str, float]]
#: One honest node's aggregation for a round: ``(node, rule, member ids
#: in id order, one (computed_round, vector, used_params) per member)``.
_Plan = tuple[int, Aggregator, list[int], list[tuple]]
#: A node's aggregate ``(vector, selected)``, or the error its rule raised.
_Outcome = tuple[np.ndarray, np.ndarray] | ReproError

# Most proposal bytes one aggregate kernel call stages.  Bounds the
# (G, m, d) stack and the kernel's per-call intermediates: staging a
# whole 200-node ring at d = 100 in one call measurably raised peak RSS,
# and at MLP scale (d ≈ 25k) the cap degrades to one node per call.
_STAGING_BYTES = 1 << 18


def _max_pairwise_distance(stack: np.ndarray) -> float:
    """Largest pairwise euclidean distance between rows (chunked, so a
    thousand-node stack never materializes an (n, n, d) tensor).  A NaN
    distance propagates, so diverged nodes never read as consensus."""
    worst = 0.0
    for i in range(stack.shape[0] - 1):
        d = float(np.linalg.norm(stack[i + 1 :] - stack[i], axis=1).max())
        if np.isnan(d):
            return d
        if d > worst:
            worst = d
    return worst


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

        # Stream layout is prefix-stable with TrainingSimulation's:
        # honest nodes, the attack stream, the edge-delay bind stream,
        # one reserved slot (the server path's server-attack stream —
        # serverless here, but keeping it pins the later streams' spawn
        # positions), and the topology bind stream.
        streams = spawn_generators(seed, self.num_honest + 4)
        self.attack_rng = streams[self.num_honest]
        self._node_rng = dict(zip(self.honest_ids, streams[: self.num_honest]))
        self._estimators = dict(zip(self.honest_ids, honest_estimators))

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
        # One local vector per node; Byzantine entries stay at x_0 (the
        # adversary needs no local state — it crafts from the context).
        self._node_params = [params.copy() for _ in range(self.num_nodes)]

        self._aggregator = aggregator
        self._aggregator_builder = aggregator_builder
        aggregator.check_tolerance(self.num_nodes)
        self._rules: dict[tuple[int, int], Aggregator] = {}
        # Per rule instance (by id; the instances live in self._rules):
        # its batch_group_key when several nodes may share one kernel
        # call, None when it runs one node per call.
        self._batch_keys: dict[int, tuple[str, str] | None] = {}

        self.schedule = schedule
        self.attack = attack
        if self.attack is not None:
            self.attack.reset()
        self.equivocate = bool(equivocate)
        self.true_gradient_fn = true_gradient_fn
        self.evaluate = evaluate
        self.halt_on_nonfinite = bool(halt_on_nonfinite)

        # Message state.  _inbox[v]: sender -> (computed_round, vector,
        # params-at-computation); _pending[v]: not-yet-arrived
        # (arrival, computed_round, sender, vector, params) messages.
        self._inbox: list[dict[int, tuple[int, np.ndarray, np.ndarray]]] = [
            {} for _ in range(self.num_nodes)
        ]
        self._pending: list[list[tuple]] = [[] for _ in range(self.num_nodes)]
        self._gradients: dict[int, np.ndarray] = {}
        self._crafted: np.ndarray | None = None
        self._crafted_by_receiver: dict[int, np.ndarray] = {}
        self._craft_params: np.ndarray | None = None
        self._round_results: dict[int, tuple] = {}
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
        return np.stack([self._node_params[i] for i in self.honest_ids])

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
        distance (both 0 exactly on the complete zero-delay graph, where
        all honest trajectories coincide).
        """
        stack = self.honest_params
        center = stack.mean(axis=0)
        return {
            "consensus_error": float(
                np.mean(np.linalg.norm(stack - center, axis=1))
            ),
            "disagreement": _max_pairwise_distance(stack),
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

    def _edge_staleness(self, sender: int, receiver: int, t: int) -> int:
        if self.edge_delay is None:
            return 0
        edge_id = sender * self.num_nodes + receiver
        tau = int(self.edge_delay.staleness(edge_id, t))
        if tau < 0:
            raise SimulationError(
                f"edge delay produced negative staleness {tau} for edge "
                f"{sender}->{receiver} at round {t}"
            )
        # Nothing can arrive staler than the start of training — the
        # same min(τ, t) clamp TrainingSimulation applies, so round 0
        # always delivers fresh and krum-style local tolerance holds.
        return min(tau, t)

    # ------------------------------------------------------------------
    # Round phases

    def _train(self) -> None:
        for v in self.honest_ids:
            self._gradients[v] = self._estimators[v].estimate(
                self._node_params[v], self._node_rng[v]
            )

    def _attack_context(
        self,
        t: int,
        receiver: int | None,
        neighbors: Sequence[np.ndarray],
    ) -> AttackContext:
        ref_params = self._node_params[self.reference_node].copy()
        return AttackContext(
            round_index=t,
            params=ref_params,
            honest_gradients=stack_vectors(
                [self._gradients[i] for i in self.honest_ids]
            ),
            byzantine_indices=np.asarray(self.byzantine_ids, dtype=np.int64),
            honest_indices=np.asarray(self.honest_ids, dtype=np.int64),
            num_workers=self.num_nodes,
            rng=self.attack_rng,
            aggregator=self._aggregator,
            true_gradient=(
                self.true_gradient_fn(ref_params)
                if self.true_gradient_fn is not None
                else None
            ),
            # The neighbor view: each honest node's *local* parameters
            # (on the complete zero-delay graph these coincide with
            # ``params``, so server-path attacks behave identically).
            honest_params=self.honest_params,
            selected_last_round=selected_last_round(
                np.asarray(self.byzantine_ids, dtype=np.int64),
                self._selected_union,
            ),
            byzantine_neighbors=tuple(neighbors[b] for b in self.byzantine_ids),
            receiver=receiver,
        )

    def _craft(self, t: int, neighbors: Sequence[np.ndarray]) -> None:
        assert self.attack is not None
        self._crafted_by_receiver = {}
        self._crafted = None
        shared = self._attack_context(t, None, neighbors)
        self._craft_params = shared.params
        if not self.equivocate:
            self._crafted = self.attack.craft(shared)
            return
        # Per-edge equivocation: one craft per honest receiver adjacent
        # to at least one Byzantine node this round, in id order (the
        # attack stream advances deterministically).
        receivers = sorted(
            {
                int(u)
                for adjacent in shared.byzantine_neighbors or ()
                for u in adjacent
                if int(u) in self._node_rng
            }
        )
        for u in receivers:
            self._crafted_by_receiver[u] = self.attack.craft(
                replace(shared, receiver=u)
            )

    def _deliver(
        self,
        receiver: int,
        sender: int,
        computed: int,
        vector: np.ndarray,
        used_params: np.ndarray,
    ) -> None:
        current = self._inbox[receiver].get(sender)
        if current is None or computed > current[0]:
            self._inbox[receiver][sender] = (computed, vector, used_params)

    def _gossip(self, t: int, v: int, neighbors: np.ndarray) -> None:
        is_byzantine = v not in self._node_rng
        if is_byzantine:
            row = self.byzantine_ids.index(v)
            used_params = self._craft_params
        else:
            vector = self._gradients[v]
            used_params = self._node_params[v]
        for u in neighbors.tolist():
            if u not in self._node_rng:
                continue  # Byzantine nodes do not aggregate
            if is_byzantine:
                crafted = (
                    self._crafted_by_receiver.get(u)
                    if self.equivocate
                    else self._crafted
                )
                if crafted is None:
                    continue
                vector = crafted[row]
            tau = self._edge_staleness(v, u, t)
            if tau == 0:
                self._deliver(u, v, t, vector, used_params)
            else:
                self._pending[u].append((t + tau, t, v, vector, used_params))

    def _plan(self, t: int, v: int, neighbors: np.ndarray) -> _Plan:
        """Deliver node ``v``'s due messages and fix its aggregation."""
        if self._pending[v]:
            still_pending = []
            for entry in self._pending[v]:
                arrival, computed, sender, vector, used_params = entry
                if arrival <= t:
                    self._deliver(v, sender, computed, vector, used_params)
                else:
                    still_pending.append(entry)
            self._pending[v] = still_pending

        inbox = self._inbox[v]
        members = {v: (t, self._gradients[v], self._node_params[v])}
        for u in neighbors.tolist():
            entry = inbox.get(u)
            if entry is not None:
                members[u] = entry
        member_ids = sorted(members)
        f_local = sum(1 for m in member_ids if m not in self._node_rng)
        rule = self._rule_for(v, f_local)
        rule.check_tolerance(len(member_ids))
        return v, rule, member_ids, [members[m] for m in member_ids]

    def _aggregate_chunk(
        self, t: int, chunk: list[_Plan], outcomes: dict[int, _Outcome]
    ) -> None:
        """Aggregate same-rule, same-size plans in one kernel call."""
        rules = [rule for _, rule, _, _ in chunk]
        stacks = np.asarray(
            [[e[1] for e in entries] for *_, entries in chunk],
            dtype=np.float64,
        )
        adapter = make_batched_aggregator(rules)
        kwargs: dict[str, np.ndarray] = {}
        if adapter.supports_staleness:
            kwargs["staleness"] = np.asarray(
                [[t - e[0] for e in entries] for *_, entries in chunk],
                dtype=np.int64,
            )
            if not adapter.is_native:
                kwargs["used_params"] = np.asarray(
                    [[e[2] for e in entries] for *_, entries in chunk]
                )
        try:
            result = adapter.aggregate_batch(stacks, **kwargs)
        except ReproError as exc:
            if len(chunk) == 1:
                outcomes[chunk[0][0]] = exc
                return
            # Only native (stateless) kernels batch several nodes.  Their
            # errors describe the whole batch, so rerun node by node and
            # keep each failure as the node's own rule reports it.
            for g, (v, rule, _, _) in enumerate(chunk):
                try:
                    single = rule.aggregate_detailed(stacks[g])
                except ReproError as node_exc:
                    outcomes[v] = node_exc
                    return
                outcomes[v] = (single.vector, single.selected)
            return
        vectors = np.asarray(result.vectors)
        for g, (v, _, _, _) in enumerate(chunk):
            outcomes[v] = (vectors[g], result.selected[g])

    def _aggregate(self, t: int, neighbors: Sequence[np.ndarray]) -> None:
        plans: list[_Plan] = []
        failure: ReproError | None = None
        for v in self.honest_ids:
            try:
                plans.append(self._plan(t, v, neighbors[v]))
            except ReproError as exc:
                # Raised once the nodes before v are updated, as a
                # node-by-node pass would.
                failure = exc
                break

        # Plans share a kernel call when their rules share a batch key
        # (see _rule_for) and their member count.
        groups: dict[object, list[_Plan]] = {}
        for plan in plans:
            v, rule, member_ids, _ = plan
            batch_key = self._batch_keys[id(rule)]
            key = v if batch_key is None else (batch_key, len(member_ids))
            groups.setdefault(key, []).append(plan)
        outcomes: dict[int, _Outcome] = {}
        row_bytes = 8 * self.dimension  # one float64 proposal
        for group in groups.values():
            per_call = max(1, _STAGING_BYTES // (row_bytes * len(group[0][2])))
            for start in range(0, len(group), per_call):
                self._aggregate_chunk(
                    t, group[start : start + per_call], outcomes
                )

        for v, rule, member_ids, _ in plans:
            outcome = outcomes[v]
            if isinstance(outcome, ReproError):
                raise outcome
            vector, selected = outcome
            rate = self.schedule(t)
            self._node_params[v] = self._node_params[v] - rate * vector
            if self.halt_on_nonfinite:
                halt_if_nonfinite(self._node_params[v], t, rule, node=v)
            selected_ids = tuple(
                member_ids[i]
                for i in np.asarray(selected, dtype=np.int64).tolist()
            )
            self._round_results[v] = (vector, selected_ids, rate)
        if failure is not None:
            raise failure

    def _record(self, t: int) -> RoundRecord:
        vector, selected_ids, rate = self._round_results[self.reference_node]
        record = round_record(
            t,
            rate,
            vector,
            self._node_params[self.reference_node],
            selected_ids,
            set(self.byzantine_ids),
        )
        # Feed next round's selection feedback: a Byzantine id counts as
        # selected if *any* honest node selected it (on the complete
        # graph every node selects identically, recovering the server's
        # last_selected verdict).
        all_selected = [
            ids
            for _, ids, _ in (
                self._round_results[v] for v in self.honest_ids
            )
        ]
        flat = sorted({i for ids in all_selected for i in ids})
        self._selected_union = np.asarray(flat, dtype=np.int64)
        self._round_results = {}
        self._gradients = {}
        return record

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
        for t in range(start, stop):
            # One topology query per node per round, shared by the craft,
            # gossip and aggregate phases.  Craft follows train so the
            # omniscient adversary sees this round's honest proposals,
            # and gossip precedes aggregate so zero-delay edges deliver
            # within their own round.
            neighbors = [
                self.topology.neighbors(v, t) for v in range(self.num_nodes)
            ]
            self._train()
            if self.num_byzantine > 0:
                self._craft(t, neighbors)
            for v in range(self.num_nodes):
                self._gossip(t, v, neighbors[v])
            self._aggregate(t, neighbors)
            record = self._record(t)
            if (t - start) % eval_every == 0 or t == stop - 1:
                record = self._evaluate_record(record)
            history.append(record)
            self._round = t + 1
        return history

    def _evaluate_record(self, record: RoundRecord) -> RoundRecord:
        return evaluated_record(
            record,
            self.params,
            self.evaluate,
            self.true_gradient_fn,
            extras=self.consensus_metrics(),
        )
