"""Frozen node-by-node gossip executor: the oracle for the batched stage.

:class:`ReferenceGossipSimulation` keeps the original event-queue
design of :class:`~repro.topology.GossipSimulation`: a heap of
``(round, phase, node)`` events, a topology query per node in both the
gossip and the aggregate phase, one ``rule.aggregate_detailed`` call
per honest node per round, a per-node parameter list, and a dict inbox
plus a pending list per node.  It reuses only the engine's constructor
validation and rule cache; its message state, delivery, edge lags,
record and consensus metrics are its own copies (the disagreement is
the original all-pairs brute force, :func:`max_pairwise_distance_brute`),
so the executor's array stages are all compared against independent
code.

Do not optimize this module: it is the reference the executor is pinned
to, bit for bit.
"""

from __future__ import annotations

import heapq
from dataclasses import replace

import numpy as np

from repro.attacks.base import AttackContext
from repro.core.staleness import StalenessAwareAggregator
from repro.distributed.metrics import RoundRecord, TrainingHistory
from repro.distributed.simulator import evaluated_record, round_record
from repro.exceptions import SimulationError
from repro.topology import GossipSimulation
from repro.utils.linalg import stack_vectors

__all__ = ["ReferenceGossipSimulation", "max_pairwise_distance_brute"]

_TRAIN, _CRAFT, _GOSSIP, _AGGREGATE, _RECORD = range(5)


def max_pairwise_distance_brute(stack: np.ndarray) -> float:
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


class ReferenceGossipSimulation(GossipSimulation):
    """Heap-ordered, per-node twin of :class:`GossipSimulation`."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        params = self._node_params[0].copy()
        self._node_params = [params.copy() for _ in range(self.num_nodes)]
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

    @property
    def params(self) -> np.ndarray:
        return self._node_params[self.reference_node].copy()

    @property
    def honest_params(self) -> np.ndarray:
        return np.stack([self._node_params[i] for i in self.honest_ids])

    def node_params(self, node: int) -> np.ndarray:
        return self._node_params[int(node)].copy()

    def consensus_metrics(self) -> dict[str, float]:
        stack = self.honest_params
        center = stack.mean(axis=0)
        return {
            "consensus_error": float(
                np.mean(np.linalg.norm(stack - center, axis=1))
            ),
            "disagreement": max_pairwise_distance_brute(stack),
        }

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
        return min(tau, t)

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

    def _record(self, t: int) -> RoundRecord:
        vector, selected_ids, rate = self._round_results[self.reference_node]
        record = round_record(
            t,
            rate,
            float(np.linalg.norm(vector)),
            float(np.linalg.norm(self._node_params[self.reference_node])),
            selected_ids,
            set(self.byzantine_ids),
        )
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

    def _push_round(self, t: int) -> None:
        push = heapq.heappush
        for v in self.honest_ids:
            push(self._events, (t, _TRAIN, v))
        if self.num_byzantine > 0:
            push(self._events, (t, _CRAFT, 0))
        for v in range(self.num_nodes):
            push(self._events, (t, _GOSSIP, v))
        for v in self.honest_ids:
            push(self._events, (t, _AGGREGATE, v))
        push(self._events, (t, _RECORD, 0))

    def _handle_train(self, t: int, v: int) -> None:
        self._gradients[v] = self._estimators[v].estimate(
            self._node_params[v], self._node_rng[v]
        )

    def _context(self, t: int) -> AttackContext:
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
            honest_params=self.honest_params,
            selected_last_round=(
                np.isin(
                    np.asarray(self.byzantine_ids, dtype=np.int64),
                    self._selected_union,
                )
                if self._selected_union is not None
                else None
            ),
            byzantine_neighbors=tuple(
                self.topology.neighbors(b, t) for b in self.byzantine_ids
            ),
            receiver=None,
        )

    def _handle_craft(self, t: int) -> None:
        self._crafted_by_receiver = {}
        self._crafted = None
        shared = self._context(t)
        self._craft_params = shared.params
        if not self.equivocate:
            self._crafted = self.attack.craft(shared)
            return
        receivers = sorted(
            {
                int(u)
                for neighbors in shared.byzantine_neighbors or ()
                for u in neighbors
                if int(u) in self._node_rng
            }
        )
        for u in receivers:
            self._crafted_by_receiver[u] = self.attack.craft(
                replace(shared, receiver=u)
            )

    def _handle_gossip(self, t: int, v: int) -> None:
        is_byzantine = v not in self._node_rng
        if is_byzantine:
            row = self.byzantine_ids.index(v)
            used_params = self._craft_params
        else:
            vector = self._gradients[v]
            used_params = self._node_params[v]
        for u in self.topology.neighbors(v, t):
            u = int(u)
            if u not in self._node_rng:
                continue
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

    def _handle_aggregate(self, t: int, v: int) -> None:
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
        members = [v]
        entries = [(t, self._gradients[v], self._node_params[v])]
        for u in self.topology.neighbors(v, t):
            entry = inbox.get(int(u))
            if entry is not None:
                members.append(int(u))
                entries.append(entry)
        order = np.argsort(members, kind="stable")
        member_ids = [members[i] for i in order]
        stack = stack_vectors([entries[i][1] for i in order])
        f_local = sum(1 for m in member_ids if m not in self._node_rng)

        rule = self._rule_for(v, f_local)
        rule.check_tolerance(len(member_ids))
        if isinstance(rule, StalenessAwareAggregator):
            staleness = np.asarray(
                [t - entries[i][0] for i in order], dtype=np.int64
            )
            used_params = np.stack([entries[i][2] for i in order])
            result = rule.aggregate_detailed_stale(
                stack, staleness, used_params=used_params
            )
        else:
            result = rule.aggregate_detailed(stack)

        rate = self.schedule(t)
        self._node_params[v] = self._node_params[v] - rate * result.vector
        if self.halt_on_nonfinite and not np.all(
            np.isfinite(self._node_params[v])
        ):
            raise SimulationError(
                f"parameters of node {v} became non-finite at round {t} "
                f"(aggregator {rule.name}); a Byzantine proposal reached "
                f"the update"
            )
        selected_ids = tuple(
            int(member_ids[i])
            for i in np.asarray(result.selected, dtype=np.int64)
        )
        self._round_results[v] = (result.vector, selected_ids, rate)

    def run(self, num_rounds: int, *, eval_every: int = 10) -> TrainingHistory:
        history = TrainingHistory()
        self._events: list[tuple[int, int, int]] = []
        start = self._round
        stop = start + num_rounds
        self._push_round(start)
        while self._events:
            t, phase, node = heapq.heappop(self._events)
            if phase == _TRAIN:
                self._handle_train(t, node)
            elif phase == _CRAFT:
                self._handle_craft(t)
            elif phase == _GOSSIP:
                self._handle_gossip(t, node)
            elif phase == _AGGREGATE:
                self._handle_aggregate(t, node)
            else:
                record = self._record(t)
                if (t - start) % eval_every == 0 or t == stop - 1:
                    record = evaluated_record(
                        record,
                        self.params,
                        self.evaluate,
                        self.true_gradient_fn,
                        extras=self.consensus_metrics(),
                    )
                history.append(record)
                self._round = t + 1
                if t + 1 < stop:
                    self._push_round(t + 1)
        return history
