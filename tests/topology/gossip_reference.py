"""Frozen node-by-node gossip executor: the oracle for the batched stage.

:class:`ReferenceGossipSimulation` keeps the original event-queue
design of :class:`~repro.topology.GossipSimulation`: a heap of
``(round, phase, node)`` events, a topology query per node in both the
gossip and the aggregate phase, and one ``rule.aggregate_detailed`` call
per honest node per round.  It reuses only the engine's constructor,
``_deliver``, ``_edge_staleness``, rule cache and record/evaluation
helpers, so the batched aggregate phase, the per-round neighbor memo and
the fixed phase loop are all compared against independent code.

Do not optimize this module: it is the reference the executor is pinned
to, bit for bit.
"""

from __future__ import annotations

import heapq
from dataclasses import replace

import numpy as np

from repro.attacks.base import AttackContext
from repro.core.staleness import StalenessAwareAggregator
from repro.distributed.metrics import TrainingHistory
from repro.exceptions import SimulationError
from repro.topology import GossipSimulation
from repro.utils.linalg import stack_vectors

__all__ = ["ReferenceGossipSimulation"]

_TRAIN, _CRAFT, _GOSSIP, _AGGREGATE, _RECORD = range(5)


class ReferenceGossipSimulation(GossipSimulation):
    """Heap-ordered, per-node twin of :class:`GossipSimulation`."""

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
                    record = self._evaluate_record(record)
                history.append(record)
                self._round = t + 1
                if t + 1 < stop:
                    self._push_round(t + 1)
        return history
