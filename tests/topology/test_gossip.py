"""Event-driven gossip engine: delays, local f, equivocation, guards."""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.base import Attack, AttackContext
from repro.core.registry import make_aggregator
from repro.distributed.schedules import ConstantSchedule
from repro.exceptions import ConfigurationError, SimulationError
from repro.gradients.oracle import GaussianOracleEstimator
from repro.topology import GossipSimulation, make_topology


def gradient_fn(x: np.ndarray) -> np.ndarray:
    return x  # quadratic bowl centred at the origin


def build(
    *,
    num_honest=8,
    num_byzantine=2,
    dimension=4,
    topology="complete",
    topology_kwargs=None,
    aggregator=None,
    attack=None,
    edge_delay=None,
    seed=3,
    sigma=0.5,
    **kwargs,
):
    if num_byzantine > 0 and attack is None:
        from repro.attacks.simple import SignFlipAttack

        attack = SignFlipAttack()
    return GossipSimulation(
        topology=make_topology(topology, topology_kwargs or {}),
        aggregator=aggregator or make_aggregator("average"),
        schedule=ConstantSchedule(0.1),
        honest_estimators=[
            GaussianOracleEstimator(gradient_fn, dimension, sigma)
            for _ in range(num_honest)
        ],
        initial_params=np.ones(dimension),
        num_byzantine=num_byzantine,
        attack=attack,
        edge_delay=edge_delay,
        true_gradient_fn=gradient_fn,
        seed=seed,
        **kwargs,
    )


class RecordingAttack(Attack):
    """Captures every context it crafts from; sends the honest mean."""

    name = "recording"
    stateful = True

    def __init__(self):
        self.contexts: list[AttackContext] = []

    def reset(self):
        self.contexts = []

    def craft(self, context):
        context.validate()
        self.contexts.append(context)
        return self._output(
            context,
            np.tile(context.honest_mean, (context.num_byzantine, 1)),
        )


class TestConstruction:
    def test_byzantine_without_attack_rejected(self):
        with pytest.raises(ConfigurationError, match="attack"):
            GossipSimulation(
                topology=make_topology("ring"),
                aggregator=make_aggregator("average"),
                schedule=ConstantSchedule(0.1),
                honest_estimators=[
                    GaussianOracleEstimator(gradient_fn, 4, 0.5)
                    for _ in range(6)
                ],
                initial_params=np.ones(4),
                num_byzantine=2,
            )

    def test_attack_without_byzantine_rejected(self):
        from repro.attacks.simple import SignFlipAttack

        with pytest.raises(ConfigurationError, match="num_byzantine"):
            build(num_byzantine=0, attack=SignFlipAttack())

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="dimension"):
            GossipSimulation(
                topology=make_topology("complete"),
                aggregator=make_aggregator("average"),
                schedule=ConstantSchedule(0.1),
                honest_estimators=[
                    GaussianOracleEstimator(gradient_fn, 4, 0.5)
                ],
                initial_params=np.ones(5),
            )

    def test_explicit_slots_resolve(self):
        sim = build(byzantine_slots=[0, 5])
        assert sim.byzantine_ids == [0, 5]
        assert sim.reference_node == 1

    def test_bad_slots_rejected(self):
        with pytest.raises(ConfigurationError):
            build(byzantine_slots=[0, 0])
        with pytest.raises(ConfigurationError):
            build(byzantine_slots=[0, 99])
        with pytest.raises(ConfigurationError):
            build(byzantine_slots="middle")

    def test_bad_topology_type_rejected(self):
        with pytest.raises(ConfigurationError, match="Topology"):
            GossipSimulation(
                topology=42,
                aggregator=make_aggregator("average"),
                schedule=ConstantSchedule(0.1),
                honest_estimators=[
                    GaussianOracleEstimator(gradient_fn, 4, 0.5)
                ],
                initial_params=np.ones(4),
            )

    def test_string_specs_resolve_through_registries(self):
        sim = GossipSimulation(
            topology="ring",
            aggregator=make_aggregator("average"),
            schedule=ConstantSchedule(0.1),
            honest_estimators=[
                GaussianOracleEstimator(gradient_fn, 4, 0.5)
                for _ in range(6)
            ],
            initial_params=np.ones(4),
            edge_delay="constant",
            seed=0,
        )
        sim.run(3)


class TestEventCore:
    def test_zero_delay_messages_arrive_same_round(self):
        """With no edge delay every aggregation sees the full fresh
        neighborhood: on the complete graph all honest nodes make the
        same update, so honest params stay in exact consensus."""
        sim = build(num_byzantine=0)
        sim.run(5)
        metrics = sim.consensus_metrics()
        # Identical trajectories: exact-zero pairwise disagreement.  The
        # barycenter distance is only float-mean close (the mean of n
        # identical doubles need not be bit-identical to them).
        assert metrics["disagreement"] == 0.0
        assert metrics["consensus_error"] < 1e-12
        stack = sim.honest_params
        assert all(np.array_equal(stack[0], row) for row in stack[1:])

    def test_constant_edge_delay_staggers_arrivals(self):
        """With a constant lag of 1, round-t aggregation sees neighbors'
        round t−1 proposals (and round 0 is clamped fresh), so honest
        trajectories diverge — nonzero disagreement — and differ from
        the zero-delay run."""
        fresh = build(num_byzantine=0, topology="ring",
                      topology_kwargs={"degree": 4})
        lagged = build(num_byzantine=0, topology="ring",
                       topology_kwargs={"degree": 4}, edge_delay="constant")
        fresh.run(6)
        lagged.run(6)
        assert not np.array_equal(fresh.params, lagged.params)
        assert lagged.consensus_metrics()["disagreement"] > 0.0

    @pytest.mark.parametrize("edge_delay", ["constant", "random"])
    def test_delayed_messages_filed_under_their_sender(self, edge_delay):
        """A late message is filed under the edge from the node that
        sent it, with the round it was computed in: heard senders are
        current in-neighbors and no entry is from the future."""
        sim = build(num_byzantine=0, topology="ring",
                    topology_kwargs={"degree": 2}, edge_delay=edge_delay)
        n = sim.num_nodes
        for _ in range(6):
            sim.run(1)
            t = sim._round - 1
            heard = sim._heard >= 0
            receivers = sim._edge_keys[heard] // n
            senders = sim._edge_keys[heard] % n
            assert heard.any()
            for v in range(n):
                inbox = set(senders[receivers == v].tolist())
                assert inbox <= set(sim.topology.neighbors(v, t).tolist())
            assert np.all(sim._heard[heard] <= t)

    def test_past_rounds_are_released(self):
        """A past round keeps only rows an edge or an in-flight message
        points at (up to twice as many, so rows are copied about once),
        and a round nothing points at is dropped."""
        sim = build(num_byzantine=2, topology="time-varying",
                    topology_kwargs={"edge_prob": 0.4}, edge_delay="random",
                    equivocate=True)
        n, cut = sim.num_nodes, 0
        for _ in range(12):
            sim.run(1)
            t = sim._round - 1
            computed = np.concatenate((sim._heard, sim._in_flight[1]))
            keys = np.concatenate(
                (sim._edge_keys, sim._edge_keys[sim._in_flight[2]])
            )
            for c, (messages, lookup, params, _) in sim._banks.items():
                if c == t:
                    continue
                pointing = keys[computed == c]
                rows = np.unique(sim._message_rows(pointing // n, pointing % n))
                assert 0 < rows.size <= len(messages) < 2 * rows.size
                if lookup is not sim._rows:
                    assert len(messages) == len(params)
                    cut += 1
        assert cut > 0

    @pytest.mark.parametrize("edge_delay", ["constant", "random"])
    def test_kardam_runs_under_edge_delay(self, edge_delay):
        sim = build(num_byzantine=0, topology="ring",
                    topology_kwargs={"degree": 4}, edge_delay=edge_delay,
                    aggregator=make_aggregator("kardam", f=0))
        history = sim.run(6)
        assert np.all(np.isfinite(sim.honest_params))
        assert len(history.records) == 6

    def test_history_metrics_and_extras(self):
        sim = build()
        history = sim.run(10, eval_every=4)
        assert [r.round_index for r in history.records] == list(range(10))
        evaluated = [r for r in history.records if r.extras]
        assert [r.round_index for r in evaluated] == [0, 4, 8, 9]
        for record in evaluated:
            assert "consensus_error" in record.extras
            assert "disagreement" in record.extras
            assert record.grad_norm is not None

    def test_runs_continue_across_calls(self):
        sim = build()
        first = sim.run(6)
        second = sim.run(6)
        assert first.records[-1].round_index == 5
        assert second.records[0].round_index == 6
        combined = build().run(12)
        assert (
            combined.records[-1].params_norm
            == second.records[-1].params_norm
        )

    def test_determinism_round_trip(self):
        a = build(topology="erdos-renyi", topology_kwargs={"edge_prob": 0.6},
                  edge_delay="random").run(8)
        b = build(topology="erdos-renyi", topology_kwargs={"edge_prob": 0.6},
                  edge_delay="random").run(8)
        for ra, rb in zip(a.records, b.records):
            assert ra.params_norm == rb.params_norm
            assert ra.selected == rb.selected

    def test_bad_round_arguments(self):
        sim = build()
        with pytest.raises(ConfigurationError):
            sim.run(0)
        with pytest.raises(ConfigurationError):
            sim.run(5, eval_every=0)

    @pytest.mark.parametrize("bad", [2.5, True])
    def test_round_arguments_must_be_integers(self, bad):
        # eval_every=2.5 would evaluate on float-modulo rounds, and
        # num_rounds=True would run one round.
        sim = build()
        with pytest.raises(ConfigurationError, match="num_rounds must be an integer"):
            sim.run(bad)
        with pytest.raises(ConfigurationError, match="eval_every must be an integer"):
            sim.run(6, eval_every=bad)
        assert sim.run(1).records[0].round_index == 0


class TestLocalF:
    def test_local_f_counts_byzantine_neighbors(self):
        """A rule builder sees the *local* bound: the count of Byzantine
        ids inside each aggregating node's member set, not the global f."""
        seen: set[int] = set()

        def builder(f_local: int):
            seen.add(f_local)
            return make_aggregator("average")

        sim = build(
            num_honest=10,
            num_byzantine=2,
            topology="ring",
            topology_kwargs={"degree": 4},
            aggregator_builder=builder,
        )
        sim.run(3)
        # Ring of 12 nodes, byz at 10 and 11: some honest neighborhoods
        # contain 0, some 1, some 2 of them.
        assert seen == {0, 1, 2}

    def test_stateful_rules_not_shared_across_nodes(self):
        """Without a builder, each node must get its own copy of the
        aggregator — a stateful rule (kardam) would otherwise mix the
        per-node histories."""
        rule = make_aggregator("kardam", f=1)
        sim = build(
            num_honest=8,
            num_byzantine=0,
            topology="ring",
            topology_kwargs={"degree": 4},
            aggregator=rule,
        )
        sim.run(4)
        rules = set(id(r) for r in sim._rules.values())
        assert len(rules) == len(sim._rules)
        assert id(rule) not in rules


class TestAttackIntegration:
    def test_context_carries_neighbor_views(self):
        attack = RecordingAttack()
        sim = build(
            num_honest=6,
            num_byzantine=2,
            topology="ring",
            topology_kwargs={"degree": 4},
            attack=attack,
        )
        sim.run(3)
        assert len(attack.contexts) == 3
        for context in attack.contexts:
            assert context.receiver is None
            assert len(context.byzantine_neighbors) == 2
            for b, neighbors in zip(
                context.byzantine_indices, context.byzantine_neighbors
            ):
                expected = sim.topology.neighbors(
                    int(b), context.round_index
                )
                assert np.array_equal(neighbors, expected)
            assert context.honest_params.shape == (6, 4)

    def test_selection_feedback_reaches_attack(self):
        attack = RecordingAttack()
        sim = build(num_honest=6, num_byzantine=2, attack=attack)
        sim.run(3)
        assert attack.contexts[0].selected_last_round is None
        for context in attack.contexts[1:]:
            feedback = context.selected_last_round
            assert feedback is not None
            assert feedback.shape == (2,)
            # Averaging reports an empty selected set (no selection
            # signal to probe), so the Byzantine flags read False — the
            # same verdict the server path gives probing attacks.
            assert not np.any(feedback)

    def test_selecting_rule_marks_accepted_byzantine_slots(self):
        attack = RecordingAttack()
        sim = build(
            num_honest=8,
            num_byzantine=2,
            attack=attack,
            aggregator=make_aggregator("multi-krum", f=2, m=6),
        )
        sim.run(4)
        flagged = [
            bool(np.any(c.selected_last_round))
            for c in attack.contexts
            if c.selected_last_round is not None
        ]
        # Mean-mimicking proposals sit at the centre of the cloud;
        # multi-krum's committee accepts them in (at least) some rounds.
        assert any(flagged)

    def test_equivocation_crafts_per_receiver(self):
        attack = RecordingAttack()
        sim = build(
            num_honest=6,
            num_byzantine=2,
            topology="ring",
            topology_kwargs={"degree": 4},
            attack=attack,
            equivocate=True,
        )
        sim.run(2)
        receivers = [c.receiver for c in attack.contexts]
        # Every craft targets a specific honest out-neighbor of the
        # Byzantine pair (no shared-proposal craft), in sorted id order,
        # with the same receiver set each round on the static ring.
        assert None not in receivers
        per_round = receivers[: len(receivers) // 2]
        assert receivers == sorted(per_round) * 2
        assert all(r in sim.honest_ids for r in receivers)
        expected = sorted(
            {
                int(u)
                for b in sim.byzantine_ids
                for u in sim.topology.neighbors(b, 0)
                if int(u) in sim.honest_ids
            }
        )
        assert per_round == expected

    def test_equivocating_gaussian_differs_per_edge(self):
        """A randomized attack crafts genuinely different messages per
        receiving edge under equivocation."""
        from repro.attacks.random_noise import GaussianAttack

        sim = build(
            num_honest=6,
            num_byzantine=1,
            topology="ring",
            topology_kwargs={"degree": 4},
            attack=GaussianAttack(sigma=5.0),
            equivocate=True,
        )
        sim.run(1)
        # The round's per-receiver crafts are the rows after the n
        # proposals in its message matrix (one row per receiver here),
        # kept while an edge still points at them.
        messages = sim._banks[0][0]
        crafted = messages[sim.num_nodes :]
        assert len(crafted) >= 2
        assert not np.array_equal(crafted[0], crafted[1])

    def test_halt_on_nonfinite_names_the_node(self):
        from repro.attacks.simple import NonFiniteAttack

        sim = build(
            num_honest=6,
            num_byzantine=1,
            attack=NonFiniteAttack(),
            halt_on_nonfinite=True,
        )
        with pytest.raises(SimulationError, match="node"):
            sim.run(3)


class TestAccessors:
    def test_diverged_node_is_not_consensus(self):
        """A NaN honest row makes both consensus metrics NaN."""
        sim = build(num_byzantine=0)
        sim._node_params[sim.honest_ids[1]] = np.full(sim.dimension, np.nan)
        metrics = sim.consensus_metrics()
        assert np.isnan(metrics["consensus_error"])
        assert np.isnan(metrics["disagreement"])


    def test_params_is_reference_node_copy(self):
        sim = build()
        params = sim.params
        params[:] = 99.0
        assert not np.array_equal(sim.params, params)

    def test_node_params_bounds_checked(self):
        sim = build()
        with pytest.raises(ConfigurationError):
            sim.node_params(-1)
        with pytest.raises(ConfigurationError):
            sim.node_params(sim.num_nodes)

    def test_honest_params_stack_shape(self):
        sim = build(num_honest=7, num_byzantine=2, dimension=3)
        assert sim.honest_params.shape == (7, 3)
