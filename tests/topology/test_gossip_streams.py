"""Stream roles of the gossip executor.

``GossipSimulation`` spawns ``spawn_generators(seed, h + 4)``, prefix
-compatible with ``TrainingSimulation``'s layout: stream ``i < h`` for
honest node ``i``, ``h`` for the attack, ``h + 1`` for the edge-delay
bind, ``h + 2`` reserved (the server path's server-attack stream; no
server here, but the slot pins the next one's position) and ``h + 3``
for the topology bind.  This test pins each consumer to its stream; a
topology that took the reserved slot, or any reordering, fails it.
Every registered topology is bound the same way, so each is checked to
answer like a fresh bind from its stream with the other roles in place.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.topology.gossip as gossip_module
from repro.attacks.simple import SignFlipAttack
from repro.core.registry import make_aggregator
from repro.distributed.delays import make_delay_schedule
from repro.distributed.schedules import ConstantSchedule
from repro.exceptions import SimulationError
from repro.gradients.oracle import GaussianOracleEstimator
from repro.topology import GossipSimulation, available_topologies, make_topology
from repro.utils.rng import spawn_generators
from tests.distributed.identity import bitwise_equal, records_equal
from tests.topology.gossip_reference import ReferenceGossipSimulation

NUM_HONEST = 7
NUM_BYZANTINE = 2
SEEDS = [0, 7, 123]


def same_stream(a: np.random.Generator, b: np.random.Generator) -> bool:
    return a.bit_generator.state == b.bit_generator.state


def build(seed: int, topology: str) -> GossipSimulation:
    return GossipSimulation(
        topology=topology,
        aggregator=make_aggregator("average"),
        schedule=ConstantSchedule(0.1),
        honest_estimators=[
            GaussianOracleEstimator(lambda x: x, 4, 0.5)
            for _ in range(NUM_HONEST)
        ],
        initial_params=np.ones(4),
        num_byzantine=NUM_BYZANTINE,
        attack=SignFlipAttack(),
        edge_delay="random",
        seed=seed,
    )


def assert_fixed_roles(sim: GossipSimulation, ref) -> None:
    """The node, attack and edge-delay streams sit at their offsets."""
    h = NUM_HONEST
    for i, node in enumerate(sim.honest_ids):
        assert same_stream(sim._node_rng[node], ref[i]), f"node {node}"
    assert same_stream(sim.attack_rng, ref[h])
    assert (
        sim.edge_delay.entropy
        == make_delay_schedule("random").bind(ref[h + 1]).entropy
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_gossip_simulation_stream_roles(seed):
    sim = build(seed, "erdos-renyi")
    h = NUM_HONEST
    ref = spawn_generators(seed, h + 4)
    assert_fixed_roles(sim, ref)
    # ref[h + 2] is the reserved slot: nothing here may consume it.
    assert (
        sim.topology.entropy
        == make_topology("erdos-renyi").bind(sim.num_nodes, ref[h + 3]).entropy
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", available_topologies())
def test_every_topology_binds_from_its_stream(name, seed):
    sim = build(seed, name)
    h = NUM_HONEST
    ref = spawn_generators(seed, h + 4)
    assert_fixed_roles(sim, ref)
    fresh = make_topology(name).bind(sim.num_nodes, ref[h + 3])
    for node in range(sim.num_nodes):
        for round_index in range(6):
            assert np.array_equal(
                sim.topology.neighbors(node, round_index),
                fresh.neighbors(node, round_index),
            ), (node, round_index)


# ----------------------------------------------------------------------
# Block-drawn noise: node streams end where per-round draws leave them.

DIM = 4
SIGMA = 0.5


def oracle(gradient_fn=lambda x: -x, sigma=SIGMA, cls=GaussianOracleEstimator):
    """A Gaussian oracle that declares row blocks, as the quadratic
    bowl's does, so the executor evaluates every node's gradient at once."""
    estimator = cls(gradient_fn, DIM, sigma)
    estimator.row_blocks = True
    return estimator


def build_blocked(estimators, cls=GossipSimulation):
    return cls(
        topology=make_topology("ring", {"degree": 4}),
        aggregator=make_aggregator("average"),
        schedule=ConstantSchedule(0.1),
        honest_estimators=estimators,
        initial_params=np.zeros(DIM),
        seed=3,
    )


def assert_streams_after(sim: GossipSimulation, rounds: list[int]) -> None:
    """Honest node i's stream equals a fresh one that drew ``rounds[i]``
    per-round noise vectors."""
    fresh = spawn_generators(3, sim.num_honest + 4)
    for i, node in enumerate(sim.honest_ids):
        expected = fresh[i]
        for _ in range(rounds[i]):
            expected.normal(0.0, SIGMA, size=DIM)
        assert same_stream(sim._node_rng[node], expected), f"node {node}"


@pytest.fixture
def three_round_blocks(monkeypatch):
    """Blocks of three rounds for NUM_HONEST nodes at DIM."""
    monkeypatch.setattr(gossip_module, "_NOISE_BYTES", 8 * NUM_HONEST * DIM * 3)


def test_blocks_draw_per_round_streams(three_round_blocks):
    """A run of 7 rounds (blocks of 3, 3 and 1) leaves every stream where
    7 per-round draws do, and proposes what they propose."""
    sim = build_blocked([oracle() for _ in range(NUM_HONEST)])
    history = sim.run(7)
    assert_streams_after(sim, [7] * NUM_HONEST)
    reference = build_blocked(
        [oracle() for _ in range(NUM_HONEST)], ReferenceGossipSimulation
    )
    expected = reference.run(7)
    assert len(history.records) == len(expected.records) == 7
    assert all(map(records_equal, history.records, expected.records))
    for node in range(sim.num_nodes):
        assert bitwise_equal(sim.node_params(node), reference.node_params(node))


def test_consecutive_runs_keep_per_round_streams(three_round_blocks):
    sim = build_blocked([oracle() for _ in range(NUM_HONEST)])
    sim.run(4)
    assert_streams_after(sim, [4] * NUM_HONEST)
    sim.run(5)
    assert_streams_after(sim, [9] * NUM_HONEST)
    assert sim._noise is None  # the block is released when run exits


def test_gradient_raising_mid_block_rewinds_streams(three_round_blocks):
    """After a 2-round run, round 4's gradient raises before any node
    proposes: every stream holds 4 rounds, though the second run's first
    block drew rounds 2 to 4."""
    calls = []

    def gradient(x):
        calls.append(None)
        if len(calls) == 5:
            raise SimulationError("gradient failed")
        return -x

    shared = oracle(gradient)
    sim = build_blocked([shared] * NUM_HONEST)
    sim.run(2)
    with pytest.raises(SimulationError, match="gradient failed"):
        sim.run(7)
    assert sim._round == 4
    assert_streams_after(sim, [4] * NUM_HONEST)


def test_sampled_node_raising_mid_block_rewinds_later_nodes(three_round_blocks):
    """Node-id order: when node 3's own sample_about raises in round 4,
    nodes 0-2 proposed that round and nodes 3-6 did not."""

    class Failing(GaussianOracleEstimator):
        calls = 0

        def sample_about(self, expected, rng):
            Failing.calls += 1
            if Failing.calls == 5:
                raise SimulationError("node 3 failed")
            return super().sample_about(expected, rng)

    estimators = [oracle() for _ in range(NUM_HONEST)]
    estimators[3] = oracle(cls=Failing)
    sim = build_blocked(estimators)
    with pytest.raises(SimulationError, match="node 3 failed"):
        sim.run(7)
    assert_streams_after(sim, [5, 5, 5, 4, 4, 4, 4])


def test_zero_sigma_and_subclass_nodes_keep_sample_about(monkeypatch):
    """A σ = 0 node returns ``expected.copy()`` (−0.0 included) and a
    subclass runs its own ``sample_about``; the other nodes draw blocks."""
    outputs = {}
    real = GaussianOracleEstimator.sample_about

    def recording(self, expected, rng):
        out = real(self, expected, rng)
        outputs.setdefault(id(self), []).append(out)
        return out

    monkeypatch.setattr(GaussianOracleEstimator, "sample_about", recording)

    class Subclass(GaussianOracleEstimator):
        pass

    estimators = [oracle() for _ in range(NUM_HONEST)]
    estimators[1] = oracle(sigma=0.0)
    estimators[4] = oracle(cls=Subclass)
    sim = build_blocked(estimators)
    sim.run(3)
    assert set(outputs) == {id(estimators[1]), id(estimators[4])}
    assert len(outputs[id(estimators[1])]) == len(outputs[id(estimators[4])]) == 3
    # The gradient -x at x = 0 is −0.0; a noise add would read +0.0.
    first = outputs[id(estimators[1])][0]
    assert np.all(first == 0.0) and np.all(np.signbit(first))
    rounds = [3] * NUM_HONEST
    rounds[1] = 0
    assert_streams_after(sim, rounds)
