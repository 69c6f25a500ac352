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

from repro.attacks.simple import SignFlipAttack
from repro.core.registry import make_aggregator
from repro.distributed.delays import make_delay_schedule
from repro.distributed.schedules import ConstantSchedule
from repro.gradients.oracle import GaussianOracleEstimator
from repro.topology import GossipSimulation, available_topologies, make_topology
from repro.utils.rng import spawn_generators

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
