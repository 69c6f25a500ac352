"""Stream roles: each consumer of a simulation's seed owns a fixed stream.

``TrainingSimulation`` spawns ``spawn_generators(seed, h + 3)`` and hands
stream ``i < h`` to honest worker ``i``, ``h`` to the attack, ``h + 1``
to the delay-schedule bind and ``h + 2`` to the server-attack tier
(``h`` is the honest worker count).  Every published trajectory is a
function of that layout.  Swapping two tail streams, or consuming a new
one at an existing offset, re-seeds everything after it while each
trajectory stays individually plausible — so this test pins every
consumer to the stream it must hold, straight after construction.

numpy keeps bit-generator streams stable across versions (NEP 19), so
the pinned states hold on the oldest supported numpy too.  The layout
is the same whichever delay schedule is registered, so every schedule is
checked to bind from its own stream without shifting the others.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.random_noise import GaussianAttack
from repro.core.krum import Krum
from repro.distributed.delays import (
    available_delay_schedules,
    make_delay_schedule,
)
from repro.distributed.schedules import ConstantSchedule
from repro.distributed.simulator import TrainingSimulation
from repro.models.quadratic import QuadraticBowl
from repro.utils.rng import spawn_generators

NUM_HONEST = 7
NUM_BYZANTINE = 2
SEEDS = [0, 7, 123]


def same_stream(a: np.random.Generator, b: np.random.Generator) -> bool:
    return a.bit_generator.state == b.bit_generator.state


def build(seed: int, delay_schedule: str) -> TrainingSimulation:
    bowl = QuadraticBowl(4)
    return TrainingSimulation(
        aggregator=Krum(f=NUM_BYZANTINE, strict=False),
        schedule=ConstantSchedule(0.1),
        honest_estimators=[bowl.as_estimator(0.2) for _ in range(NUM_HONEST)],
        initial_params=np.ones(4),
        num_byzantine=NUM_BYZANTINE,
        attack=GaussianAttack(),
        max_staleness=2,
        delay_schedule=delay_schedule,
        num_servers=3,
        byzantine_servers=1,
        server_attack="random-noise-broadcast",
        seed=seed,
    )


def assert_fixed_roles(sim: TrainingSimulation, ref) -> None:
    """The worker, attack and server-tier streams sit at their offsets."""
    h = NUM_HONEST
    for i, worker in enumerate(sim.honest_workers):
        assert same_stream(worker.rng, ref[i]), f"worker {i}"
    assert same_stream(sim.attack_rng, ref[h])
    assert same_stream(sim.server._server_rng, ref[h + 2])


@pytest.mark.parametrize("seed", SEEDS)
def test_training_simulation_stream_roles(seed):
    sim = build(seed, "random")
    h = NUM_HONEST
    ref = spawn_generators(seed, h + 3)
    assert_fixed_roles(sim, ref)
    assert (
        sim.delay_schedule.entropy
        == make_delay_schedule("random").bind(ref[h + 1]).entropy
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", available_delay_schedules())
def test_every_delay_schedule_binds_from_its_stream(name, seed):
    sim = build(seed, name)
    h = NUM_HONEST
    ref = spawn_generators(seed, h + 3)
    assert_fixed_roles(sim, ref)
    fresh = make_delay_schedule(name).bind(ref[h + 1])
    workers = list(range(NUM_HONEST + NUM_BYZANTINE))
    rounds = list(range(24))
    assert np.array_equal(
        sim.delay_schedule.staleness_block(workers, rounds),
        fresh.staleness_block(workers, rounds),
    )
