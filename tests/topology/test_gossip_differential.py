"""Degenerate-identity differential: gossip vs the server path.

The acceptance bar for the topology subsystem: on the ``complete``
graph with zero edge delay, every node hears every proposal fresh and
the local ``f`` equals the global ``f``, so the gossip engine must
reproduce the server-path trajectory **bit for bit** — not
approximately.  Pinned three ways:

* engine-level: ``GossipSimulation`` vs ``TrainingSimulation`` built
  from the same keyword arguments, and vs the frozen server round of
  ``tests/distributed/server_reference.py``, per round, across rules ×
  attacks (including the stateful kardam and the feedback-driven
  probes);
* grid-level: a grid pinning ``topology="complete"`` must produce the
  same labels, histories and final parameters as the identical grid
  with no topology axis at all, in **both** executors;
* executor-level: gossip cells themselves run loop == batched.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.registry import make_attack
from repro.core.registry import make_aggregator
from repro.distributed.schedules import ConstantSchedule
from repro.distributed.simulator import TrainingSimulation
from repro.engine.grid import ScenarioGrid, ScenarioSpec
from repro.engine.runner import build_scenario_simulation, run_grid
from repro.gradients.oracle import GaussianOracleEstimator
from repro.topology import GossipSimulation
from tests.distributed.server_reference import (
    assert_matches_reference,
    reference_run,
)

DIMENSION = 6
NUM_WORKERS = 10
NUM_BYZANTINE = 2


def gradient_fn(x: np.ndarray) -> np.ndarray:
    return x


def engine_kwargs(aggregator, attack, seed=17) -> dict:
    """The keyword arguments both engines take, freshly built."""
    return dict(
        aggregator=make_aggregator(**aggregator),
        schedule=ConstantSchedule(0.05),
        honest_estimators=[
            GaussianOracleEstimator(gradient_fn, DIMENSION, 0.5)
            for _ in range(NUM_WORKERS - NUM_BYZANTINE)
        ],
        initial_params=np.ones(DIMENSION),
        num_byzantine=NUM_BYZANTINE,
        attack=make_attack(attack, {}),
        true_gradient_fn=gradient_fn,
        seed=seed,
    )


def engine_pair(aggregator, attack):
    """A server-path simulation and its complete-graph gossip twin."""
    return (
        TrainingSimulation(**engine_kwargs(aggregator, attack)),
        GossipSimulation(
            topology="complete", **engine_kwargs(aggregator, attack)
        ),
    )


def assert_records_identical(a, b, context=""):
    assert len(a) == len(b), context
    for ra, rb in zip(a, b):
        assert ra.round_index == rb.round_index, context
        assert ra.learning_rate == rb.learning_rate, context
        assert ra.aggregate_norm == rb.aggregate_norm, (context, ra.round_index)
        assert ra.params_norm == rb.params_norm, (context, ra.round_index)
        assert ra.selected == rb.selected, (context, ra.round_index)
        assert ra.byzantine_selected == rb.byzantine_selected, context
        assert ra.loss == rb.loss and ra.accuracy == rb.accuracy, context
        assert ra.grad_norm == rb.grad_norm, context


RULES = [
    {"name": "krum", "f": NUM_BYZANTINE},
    {"name": "average"},
    {"name": "coordinate-median"},
    {"name": "kardam", "f": NUM_BYZANTINE},
]
ATTACKS = ["gaussian", "omniscient", "sign-flip", "probe", "probe-bandit"]


class TestEngineIdentity:
    @pytest.mark.parametrize("aggregator", RULES, ids=lambda r: r["name"])
    @pytest.mark.parametrize("attack", ATTACKS)
    def test_complete_graph_matches_server_path_per_round(
        self, aggregator, attack
    ):
        reference, gossip = engine_pair(aggregator, attack)
        frozen, frozen_params = reference_run(
            TrainingSimulation(**engine_kwargs(aggregator, attack)),
            12,
            eval_every=1,
        )
        # Round-by-round, so a divergence pins the exact round.
        for t in range(12):
            ref_history = reference.run(1, eval_every=1)
            gossip_history = gossip.run(1, eval_every=1)
            assert np.array_equal(reference.params, gossip.params)
            ra, rg = ref_history.records[0], gossip_history.records[0]
            for record in (ra, frozen[t]):
                assert record.aggregate_norm == rg.aggregate_norm
                assert record.params_norm == rg.params_norm
                assert record.selected == rg.selected
                assert record.byzantine_selected == rg.byzantine_selected
        assert frozen_params.tobytes() == gossip.params.tobytes()

    def test_all_honest_nodes_track_the_server_trajectory(self):
        aggregator = {"name": "krum", "f": NUM_BYZANTINE}
        reference, gossip = engine_pair(aggregator, "gaussian")
        reference.run(10)
        gossip.run(10)
        for node in gossip.honest_ids:
            assert np.array_equal(reference.params, gossip.node_params(node))

    def test_gossip_cell_starts_from_its_server_cell_task(self):
        """A gossip cell and its server-path sibling are built from the
        same workload task: same x_0, same estimator streams."""
        common = dict(
            seed=4,
            aggregator="coordinate-median",
            num_workers=NUM_WORKERS,
            dimension=DIMENSION,
            sigma=0.5,
        )
        server = build_scenario_simulation(ScenarioSpec(**common))
        gossip = build_scenario_simulation(
            ScenarioSpec(topology="ring", degree=4, **common)
        )
        assert isinstance(gossip, GossipSimulation)
        assert np.array_equal(server.params, gossip.params)
        for node, worker in zip(gossip.honest_ids, server.honest_workers):
            assert worker.worker_id == node
            draws = [
                estimator.estimate(server.params, rng)
                for estimator, rng in (
                    (worker.estimator, worker.rng),
                    (gossip._estimators[node], gossip._node_rng[node]),
                )
            ]
            assert np.array_equal(*draws)


def grid_kwargs(**overrides):
    kwargs = dict(
        seeds=(0, 1),
        num_workers=NUM_WORKERS,
        num_rounds=10,
        attacks=(("gaussian", {}), ("sign-flip", {})),
        aggregators=(("krum", {}), ("average", {})),
        f_values=(NUM_BYZANTINE,),
        dimension=DIMENSION,
    )
    kwargs.update(overrides)
    return kwargs


class TestGridIdentity:
    @pytest.mark.parametrize("mode", ["loop", "batched"])
    def test_pinned_complete_cell_equals_axis_free_grid(self, mode):
        """The degenerate cell is invisible: pinning topology="complete"
        changes neither labels nor trajectories, in either executor."""
        axis_free = run_grid(
            ScenarioGrid(**grid_kwargs()), mode=mode, eval_every=5
        )
        pinned = run_grid(
            ScenarioGrid(**grid_kwargs(topology="complete")),
            mode=mode,
            eval_every=5,
        )
        assert list(axis_free.histories) == list(pinned.histories)
        for label in axis_free.histories:
            assert_records_identical(
                axis_free.histories[label].records,
                pinned.histories[label].records,
                context=(mode, label),
            )
            assert np.array_equal(
                axis_free.final_params[label], pinned.final_params[label]
            ), (mode, label)
        assert_matches_reference(
            pinned, ScenarioGrid(**grid_kwargs(topology="complete")), eval_every=5
        )

    def test_gossip_cells_loop_equals_batched(self):
        grid = ScenarioGrid(
            **grid_kwargs(
                topology_values=("complete", "ring", "erdos-renyi"),
                degree=6,
                edge_prob=0.7,
            )
        )
        loop = run_grid(grid, mode="loop", eval_every=5)
        batched = run_grid(grid, mode="batched", eval_every=5)
        assert list(loop.histories) == list(batched.histories)
        gossip_labels = [k for k in loop.histories if "topo=" in k]
        assert len(gossip_labels) == 2 * len(loop.histories) // 3
        for label in loop.histories:
            assert_records_identical(
                loop.histories[label].records,
                batched.histories[label].records,
                context=label,
            )
            records = loop.histories[label].records
            if "topo=" in label:
                evaluated = [r for r in records if r.extras]
                assert evaluated, label
                assert all(
                    "consensus_error" in r.extras
                    and "disagreement" in r.extras
                    for r in evaluated
                )
            assert np.array_equal(
                loop.final_params[label], batched.final_params[label]
            ), label

    def test_gossip_cells_with_edge_delay_loop_equals_batched(self):
        grid = ScenarioGrid(
            **grid_kwargs(
                seeds=(3,),
                topology="ring",
                degree=6,
                delay_schedule="random",
                delay_kwargs={"max_delay": 2},
            )
        )
        loop = run_grid(grid, mode="loop", eval_every=5)
        batched = run_grid(grid, mode="batched", eval_every=5)
        for label in loop.histories:
            assert_records_identical(
                loop.histories[label].records,
                batched.histories[label].records,
                context=label,
            )
