"""Differential guarantees of the server tier.

The load-bearing invariant: the degenerate configuration
``num_servers=1, byzantine_servers=0, num_shards=1`` is bit-for-bit the
pre-tier engine — same labels, same trajectories, in both executors —
and every active-tier grid still satisfies the loop/batched differential
identity and matches the frozen reference round of
``tests/distributed/server_reference.py``.
``benchmarks/bench_server_tier.py`` re-checks the same claims at bench
scale.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.average import Average
from repro.engine import ScenarioGrid, run_grid
from repro.engine.simulation import BatchedSimulation
from repro.exceptions import ConfigurationError
from repro.experiments.builders import build_quadratic_simulation
from repro.models.quadratic import QuadraticBowl
from repro.servers.attacks import StaleReplayBroadcastAttack
from tests.distributed.server_reference import assert_matches_reference

AGGREGATORS = (("krum", {}), ("average", {}))


def _grid(**kwargs):
    defaults = dict(
        seeds=(0, 1),
        aggregators=AGGREGATORS,
        f_values=(0,),
        num_workers=9,
        dimension=6,
        sigma=0.5,
        num_rounds=8,
        learning_rate=0.1,
    )
    defaults.update(kwargs)
    return ScenarioGrid(**defaults)


def _same(result_a, result_b) -> None:
    labels_a = [spec.label for spec in result_a.specs]
    labels_b = [spec.label for spec in result_b.specs]
    assert labels_a == labels_b
    for label in labels_a:
        assert (
            result_a.final_params[label].tobytes()
            == result_b.final_params[label].tobytes()
        )
        history_a = result_a.histories[label]
        history_b = result_b.histories[label]
        assert len(history_a) == len(history_b)
        assert all(a == b for a, b in zip(history_a, history_b))


class TestDegenerateIdentity:
    def test_pinned_axes_match_the_axis_free_grid(self):
        """Declaring the tier axes at their degenerate values must not
        change a single bit — or a single label."""
        pinned = _grid(
            num_servers_values=(1,),
            byzantine_servers_values=(0,),
            num_shards_values=(1,),
        )
        axis_free = _grid()
        _same(
            run_grid(pinned, mode="batched", eval_every=4),
            run_grid(axis_free, mode="batched", eval_every=4),
        )

    def test_degenerate_labels_carry_no_server_suffix(self):
        for spec in _grid(
            num_servers_values=(1,),
            byzantine_servers_values=(0,),
            num_shards_values=(1,),
        ).scenarios():
            assert "servers=" not in spec.label

    def test_active_labels_carry_the_server_suffix(self):
        specs = _grid(
            num_servers_values=(1, 3),
            byzantine_servers_values=(0, 1),
            server_attacks=(("sign-flip-broadcast", {}),),
        ).scenarios()
        suffixed = [spec for spec in specs if "servers=" in spec.label]
        assert suffixed  # every non-degenerate cell is labelled
        for spec in specs:
            degenerate = (
                spec.num_servers == 1
                and spec.byzantine_servers == 0
                and spec.num_shards == 1
            )
            assert ("servers=" in spec.label) == (not degenerate)


class TestLoopBatchedIdentity:
    @pytest.mark.parametrize(
        "server_attack",
        ["sign-flip-broadcast", "stale-replay-broadcast",
         "random-noise-broadcast"],
    )
    def test_tier_grid_is_executor_invariant(self, server_attack):
        grid = _grid(
            num_servers_values=(1, 3),
            byzantine_servers_values=(0, 1),
            num_shards_values=(1, 2),
            server_attacks=((server_attack, {}),),
        )
        loop = run_grid(grid, mode="loop", eval_every=4)
        _same(loop, run_grid(grid, mode="batched", eval_every=4))
        assert_matches_reference(loop, grid, eval_every=4)

    def test_async_tier_grid_is_executor_invariant(self):
        """Staleness window + delay schedule + Byzantine servers: stale
        workers must read back the *view* history identically in both
        executors."""
        grid = _grid(
            seeds=(0,),
            max_staleness_values=(0, 2),
            delay_schedule="periodic",
            delay_kwargs={"tau": 2, "period": 3},
            num_servers_values=(3,),
            byzantine_servers_values=(1,),
            server_attacks=(("stale-replay-broadcast", {"delay": 2}),),
        )
        loop = run_grid(grid, mode="loop", eval_every=4)
        _same(loop, run_grid(grid, mode="batched", eval_every=4))
        assert_matches_reference(loop, grid, eval_every=4)

    def test_grid_len_matches_materialized_cells(self):
        grid = _grid(
            num_servers_values=(1, 3),
            byzantine_servers_values=(0, 1),
            num_shards_values=(1, 2),
            server_attacks=(
                ("sign-flip-broadcast", {}),
                ("random-noise-broadcast", {}),
            ),
        )
        assert len(grid) == len(grid.scenarios())


class TestStatefulServerAttackSharing:
    def _simulation(self, attack, seed=0):
        return build_quadratic_simulation(
            QuadraticBowl(6),
            aggregator=Average(),
            num_workers=5,
            num_byzantine=0,
            sigma=0.5,
            num_servers=3,
            byzantine_servers=1,
            server_attack=attack,
            seed=seed,
        )

    def test_shared_stateful_server_attack_is_rejected(self):
        shared = StaleReplayBroadcastAttack(delay=2)
        sims = [self._simulation(shared, seed=s) for s in (0, 1)]
        with pytest.raises(ConfigurationError, match="stateful server attack"):
            BatchedSimulation(sims)

    def test_per_scenario_instances_are_accepted(self):
        sims = [
            self._simulation(StaleReplayBroadcastAttack(delay=2), seed=s)
            for s in (0, 1)
        ]
        batched = BatchedSimulation(sims)
        histories = batched.run(4, eval_every=2)
        assert len(histories) == 2
        assert np.all(np.isfinite(batched.params))
