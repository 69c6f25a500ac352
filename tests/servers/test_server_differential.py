"""Differential guarantees of the server tier.

The load-bearing invariant: the degenerate configuration
``num_servers=1, byzantine_servers=0, num_shards=1`` is bit-for-bit the
pre-tier engine — same labels, same trajectories, in both executors —
and every active-tier grid still satisfies the loop/batched differential
identity and matches the frozen reference round of
``tests/distributed/server_reference.py``.  ``TestHeadline`` checks the
same identities on a 3-seed, 100-round grid, together with the tier's
headline: one Byzantine server defeats every worker-side rule, and the
coordinate median over three replicas recovers it.
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
from tests.distributed.identity import (
    assert_identical,
    assert_loop_equals_batched,
)
from tests.distributed.server_reference import assert_matches_reference

AGGREGATORS = (("krum", {}), ("average", {}))

# The headline grid's scale and rules.  One Byzantine server among one
# must leave every rule at >= DEGRADE_MIN x its attack-free distance to
# the optimum (the sign-flipped broadcast turns descent into geometric
# divergence), while three replicas with one Byzantine member must
# recover to <= RECOVER_MAX x.  Measured: about 1e6x degraded, and
# exactly 1.0x recovered, since median{x, x, -x} = x bitwise.
HEADLINE = dict(
    seeds=(0, 1, 2),
    aggregators=(("krum", {}), ("coordinate-median", {}), ("average", {})),
    num_workers=15,
    workload_kwargs={"dimension": 20, "sigma": 0.5},
    num_rounds=100,
    lr_timescale=None,
)
DEGRADE_MIN = 4.0
RECOVER_MAX = 2.0


def _grid(**kwargs):
    defaults = dict(
        seeds=(0, 1),
        aggregators=AGGREGATORS,
        f_values=(0,),
        num_workers=9,
        workload_kwargs={"dimension": 6, "sigma": 0.5},
        num_rounds=8,
        learning_rate=0.1,
    )
    defaults.update(kwargs)
    return ScenarioGrid(**defaults)


class TestDegenerateIdentity:
    @pytest.mark.parametrize("scale", [{}, HEADLINE], ids=["small", "headline"])
    def test_pinned_axes_match_the_axis_free_grid(self, scale):
        """Declaring the tier axes at their degenerate values must not
        change a single bit — or a single label."""
        pinned = _grid(
            num_servers_values=(1,),
            byzantine_servers_values=(0,),
            num_shards_values=(1,),
            **scale,
        )
        axis_free = _grid(**scale)
        assert_identical(
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
        loop, _batched = assert_loop_equals_batched(grid, eval_every=4)
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
        loop, _batched = assert_loop_equals_batched(grid, eval_every=4)
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


@pytest.fixture(scope="module")
def headline_runs():
    """The tier grid under the sign-flip broadcast, in both executors."""
    grid = _grid(
        num_servers_values=(1, 3),
        byzantine_servers_values=(0, 1),
        server_attacks=(("sign-flip-broadcast", {}),),
        **HEADLINE,
    )
    return (
        run_grid(grid, mode="loop", eval_every=25),
        run_grid(grid, mode="batched", eval_every=25),
    )


class TestHeadline:
    def test_loop_equals_batched(self, headline_runs):
        assert_identical(*headline_runs)

    def test_byzantine_server_degrades_and_replicas_recover(
        self, headline_runs
    ):
        _loop, batched = headline_runs
        distances: dict[tuple, list[float]] = {}
        for spec in batched.specs:
            final = batched.histories[spec.label].evaluated[-1]
            key = (spec.aggregator, spec.num_servers, spec.byzantine_servers)
            distances.setdefault(key, []).append(final.extras["dist_to_opt"])
        for name, _kwargs in HEADLINE["aggregators"]:
            baseline = max(float(np.mean(distances[(name, 1, 0)])), 1e-12)
            degraded = float(np.mean(distances[(name, 1, 1)])) / baseline
            recovered = float(np.mean(distances[(name, 3, 1)])) / baseline
            assert degraded >= DEGRADE_MIN, (name, degraded)
            assert recovered <= RECOVER_MAX, (name, recovered)

    def test_sharded_average_equals_average(self):
        """Averaging is coordinate-separable, so cutting it into four
        shards changes no bit of the trajectory (only the label)."""
        settings = dict(HEADLINE, aggregators=(("average", {}),))
        plain = run_grid(_grid(**settings), mode="loop", eval_every=25)
        sharded = run_grid(
            _grid(num_shards=4, **settings), mode="loop", eval_every=25
        )
        assert_identical(plain, sharded, by_position=True)
