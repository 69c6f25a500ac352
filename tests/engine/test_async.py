"""Async-rounds engine tests: grid axes, degenerate identity, differential.

The two load-bearing guarantees:

* ``max_staleness = 0`` async mode (a delay schedule configured, but the
  bounded-staleness window closed) is **bit-for-bit identical** to the
  synchronous loop on the reference grid — the degenerate case must not
  fork trajectories;
* the batched executor reproduces the loop executor's async
  trajectories bit-for-bit, with staleness-aware (Kardam) cells riding
  the per-scenario fallback, reported via ``native_fraction``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.base import Attack
from repro.distributed.delays import (
    DELAY_SCHEDULES,
    DelaySchedule,
    register_delay_schedule,
)
from repro.engine import BatchedSimulation, ScenarioGrid, run_grid
from repro.engine.runner import build_scenario_simulation
from repro.exceptions import ConfigurationError, SimulationError
from tests.distributed.identity import (
    assert_identical,
    assert_loop_equals_batched,
)
from tests.distributed.server_reference import assert_matches_reference, reference_run
from tests.engine.grids import KARDAM_PAIRS


def _reference_grid(**overrides) -> ScenarioGrid:
    """A small grid covering selection, statistical and kardam rules
    under two attacks."""
    settings = dict(
        seeds=(0, 1),
        attacks=(
            ("gaussian", {"sigma": 150.0}),
            ("omniscient", {"scale": 5.0}),
        ),
        aggregators=(
            ("krum", {}),
            ("coordinate-median", {}),
            ("kardam", {"inner": "krum"}),
        ),
        f_values=(2,),
        num_workers=11,
        workload_kwargs={"dimension": 12, "sigma": 0.4},
        num_rounds=12,
        learning_rate=0.1,
        lr_timescale=100.0,
    )
    settings.update(overrides)
    return ScenarioGrid(**settings)


# The reference rules, and the rule axis of the staleness sweep in
# ``bench_engine_grid.py``.
RULE_AXES = pytest.mark.parametrize(
    "rules",
    [{}, {"aggregators": KARDAM_PAIRS}],
    ids=["reference", "kardam-pairs"],
)


class TestGridAxes:
    def test_sync_labels_unchanged(self):
        grid = _reference_grid()
        for spec in grid.scenarios():
            assert "stale" not in spec.label
            assert spec.async_label is None

    def test_async_label_encodes_window_and_schedule(self):
        grid = _reference_grid(
            max_staleness=2,
            delay_schedule="constant",
            delay_kwargs={"tau": 2},
        )
        spec = grid.scenarios()[0]
        assert spec.label.endswith("|stale<=2|constant(tau=2)")

    def test_staleness_axis_expands_cells(self):
        base = _reference_grid()
        swept = _reference_grid(
            max_staleness=0,
            max_staleness_values=(0, 1, 4),
            delay_schedule="random",
            delay_kwargs={"max_delay": 4},
        )
        assert len(swept) == 3 * len(base)
        assert len(swept.scenarios()) == len(swept)
        labels = {spec.label for spec in swept.scenarios()}
        assert len(labels) == len(swept)

    def test_delay_schedules_axis(self):
        grid = _reference_grid(
            max_staleness=3,
            delay_schedules=(
                (None, {}),
                ("constant", {"tau": 2}),
                ("random", {"max_delay": 3}),
            ),
        )
        assert len(grid) == 3 * len(_reference_grid())

    def test_axis_conflicts_rejected(self):
        with pytest.raises(ConfigurationError, match="not both"):
            _reference_grid(
                max_staleness=1, max_staleness_values=(0, 1)
            )
        with pytest.raises(ConfigurationError, match="not both"):
            _reference_grid(
                delay_schedule="constant",
                delay_schedules=(("constant", {}),),
            )

    def test_bad_delay_spec_fails_at_declaration(self):
        with pytest.raises(ConfigurationError, match="available"):
            _reference_grid(delay_schedule="no-such-schedule")
        with pytest.raises(ConfigurationError, match="delay schedule"):
            _reference_grid(
                delay_schedule="constant", delay_kwargs={"bogus": 1}
            )
        with pytest.raises(ConfigurationError, match="max_staleness"):
            _reference_grid(max_staleness=-1)

    def test_delay_kwargs_without_schedule_rejected(self):
        with pytest.raises(ConfigurationError, match="without a"):
            _reference_grid(delay_kwargs={"tau": 1})


class TestDegenerateIdentity:
    """max_staleness = 0 async mode == the synchronous loop, bit for bit."""

    def test_zero_staleness_matches_sync_loop(self):
        sync = run_grid(_reference_grid(), mode="loop", eval_every=4)
        degenerate = run_grid(
            _reference_grid(
                max_staleness=0,
                delay_schedule="random",
                delay_kwargs={"max_delay": 4},
            ),
            mode="loop",
            eval_every=4,
        )
        assert_identical(sync, degenerate, by_position=True)

    @RULE_AXES
    def test_zero_staleness_matches_sync_batched(self, rules):
        sync = run_grid(_reference_grid(**rules), mode="batched", eval_every=4)
        degenerate = run_grid(
            _reference_grid(
                max_staleness=0,
                delay_schedule="random",
                delay_kwargs={"max_delay": 4},
                **rules,
            ),
            mode="batched",
            eval_every=4,
        )
        assert_identical(sync, degenerate, by_position=True)


class TestAsyncDifferential:
    """Loop and batched executors agree bit-for-bit on async grids."""

    @pytest.mark.parametrize(
        "delay_schedule,delay_kwargs",
        [
            ("constant", {"tau": 2}),
            ("periodic", {"tau": 3, "period": 3}),
            ("random", {"max_delay": 4}),
        ],
    )
    def test_loop_equals_batched(self, delay_schedule, delay_kwargs):
        grid = _reference_grid(
            max_staleness=3,
            delay_schedule=delay_schedule,
            delay_kwargs=delay_kwargs,
        )
        loop, _batched = assert_loop_equals_batched(grid, eval_every=4)
        assert_matches_reference(loop, grid, eval_every=4)

    @RULE_AXES
    def test_staleness_sweep_loop_equals_batched(self, rules):
        grid = _reference_grid(
            max_staleness_values=(0, 1, 4),
            delay_schedule="random",
            delay_kwargs={"max_delay": 4},
            **rules,
        )
        loop, _batched = assert_loop_equals_batched(grid, eval_every=4)
        assert_matches_reference(loop, grid, eval_every=4)

    @pytest.mark.parametrize(
        "rules, native_fraction",
        [({}, 2.0 / 3.0), ({"aggregators": KARDAM_PAIRS}, 0.5)],
        ids=["reference", "kardam-pairs"],
    )
    def test_kardam_cells_fall_back_native_cells_stay(
        self, rules, native_fraction
    ):
        grid = _reference_grid(
            max_staleness=2,
            delay_schedule="constant",
            delay_kwargs={"tau": 2},
            **rules,
        )
        batched = run_grid(grid, mode="batched", eval_every=4)
        # Plain rules keep their native kernels; kardam rides the loop
        # fallback.
        assert batched.native_fraction == pytest.approx(native_fraction)

    def test_minibatch_workload_async_differential(self):
        grid = ScenarioGrid(
            seeds=(0,),
            workloads=(
                ("logistic-spambase", {"num_train": 96, "num_eval": 32,
                                       "batch_size": 8}),
            ),
            attacks=(("gaussian", {"sigma": 20.0}),),
            aggregators=(("krum", {}), ("kardam", {"inner": "krum"})),
            f_values=(2,),
            num_workers=9,
            num_rounds=8,
            max_staleness=2,
            delay_schedule="random",
            delay_kwargs={"max_delay": 3},
        )
        loop, _batched = assert_loop_equals_batched(grid, eval_every=4)
        assert_matches_reference(loop, grid, eval_every=4)

    def test_staleness_actually_changes_trajectories(self):
        sync = run_grid(_reference_grid(), mode="batched", eval_every=4)
        stale = run_grid(
            _reference_grid(
                max_staleness=4,
                delay_schedule="constant",
                delay_kwargs={"tau": 4},
            ),
            mode="batched",
            eval_every=4,
        )
        assert any(
            sync.final_params[s.label].tobytes()
            != stale.final_params[a.label].tobytes()
            for s, a in zip(sync.specs, stale.specs)
        )


class TestAsyncSimulation:
    def test_stale_messages_within_window_accepted(self):
        spec = _reference_grid(
            max_staleness=2,
            delay_schedule="constant",
            delay_kwargs={"tau": 2},
        ).scenarios()[0]
        sim = build_scenario_simulation(spec)
        history = sim.run(6, eval_every=3)
        assert len(history) == 6

    def test_staleness_clips_to_window_and_time(self):
        """A lag of 5 under a window of 1: round 0 has no history, every
        later round reads one round back — in the shared stages and in
        the reference's scalar ``staleness`` queries alike."""
        grid = _reference_grid(
            max_staleness=1,
            delay_schedule="constant",
            delay_kwargs={"tau": 5},
        )
        seen = []

        class Recorder(Attack):
            name = "recorder"

            def craft(self, context):
                seen.append(context.honest_staleness.tolist())
                return np.zeros((context.num_byzantine, context.dimension))

        spec = grid.scenarios()[0]
        sim = build_scenario_simulation(spec)
        sim.attack = Recorder()
        sim.run(4)
        assert seen == [[0] * 9] + [[1] * 9] * 3

        loop = run_grid(grid, mode="loop", eval_every=4)
        assert_matches_reference(loop, grid, eval_every=4)

    def test_batched_history_window_is_bounded(self):
        grid = _reference_grid(
            max_staleness=3,
            delay_schedule="random",
            delay_kwargs={"max_delay": 3},
        )
        sims = [build_scenario_simulation(s) for s in grid.scenarios()[:3]]
        batched = BatchedSimulation(sims)
        batched.run(10, eval_every=5)
        assert len(batched._history) <= 4

    def test_freshness_guard_still_trips_after_async_batch(self):
        grid = _reference_grid(
            max_staleness=2,
            delay_schedule="constant",
            delay_kwargs={"tau": 1},
        )
        sims = [build_scenario_simulation(s) for s in grid.scenarios()[:2]]
        BatchedSimulation(sims).run(3, eval_every=2)
        with pytest.raises(ConfigurationError, match="freshly built"):
            BatchedSimulation(sims)


class _NegativeAt(DelaySchedule):
    """Lags every worker by one, except ``workers`` at ``at_round``,
    where it reports an invalid ``-1``."""

    name = "test-negative"

    def __init__(self, workers=(), at_round=0):
        self.workers = frozenset(workers)
        self.at_round = at_round

    def staleness(self, worker_id, round_index):
        if round_index == self.at_round and worker_id in self.workers:
            return -1
        return 1


class _Rotating(DelaySchedule):
    """A custom schedule that relies on the ABC's looping
    ``staleness_block``."""

    name = "test-rotating"

    def staleness(self, worker_id, round_index):
        return (worker_id + round_index) % 4


class _FlatBlock(_Rotating):
    """A broken override: one row for the whole rounds axis."""

    name = "test-flat-block"

    def staleness_block(self, worker_ids, round_indices):
        return np.ones(len(worker_ids), dtype=np.int64)


_CUSTOM_SCHEDULES = (_NegativeAt, _Rotating, _FlatBlock)


@pytest.fixture
def custom_schedules(monkeypatch):
    monkeypatch.setattr(
        DELAY_SCHEDULES, "_factories", dict(DELAY_SCHEDULES._factories)
    )
    for schedule in _CUSTOM_SCHEDULES:
        register_delay_schedule(schedule.name, schedule)


def _async_sims(count=None, **overrides):
    settings = dict(
        max_staleness=3,
        delay_schedule="random",
        delay_kwargs={"max_delay": 4},
    )
    settings.update(overrides)
    specs = _reference_grid(**settings).scenarios()[:count]
    return [build_scenario_simulation(spec) for spec in specs]


def _assert_same_runs(loop_sims, batched, loop_histories, batched_histories):
    for index, sim in enumerate(loop_sims):
        assert sim.params.tobytes() == batched.params[index].tobytes()
        assert list(loop_histories[index]) == list(batched_histories[index])


def _assert_matches_scalar_queries(histories, num_rounds, eval_every, **overrides):
    """The frozen reference, which queries ``staleness`` one worker and
    round at a time, agrees with the prefetched tables."""
    for sim, history in zip(_async_sims(len(histories), **overrides), histories):
        reference, _ = reference_run(sim, num_rounds, eval_every=eval_every)
        assert list(reference) == list(history)


class TestStalenessPrefetch:
    """The stages' prefetched staleness tables, checked across run
    splits, chunk boundaries and executors, and against the reference's
    scalar queries bit for bit."""

    def test_split_runs_equal_loop_and_single_run(self):
        loop_sims = _async_sims(6)
        loop_histories = [
            list(sim.run(7, eval_every=3)) + list(sim.run(5, eval_every=3))
            for sim in loop_sims
        ]
        batched = BatchedSimulation(_async_sims(6))
        first = batched.run(7, eval_every=3)
        second = batched.run(5, eval_every=3)
        batched_histories = [
            list(a) + list(b) for a, b in zip(first, second)
        ]
        _assert_same_runs(loop_sims, batched, loop_histories, batched_histories)

        single = BatchedSimulation(_async_sims(6))
        single.run(12, eval_every=3)
        assert single.params.tobytes() == batched.params.tobytes()

    def test_run_across_several_chunks(self):
        loop_sims = _async_sims(3)
        loop_histories = [sim.run(200, eval_every=50) for sim in loop_sims]
        batched = BatchedSimulation(_async_sims(3))
        batched_histories = batched.run(200, eval_every=50)
        _assert_same_runs(loop_sims, batched, loop_histories, batched_histories)
        _assert_matches_scalar_queries(loop_histories, 200, 50)

    def test_bare_run_round_calls(self):
        loop_sims = _async_sims(3)
        batched = BatchedSimulation(_async_sims(3))
        loop_records: list[list] = [[] for _ in loop_sims]
        batched_records: list[list] = [[] for _ in loop_sims]
        for _ in range(70):
            for index, sim in enumerate(loop_sims):
                loop_records[index].append(sim.run_round())
            for index, record in enumerate(batched.run_round()):
                batched_records[index].append(record)
        _assert_same_runs(loop_sims, batched, loop_records, batched_records)

    def test_custom_schedule_uses_block_default(self, custom_schedules):
        loop_sims = _async_sims(3, delay_schedule="test-rotating", delay_kwargs={})
        loop_histories = [sim.run(20, eval_every=5) for sim in loop_sims]
        batched = BatchedSimulation(
            _async_sims(3, delay_schedule="test-rotating", delay_kwargs={})
        )
        batched_histories = batched.run(20, eval_every=5)
        _assert_same_runs(loop_sims, batched, loop_histories, batched_histories)
        _assert_matches_scalar_queries(
            loop_histories,
            20,
            5,
            delay_schedule="test-rotating",
            delay_kwargs={},
        )

    def test_negative_staleness_raises_when_round_is_reached(
        self, custom_schedules
    ):
        # Byzantine workers take the first ids, so worker 0 is Byzantine
        # and worker 6 honest: every executor must name the honest worker
        # the reference queries first.
        overrides = dict(
            delay_schedule="test-negative",
            delay_kwargs={"workers": (0, 6), "at_round": 5},
            byzantine_slots="first",
        )
        loop_sim = _async_sims(1, **overrides)[0]
        assert loop_sim.byzantine_ids == [0, 1]
        message = (
            "delay schedule produced negative staleness -1 for worker 6 "
            "at round 5"
        )
        with pytest.raises(SimulationError) as loop_error:
            loop_sim.run(8)
        assert str(loop_error.value) == message

        batched = BatchedSimulation(_async_sims(2, **overrides))
        for _ in range(5):
            batched.run_round()
        with pytest.raises(SimulationError) as batched_error:
            batched.run_round()
        assert str(batched_error.value) == message

        with pytest.raises(SimulationError) as run_error:
            BatchedSimulation(_async_sims(2, **overrides)).run(8)
        assert str(run_error.value) == message

        with pytest.raises(SimulationError) as reference_error:
            reference_run(_async_sims(1, **overrides)[0], 8)
        assert str(reference_error.value) == message

    def test_misshapen_block_override_rejected(self, custom_schedules):
        batched = BatchedSimulation(
            _async_sims(1, delay_schedule="test-flat-block", delay_kwargs={})
        )
        with pytest.raises(SimulationError, match="shape"):
            batched.run(3)
