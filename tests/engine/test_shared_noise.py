"""Shared honest noise streams: one draw per stream per round.

The grid gives honest worker k of every cell of a seed the same
generator stream, so the batched executor draws each stream once per
round for all the cells that hold it and re-syncs the other holders'
generators at the end of each public call.  The loop executor still
draws per worker, so these tests pin the shared path against it: the
histories equal record for record, float for float, and every honest
worker's ``rng.bit_generator.state`` is equal after ``run``, after a
lone ``run_round`` and after a round that raises.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from benchmarks.suite.workloads import grid_kwargs
from repro.attacks.random_noise import GaussianAttack
from repro.engine import BatchedSimulation, ScenarioGrid
from repro.engine.simulation import LoopExecutor
from repro.engine.workloads import make_workload, workload_key
from repro.exceptions import SimulationError
from tests.distributed.identity import records_equal

SPAMBASE = {"num_train": 64, "num_eval": 32, "batch_size": 8}
#: The quadratic cells take the mini-batch workload's dimension, so a
#: mixed grid runs both kinds of cell in one batch.
DIMENSION = make_workload("logistic-spambase", SPAMBASE).dimension


def _simulations(grid: ScenarioGrid) -> list:
    """Fresh simulations of every cell, one workload object per spec
    (as ``run_grid`` builds them)."""
    workloads: dict = {}
    sims = []
    for spec in grid.scenarios():
        key = workload_key(spec.workload, spec.workload_kwargs)
        if key not in workloads:
            workloads[key] = make_workload(spec.workload, spec.workload_kwargs)
        sims.append(workloads[key].build(spec))
    return sims


def _batches(sims: list) -> list[tuple[BatchedSimulation, list]]:
    """One batched executor per parameter dimension, as ``run_grid``
    builds them, each with its cells in input order."""
    by_dimension: dict[int, list] = {}
    for sim in sims:
        by_dimension.setdefault(sim.server.dimension, []).append(sim)
    return [(BatchedSimulation(group), group) for group in by_dimension.values()]


def _by_cell(batches, call) -> dict[int, object]:
    """``call(executor)``'s per-cell results, keyed by simulation id."""
    return {
        id(sim): result
        for executor, group in batches
        for sim, result in zip(group, call(executor))
    }


def _states(sims: list) -> list[list[dict]]:
    return [[w.rng.bit_generator.state for w in sim.honest_workers] for sim in sims]


def _assert_records(loop_records, batched_records) -> None:
    assert len(loop_records) == len(batched_records)
    for ra, rb in zip(loop_records, batched_records):
        assert records_equal(ra, rb), f"{ra} != {rb}"


@st.composite
def grids(draw) -> ScenarioGrid:
    """Small grids whose cells repeat seeds across f, σ, workloads,
    delays and server tiers."""
    seeds = draw(st.lists(st.integers(0, 3), min_size=1, max_size=2, unique=True))
    f_values = {draw(st.integers(1, 2))} | set(
        draw(st.lists(st.integers(0, 2), max_size=2))
    )
    sigmas = draw(
        st.lists(st.sampled_from((0.0, 0.3, 1.5)), min_size=1, max_size=2, unique=True)
    )
    workloads = [("quadratic", {"dimension": DIMENSION, "sigma": s}) for s in sigmas]
    if draw(st.booleans()):
        workloads.append(("logistic-spambase", SPAMBASE))
    knobs: dict = {}
    if draw(st.booleans()):
        knobs.update(
            max_staleness_values=draw(st.sampled_from(((0, 2), (1,), (3,)))),
            delay_schedule="random",
            delay_kwargs={"max_delay": 3},
        )
    if draw(st.booleans()):
        knobs.update(
            num_servers_values=(1, 3),
            byzantine_servers_values=(0, 1),
            server_attacks=(("sign-flip-broadcast", {}),),
        )
    return ScenarioGrid(
        seeds=tuple(seeds),
        attacks=(("gaussian", {"sigma": 50.0}),),
        aggregators=(draw(st.sampled_from((("krum", {}), ("coordinate-median", {})))),),
        f_values=tuple(sorted(f_values)),
        num_workers=9,
        workloads=tuple(workloads),
        num_rounds=draw(st.integers(1, 4)),
        learning_rate=0.1,
        **knobs,
    )


class TestSharedEqualsLoop:
    @given(grids())
    @settings(max_examples=25, deadline=None)
    def test_run(self, grid):
        loop_sims, batched_sims = _simulations(grid), _simulations(grid)
        batches = _batches(batched_sims)
        histories = _by_cell(
            batches, lambda ex: ex.run(grid.num_rounds, eval_every=2)
        )
        finals = _by_cell(batches, lambda ex: ex.params)
        for loop_sim, sim in zip(loop_sims, batched_sims):
            history = loop_sim.run(grid.num_rounds, eval_every=2)
            _assert_records(history.records, histories[id(sim)].records)
            assert loop_sim.params.tobytes() == finals[id(sim)].tobytes()
        assert _states(loop_sims) == _states(batched_sims)

    @given(grids())
    @settings(max_examples=25, deadline=None)
    def test_lone_run_round_then_run(self, grid):
        loop_sims, batched_sims = _simulations(grid), _simulations(grid)
        batches = _batches(batched_sims)
        records = _by_cell(batches, lambda ex: ex.run_round())
        for loop_sim, sim in zip(loop_sims, batched_sims):
            _assert_records([loop_sim.run_round()], [records[id(sim)]])
        assert _states(loop_sims) == _states(batched_sims)
        histories = _by_cell(batches, lambda ex: ex.run(2, eval_every=1))
        for loop_sim, sim in zip(loop_sims, batched_sims):
            history = loop_sim.run(2, eval_every=1)
            _assert_records(history.records, histories[id(sim)].records)
        assert _states(loop_sims) == _states(batched_sims)


def _quadratic_grid(**overrides) -> ScenarioGrid:
    settings = dict(
        seeds=(0,),
        attacks=(("gaussian", {"sigma": 50.0}),),
        aggregators=(("average", {}),),
        f_values=(1, 2),
        num_workers=7,
        workload_kwargs={"dimension": 5, "sigma": 0.5},
        num_rounds=3,
    )
    if "workloads" in overrides:
        del settings["workload_kwargs"]
    settings.update(overrides)
    return ScenarioGrid(**settings)


class _CountingGenerator(np.random.Generator):
    """A generator that counts its ``normal`` calls in a shared tally."""

    def __init__(self, source: np.random.Generator, tally: list[int]):
        bit_generator = type(source.bit_generator)()
        bit_generator.state = source.bit_generator.state
        super().__init__(bit_generator)
        self.tally = tally

    def normal(self, *args, **kwargs):
        self.tally[0] += 1
        return super().normal(*args, **kwargs)


def _counting(sims: list, tally: list[int]) -> None:
    for sim in sims:
        sim.honest_workers[:] = [
            dataclasses.replace(w, rng=_CountingGenerator(w.rng, tally))
            for w in sim.honest_workers
        ]


class TestGrouping:
    def test_paper_grid_draws_each_stream_once_per_round(self):
        """Seed 0's smoke paper grid: 64 cells hold 1,056 honest workers
        but only 34 distinct streams (17 per seed: the f = 4 cells' 16
        are a prefix of the f = 3 cells' 17)."""
        grid = ScenarioGrid(**grid_kwargs("paper-grid", 0, smoke=True))
        shared, per_worker = [0], [0]
        batched_sims, loop_sims = _simulations(grid), _simulations(grid)
        _counting(batched_sims, shared)
        _counting(loop_sims, per_worker)
        assert sum(len(sim.honest_workers) for sim in batched_sims) == 1056
        batched, loop = BatchedSimulation(batched_sims), LoopExecutor(loop_sims)
        batched.run_round()
        loop.run_round()
        assert (shared[0], per_worker[0]) == (34, 1056)
        batched.run(2)
        assert shared[0] == 3 * 34
        assert _states(batched_sims) != _states(_simulations(grid))
        loop.run(2)
        assert _states(batched_sims) == _states(loop_sims)

    def test_same_seed_different_sigma_never_shares(self):
        grid = _quadratic_grid(
            workloads=(
                ("quadratic", {"dimension": 5, "sigma": 0.5}),
                ("quadratic", {"dimension": 5, "sigma": 2.0}),
            )
        )
        tally = [0]
        sims, loop_sims = _simulations(grid), _simulations(grid)
        _counting(sims, tally)
        records = BatchedSimulation(sims).run_round()
        # Two σ × the f = 1 cells' 6 streams (the f = 2 cells hold a prefix).
        assert tally[0] == 2 * 6
        for loop_sim, record in zip(loop_sims, records):
            _assert_records([loop_sim.run_round()], [record])
        assert _states(sims) == _states(loop_sims)

    def test_same_seed_different_dimension_never_shares(self):
        grid = _quadratic_grid(
            workloads=(
                ("quadratic", {"dimension": 5, "sigma": 0.5}),
                ("quadratic", {"dimension": 8, "sigma": 0.5}),
            )
        )
        sims, loop_sims = _simulations(grid), _simulations(grid)
        batches = _batches(sims)
        assert len(batches) == 2
        for executor, _group in batches:
            executor.run(3)
        for sim in loop_sims:
            sim.run(3)
        assert _states(sims) == _states(loop_sims)
        assert _states(sims[:2]) != _states(sims[2:])

    def test_one_generator_held_by_two_workers_stays_unshared(self):
        """Two holders of one Generator object draw from it in turn, so
        neither may take the other's draw."""

        def build():
            sims = _simulations(_quadratic_grid(f_values=(1,), seeds=(0, 1)))
            held = sims[0].honest_workers[0].rng
            sims[1].honest_workers[0] = dataclasses.replace(
                sims[1].honest_workers[0], rng=held
            )
            return sims

        sims, reference = build(), build()
        histories = BatchedSimulation(sims).run(3, eval_every=1)
        reference_histories = LoopExecutor(reference).run(3, eval_every=1)
        for history, reference_history in zip(histories, reference_histories):
            _assert_records(reference_history.records, history.records)
        assert _states(sims) == _states(reference)
        # The held stream advanced twice per round; the rest once.
        fresh = build()
        twice = fresh[0].honest_workers[0]
        for _ in range(6):
            twice.estimator.noise(twice.rng)
        assert sims[0].honest_workers[0].rng.bit_generator.state == (
            twice.rng.bit_generator.state
        )


class _RaisingAttack(GaussianAttack):
    """The Gaussian attack, raising in its craft at ``at_round``."""

    def __init__(self, at_round: int):
        super().__init__(sigma=50.0)
        self.at_round = at_round

    def craft(self, context):
        if context.round_index == self.at_round:
            raise SimulationError("attack failed")
        return super().craft(context)


class _FailingGenerator(np.random.Generator):
    """A generator whose ``normal`` raises on its ``fail_at``-th call,
    before drawing."""

    def __init__(self, source: np.random.Generator, fail_at: int):
        bit_generator = type(source.bit_generator)()
        bit_generator.state = source.bit_generator.state
        super().__init__(bit_generator)
        self.calls, self.fail_at = 0, fail_at

    def normal(self, *args, **kwargs):
        self.calls += 1
        if self.calls == self.fail_at:
            raise SimulationError("draw failed")
        return super().normal(*args, **kwargs)


class TestRaisingRound:
    def test_draw_raising_part_way(self):
        """The last cell's first stream fails in round 2's draw, after
        the other seeds' streams drew: no cell proposed round 2, so
        every stream ends after two draws."""
        grid = _quadratic_grid(seeds=(0, 1, 2), f_values=(1,))
        sims, loop_sims = _simulations(grid), _simulations(grid)
        for cells in (sims, loop_sims):
            worker = cells[2].honest_workers[0]
            cells[2].honest_workers[0] = dataclasses.replace(
                worker, rng=_FailingGenerator(worker.rng, fail_at=3)
            )
        with pytest.raises(SimulationError, match="draw failed"):
            BatchedSimulation(sims).run(5)
        for sim in loop_sims:
            sim.run(2)
        assert _states(sims) == _states(loop_sims)

    def test_halting_round(self):
        """Averaging cells halt on the non-finite attack in round 0,
        after every cell proposed; the Krum cells run on."""
        grid = _quadratic_grid(
            attacks=(("non-finite", {}),),
            aggregators=(("krum", {}), ("average", {})),
            f_values=(1,),
            seeds=(0, 1),
            halt_on_nonfinite=True,
        )
        sims, loop_sims = _simulations(grid), _simulations(grid)
        with pytest.raises(SimulationError, match="non-finite"):
            BatchedSimulation(sims).run(3)
        for sim in loop_sims:
            try:
                sim.run_round()
            except SimulationError:
                assert sim.server.aggregator.name == "average"
        assert _states(sims) == _states(loop_sims)

    def test_round_raising_mid_propose(self):
        """A cell whose attack raises in round 2 stops the round after
        its propose stage: every cell proposed three rounds, and every
        stream ends there."""
        # One rule: the executor keeps the cells in input order.
        grid = _quadratic_grid(seeds=(0, 1, 2), f_values=(1,))
        sims, loop_sims = _simulations(grid), _simulations(grid)
        sims[1].attack = _RaisingAttack(2)
        with pytest.raises(SimulationError, match="attack failed"):
            BatchedSimulation(sims).run(5)
        loop_sims[1].attack = _RaisingAttack(2)
        for sim, rounds in zip(loop_sims, (3, 3, 3)):
            for _ in range(rounds):
                try:
                    sim.run_round()
                except SimulationError:
                    assert sim is loop_sims[1]
        assert _states(sims) == _states(loop_sims)
