"""Engine bench — batched executor vs per-scenario loop at full scale.

Each bench pushes full-scale grids through both executors of
:func:`~repro.engine.run_grid`: ``mode="loop"`` runs one simulation per
cell through the cell's own rule, ``mode="batched"`` stacks the cells
into ``(B, n, d)`` tensors and aggregates through vectorized kernels.
Every bench first asserts the two executors' trajectories are identical
bit for bit (final parameters and every round record), then its own
checks:

* ``bench_engine_batched_vs_loop`` — the 128-cell grid (4 seeds × 2
  attacks × 8 rules × f ∈ {3, 4}; n = 20, d = 1000, 100 rounds, the
  scale of the paper's figure grids).  Every rule aggregates natively
  and the batched executor is at least ``MIN_SPEEDUP`` times faster.
  f stops at 4 because Bulyan needs n ≥ 4f + 3.
* ``bench_workload_grids`` — one grid per registered workload plus a
  mixed-dimension grid.  Only the quadratic grid carries a floor
  (``MIN_QUADRATIC_SPEEDUP``): dataset workloads spend their rounds in
  per-worker model gradients, which both executors compute the same
  way, so their gain is bounded by the aggregation share of a round.
* ``bench_staleness_sweep`` — ``max_staleness ∈ {0, 1, 4}``
  under random delays (``max_delay = 4``), three rules each with and
  without the kardam staleness filter.  The ``max_staleness = 0`` arm
  equals the synchronous grid, and exactly the kardam half of the
  cells aggregates through the loop fallback (``native_fraction`` 0.5).

The paper and workload grids are built by ``tests/engine/grids.py``,
and the trajectories compared by ``tests/distributed/identity.py``;
the tier-1 tests (``tests/engine/test_differential.py``,
``test_workloads.py`` and ``test_async.py``) make the same checks at
small scale.  The benches print their timings and write no file::

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_engine_grid.py \\
        -o python_files='bench_*.py' -o python_functions='bench_*'
"""

from __future__ import annotations

from benchmarks.conftest import emit, run_once
from repro.engine import ScenarioGrid, run_grid
from repro.experiments.reporting import format_table
from tests.distributed.identity import (
    assert_identical,
    assert_loop_equals_batched,
)
from tests.engine.grids import KARDAM_PAIRS, paper_grid, workload_grids

MIN_SPEEDUP = 3.0
MIN_QUADRATIC_SPEEDUP = 2.0

_TIMING_COLUMNS = ["grid", "cells", "rounds", "loop s", "batched s", "speedup"]


def _loop_vs_batched(name: str, grid: ScenarioGrid, *, eval_every: int):
    """Run ``grid`` through both executors, assert they agree, and
    return the batched result plus a timing-table row."""
    loop, batched = assert_loop_equals_batched(grid, eval_every=eval_every)
    speedup = loop.wall_time / max(batched.wall_time, 1e-12)
    row = [
        name,
        len(grid),
        grid.num_rounds,
        round(loop.wall_time, 3),
        round(batched.wall_time, 3),
        f"{speedup:.2f}x",
    ]
    return batched, speedup, row


def bench_engine_batched_vs_loop(benchmark):
    grid = paper_grid("full")
    batched, speedup, row = run_once(
        benchmark, lambda: _loop_vs_batched("paper", grid, eval_every=25)
    )
    emit(
        format_table(
            _TIMING_COLUMNS + ["native"],
            [row + [batched.native_fraction]],
            title="Engine — batched grid vs per-scenario loop",
        )
    )
    assert batched.native_fraction == 1.0, "a rule fell back to the loop"
    assert speedup >= MIN_SPEEDUP, (
        f"expected >= {MIN_SPEEDUP}x speedup, got {speedup:.2f}x"
    )


def bench_workload_grids(benchmark):
    def run():
        return {
            name: _loop_vs_batched(name, grid, eval_every=10)[1:]
            for name, grid in workload_grids("full").items()
        }

    runs = run_once(benchmark, run)
    emit(
        format_table(
            _TIMING_COLUMNS,
            [row for _speedup, row in runs.values()],
            title="Engine workloads — batched vs loop",
        )
    )
    speedup = runs["quadratic"][0]
    assert speedup >= MIN_QUADRATIC_SPEEDUP, (
        f"quadratic speedup {speedup:.2f}x < {MIN_QUADRATIC_SPEEDUP}x"
    )


def _async_grid(**axes) -> ScenarioGrid:
    return ScenarioGrid(
        seeds=(0, 1, 2),
        attacks=(
            ("gaussian", {"sigma": 200.0}),
            ("omniscient", {"scale": 10.0}),
        ),
        aggregators=KARDAM_PAIRS,
        f_values=(3,),
        num_workers=15,
        workload_kwargs={"dimension": 200, "sigma": 0.5},
        num_rounds=100,
        learning_rate=0.1,
        lr_timescale=100.0,
        **axes,
    )


def bench_staleness_sweep(benchmark):
    delays = dict(delay_schedule="random", delay_kwargs={"max_delay": 4})
    grid = _async_grid(max_staleness_values=(0, 1, 4), **delays)
    batched, _speedup, row = run_once(
        benchmark, lambda: _loop_vs_batched("async", grid, eval_every=25)
    )
    emit(
        format_table(
            _TIMING_COLUMNS + ["native"],
            [row + [round(batched.native_fraction, 3)]],
            title="Engine — async rounds (staleness sweep)",
        )
    )
    assert_identical(
        run_grid(_async_grid(), mode="batched", eval_every=25),
        run_grid(_async_grid(**delays), mode="batched", eval_every=25),
        by_position=True,
    )
    assert batched.native_fraction == 0.5, (
        "expected exactly the kardam half of the cells on the loop "
        f"fallback, got native_fraction={batched.native_fraction}"
    )
