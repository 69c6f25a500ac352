"""Scenario-grid engine: declarative grids, batched execution.

The paper's experiments are grids — seeds × workloads × attacks ×
aggregators × f — and the seed code ran every cell as an independent
Python round loop.  This package batches B replica cells into
``(B, n, d)`` proposal tensors so the benchmark wall-time tracks the
O(n² · d) aggregation arithmetic (Lemma 4.1) instead of interpreter
overhead, while staying bit-for-bit identical to the per-cell loop (the
differential test harness in ``tests/engine/`` proves it).

What a cell trains on is a *workload* — a registry entry exactly like
aggregators and attacks.  ``"quadratic"`` (the paper's Section-4
analytic setting) is the default; dataset-backed workloads
(``"logistic-spambase"``, ``"softmax-mnist"``, ``"mlp-mnist"``) train
real models on sharded data, and a grid may sweep several workloads at
once — the executor batches cells per parameter dimension.  Every cell
is a :class:`ScenarioSpec`, and ``Workload.build(spec)`` is the one
place it becomes a simulation; a custom task is a registered workload
implementing ``task(num_honest, seed)``.

Quickstart::

    from repro.engine import ScenarioGrid, run_grid

    grid = ScenarioGrid(
        seeds=(0, 1, 2),
        workloads=(
            ("quadratic", {"dimension": 50, "sigma": 0.2}),
            ("logistic-spambase", {"num_train": 256, "batch_size": 16}),
        ),
        attacks=(("gaussian", {"sigma": 200.0}), ("omniscient", {})),
        aggregators=(("krum", {}), ("average", {})),
        f_values=(0, 3),
        num_workers=15, num_rounds=40,
    )
    result = run_grid(grid, mode="batched")
    for label, history in result.histories.items():
        print(label, history.final_loss)

``run_grid(grid, mode="loop")`` executes the same cells one simulation
at a time, each through its own rule — same histories, more wall time —
which is what ``benchmarks/bench_engine_grid.py`` times against the
batched mode.
"""

from repro.engine.grid import ScenarioGrid, ScenarioSpec
from repro.engine.runner import GridResult, build_scenario_simulation, run_grid
from repro.engine.simulation import BatchedSimulation
from repro.engine.workloads import (
    DatasetWorkload,
    LogisticSpambaseWorkload,
    MlpMnistWorkload,
    QuadraticWorkload,
    SoftmaxMnistWorkload,
    Task,
    Workload,
    available_workloads,
    make_workload,
    register_workload,
    workload_factory,
)

__all__ = [
    "ScenarioGrid",
    "ScenarioSpec",
    "BatchedSimulation",
    "GridResult",
    "build_scenario_simulation",
    "run_grid",
    "Task",
    "Workload",
    "QuadraticWorkload",
    "DatasetWorkload",
    "LogisticSpambaseWorkload",
    "SoftmaxMnistWorkload",
    "MlpMnistWorkload",
    "register_workload",
    "available_workloads",
    "workload_factory",
    "make_workload",
]
