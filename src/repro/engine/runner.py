"""Materialize and execute scenario grids.

``run_grid(grid, mode="batched")`` takes the
:class:`~repro.engine.grid.ScenarioSpec` cells a
:class:`~repro.engine.grid.ScenarioGrid` built at declaration, builds
each through its workload's
:meth:`~repro.engine.workloads.Workload.build` (the workload is
resolved through the registry of :mod:`repro.engine.workloads`), and
executes them either

* ``mode="loop"`` — each cell through its own
  :meth:`~repro.distributed.TrainingSimulation.run`: the round stages
  at batch size one, aggregating through the cell's own rule, or
* ``mode="batched"`` — cells stacked into ``(B, n, d)`` tensors by
  :class:`~repro.engine.simulation.BatchedSimulation`, one batch per
  parameter dimension (so a grid mixing, say, the quadratic bowl with
  an MNIST MLP still batches — per workload dimension), aggregating
  rule groups through native kernels.

Gossip cells run on their own :class:`~repro.topology.GossipSimulation`
in both modes.  The modes differ only in the aggregate stage, so they
produce identical :class:`~repro.distributed.TrainingHistory` objects
(bit-for-bit — see ``tests/engine/test_differential.py``); the batched
mode is meant to be faster, which ``benchmarks/bench_engine_grid.py``
times.

A dataset experiment is a grid on a dataset workload: the aggregator
axis compares rules on the same honest gradients (every cell of a seed
shares them) and ``eval_every`` sets the evaluation cadence.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.distributed.metrics import TrainingHistory
from repro.distributed.simulator import TrainingSimulation
from repro.engine.grid import ScenarioGrid, ScenarioSpec
from repro.engine.simulation import BatchedSimulation
from repro.engine.workloads import Workload, make_workload, workload_key
from repro.exceptions import ConfigurationError
from repro.topology.gossip import GossipSimulation
from repro.utils.validation import check_positive_int

__all__ = [
    "GridResult",
    "build_scenario_simulation",
    "run_grid",
]


@dataclass(frozen=True)
class GridResult:
    """Outcome of one grid execution.

    ``histories`` and ``final_params`` are keyed by each cell's
    :attr:`~repro.engine.grid.ScenarioSpec.label`; ``wall_time`` is the
    execution time of the round loops only (materialization excluded),
    which is what the engine benchmark compares across modes.
    ``native_fraction`` is the fraction of cells aggregated by vectorized
    kernels (``None`` in loop mode, where the question does not arise) —
    the engine tests and benchmark check it, so a rule silently
    regressing to the per-scenario fallback fails them.
    """

    mode: str
    specs: tuple[ScenarioSpec, ...]
    histories: dict[str, TrainingHistory]
    final_params: dict[str, np.ndarray]
    wall_time: float
    native_fraction: float | None = None

    def __len__(self) -> int:
        return len(self.specs)

    def history(self, label: str) -> TrainingHistory:
        return self.histories[label]


def build_scenario_simulation(
    spec: ScenarioSpec, *, workload: Workload | None = None
) -> TrainingSimulation | GossipSimulation:
    """Build one cell's simulation on its workload (see
    :meth:`~repro.engine.workloads.Workload.build`).

    ``workload`` lets callers share one workload object across cells
    (datasets and models are materialized once per workload instance);
    when omitted, the spec's workload is resolved through the registry.
    """
    return (workload or make_workload(spec.workload, spec.workload_kwargs)).build(spec)


def run_grid(
    grid: ScenarioGrid,
    *,
    mode: str = "batched",
    eval_every: int = 10,
) -> GridResult:
    """Execute every cell of ``grid``."""
    if mode not in ("batched", "loop"):
        raise ConfigurationError(
            f"mode must be 'batched' or 'loop', got {mode!r}"
        )
    check_positive_int(eval_every, "eval_every")
    # The grid built, validated and de-duplicated its cells at declaration.
    specs = grid.scenarios()
    labels = [spec.label for spec in specs]

    # One workload object per distinct (name, kwargs) spec: datasets and
    # models materialize once and are shared by every cell that names
    # them — in both execution modes, so the trajectories stay identical.
    workloads: dict[tuple, Workload] = {}

    def cell_workload(spec: ScenarioSpec) -> Workload:
        key = workload_key(spec.workload, spec.workload_kwargs)
        if key not in workloads:
            workloads[key] = make_workload(spec.workload, spec.workload_kwargs)
        return workloads[key]

    native_fraction = None
    if mode == "loop":
        # Cells run one at a time, so materialize them one at a time —
        # a dataset-backed grid then holds one cell's shard copies at
        # once instead of all cells'.  Only the round loops are timed,
        # matching the batched branch's wall_time semantics.
        histories = []
        finals = []
        wall_time = 0.0
        for spec in specs:
            sim = cell_workload(spec).build(spec)
            start = perf_counter()
            histories.append(sim.run(grid.num_rounds, eval_every=eval_every))
            wall_time += perf_counter() - start
            finals.append(sim.params)
    else:
        # Gossip cells run per-scenario through their own engine in both
        # modes (identical trajectories by construction); only the
        # server-path cells stack into (B, n, d) tensors.  Gossip cells
        # count toward the native_fraction denominator with weight 0,
        # so a grid silently routing everything through the gossip
        # engine shows up in the benchmark's native fraction.
        simulations = {
            index: cell_workload(spec).build(spec)
            for index, spec in enumerate(specs)
        }
        # Cells sharing a parameter dimension batch together (the
        # executor requires a rectangular (B, n, d) tensor); a
        # mixed-workload grid runs one batch per dimension group.
        groups: dict[int, list[int]] = {}
        for index, spec in enumerate(specs):
            if not spec.is_gossip:
                dim = cell_workload(spec).dimension
                groups.setdefault(dim, []).append(index)
        histories = [None] * len(specs)  # type: ignore[list-item]
        finals = [None] * len(specs)  # type: ignore[list-item]
        native_cells = 0.0
        start = perf_counter()
        for indices in groups.values():
            batched = BatchedSimulation([simulations[i] for i in indices])
            native_cells += batched.native_fraction * len(indices)
            group_histories = batched.run(
                grid.num_rounds, eval_every=eval_every
            )
            group_params = batched.params
            for offset, index in enumerate(indices):
                histories[index] = group_histories[offset]
                finals[index] = group_params[offset]
        for index, spec in enumerate(specs):
            if spec.is_gossip:
                gossip_sim = simulations[index]
                histories[index] = gossip_sim.run(
                    grid.num_rounds, eval_every=eval_every
                )
                finals[index] = gossip_sim.params
        native_fraction = native_cells / len(specs)
        wall_time = perf_counter() - start

    return GridResult(
        mode=mode,
        specs=tuple(specs),
        histories=dict(zip(labels, histories)),
        final_params=dict(zip(labels, finals)),
        wall_time=wall_time,
        native_fraction=native_fraction,
    )
