"""Experiment harness: task builders, the CLI and ASCII reporting.

The benches in ``benchmarks/`` and the scripts in ``examples/`` assemble
their simulations through this package, so every figure of the paper is
regenerated from the same code path.  :mod:`repro.experiments.builders`
holds the task builders the engine's workloads share
(:func:`quadratic_task`, :func:`dataset_task`) and the one-call
simulation builders on top of them; a multi-cell experiment — several
rules, attacks or seeds on one workload — is a
:class:`~repro.engine.ScenarioGrid` run by :func:`~repro.engine.run_grid`.
"""

from repro.experiments.builders import (
    Task,
    build_dataset_simulation,
    build_quadratic_simulation,
    dataset_task,
    model_evaluator,
    quadratic_evaluator,
    quadratic_task,
)
from repro.experiments.reporting import format_series, format_table

__all__ = [
    "Task",
    "quadratic_task",
    "dataset_task",
    "build_quadratic_simulation",
    "build_dataset_simulation",
    "quadratic_evaluator",
    "model_evaluator",
    "format_table",
    "format_series",
]
