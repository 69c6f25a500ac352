"""Bit-for-bit identity of two grid runs: the executors' differential bar.

Two runs are identical when every cell has the same final parameters
byte for byte and the same round records field for field, ``extras``
(``dist_to_opt``, the gossip consensus metrics) included.  Floats
compare by their bytes, so a NaN equals the same NaN and ``0.0`` does
not equal ``-0.0``.  The tier-1 differential tests and
``benchmarks/bench_engine_grid.py`` all compare through this module.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.distributed.metrics import RoundRecord
from repro.engine import ScenarioGrid, run_grid

__all__ = [
    "assert_cell_identical",
    "assert_identical",
    "assert_loop_equals_batched",
    "bitwise_equal",
    "records_equal",
]


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Exact equality including NaN payloads and signed zeros."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _bits(value):
    if isinstance(value, float):
        return np.float64(value).tobytes()
    if isinstance(value, dict):
        return {key: _bits(item) for key, item in value.items()}
    return value


def records_equal(ra: RoundRecord, rb: RoundRecord) -> bool:
    """Every :class:`RoundRecord` field equal, floats bit for bit."""
    return all(
        _bits(getattr(ra, field.name)) == _bits(getattr(rb, field.name))
        for field in dataclasses.fields(RoundRecord)
    )


def assert_cell_identical(result_a, label_a, result_b, label_b=None) -> None:
    """One cell's final parameters and round records, bit for bit."""
    label_b = label_a if label_b is None else label_b
    assert bitwise_equal(
        result_a.final_params[label_a], result_b.final_params[label_b]
    ), f"final parameters diverged for {label_a}"
    records_a = result_a.histories[label_a].records
    records_b = result_b.histories[label_b].records
    assert len(records_a) == len(records_b), f"history length for {label_a}"
    for ra, rb in zip(records_a, records_b):
        assert records_equal(ra, rb), (
            f"round {ra.round_index} diverged for {label_a}: {ra} != {rb}"
        )


def assert_identical(result_a, result_b, *, by_position=False) -> None:
    """Every cell of two runs identical.  The runs must have the same
    labels in the same order; ``by_position`` pairs the cells in grid
    order instead, for two grids whose labels differ."""
    labels_a = [spec.label for spec in result_a.specs]
    labels_b = [spec.label for spec in result_b.specs]
    if by_position:
        assert len(labels_a) == len(labels_b)
    else:
        assert labels_a == labels_b
    for label_a, label_b in zip(labels_a, labels_b):
        assert_cell_identical(result_a, label_a, result_b, label_b)


def assert_loop_equals_batched(grid: ScenarioGrid, *, eval_every: int):
    """Run ``grid`` through both executors and assert they are identical.
    Returns the ``(loop, batched)`` results.
    """
    loop = run_grid(grid, mode="loop", eval_every=eval_every)
    batched = run_grid(grid, mode="batched", eval_every=eval_every)
    assert_identical(loop, batched)
    return loop, batched
