"""The stacked mini-batch fill equals per-worker estimates bit for bit.

``BatchedSimulation`` draws every mini-batch worker's indices in worker
order, then computes the workers of a cell that read one parameter
snapshot with one ``stacked_gradient`` call.  Each ``mlp-mnist`` grid
below runs three ways, and every cell must agree record for record,
float for float:

* the stacked fill (``run_grid``, batched and loop executors);
* the same executor with stacking switched off, so every worker calls
  its own ``estimate``;
* the frozen message-passing round of
  ``tests/distributed/server_reference.py``.

The grids cover f = 0, a ``label-shard`` partition (shards of unequal
sizes) and bounded staleness, where workers reading different history
rows form several stacks per cell-round.
"""

from __future__ import annotations

import pytest

import repro.engine.simulation as simulation_module
from repro.engine import ScenarioGrid, run_grid
from repro.models.mlp import MLPClassifier
from tests.distributed.identity import assert_identical
from tests.distributed.server_reference import assert_matches_reference

MNIST = {"num_train": 96, "num_eval": 48, "batch_size": 8, "hidden_sizes": (16,)}
EVAL_EVERY = 2

GRIDS = {
    "sync-iid": dict(f_values=(0, 2)),
    "label-shard": dict(
        f_values=(0, 2),
        workload_kwargs=dict(MNIST, partition="label-shard"),
    ),
    "async": dict(
        f_values=(0, 2),
        max_staleness_values=(2,),
        delay_schedule="random",
        delay_kwargs={"max_delay": 3},
    ),
}


def _grid(name: str) -> ScenarioGrid:
    kwargs = dict(
        seeds=(0,),
        attacks=(("sign-flip", {"scale": 5.0}),),
        aggregators=(("krum", {}), ("coordinate-median", {})),
        num_workers=7,
        workload="mlp-mnist",
        workload_kwargs=MNIST,
        num_rounds=5,
        learning_rate=0.05,
        lr_timescale=None,
    )
    kwargs.update(GRIDS[name])
    return ScenarioGrid(**kwargs)


class _NeverStacked:
    """Stands in for ``MinibatchEstimator`` in the executor's type check,
    so every worker computes its own ``estimate``."""


@pytest.fixture
def stack_sizes(monkeypatch):
    """The ``k`` of every ``MLPClassifier.stacked_gradient`` call."""
    sizes: list[int] = []
    original = MLPClassifier.stacked_gradient

    def spy(self, params, inputs, targets):
        sizes.append(len(inputs))
        return original(self, params, inputs, targets)

    monkeypatch.setattr(MLPClassifier, "stacked_gradient", spy)
    return sizes


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_stacked_fill_matches_per_worker_and_reference(
    name, monkeypatch, stack_sizes
):
    grid = _grid(name)
    stacked = run_grid(grid, mode="batched", eval_every=EVAL_EVERY)
    loop = run_grid(grid, mode="loop", eval_every=EVAL_EVERY)
    honest = sum(7 - spec.num_byzantine for spec in grid.scenarios())
    # Both executors went through the stacks, one worker per row.
    assert sum(stack_sizes) == 2 * grid.num_rounds * honest
    if name == "async":
        assert len(stack_sizes) > 2 * grid.num_rounds * len(grid)
    else:
        assert len(stack_sizes) == 2 * grid.num_rounds * len(grid)

    monkeypatch.setattr(simulation_module, "MinibatchEstimator", _NeverStacked)
    count = len(stack_sizes)
    per_worker = run_grid(grid, mode="batched", eval_every=EVAL_EVERY)
    assert len(stack_sizes) == count

    assert_identical(stacked, per_worker)
    assert_identical(stacked, loop)
    assert_matches_reference(stacked, grid, eval_every=EVAL_EVERY)
