"""Non-finite proposals: every executor handles them identically.

One matrix over six rules, the three non-finite values a Byzantine
worker can send and the ``halt_on_nonfinite`` guard on and off.  For
each case the loop executor (``sim.run``), ``BatchedSimulation``, the
complete-graph ``GossipSimulation`` and the frozen reference round of
``tests/distributed/server_reference.py`` must agree: the same records
(by ``repr``, so NaN fields compare equal), or the same exception type
at the same round, where gossip's message also names the node.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.attacks.simple import NonFiniteAttack
from repro.core.registry import make_aggregator
from repro.distributed.metrics import TrainingHistory
from repro.distributed.schedules import ConstantSchedule
from repro.distributed.simulator import TrainingSimulation
from repro.engine import BatchedSimulation
from repro.exceptions import ConvergenceError, ReproError, SimulationError
from repro.gradients.oracle import GaussianOracleEstimator
from repro.topology import GossipSimulation
from tests.distributed.server_reference import reference_run

DIMENSION = 6
NUM_WORKERS = 10
NUM_BYZANTINE = 2
ROUNDS = 4

RULES = [
    {"name": "average"},
    {"name": "krum", "f": NUM_BYZANTINE},
    {"name": "multi-krum", "f": NUM_BYZANTINE, "m": 3},
    {"name": "coordinate-median"},
    {"name": "geometric-median"},
    {"name": "closest-to-all"},
]
VALUES = [float("nan"), float("inf"), float("-inf")]
CONSENSUS_KEYS = ("consensus_error", "disagreement")


def gradient_fn(x: np.ndarray) -> np.ndarray:
    return x


def cell_kwargs(rule: dict, value: float, halt: bool) -> dict:
    """One cell's keyword arguments, freshly built."""
    return dict(
        aggregator=make_aggregator(**rule),
        schedule=ConstantSchedule(0.05),
        honest_estimators=[
            GaussianOracleEstimator(gradient_fn, DIMENSION, 0.5)
            for _ in range(NUM_WORKERS - NUM_BYZANTINE)
        ],
        initial_params=np.ones(DIMENSION),
        num_byzantine=NUM_BYZANTINE,
        attack=NonFiniteAttack(value),
        true_gradient_fn=gradient_fn,
        halt_on_nonfinite=halt,
        seed=17,
    )


def outcome(step) -> tuple[list[str], type | None, str | None]:
    """Run ``step`` (one round, returning its record) ``ROUNDS`` times:
    the record reprs, then the exception type and message, if any."""
    records = []
    try:
        for _ in range(ROUNDS):
            records.append(repr(step()))
    except ReproError as exc:
        return records, type(exc), str(exc)
    return records, None, None


def reference_outcome(kwargs: dict):
    history = TrainingHistory()
    try:
        reference_run(
            TrainingSimulation(**kwargs), ROUNDS, eval_every=1, history=history
        )
    except ReproError as exc:
        return [repr(r) for r in history], type(exc), str(exc)
    return [repr(r) for r in history], None, None


def without_consensus(record):
    extras = {k: v for k, v in record.extras.items() if k not in CONSENSUS_KEYS}
    return replace(record, extras=extras)


# The gossip disagreement metric subtracts infinite rows.
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("halt", [True, False], ids=["halt", "no-halt"])
@pytest.mark.parametrize("value", VALUES, ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("rule", RULES, ids=lambda r: r["name"])
def test_every_executor_agrees(rule, value, halt):
    def build(cls=TrainingSimulation, **extra):
        return cls(**cell_kwargs(rule, value, halt), **extra)

    loop = build()
    batched = BatchedSimulation([build()])
    gossip = build(GossipSimulation, topology="complete")
    outcomes = {
        "loop": outcome(lambda: loop.run(1, eval_every=1)[0]),
        "batched": outcome(lambda: batched.run(1, eval_every=1)[0][0]),
        "gossip": outcome(
            lambda: without_consensus(gossip.run(1, eval_every=1)[0])
        ),
        "reference": reference_outcome(cell_kwargs(rule, value, halt)),
    }
    records, error, message = outcomes["reference"]
    for name, (got_records, got_error, got_message) in outcomes.items():
        assert got_records == records, name
        assert got_error is error, name
        if name == "gossip" and error is SimulationError:
            node = f"parameters of node {gossip.reference_node}"
            assert got_message == message.replace("parameters", node, 1)
        else:
            assert got_message == message, name
    if halt and rule["name"] == "average":
        # One non-finite proposal poisons the mean at round 0.
        assert error is SimulationError and records == []
    if not halt and error is None:
        assert len(records) == ROUNDS


@pytest.mark.parametrize("halt", [True, False], ids=["halt", "no-halt"])
def test_geometric_median_on_nan_raises_convergence_error(halt):
    """Weiszfeld never converges on NaN proposals: every executor raises
    ``ConvergenceError`` at round 0, with or without the halt."""
    rule = {"name": "geometric-median"}
    records, error, _ = reference_outcome(cell_kwargs(rule, float("nan"), halt))
    assert (records, error) == ([], ConvergenceError)
    sim = TrainingSimulation(**cell_kwargs(rule, float("nan"), halt))
    with pytest.raises(ConvergenceError):
        sim.run(1)
