"""The view, propose and craft stages run once per round for all cells.

One differential grid mixes every attack with a batched craft (the
stateful Lipschitz-mimicry craft among them), a cell whose attack
generator a worker also holds (it must craft on its own), and
synchronous, asynchronous and server-tier cells under all three server
attacks.  The batched
executor, the loop executor and the frozen reference round of
``tests/distributed/server_reference.py`` must agree record for record
and on the final parameters bit for bit.

The other tests pin the pieces: the gradient window's fill against each
worker's own ``estimate``, a craft raising in a middle cell, the
evaluation's true gradient handed to the next round's craft, the honest
rows a fallback-only read leaves ungathered, and the benchmark's
``async-tier`` grid across executors.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.engine.simulation as simulation_module
from benchmarks.suite.workloads import grid_kwargs
from repro.attacks.random_noise import GaussianAttack
from repro.core.registry import AGGREGATORS
from repro.engine import BatchedSimulation, ScenarioGrid
from repro.engine.grid import ScenarioSpec
from repro.engine.workloads import make_workload, workload_key
from repro.exceptions import SimulationError
from tests.distributed.identity import assert_loop_equals_batched, records_equal
from tests.distributed.server_reference import reference_run

ROUNDS = 6
EVAL_EVERY = 2
SPAMBASE = {"num_train": 64, "num_eval": 32, "batch_size": 8}
#: The quadratic cells take the dataset workload's dimension, so both
#: kinds of cell run in one batch.
DIMENSION = make_workload("logistic-spambase", SPAMBASE).dimension
QUADRATIC = {"dimension": DIMENSION, "sigma": 0.5}

ATTACKS = [
    ("gaussian", {"sigma": 30.0}),
    ("sign-flip", {"scale": 4.0}),
    ("omniscient", {"scale": 3.0}),
    ("omniscient", {"compensate_average": True}),
    ("crash", {}),
    ("non-finite", {}),
    ("little-is-enough", {}),
    ("inner-product", {}),
    ("staleness-gaming", {}),
    ("lipschitz-mimicry", {}),
]
ASYNC = {
    "max_staleness": 2,
    "delay_schedule": "random",
    "delay_kwargs": {"max_delay": 3},
}
MODES = [
    {},
    ASYNC,
    {"num_servers": 3, "byzantine_servers": 1, "server_attack": "sign-flip-broadcast"},
    {
        "num_servers": 3,
        "byzantine_servers": 1,
        "server_attack": "stale-replay-broadcast",
        "server_attack_kwargs": {"delay": 2},
        **ASYNC,
    },
    {
        "num_servers": 4,
        "byzantine_servers": 1,
        "server_attack": "random-noise-broadcast",
    },
]


def _specs() -> list[ScenarioSpec]:
    specs = []
    for i, ((attack, kwargs), mode) in enumerate(
        (a, m) for a in ATTACKS for m in MODES
    ):
        if attack == "non-finite":
            rule = ("krum", {})
        elif "max_staleness" in mode:
            rule = ("kardam", {"inner": ("krum", "coordinate-median")[i % 2]})
        else:
            rule = (("krum", {}), ("coordinate-median", {}))[i % 2]
        f = 1 + i % 2
        if AGGREGATORS.accepts(rule[0], "f"):
            rule = (rule[0], {**rule[1], "f": f})
        specs.append(
            ScenarioSpec(
                seed=i % 3,
                aggregator=rule[0],
                aggregator_kwargs=rule[1],
                attack=attack,
                attack_kwargs=kwargs,
                num_workers=9,
                num_byzantine=f,
                workload_kwargs=QUADRATIC,
                byzantine_slots=("last", "first")[(i // 2) % 2],
                **mode,
            )
        )
    # Mini-batch cells: the true gradient is a full-train-set pass.
    for attack, mode in [
        ("sign-flip", {}),
        ("sign-flip", MODES[2]),
        ("lipschitz-mimicry", {}),
        ("gaussian", ASYNC),
    ]:
        specs.append(
            ScenarioSpec(
                seed=1,
                aggregator="coordinate-median",
                attack=attack,
                num_workers=9,
                num_byzantine=2,
                workload="logistic-spambase",
                workload_kwargs=SPAMBASE,
                **mode,
            )
        )
    return specs


def _build() -> list:
    """Fresh simulations of every cell, one workload object per kind,
    and one more cell whose first worker holds the attack generator."""
    workloads: dict = {}

    def build(spec):
        key = workload_key(spec.workload, spec.workload_kwargs)
        if key not in workloads:
            workloads[key] = make_workload(spec.workload, spec.workload_kwargs)
        return workloads[key].build(spec)

    specs = _specs()
    sims = [build(spec) for spec in specs]
    shared = build(dataclasses.replace(specs[0], seed=2))
    shared.honest_workers[0] = dataclasses.replace(
        shared.honest_workers[0], rng=shared.attack_rng
    )
    sims.insert(len(sims) // 2, shared)
    return sims


def _assert_histories(got, want) -> None:
    assert len(got.records) == len(want.records)
    for ra, rb in zip(got.records, want.records):
        assert records_equal(ra, rb), f"{ra} != {rb}"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_batched_equals_loop_equals_reference():
    sims = _build()
    executor = BatchedSimulation(sims)
    # The grid takes every batched path and every fallback.
    solo = {
        type(executor._scenarios[slot].simulation.attack).__name__
        for slot in executor._solo_crafts
    }
    assert solo == {"GaussianAttack"}
    assert any(group.attacks for group in executor._craft_groups)
    assert len(executor._craft_groups) >= len(ATTACKS) - 1
    assert any(tier.batched for tier in executor._tiers)
    assert len(executor._solo_views) == 2 * len(ATTACKS)
    assert executor._oracle_blocks and executor._gradients is not None
    batched = executor.run(ROUNDS, eval_every=EVAL_EVERY)
    finals = executor.params

    loops = _build()
    references = _build()
    for index, (loop, reference) in enumerate(zip(loops, references)):
        loop_history = loop.run(ROUNDS, eval_every=EVAL_EVERY)
        reference_history, reference_params = reference_run(
            reference, ROUNDS, eval_every=EVAL_EVERY
        )
        _assert_histories(batched[index], loop_history)
        assert [repr(r) for r in batched[index]] == [
            repr(r) for r in reference_history
        ], index
        assert finals[index].tobytes() == loop.params.tobytes(), index
        assert finals[index].tobytes() == reference_params.tobytes(), index


def test_window_fill_equals_per_worker_estimates(monkeypatch):
    """With no shared oracle every worker calls its own ``estimate`` on
    the snapshot it reads; the gradient window and the shared draws
    give the same proposals."""
    window = BatchedSimulation(_build()).run(ROUNDS, eval_every=EVAL_EVERY)
    monkeypatch.setattr(simulation_module, "shared_gradient_fn", lambda _: None)
    executor = BatchedSimulation(_build())
    assert executor._gradients is None
    per_worker = executor.run(ROUNDS, eval_every=EVAL_EVERY)
    for got, want in zip(window, per_worker):
        _assert_histories(got, want)


class _Raising(GaussianAttack):
    """The Gaussian attack, raising in its craft at ``at_round`` (a
    subclass, so it crafts on its own)."""

    def __init__(self, at_round: int):
        super().__init__(sigma=30.0)
        self.at_round = at_round

    def craft(self, context):
        if context.round_index == self.at_round:
            raise SimulationError(f"craft failed at round {context.round_index}")
        return super().craft(context)


def _outcome(step, rounds: int):
    """Up to ``rounds`` results of ``step``, and the error that stopped
    it, if any."""
    results = []
    try:
        for _ in range(rounds):
            results.append(step())
    except SimulationError as exc:
        return results, str(exc)
    return results, None


def test_raising_craft_in_a_middle_cell():
    """A middle cell's craft raising in round 2 surfaces the same error
    at the same round as that cell's own loop, after the same records
    of every cell."""
    specs = [
        ScenarioSpec(
            seed=seed,
            aggregator="krum",
            aggregator_kwargs={"f": 2},
            attack="gaussian",
            attack_kwargs={"sigma": 30.0},
            num_workers=9,
            num_byzantine=2,
            workload_kwargs=QUADRATIC,
        )
        for seed in range(3)
    ]
    workload = make_workload("quadratic", QUADRATIC)

    def build():
        sims = [workload.build(spec) for spec in specs]
        sims[1].attack = _Raising(2)
        return sims

    executor = BatchedSimulation(build())
    assert executor._solo_crafts == [1] and len(executor._craft_groups) == 1
    rounds, error = _outcome(executor.run_round, 4)
    assert error == "craft failed at round 2" and len(rounds) == 2
    for cell, sim in enumerate(build()):
        records, loop_error = _outcome(sim.run_round, 4)
        assert loop_error == (error if cell == 1 else None)
        for batched_round, record in zip(rounds, records):
            assert records_equal(batched_round[cell], record)


def test_evaluation_gradient_feeds_the_next_craft():
    """A mini-batch cell's evaluation takes ∇Q of the canonical row the
    next round's craft reads, so the craft reuses it; a tier cell's
    craft reads the view and computes its own."""
    calls: list[str] = []
    sims = _build()[-4:-2]  # the sync and the tier sign-flip cells
    for name, sim in zip(("plain", "tier"), sims):
        fn = sim.true_gradient_fn

        def counted(params, fn=fn, name=name):
            calls.append(name)
            return fn(params)

        sim.true_gradient_fn = counted
    BatchedSimulation(sims).run(4, eval_every=1)
    # Four evaluations each; only round 0's craft computes for the
    # plain cell, every round's craft for the tier cell.
    assert calls.count("plain") == 4 + 1
    assert calls.count("tier") == 4 + 4


def _sign_flip_spec(**kwargs) -> ScenarioSpec:
    return ScenarioSpec(
        seed=0,
        aggregator="coordinate-median",
        attack="sign-flip",
        num_workers=9,
        num_byzantine=2,
        workload_kwargs=QUADRATIC,
        **kwargs,
    )


@pytest.mark.parametrize("hidden", [False, True], ids=["oracle", "hidden"])
def test_fallback_reads_are_gathered_only_without_the_true_gradient(
    monkeypatch, hidden
):
    """Sign-flip reads the honest rows only when the true gradient is
    hidden, so no executor gathers them while it passes the gradient:
    the batched, loop and gossip executors, and a per-cell craft."""
    from repro.attacks.simple import SignFlipAttack

    seen: list[bool] = []
    batch_craft, craft = SignFlipAttack.craft_batch, SignFlipAttack.craft

    def recording_batch(self, batch):
        seen.append(batch.honest_gradients is not None)
        return batch_craft(self, batch)

    def recording(self, context):
        seen.append(context.honest_gradients is not None)
        return craft(self, context)

    monkeypatch.setattr(SignFlipAttack, "craft_batch", recording_batch)
    monkeypatch.setattr(SignFlipAttack, "craft", recording)

    class PerCell(SignFlipAttack):
        reads = SignFlipAttack.reads
        fallback_reads = SignFlipAttack.fallback_reads

        def craft(self, context):
            return recording(self, context)

    workload = make_workload("quadratic", QUADRATIC)

    def build(spec):
        sim = workload.build(spec)
        if hidden:
            sim.true_gradient_fn = None
        return sim

    sims = [build(_sign_flip_spec()) for _ in range(2)]
    sims[1].attack = PerCell()
    BatchedSimulation(sims).run(2)
    build(_sign_flip_spec()).run(2)
    build(_sign_flip_spec(topology="ring", degree=4)).run(2)
    assert len(seen) == 8 and set(seen) == {hidden}


@pytest.mark.parametrize("seed", [0, 1])
def test_async_tier_smoke_grid_batched_equals_loop(seed):
    """The benchmark's ``async-tier`` grid, whose Lipschitz-mimicry and
    staleness-gaming cells craft in batches: all 48 cells agree across
    executors, records and final parameters bit for bit."""
    grid = ScenarioGrid(**grid_kwargs("async-tier", seed, smoke=True))
    assert len(grid) == 48
    assert_loop_equals_batched(grid, eval_every=10)
