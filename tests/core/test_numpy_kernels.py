"""The batched kernels are plain float64 numpy programs.

Every native kernel stages its input with ``np.asarray(..., dtype=
np.float64)``: a float32 or integer batch aggregates exactly as its
float64 cast does, and the result is float64.  The batch axis is split
into chunks of the module constant :data:`repro.utils.linalg.CHUNK_SIZE`
(default: the whole batch), and no chunk size changes a single bit.  A
kernel call leaves its input untouched and keeps no state between calls.
The removed ``backend=`` and ``chunk_size=`` options stay removed.
"""

from __future__ import annotations

import dataclasses
import inspect

import numpy as np
import pytest

from repro.baselines.average import Average
from repro.baselines.distance_based import ClosestToAll
from repro.baselines.medians import (
    CoordinateWiseMedian,
    GeometricMedian,
    TrimmedMean,
    batched_weiszfeld,
)
from repro.core.batched import (
    batched_krum_scores,
    batched_trimmed_mean,
    make_batched_aggregator,
)
from repro.core.bulyan import Bulyan, batched_bulyan
from repro.core.krum import Krum, MultiKrum
from repro.core.staleness import KardamFilter
from repro.engine import BatchedSimulation, GridResult, ScenarioGrid, run_grid
from repro.engine.runner import build_scenario_simulation
from repro.experiments.cli import build_parser
from repro.utils import linalg
from repro.utils.linalg import (
    batch_chunk_size,
    batched_pairwise_sq_distances,
    masked_coordinate_median,
    masked_krum_scores,
    pairwise_sq_distances,
)

# One rule instance per registered native kernel, sized for n = 11.
NATIVE_RULES = [
    Krum(f=2),
    MultiKrum(f=2, m=3),
    Average(),
    CoordinateWiseMedian(),
    TrimmedMean(f=2),
    ClosestToAll(),
    Bulyan(f=2),
    GeometricMedian(),
    KardamFilter(Krum(f=2)),
]


def reference_batch(seed: int = 7, batch: int = 6, n: int = 11, d: int = 13):
    """A randomized batch with the adversarial corners mixed in."""
    rng = np.random.default_rng(seed)
    stacks = rng.standard_normal((batch, n, d))
    stacks[1, 3] = stacks[1, 0]  # exact duplicates (tie-break paths)
    stacks[2, -1] = np.nan  # non-finite Byzantine row
    stacks[3, -1] = 1e8  # far outlier
    stacks[4] = 1.5  # fully coincident cloud (Weiszfeld singularity)
    return stacks


def rule_batch(rule, seed: int = 7) -> np.ndarray:
    """The reference batch, definite-valued for rules that refuse
    non-finite rows: Weiszfeld never converges on NaN proposals, so the
    geometric median gets a finite outlier in place of the NaN row."""
    stacks = reference_batch(seed)
    if isinstance(rule, GeometricMedian):
        stacks[2, -1] = -3e4
    return stacks


def aggregate(rule, stacks):
    """One adapter call; Kardam's also dampens a stale staleness block
    (cell 0 stays all fresh, the skip-the-multiply path)."""
    adapter = make_batched_aggregator(rule)
    if isinstance(rule, KardamFilter):
        batch, n = np.shape(stacks)[:2]
        staleness = np.arange(batch * n).reshape(batch, n) % 3
        staleness[0] = 0
        return adapter.aggregate_batch(stacks, staleness=staleness)
    return adapter.aggregate_batch(stacks)


def bitwise_equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_same_result(left, right):
    assert bitwise_equal(left.vectors, right.vectors)
    assert len(left.selected) == len(right.selected)
    for mine, theirs in zip(left.selected, right.selected):
        assert bitwise_equal(mine, theirs)
    if left.scores is None:
        assert right.scores is None
    else:
        assert bitwise_equal(left.scores, right.scores)


rule_ids = pytest.mark.parametrize("rule", NATIVE_RULES, ids=lambda r: r.name)


class TestFloat64Staging:
    @rule_ids
    def test_float32_input_aggregates_as_its_float64_cast(self, rule):
        narrow = rule_batch(rule).astype(np.float32)
        from_narrow = aggregate(rule, narrow)
        assert np.asarray(from_narrow.vectors).dtype == np.float64
        assert_same_result(from_narrow, aggregate(rule, narrow.astype(np.float64)))

    @rule_ids
    def test_integer_input_aggregates_as_its_float64_cast(self, rule):
        whole = np.random.default_rng(3).integers(-50, 51, size=(4, 11, 7))
        from_ints = aggregate(rule, whole)
        assert np.asarray(from_ints.vectors).dtype == np.float64
        assert_same_result(from_ints, aggregate(rule, whole.astype(np.float64)))


def _all_but_last(stacks):
    active = np.ones(stacks.shape[:2], dtype=bool)
    active[:, -1] = False
    return active


# Each primitive as a callable of a (B, n, d) batch; the float32 cast
# goes to the array the primitive reads.
PRIMITIVES = {
    "batched_pairwise_sq_distances": lambda s: batched_pairwise_sq_distances(
        s, nonfinite_as_inf=True
    ),
    "pairwise_sq_distances": lambda s: pairwise_sq_distances(
        s[0], nonfinite_as_inf=True
    ),
    "batched_krum_scores": lambda s: batched_krum_scores(s, 2),
    "batched_trimmed_mean": lambda s: batched_trimmed_mean(s, 2),
    "masked_krum_scores": lambda s: masked_krum_scores(
        s[0], _all_but_last(s[0]), 3
    ),
    "masked_coordinate_median": lambda s: masked_coordinate_median(
        s, _all_but_last(s)
    ),
    "batched_bulyan": lambda s: batched_bulyan(s, 2)[0],
    "batched_weiszfeld": batched_weiszfeld,
}


def primitive_input(name: str) -> np.ndarray:
    stacks = reference_batch(seed=5)
    stacks[2, -1] = 0.25  # Weiszfeld never converges on NaN rows
    if name == "masked_krum_scores":
        # Its input is a distance block, not a batch of proposals.
        return batched_pairwise_sq_distances(stacks, nonfinite_as_inf=True)[None]
    return stacks


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_primitive_stages_float32_as_float64(name):
    kernel = PRIMITIVES[name]
    narrow = primitive_input(name).astype(np.float32)
    result = kernel(narrow)
    assert np.asarray(result).dtype == np.float64
    assert bitwise_equal(result, kernel(narrow.astype(np.float64)))


class TestChunkConstant:
    def test_default_is_the_whole_batch(self):
        assert linalg.CHUNK_SIZE is None
        assert batch_chunk_size(7) == 7

    def test_empty_batch_still_gets_a_positive_chunk(self):
        assert batch_chunk_size(0) == 1

    def test_set_constant_is_the_chunk(self, monkeypatch):
        monkeypatch.setattr(linalg, "CHUNK_SIZE", 2)
        assert batch_chunk_size(7) == 2

    @rule_ids
    @pytest.mark.parametrize("chunk_size", [1, 2, 4])
    def test_result_is_invariant_to_chunk_size(self, rule, chunk_size, monkeypatch):
        stacks = rule_batch(rule, seed=9)
        whole = aggregate(rule, stacks)
        monkeypatch.setattr(linalg, "CHUNK_SIZE", chunk_size)
        assert_same_result(whole, aggregate(rule, stacks))


class TestNoHiddenState:
    @rule_ids
    def test_input_stacks_are_not_mutated(self, rule):
        stacks = rule_batch(rule, seed=11)
        before = stacks.copy()
        aggregate(rule, stacks)
        assert bitwise_equal(stacks, before)

    @rule_ids
    def test_repeated_call_is_bitwise_identical(self, rule):
        stacks = rule_batch(rule, seed=13)
        first = aggregate(rule, stacks)
        # A differently-shaped call in between must not leak into the next.
        aggregate(rule, rule_batch(rule, seed=14)[:3])
        assert_same_result(first, aggregate(rule, stacks))


RETIRED_OPTION_OWNERS = [
    run_grid,
    BatchedSimulation,
    make_batched_aggregator,
    batched_krum_scores,
    batched_trimmed_mean,
    batched_bulyan,
    batched_weiszfeld,
    batched_pairwise_sq_distances,
    pairwise_sq_distances,
    masked_krum_scores,
    masked_coordinate_median,
]


class TestRetiredOptions:
    @pytest.mark.parametrize("option", ["backend", "chunk_size"])
    @pytest.mark.parametrize(
        "owner", RETIRED_OPTION_OWNERS, ids=lambda owner: owner.__name__
    )
    def test_option_is_gone(self, owner, option):
        assert option not in inspect.signature(owner).parameters

    def small_grid(self) -> ScenarioGrid:
        return ScenarioGrid(
            seeds=(0,),
            attacks=(("gaussian", {"sigma": 10.0}),),
            aggregators=(("krum", {}),),
            f_values=(2,),
            num_workers=9,
            workload_kwargs={"dimension": 5, "sigma": 0.2},
            num_rounds=3,
            learning_rate=0.1,
        )

    def test_run_grid_rejects_backend_keyword(self):
        with pytest.raises(TypeError, match="backend"):
            run_grid(self.small_grid(), mode="batched", backend="numpy")

    def test_grid_result_reports_no_backend(self):
        names = {field.name for field in dataclasses.fields(GridResult)}
        assert "backend" not in names

    def test_cli_rejects_backend_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--backend", "numpy"])

    def test_batched_simulation_stages_in_float64(self):
        sims = [build_scenario_simulation(s) for s in self.small_grid().scenarios()]
        batched = BatchedSimulation(sims)
        batched.run_round()
        assert batched.params.dtype == np.float64
