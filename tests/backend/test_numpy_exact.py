"""The numpy backend is a refactor-invariant, not a numerical change.

Routing a kernel through an explicit ``NumpyBackend`` must produce
**bit-for-bit** (``tobytes``) the same arrays as the default call path —
that is the anchor of the engine's loop/batched differential guarantee
after the backend redesign.  These tests also pin the dtype audit: a
float32 numpy backend must flow float32 end to end instead of being
silently promoted back to float64 by stray literals or ``np.empty``
allocations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import NumpyBackend, make_backend
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
    make_batched_aggregator,
)
from repro.core.bulyan import Bulyan, batched_bulyan
from repro.core.krum import Krum, MultiKrum
from repro.core.staleness import KardamFilter
from repro.engine import BatchedSimulation, ScenarioGrid, run_grid
from repro.utils.linalg import (
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
    """The reference batch, definite-valued for rules that (by design)
    refuse non-finite rows: Weiszfeld never converges on NaN proposals,
    so the geometric median gets the same corners with the NaN row
    replaced by a finite outlier."""
    stacks = reference_batch(seed)
    if isinstance(rule, GeometricMedian):
        stacks[2, -1] = -3e4
    return stacks


def bitwise_equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestKernelExactness:
    @pytest.mark.parametrize("rule", NATIVE_RULES, ids=lambda r: r.name)
    def test_explicit_numpy_backend_is_bitwise_identical(self, rule):
        stacks = rule_batch(rule)
        baseline = make_batched_aggregator(rule).aggregate_batch(stacks)
        routed = make_batched_aggregator(
            rule, backend=NumpyBackend()
        ).aggregate_batch(stacks)
        assert bitwise_equal(baseline.vectors, routed.vectors)
        assert len(baseline.selected) == len(routed.selected)
        for left, right in zip(baseline.selected, routed.selected):
            assert np.array_equal(left, right)
        if baseline.scores is None:
            assert routed.scores is None
        else:
            assert bitwise_equal(baseline.scores, routed.scores)

    @pytest.mark.parametrize("rule", NATIVE_RULES, ids=lambda r: r.name)
    def test_backend_name_string_is_accepted(self, rule):
        stacks = rule_batch(rule, seed=9)
        by_name = make_batched_aggregator(rule, backend="numpy")
        by_default = make_batched_aggregator(rule)
        assert bitwise_equal(
            by_default.aggregate_batch(stacks).vectors,
            by_name.aggregate_batch(stacks).vectors,
        )

    def test_primitives_accept_explicit_backend(self):
        stacks = reference_batch(seed=3)
        xp = NumpyBackend()
        assert bitwise_equal(
            batched_pairwise_sq_distances(stacks, nonfinite_as_inf=True),
            batched_pairwise_sq_distances(
                stacks, nonfinite_as_inf=True, backend=xp
            ),
        )
        assert bitwise_equal(
            pairwise_sq_distances(stacks[0], nonfinite_as_inf=True),
            pairwise_sq_distances(stacks[0], nonfinite_as_inf=True, backend=xp),
        )
        assert bitwise_equal(
            batched_krum_scores(stacks, 2),
            batched_krum_scores(stacks, 2, backend=xp),
        )
        distances = batched_pairwise_sq_distances(stacks, nonfinite_as_inf=True)
        active = np.ones(stacks.shape[:2], dtype=bool)
        active[:, -1] = False
        assert bitwise_equal(
            masked_krum_scores(distances, active, 3),
            masked_krum_scores(distances, active, 3, backend=xp),
        )
        assert bitwise_equal(
            masked_coordinate_median(stacks, active),
            masked_coordinate_median(stacks, active, backend=xp),
        )
        vectors, committees = batched_bulyan(stacks, 2)
        routed_vectors, routed_committees = batched_bulyan(
            stacks, 2, backend=xp
        )
        assert bitwise_equal(vectors, routed_vectors)
        assert bitwise_equal(committees, routed_committees)
        finite = reference_batch(seed=5)
        finite[2, -1] = 0.25  # Weiszfeld never converges on NaN rows
        assert bitwise_equal(
            batched_weiszfeld(finite),
            batched_weiszfeld(finite, backend=xp),
        )


class TestEngineThreading:
    def make_grid(self) -> ScenarioGrid:
        return ScenarioGrid(
            seeds=(0, 1),
            attacks=(("gaussian", {"sigma": 50.0}),),
            aggregators=(("krum", {}), ("geometric-median", {})),
            f_values=(2,),
            num_workers=11,
            workload_kwargs={"dimension": 6, "sigma": 0.3},
            num_rounds=6,
            learning_rate=0.1,
        )

    def test_run_grid_reports_resolved_backend(self):
        result = run_grid(self.make_grid(), mode="batched")
        assert result.backend == "numpy[float64]"
        loop = run_grid(self.make_grid(), mode="loop")
        assert loop.backend == "numpy[float64]"

    def test_run_grid_explicit_numpy_backend_identical(self):
        default = run_grid(self.make_grid(), mode="batched")
        explicit = run_grid(
            self.make_grid(), mode="batched", backend="numpy"
        )
        for label in default.histories:
            assert bitwise_equal(
                default.final_params[label], explicit.final_params[label]
            )

    def test_loop_mode_rejects_backend(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="loop"):
            run_grid(self.make_grid(), mode="loop", backend="numpy")


class TestDtypeAudit:
    """A reduced-precision backend is not silently up-cast (the stray
    float64-literal / ``np.empty`` audit of the redesign)."""

    def test_kernels_preserve_float32(self):
        xp = make_backend("numpy", {"dtype": "float32"})
        stacks = reference_batch(seed=11).astype(np.float32)
        for rule in NATIVE_RULES:
            if isinstance(rule, GeometricMedian):
                continue  # NaN rows never converge; covered below
            adapter = make_batched_aggregator(rule, backend=xp)
            result = adapter.aggregate_batch(stacks)
            assert np.asarray(result.vectors).dtype == np.float32, rule.name
        finite = np.asarray(
            reference_batch(seed=13), dtype=np.float32
        )
        finite[2, -1] = 0.5
        weiszfeld = make_batched_aggregator(GeometricMedian(), backend=xp)
        assert (
            np.asarray(weiszfeld.aggregate_batch(finite).vectors).dtype
            == np.float32
        )
        assert batched_pairwise_sq_distances(stacks, backend=xp).dtype == (
            np.float32
        )
        assert batched_krum_scores(stacks, 2, backend=xp).dtype == np.float32
        staleness = np.arange(stacks.shape[0] * stacks.shape[1]).reshape(
            stacks.shape[:2]
        ) % 3
        dampened = make_batched_aggregator(
            KardamFilter(Krum(f=2)), backend=xp
        ).aggregate_batch(stacks, staleness=staleness)
        assert np.asarray(dampened.vectors).dtype == np.float32

    def test_batched_simulation_stages_in_backend_dtype(self):
        from repro.engine.runner import build_scenario_simulation

        grid = ScenarioGrid(
            seeds=(0,),
            attacks=(("gaussian", {"sigma": 10.0}),),
            aggregators=(("krum", {}),),
            f_values=(2,),
            num_workers=9,
            workload_kwargs={"dimension": 5, "sigma": 0.2},
            num_rounds=3,
            learning_rate=0.1,
        )
        sims = [build_scenario_simulation(s) for s in grid.scenarios()]
        batched = BatchedSimulation(
            sims, backend=make_backend("numpy", {"dtype": "float32"})
        )
        batched.run_round()
        assert batched.params.dtype == np.float32
