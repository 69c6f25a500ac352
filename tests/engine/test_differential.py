"""Differential harness: batched kernels vs the per-scenario path.

Every batched kernel must match the existing per-scenario implementation
**bit-for-bit** — not approximately — on randomized grids, including the
adversarial corners: f = 0, tie-heavy duplicate proposals, and NaN/Inf
Byzantine inputs.  Full trajectories are also pinned against the frozen
message-passing round of ``tests/distributed/server_reference.py``, so
the shared round stages cannot drift under both executors at once.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.average import Average
from repro.baselines.distance_based import ClosestToAll
from repro.baselines.majority import MinimalDiameterSubset
from repro.baselines.medians import (
    CoordinateWiseMedian,
    GeometricMedian,
    TrimmedMean,
)
from repro.core.batched import (
    batched_kernel_names,
    batched_krum_scores,
    has_batched_kernel,
    make_batched_aggregator,
)
from repro.core.bulyan import Bulyan
from repro.core.krum import Krum, MultiKrum, krum_scores, krum_scores_reference
from repro.core.staleness import DAMPENING_MODES, KardamFilter
from repro.engine import ScenarioGrid
from repro.exceptions import (
    ConfigurationError,
    ConvergenceError,
    DimensionMismatchError,
)
from repro.utils import linalg
from repro.utils.linalg import (
    batched_pairwise_sq_distances,
    pairwise_sq_distances,
)
from tests.distributed.identity import (
    assert_loop_equals_batched,
    bitwise_equal,
)
from tests.distributed.server_reference import assert_matches_reference
from tests.engine.grids import paper_grid


def make_batches(seed: int = 0) -> list[np.ndarray]:
    """Randomized (B, n, d) batches covering the adversarial corners."""
    rng = np.random.default_rng(seed)
    batches = []

    # Plain random clouds at several scales.
    batches.append(rng.standard_normal((6, 9, 5)))
    batches.append(1e4 * rng.standard_normal((4, 13, 3)))

    # Tie-heavy: duplicated proposals (identical rows → equal distances
    # and equal Krum scores, exercising the smallest-identifier
    # tie-break in every kernel).
    tied = np.repeat(rng.standard_normal((5, 3, 4)), 3, axis=1)  # n = 9
    batches.append(tied)
    batches.append(np.zeros((3, 8, 4)))  # all proposals identical

    # NaN/Inf Byzantine rows mixed into honest clouds.
    poisoned = rng.standard_normal((4, 10, 6))
    poisoned[0, 0] = np.nan
    poisoned[1, -1] = np.inf
    poisoned[2, 3] = -np.inf
    poisoned[3, 1, ::2] = np.nan
    batches.append(poisoned)
    return batches


def valid_f_values(n: int) -> list[int]:
    """f values valid for Krum scoring (n − f − 2 ≥ 1), always incl. 0."""
    return sorted({0, 1, (n - 3) // 2} & set(range(0, n - 2)))


class TestBatchedDistanceKernel:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_scenario_bitwise(self, seed):
        for batch in make_batches(seed):
            for nonfinite_as_inf in (False, True):
                got = batched_pairwise_sq_distances(
                    batch, nonfinite_as_inf=nonfinite_as_inf
                )
                for b in range(batch.shape[0]):
                    want = pairwise_sq_distances(
                        batch[b], nonfinite_as_inf=nonfinite_as_inf
                    )
                    assert bitwise_equal(got[b], want)

    def test_chunking_matches_unchunked(self, monkeypatch):
        batch = make_batches(3)[0]
        whole = batched_pairwise_sq_distances(batch)
        for chunk_size in (1, 2, 3, batch.shape[0], batch.shape[0] + 7):
            monkeypatch.setattr(linalg, "CHUNK_SIZE", chunk_size)
            chunked = batched_pairwise_sq_distances(batch)
            assert bitwise_equal(whole, chunked)


class TestBatchedKrumScores:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_three_way_agreement(self, seed):
        """batched == fast (bit-for-bit) and both ≈ the naive reference."""
        for batch in make_batches(seed):
            n = batch.shape[1]
            for f in valid_f_values(n):
                got = batched_krum_scores(batch, f)
                for b in range(batch.shape[0]):
                    fast = krum_scores(batch[b], f)
                    assert bitwise_equal(got[b], fast)
                    if np.all(np.isfinite(batch[b])):
                        reference = krum_scores_reference(batch[b], f)
                        scale = max(1.0, float(np.max(np.abs(batch[b]))) ** 2)
                        np.testing.assert_allclose(
                            fast,
                            reference,
                            rtol=1e-7,
                            atol=1e-10 * scale * n,
                        )

    def test_chunk_size_does_not_change_scores(self, monkeypatch):
        batch = make_batches(4)[0]
        whole = batched_krum_scores(batch, 1)
        for chunk_size in (1, 2, 5):
            monkeypatch.setattr(linalg, "CHUNK_SIZE", chunk_size)
            assert bitwise_equal(whole, batched_krum_scores(batch, 1))


def _rules_for(n: int) -> list:
    f = max(1, min((n - 3) // 2, (n - 1) // 2))
    rules = [
        Average(),
        CoordinateWiseMedian(),
        TrimmedMean(f=min(f, (n - 1) // 2)),
        ClosestToAll(),
    ]
    if n - f - 2 >= 1:
        rules.append(Krum(f=f, strict=False))
        m = min(3, n - f - 2)
        rules.append(MultiKrum(f=f, m=m, strict=False))
    return rules


class TestBatchedAdapters:
    """Every adapter (native or fallback) replicates aggregate_detailed."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_native_kernels_bitwise(self, seed):
        for batch in make_batches(seed):
            n = batch.shape[1]
            for rule in _rules_for(n):
                assert has_batched_kernel(rule), rule.name
                adapter = make_batched_aggregator(rule)
                result = adapter.aggregate_batch(batch)
                for b in range(batch.shape[0]):
                    want = rule.aggregate_detailed(batch[b])
                    assert bitwise_equal(result.vectors[b], want.vector), (
                        f"{rule.name} diverged on slice {b}"
                    )
                    np.testing.assert_array_equal(
                        result.selected[b], want.selected
                    )
                    if want.scores is not None:
                        assert bitwise_equal(result.scores[b], want.scores)

    def test_native_selections_are_one_int64_block(self, rng):
        """A native kernel returns its selections as one ``(B, k)`` int64
        block (k = 0 for a statistical rule), row b the slice's own."""
        batch = rng.standard_normal((4, 9, 3))
        for rule in _rules_for(9):
            result = make_batched_aggregator(rule).aggregate_batch(batch)
            want = [rule.aggregate_detailed(batch[b]).selected for b in range(4)]
            assert isinstance(result.selected, np.ndarray), rule.name
            assert result.selected.dtype == np.int64
            assert result.selected.shape == (4, len(want[0]))
            for got, expected in zip(result.selected, want):
                np.testing.assert_array_equal(got, expected)

    def test_loop_fallback_bitwise(self, rng):
        batch = rng.standard_normal((5, 11, 4))
        rule = MinimalDiameterSubset(f=2)
        assert not has_batched_kernel(rule)
        adapter = make_batched_aggregator(rule)
        assert not adapter.is_native
        result = adapter.aggregate_batch(batch)
        for b in range(batch.shape[0]):
            want = rule.aggregate_detailed(batch[b])
            assert bitwise_equal(result.vectors[b], want.vector)
            np.testing.assert_array_equal(result.selected[b], want.selected)


def bulyan_f_values(n: int) -> list[int]:
    """f values valid for Bulyan (n >= 4f + 3), always including 0."""
    return sorted({0, 1, (n - 3) // 4} & {f for f in range(n) if n >= 4 * f + 3})


class TestBatchedBulyan:
    """The Bulyan kernel: iterated committee selection, bit-for-bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_scenario_bitwise(self, seed):
        """All corners: f = 0, tie-heavy duplicates, NaN/Inf rows."""
        for batch in make_batches(seed):
            n = batch.shape[1]
            for f in bulyan_f_values(n):
                rule = Bulyan(f=f)
                assert has_batched_kernel(rule)
                adapter = make_batched_aggregator(rule)
                assert adapter.is_native
                result = adapter.aggregate_batch(batch)
                for b in range(batch.shape[0]):
                    want = rule.aggregate_detailed(batch[b])
                    assert bitwise_equal(result.vectors[b], want.vector), (
                        f"bulyan(f={f}) diverged on slice {b}"
                    )
                    np.testing.assert_array_equal(
                        result.selected[b], want.selected
                    )

    def test_committee_is_sorted_and_sized(self, rng):
        batch = rng.standard_normal((4, 11, 5))
        result = make_batched_aggregator(Bulyan(f=2)).aggregate_batch(batch)
        for committee in result.selected:
            assert committee.shape == (11 - 2 * 2,)
            assert np.all(np.diff(committee) > 0)  # sorted, no duplicates

    def test_chunking_matches_unchunked(self, rng, monkeypatch):
        batch = rng.standard_normal((7, 9, 4))
        adapter = make_batched_aggregator(Bulyan(f=1))
        whole = adapter.aggregate_batch(batch)
        for chunk_size in (1, 2, 3, 7, 19):
            monkeypatch.setattr(linalg, "CHUNK_SIZE", chunk_size)
            chunked = adapter.aggregate_batch(batch)
            assert bitwise_equal(chunked.vectors, whole.vectors)
            for a, b in zip(chunked.selected, whole.selected):
                np.testing.assert_array_equal(a, b)


class TestBatchedGeometricMedian:
    """The Weiszfeld kernel: per-scenario convergence masking, bit-for-bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_scenario_bitwise(self, seed):
        rule = GeometricMedian()
        assert has_batched_kernel(rule)
        adapter = make_batched_aggregator(rule)
        assert adapter.is_native
        for batch in make_batches(seed):
            if not np.all(np.isfinite(batch)):
                continue  # non-finite parity covered separately below
            result = adapter.aggregate_batch(batch)
            for b in range(batch.shape[0]):
                want = rule.aggregate_detailed(batch[b])
                assert bitwise_equal(result.vectors[b], want.vector), (
                    f"geometric median diverged on slice {b}"
                )
                assert result.selected[b].size == 0

    def test_tight_tolerance_matches(self, rng):
        """Non-default configuration flows through the kernel."""
        rule = GeometricMedian(tolerance=1e-12, max_iterations=5000)
        batch = rng.standard_normal((5, 12, 6))
        result = make_batched_aggregator(rule).aggregate_batch(batch)
        for b in range(batch.shape[0]):
            want = rule.aggregate_detailed(batch[b])
            assert bitwise_equal(result.vectors[b], want.vector)

    def test_nonfinite_scenarios_raise_consistently(self):
        """NaN proposals never satisfy a convergence predicate; the loop
        path raises for such a scenario, so the batched path must raise
        for any batch containing one — and slices that do converge must
        still match bit-for-bit."""
        rule = GeometricMedian(max_iterations=60)
        adapter = make_batched_aggregator(rule)
        batch = make_batches(0)[-1]  # the NaN/Inf-poisoned batch
        loop_outcomes: list[np.ndarray | None] = []
        for b in range(batch.shape[0]):
            try:
                loop_outcomes.append(rule.aggregate_detailed(batch[b]).vector)
            except ConvergenceError:
                loop_outcomes.append(None)
        assert any(v is None for v in loop_outcomes)
        with pytest.raises(ConvergenceError, match="did not converge"):
            adapter.aggregate_batch(batch)
        converging = [b for b, v in enumerate(loop_outcomes) if v is not None]
        if converging:
            result = adapter.aggregate_batch(batch[converging])
            for i, b in enumerate(converging):
                assert bitwise_equal(result.vectors[i], loop_outcomes[b])

    def test_chunking_matches_unchunked(self, rng, monkeypatch):
        batch = rng.standard_normal((6, 10, 3))
        adapter = make_batched_aggregator(GeometricMedian())
        whole = adapter.aggregate_batch(batch)
        for chunk_size in (1, 2, 4, 6, 11):
            monkeypatch.setattr(linalg, "CHUNK_SIZE", chunk_size)
            chunked = adapter.aggregate_batch(batch)
            assert bitwise_equal(chunked.vectors, whole.vectors)


def _kardam_rules() -> list[KardamFilter]:
    """Filters-off kardam around a selection, a multi-selection and a
    statistical inner rule, in every dampening mode."""
    return [
        KardamFilter(inner, dampening=mode, gamma=0.7)
        for inner in (Krum(f=1), MultiKrum(f=1, m=3), CoordinateWiseMedian())
        for mode in DAMPENING_MODES
    ]


def staleness_block(rng, batch: int, n: int) -> np.ndarray:
    """A random ``(B, n)`` staleness block with τ ≤ 4: cell 0 is fresh
    (all zero), cell 1 mixed (its first half fresh), the rest random."""
    staleness = rng.integers(0, 5, (batch, n))
    staleness[0] = 0
    staleness[1, : n // 2] = 0
    return staleness


class TestBatchedKardam:
    """The Kardam kernel: per-cell dampening, then the inner kernel,
    bit for bit against ``aggregate_detailed_stale``."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_per_scenario_bitwise(self, seed):
        rng = np.random.default_rng(100 + seed)
        for batch in make_batches(seed):  # includes NaN and ±inf rows
            staleness = staleness_block(rng, *batch.shape[:2])
            original = batch.copy()
            for rule in _kardam_rules():
                adapter = make_batched_aggregator(rule)
                assert adapter.is_native and adapter.supports_staleness
                for block in (staleness, None):
                    result = adapter.aggregate_batch(batch, staleness=block)
                    for b in range(batch.shape[0]):
                        want = (
                            rule.aggregate_detailed(batch[b])
                            if block is None
                            else rule.aggregate_detailed_stale(
                                batch[b], block[b]
                            )
                        )
                        assert bitwise_equal(result.vectors[b], want.vector), (
                            f"{rule.name} diverged on slice {b}"
                        )
                        np.testing.assert_array_equal(
                            result.selected[b], want.selected
                        )
                        if want.scores is not None:
                            assert bitwise_equal(result.scores[b], want.scores)
            # Dampening works on a copy: the caller's stacks are intact.
            assert bitwise_equal(batch, original)

    def test_rejects_what_the_rule_rejects(self, rng):
        adapter = make_batched_aggregator(KardamFilter(Krum(f=1)))
        batch = rng.standard_normal((3, 7, 4))
        staleness = np.zeros((3, 7), dtype=np.int64)
        staleness[1, 2] = -1
        with pytest.raises(ConfigurationError, match=">= 0"):
            adapter.aggregate_batch(batch, staleness=staleness)
        with pytest.raises(DimensionMismatchError, match="staleness"):
            adapter.aggregate_batch(batch, staleness=staleness[:, :6])

    @pytest.mark.parametrize(
        "rule",
        [
            KardamFilter(Krum(f=1), drop_above=2),
            KardamFilter(Krum(f=1), lipschitz_quantile=0.9),
            KardamFilter(MinimalDiameterSubset(f=1)),
        ],
        ids=lambda rule: rule.name,
    )
    def test_dropping_filters_take_the_loop_fallback(self, rule):
        """Rows can be dropped and the Lipschitz memory is per instance,
        so these stay on one rule instance per cell."""
        assert not has_batched_kernel(rule)
        adapter = make_batched_aggregator(rule)
        assert not adapter.is_native and adapter.supports_staleness


#: A rule of every type whose kernel a class above pins slice by slice,
#: bit for bit, against ``aggregate_detailed`` (``_stale`` for kardam):
#: the ``_rules_for`` sweep of TestBatchedAdapters, then
#: TestBatchedBulyan, TestBatchedGeometricMedian and TestBatchedKardam.
PINNED_RULES = [
    *_rules_for(13),
    Bulyan(f=2),
    GeometricMedian(),
    KardamFilter(Krum(f=1)),
]
BITWISE_PINNED = {type(rule) for rule in PINNED_RULES}


def test_every_registered_kernel_has_a_bitwise_pin():
    """A kernel registered without a per-slice pin fails here, so no
    kernel can run in the engine unchecked against its rule."""
    pinned = sorted(cls.__name__ for cls in BITWISE_PINNED)
    assert pinned == batched_kernel_names()


@pytest.mark.parametrize("name", batched_kernel_names())
def test_registered_kernel_is_pinned(name):
    """Per kernel, so a missing pin names its rule; the pinned rule must
    also still dispatch to that native kernel, not the loop fallback."""
    (rule,) = [r for r in PINNED_RULES if type(r).__name__ == name]
    assert has_batched_kernel(rule)
    assert make_batched_aggregator(rule).is_native


class TestGridTrajectories:
    """Full-trajectory identity: run_grid(loop) vs run_grid(batched),
    and both against the frozen reference round."""

    @staticmethod
    def _assert_identical(grid: ScenarioGrid):
        """Assert loop == batched == reference; return the batched run."""
        loop, batched = assert_loop_equals_batched(grid, eval_every=5)
        assert_matches_reference(loop, grid, eval_every=5)
        return batched

    @pytest.mark.parametrize("seed", [0, 17])
    def test_randomized_grid(self, seed, monkeypatch):
        grid = ScenarioGrid(
            seeds=(seed, seed + 1),
            attacks=(
                ("gaussian", {"sigma": 100.0}),
                ("omniscient", {"scale": 5.0}),
            ),
            aggregators=(
                ("krum", {}),
                ("multi-krum", {"m": 3}),
                ("average", {}),
                ("trimmed-mean", {}),
            ),
            f_values=(0, 3),  # f = 0 cells run attack-free
            num_workers=13,
            workload_kwargs={"dimension": 9, "sigma": 0.4},
            num_rounds=12,
        )
        monkeypatch.setattr(linalg, "CHUNK_SIZE", 3)
        self._assert_identical(grid)

    def test_nonfinite_byzantine_inputs(self):
        """NaN proposals flow through both executors identically."""
        grid = ScenarioGrid(
            seeds=(2,),
            attacks=(("non-finite", {}),),
            aggregators=(("krum", {}), ("coordinate-median", {})),
            f_values=(2,),
            num_workers=9,
            workload_kwargs={"dimension": 6, "sigma": 0.3},
            num_rounds=8,
        )
        self._assert_identical(grid)

    def test_loop_fallback_rules_in_grid(self):
        """Grids mixing kernel-backed and fallback rules stay identical."""
        grid = ScenarioGrid(
            seeds=(5,),
            attacks=(("sign-flip", {"scale": 3.0}),),
            aggregators=(("krum", {}), ("minimal-diameter", {})),
            f_values=(2,),
            num_workers=11,
            workload_kwargs={"dimension": 7, "sigma": 0.2},
            num_rounds=10,
        )
        self._assert_identical(grid)

    def test_mixed_workload_grid(self, monkeypatch):
        """Acceptance criterion of the workload redesign: a grid mixing
        the quadratic bowl with two dataset-backed workloads stays
        bit-for-bit identical between the loop and batched executors
        (the batched mode groups cells per parameter dimension)."""
        grid = ScenarioGrid(
            seeds=(0, 1),
            workloads=(
                ("quadratic", {"dimension": 8, "sigma": 0.3}),
                (
                    "logistic-spambase",
                    {"num_train": 96, "num_eval": 48, "batch_size": 8},
                ),
                (
                    "softmax-mnist",
                    {"num_train": 64, "num_eval": 32, "batch_size": 8},
                ),
            ),
            attacks=(("sign-flip", {"scale": 4.0}),),
            aggregators=(("krum", {}), ("average", {})),
            f_values=(0, 2),
            num_workers=9,
            num_rounds=6,
            learning_rate=0.1,
            lr_timescale=None,
        )
        assert len(grid) == 2 * 3 * 2 * 2
        monkeypatch.setattr(linalg, "CHUNK_SIZE", 2)
        self._assert_identical(grid)

    def test_bulyan_and_geometric_median_kernels_in_grid(self, monkeypatch):
        """The two rules that used to take the loop fallback now run
        native — and must stay trajectory-identical through full runs."""
        grid = ScenarioGrid(
            seeds=(3, 4),
            attacks=(("gaussian", {"sigma": 80.0}),),
            aggregators=(
                ("bulyan", {}),
                ("geometric-median", {}),
                ("krum", {}),
            ),
            f_values=(0, 2),  # bulyan needs n >= 4f + 3 = 11
            num_workers=11,
            workload_kwargs={"dimension": 6, "sigma": 0.3},
            num_rounds=10,
        )
        monkeypatch.setattr(linalg, "CHUNK_SIZE", 2)
        self._assert_identical(grid)

    def test_paper_grid_runs_every_rule_natively(self):
        """The paper's rule × attack × f grid: all eight rules aggregate
        through vectorized kernels, trajectory-identical.
        ``bench_engine_grid.py`` times the same grid at full scale."""
        batched = self._assert_identical(paper_grid("small"))
        assert batched.native_fraction == 1.0

    def test_adaptive_attacks_in_grid(self, monkeypatch):
        """Acceptance criterion of the adaptive adversary suite: the
        stateful adaptive attacks — and the ``selected_last_round``
        feedback the probe consumes — thread identically through the
        loop and batched executors, synchronous and stale arms alike.
        (kardam wraps ``average`` here: the Lipschitz filter can drop
        enough rows to break an inner krum's ``2f + 2 < n`` bound.)"""
        grid = ScenarioGrid(
            seeds=(0, 11),
            attacks=(
                ("staleness-gaming", {"scale": 2.0}),
                ("lipschitz-mimicry", {}),
                ("probe", {"inner": "sign-flip"}),
                ("probe", {"inner": "little-is-enough"}),
            ),
            aggregators=(
                ("krum", {}),
                ("multi-krum", {"m": 3}),
                ("average", {}),
                ("kardam", {"inner": "average", "lipschitz_quantile": 0.9}),
            ),
            f_values=(2,),
            max_staleness_values=(0, 3),
            delay_schedules=(
                (None, {}),
                ("periodic", {"tau": 2, "period": 3}),
            ),
            num_workers=9,
            workload_kwargs={"dimension": 6, "sigma": 0.3},
            num_rounds=10,
        )
        monkeypatch.setattr(linalg, "CHUNK_SIZE", 4)
        self._assert_identical(grid)


class TestDatasetRuleComparison:
    """Comparing rules on a dataset task is one grid over the aggregator
    axis: batched == loop on dataset SGD."""

    def test_engines_agree(self):
        grid = ScenarioGrid(
            seeds=(0,),
            workload="softmax-mnist",
            workload_kwargs={"num_train": 120, "num_eval": 40, "batch_size": 16},
            attacks=(("gaussian", {"sigma": 50.0}),),
            aggregators=(
                ("krum", {}),
                ("average", {}),
                ("geometric-median", {}),
            ),
            f_values=(2,),
            num_workers=9,
            num_rounds=15,
            learning_rate=0.3,
            lr_timescale=None,
        )
        loop, batched = assert_loop_equals_batched(grid, eval_every=5)
        assert len(batched.histories) == 3
        assert_matches_reference(loop, grid, eval_every=5)
