"""Torch-backend parity: every native kernel agrees with numpy.

The torch backend is qualified against the numpy reference on identical
float64 inputs.  Bit-for-bit identity is *not* the contract (BLAS
reduction orders differ between libraries); the documented tolerance is
``rtol=1e-9, atol=1e-9`` at float64 — a generous multiple of round-off,
far below any statistically meaningful difference in the experiments —
except where a kernel is purely selection/permutation (Krum winners,
Bulyan committees, Multi-Krum order), which must match *exactly*.

The whole module skips cleanly when torch is not installed (the
numpy-only CI leg); the dedicated CI torch leg installs CPU torch and
runs it.
"""

from __future__ import annotations

import numpy as np
import pytest

torch = pytest.importorskip("torch")

from repro.backend import backend_installed, make_backend  # noqa: E402
from repro.baselines.average import Average  # noqa: E402
from repro.baselines.distance_based import ClosestToAll  # noqa: E402
from repro.baselines.medians import (  # noqa: E402
    CoordinateWiseMedian,
    GeometricMedian,
    TrimmedMean,
    batched_weiszfeld,
)
from repro.core.batched import (  # noqa: E402
    batched_krum_scores,
    make_batched_aggregator,
)
from repro.core.bulyan import Bulyan, batched_bulyan  # noqa: E402
from repro.core.krum import Krum, MultiKrum  # noqa: E402
from repro.engine import ScenarioGrid, run_grid  # noqa: E402
from repro.utils.linalg import (  # noqa: E402
    batched_pairwise_sq_distances,
    masked_coordinate_median,
    masked_krum_scores,
)

RTOL = 1e-9
ATOL = 1e-9

NATIVE_RULES = [
    Krum(f=2),
    MultiKrum(f=2, m=3),
    Average(),
    CoordinateWiseMedian(),
    TrimmedMean(f=2),
    ClosestToAll(),
    Bulyan(f=2),
    GeometricMedian(),
]


@pytest.fixture(scope="module")
def torch_backend():
    return make_backend("torch")


def reference_batches() -> list[np.ndarray]:
    """Reference grids covering the adversarial corners: duplicates,
    non-finite rows, far outliers, coincident clouds."""
    rng = np.random.default_rng(42)
    plain = rng.standard_normal((5, 11, 9))
    corners = rng.standard_normal((6, 12, 7))
    corners[0, 4] = corners[0, 1]  # exact duplicate proposals
    corners[1, -1] = np.inf  # non-finite Byzantine row
    corners[2, -1] = np.nan
    corners[3, -1] = 1e7  # far outlier
    corners[4] = -0.75  # fully coincident cloud
    wide = rng.standard_normal((3, 15, 40)) * 10.0
    return [plain, corners, wide]


def close(a, b) -> bool:
    return np.allclose(
        np.asarray(a), np.asarray(b), rtol=RTOL, atol=ATOL, equal_nan=True
    )


class TestBackendConstruction:
    def test_installed_and_buildable(self, torch_backend):
        assert backend_installed("torch")
        assert torch_backend.name == "torch"
        assert torch_backend.describe() == "torch[float64]"
        assert torch_backend.numpy_float_dtype == np.dtype(np.float64)

    def test_float32_configuration(self):
        backend = make_backend("torch", {"dtype": "float32"})
        assert backend.describe() == "torch[float32]"
        assert backend.numpy_float_dtype == np.dtype(np.float32)

    def test_bad_device_is_configuration_error(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError, match="device"):
            make_backend("torch", {"device": "not-a-device"})

    def test_namespace_fully_implemented(self):
        from repro.backend.torch_backend import TorchBackend

        assert not getattr(TorchBackend, "__abstractmethods__", None)


class TestKernelParity:
    """Every registered native kernel, across every reference grid."""

    @pytest.mark.parametrize("rule", NATIVE_RULES, ids=lambda r: r.name)
    def test_kernel_agrees_with_numpy(self, rule, torch_backend):
        for index, stacks in enumerate(reference_batches()):
            if isinstance(rule, GeometricMedian) and not np.all(
                np.isfinite(stacks)
            ):
                # Weiszfeld never converges on non-finite rows (both
                # backends raise ConvergenceError); swap them for finite
                # outliers so the rest of the corner batch — notably the
                # fully-coincident cloud, which drives the Vardi–Zhang
                # certification and dampened-step branches — still runs
                # on torch instead of being skipped wholesale.
                stacks = np.where(np.isfinite(stacks), stacks, -4e4)
            reference = make_batched_aggregator(rule).aggregate_batch(stacks)
            routed = make_batched_aggregator(
                rule, backend=torch_backend
            ).aggregate_batch(stacks)
            vectors = torch_backend.to_numpy(routed.vectors)
            assert close(reference.vectors, vectors), (rule.name, index)
            # Selection sets are pure index arithmetic — exact match.
            assert len(reference.selected) == len(routed.selected)
            for ref_rows, routed_rows in zip(
                reference.selected, routed.selected
            ):
                assert np.array_equal(
                    np.asarray(ref_rows),
                    torch_backend.to_numpy(routed_rows),
                ), (rule.name, index)

    def test_primitive_parity(self, torch_backend):
        stacks = reference_batches()[1]
        for kwargs in ({}, {"nonfinite_as_inf": True}):
            assert close(
                batched_pairwise_sq_distances(stacks, **kwargs),
                torch_backend.to_numpy(
                    batched_pairwise_sq_distances(
                        stacks, backend=torch_backend, **kwargs
                    )
                ),
            )
        assert close(
            batched_krum_scores(stacks, 2),
            torch_backend.to_numpy(
                batched_krum_scores(stacks, 2, backend=torch_backend)
            ),
        )
        distances = batched_pairwise_sq_distances(stacks, nonfinite_as_inf=True)
        active = np.ones(stacks.shape[:2], dtype=bool)
        active[:, -1] = False
        assert close(
            masked_krum_scores(distances, active, 3),
            torch_backend.to_numpy(
                masked_krum_scores(distances, active, 3, backend=torch_backend)
            ),
        )
        assert close(
            masked_coordinate_median(stacks, active),
            torch_backend.to_numpy(
                masked_coordinate_median(stacks, active, backend=torch_backend)
            ),
        )
        vectors, committees = batched_bulyan(stacks, 2)
        t_vectors, t_committees = batched_bulyan(
            stacks, 2, backend=torch_backend
        )
        assert close(vectors, torch_backend.to_numpy(t_vectors))
        assert np.array_equal(committees, torch_backend.to_numpy(t_committees))

    def test_weiszfeld_parity(self, torch_backend):
        # The plain batch plus the finite-ized corners batch: duplicate
        # rows, far outliers and the fully-coincident cloud exercise the
        # singularity handling (cluster certification, dampened steps,
        # stall strikes), not just the smooth fixed-point path.
        batches = reference_batches()
        corners = np.where(
            np.isfinite(batches[1]), batches[1], -4e4
        )
        for stacks in (batches[0], corners):
            assert close(
                batched_weiszfeld(stacks),
                torch_backend.to_numpy(
                    batched_weiszfeld(stacks, backend=torch_backend)
                ),
            )

    def test_chunked_execution_parity(self, torch_backend):
        stacks = reference_batches()[0]
        rule = Krum(f=2)
        whole = make_batched_aggregator(
            rule, backend=torch_backend
        ).aggregate_batch(stacks)
        chunked = make_batched_aggregator(
            rule, chunk_size=2, backend=torch_backend
        ).aggregate_batch(stacks)
        assert np.array_equal(
            torch_backend.to_numpy(whole.vectors),
            torch_backend.to_numpy(chunked.vectors),
        )


class TestEngineParity:
    def make_grid(self) -> ScenarioGrid:
        return ScenarioGrid(
            seeds=(0, 1),
            attacks=(
                ("gaussian", {"sigma": 50.0}),
                ("omniscient", {"scale": 5.0}),
            ),
            aggregators=(
                ("krum", {}),
                ("multi-krum", {"m": 3}),
                ("average", {}),
                ("coordinate-median", {}),
                ("trimmed-mean", {}),
                ("closest-to-all", {}),
                ("bulyan", {}),
                ("geometric-median", {}),
            ),
            f_values=(2,),
            num_workers=11,
            workload_kwargs={"dimension": 8, "sigma": 0.4},
            num_rounds=10,
            learning_rate=0.1,
        )

    def test_full_grid_matches_loop_within_tolerance(self):
        grid = self.make_grid()
        loop = run_grid(grid, mode="loop")
        routed = run_grid(grid, mode="batched", backend="torch")
        assert routed.backend == "torch[float64]"
        assert routed.native_fraction == 1.0
        for label in loop.histories:
            assert np.allclose(
                loop.final_params[label],
                routed.final_params[label],
                rtol=1e-7,
                atol=1e-8,
            ), label
