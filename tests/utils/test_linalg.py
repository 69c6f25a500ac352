"""Tests for repro.utils.linalg."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.baselines.medians import CoordinateWiseMedian
from repro.core.batched import batched_coordinate_median
from repro.exceptions import DimensionMismatchError
from repro.servers.replication import replica_view
from repro.utils.linalg import (
    batched_pairwise_sq_distances,
    coordinate_median,
    exact_row_dots,
    exact_row_norms,
    flatten_arrays,
    masked_coordinate_median,
    masked_inverse_distance_weights,
    masked_krum_scores,
    masked_unit_direction_sum,
    pairwise_sq_distances,
    stack_vectors,
    unflatten_array,
)


class TestPairwiseSqDistances:
    def test_matches_naive(self, rng):
        vectors = rng.standard_normal((7, 5))
        fast = pairwise_sq_distances(vectors)
        naive = np.array(
            [
                [np.sum((vectors[i] - vectors[j]) ** 2) for j in range(7)]
                for i in range(7)
            ]
        )
        np.testing.assert_allclose(fast, naive, atol=1e-10)

    def test_diagonal_zero(self, rng):
        vectors = rng.standard_normal((4, 3)) * 1e6
        distances = pairwise_sq_distances(vectors)
        np.testing.assert_array_equal(np.diag(distances), np.zeros(4))

    def test_symmetry(self, rng):
        vectors = rng.standard_normal((6, 4))
        distances = pairwise_sq_distances(vectors)
        np.testing.assert_allclose(distances, distances.T, atol=1e-12)

    def test_non_negative_despite_cancellation(self):
        # Nearly identical large vectors trigger catastrophic cancellation.
        base = np.full(10, 1e8)
        vectors = np.stack([base, base + 1e-8])
        distances = pairwise_sq_distances(vectors)
        assert np.all(distances >= 0.0)

    def test_single_vector(self):
        distances = pairwise_sq_distances(np.array([[1.0, 2.0]]))
        assert distances.shape == (1, 1)
        assert distances[0, 0] == 0.0

    def test_rejects_1d(self):
        with pytest.raises(DimensionMismatchError):
            pairwise_sq_distances(np.ones(3))

    def test_known_values(self):
        vectors = np.array([[0.0, 0.0], [3.0, 4.0]])
        distances = pairwise_sq_distances(vectors)
        assert distances[0, 1] == pytest.approx(25.0)


class TestMaskedKrumScores:
    def test_full_mask_matches_krum_scores(self, rng):
        from repro.core.krum import krum_scores

        batch = rng.standard_normal((3, 9, 4))
        distances = batched_pairwise_sq_distances(batch, nonfinite_as_inf=True)
        active = np.ones((3, 9), dtype=bool)
        f = 2
        scores = masked_krum_scores(distances, active, 9 - f - 2)
        for b in range(3):
            np.testing.assert_array_equal(scores[b], krum_scores(batch[b], f))

    def test_subset_matches_compacted_pool(self, rng):
        # Scoring the masked pool must rank candidates like scoring the
        # compacted pool (same neighbour multisets per candidate).
        batch = rng.standard_normal((1, 10, 3))
        distances = batched_pairwise_sq_distances(batch)
        active = np.ones((1, 10), dtype=bool)
        active[0, [2, 5, 7]] = False
        pool = [i for i in range(10) if active[0, i]]
        scores = masked_krum_scores(distances, active, 3)
        assert np.all(np.isinf(scores[0, [2, 5, 7]]))
        for i in pool:
            neighbour = sorted(distances[0, i, j] for j in pool if j != i)
            np.testing.assert_allclose(scores[0, i], np.sum(neighbour[:3]))

    def test_rejects_bad_num_neighbors(self, rng):
        distances = batched_pairwise_sq_distances(rng.standard_normal((2, 5, 3)))
        active = np.ones((2, 5), dtype=bool)
        for bad in (0, -1, 5):
            with pytest.raises(DimensionMismatchError, match="num_neighbors"):
                masked_krum_scores(distances, active, bad)

    def test_rejects_num_neighbors_exceeding_active_pool(self, rng):
        # More neighbours than any active row has would sum masked +inf
        # entries into every score — an error, not garbage output.
        distances = batched_pairwise_sq_distances(rng.standard_normal((1, 6, 3)))
        active = np.ones((1, 6), dtype=bool)
        active[0, :3] = False  # 3 active rows -> at most 2 neighbours
        with pytest.raises(DimensionMismatchError, match="active_count"):
            masked_krum_scores(distances, active, 4)
        assert np.all(np.isfinite(masked_krum_scores(distances, active, 2)[0, 3:]))


class TestMaskedCoordinateMedian:
    def test_full_mask_matches_numpy(self, rng):
        batch = rng.standard_normal((4, 7, 5))
        active = np.ones((4, 7), dtype=bool)
        np.testing.assert_array_equal(
            masked_coordinate_median(batch, active), np.median(batch, axis=1)
        )

    @pytest.mark.parametrize("drop", [1, 2, 3])
    def test_subset_matches_numpy_on_subset(self, rng, drop):
        batch = rng.standard_normal((3, 8, 4))
        active = np.ones((3, 8), dtype=bool)
        active[:, :drop] = False  # uniform count per scenario
        got = masked_coordinate_median(batch, active)
        for b in range(3):
            np.testing.assert_allclose(got[b], np.median(batch[b, drop:], axis=0))

    def test_rejects_nonuniform_counts(self, rng):
        batch = rng.standard_normal((2, 5, 3))
        active = np.ones((2, 5), dtype=bool)
        active[0, 0] = False
        with pytest.raises(DimensionMismatchError, match="same number"):
            masked_coordinate_median(batch, active)


#: Signed zeros, infinities, ties and NaN lanes: the entries where a
#: median built from other primitives can differ from ``np.median``.
_MEDIAN_EDGES = st.sampled_from(
    [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 2.5]
)
_MEDIAN_VALUES = st.one_of(_MEDIAN_EDGES, st.floats(-1e3, 1e3, width=64))


def assert_same_median(got, want):
    """Equal type, shape and bytes; NaN lanes compare by position."""
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    nans = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nans)
    assert np.where(nans, 0.0, got).tobytes() == np.where(nans, 0.0, want).tobytes()


class TestCoordinateMedian:
    @settings(max_examples=300, deadline=None)
    @given(
        stack=hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 3), st.integers(1, 16), st.integers(1, 4)),
            elements=_MEDIAN_VALUES,
        ),
        axis=st.sampled_from([0, 1, -1, -2]),
    )
    def test_equals_numpy_median_on_stacks(self, stack, axis):
        assert_same_median(coordinate_median(stack, axis), np.median(stack, axis=axis))

    @settings(max_examples=100, deadline=None)
    @given(
        vector=hnp.arrays(np.float64, st.integers(1, 16), elements=_MEDIAN_VALUES),
        axis=st.sampled_from([0, -1]),
    )
    def test_equals_numpy_median_on_vectors(self, vector, axis):
        assert_same_median(coordinate_median(vector, axis), np.median(vector, axis=axis))

    @pytest.mark.parametrize("n", [6, 7])
    def test_callers_equal_numpy_median(self, rng, n):
        # Signed zeros and ties in most lanes, odd and even row counts.
        stacks = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5], size=(3, n, 40))
        stacks[:, :, :10] = rng.standard_normal((3, n, 10))
        rule = CoordinateWiseMedian().aggregate(stacks[0])
        assert rule.tobytes() == np.median(stacks[0], axis=0).tobytes()
        kernel = batched_coordinate_median(stacks)
        for b in range(3):
            assert kernel[b].tobytes() == np.median(stacks[b], axis=0).tobytes()
        view = replica_view(stacks)
        assert view.tobytes() == np.median(stacks, axis=-2).tobytes()


def assert_same_bytes(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    nans = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nans)
    zero = np.zeros((), dtype=want.dtype)
    assert np.where(nans, zero, got).tobytes() == np.where(nans, zero, want).tobytes()


def assert_row_norms(matrix):
    """exact_row_norms against np.linalg.norm and exact_row_dots against
    row.dot(row) of the contiguous row (norm's ravel copies a strided
    row too), per row, in the input dtype."""
    dtype = matrix.dtype
    assert_same_bytes(
        exact_row_norms(matrix),
        np.array([np.linalg.norm(row) for row in matrix], dtype=dtype),
    )
    assert_same_bytes(
        exact_row_dots(matrix),
        np.array(
            [row.dot(row) for row in map(np.ascontiguousarray, matrix)],
            dtype=dtype,
        ),
    )


class TestExactRowNorms:
    @settings(max_examples=200, deadline=None)
    @given(
        matrix=hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(1, 300)),
            elements=st.one_of(
                st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
                st.floats(-1e150, 1e150, width=64),
            ),
        ),
    )
    def test_equals_norm_per_row(self, matrix):
        assert_row_norms(matrix)
        # A transposed view and a strided view of the same rows.
        assert_row_norms(np.ascontiguousarray(matrix.T).T)
        assert_row_norms(np.repeat(matrix, 2, axis=1)[:, ::2])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 200), (8, 1), (8, 672), (3, 25450)])
    def test_shapes_of_the_workloads(self, rng, shape, dtype):
        matrix = rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 5, shape)
        matrix = matrix.astype(dtype)
        assert_row_norms(matrix)
        assert_row_norms(np.asfortranarray(matrix))
        assert_row_norms(np.concatenate([matrix, matrix], axis=1)[:, 1::2])

    def test_nonfinite_rows(self):
        matrix = np.array([[1.0, np.inf], [np.nan, 0.0], [-np.inf, np.nan], [3.0, 4.0]])
        assert_row_norms(matrix)
        assert exact_row_norms(matrix)[3] == 5.0


class TestMaskedWeiszfeldPrimitives:
    def test_unit_direction_sum_matches_compacted(self, rng):
        values = rng.standard_normal((2, 6, 3))
        anchors = rng.standard_normal((2, 3))
        offsets = values - anchors[:, None, :]
        distances = np.linalg.norm(offsets, axis=2)
        active = np.ones((2, 6), dtype=bool)
        active[:, 0] = False
        got = masked_unit_direction_sum(values, anchors, distances, active)
        for b in range(2):
            manual = (offsets[b, 1:] / distances[b, 1:, None]).sum(axis=0)
            np.testing.assert_allclose(got[b], manual, rtol=1e-12, atol=1e-12)

    def test_inactive_zero_distances_are_safe(self, rng):
        values = rng.standard_normal((1, 4, 2))
        anchors = values[:, 0].copy()
        distances = np.array([[0.0, 1.0, 2.0, 3.0]])
        active = np.array([[False, True, True, True]])
        out = masked_unit_direction_sum(values, anchors, distances, active)
        assert np.all(np.isfinite(out))

    def test_inverse_distance_weights(self, rng):
        distances = np.array([[0.5, 2.0, 0.0, 4.0]])
        active = np.array([[True, True, False, True]])
        got = masked_inverse_distance_weights(distances, active)
        np.testing.assert_array_equal(got, [[2.0, 0.5, 0.0, 0.25]])

    def test_precomputed_offsets_match(self, rng):
        values = rng.standard_normal((2, 6, 3))
        anchors = rng.standard_normal((2, 3))
        offsets = values - anchors[:, None, :]
        distances = np.linalg.norm(offsets, axis=2)
        active = np.ones((2, 6), dtype=bool)
        plain = masked_unit_direction_sum(values, anchors, distances, active)
        workspace = offsets.copy()
        reused = masked_unit_direction_sum(
            values, anchors, distances, active, offsets=workspace
        )
        assert reused.tobytes() == plain.tobytes()
        # The passed offsets are divided in place into the unit directions.
        assert workspace.tobytes() == (offsets / distances[:, :, None]).tobytes()

    def test_shape_validation(self, rng):
        values = rng.standard_normal((2, 5, 3))
        anchors = rng.standard_normal((2, 3))
        with pytest.raises(DimensionMismatchError):
            masked_unit_direction_sum(
                values, anchors, np.ones((2, 4)), np.ones((2, 5), bool)
            )
        with pytest.raises(DimensionMismatchError):
            masked_unit_direction_sum(
                values, np.ones((2, 4)), np.ones((2, 5)), np.ones((2, 5), bool)
            )


class TestStackVectors:
    def test_stacks(self):
        stack = stack_vectors([np.array([1.0, 2.0]), np.array([3.0, 4.0])])
        assert stack.shape == (2, 2)

    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatchError):
            stack_vectors([])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(DimensionMismatchError, match="inconsistent"):
            stack_vectors([np.ones(2), np.ones(3)])

    def test_rejects_2d_elements(self):
        with pytest.raises(DimensionMismatchError):
            stack_vectors([np.ones((2, 2))])


class TestFlattenRoundTrip:
    def test_round_trip(self, rng):
        arrays = [rng.standard_normal(s) for s in [(3, 4), (4,), (2, 2, 2)]]
        flat, shapes = flatten_arrays(arrays)
        assert flat.shape == (12 + 4 + 8,)
        restored = unflatten_array(flat, shapes)
        for original, back in zip(arrays, restored):
            np.testing.assert_allclose(original, back)

    def test_scalar_shape(self):
        flat, shapes = flatten_arrays([np.array(5.0)])
        assert flat.shape == (1,)
        restored = unflatten_array(flat, shapes)
        assert restored[0].shape == ()

    def test_rejects_empty_list(self):
        with pytest.raises(DimensionMismatchError):
            flatten_arrays([])

    def test_unflatten_rejects_wrong_size(self):
        with pytest.raises(DimensionMismatchError, match="entries"):
            unflatten_array(np.ones(5), [(2, 2)])

    def test_unflatten_rejects_2d_input(self):
        with pytest.raises(DimensionMismatchError):
            unflatten_array(np.ones((2, 2)), [(4,)])
