"""Shard layout and per-shard aggregation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.average import Average
from repro.core.krum import Krum
from repro.core.staleness import KardamFilter
from repro.exceptions import ConfigurationError
from repro.servers.sharding import ShardedAggregator, shard_bounds


class TestShardBounds:
    @pytest.mark.parametrize("dimension", [1, 2, 5, 20, 97])
    @pytest.mark.parametrize("num_shards", [1, 2, 3, 5])
    def test_partition_is_contiguous_and_exhaustive(
        self, dimension, num_shards
    ):
        if num_shards > dimension:
            pytest.skip("every shard must own a coordinate")
        bounds = shard_bounds(dimension, num_shards)
        assert len(bounds) == num_shards
        assert bounds[0][0] == 0
        assert bounds[-1][1] == dimension
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo  # contiguous, no gaps or overlaps
        sizes = [hi - lo for lo, hi in bounds]
        assert all(size >= 1 for size in sizes)
        assert max(sizes) - min(sizes) <= 1  # balanced

    def test_first_shards_take_the_remainder(self):
        assert shard_bounds(7, 3) == [(0, 3), (3, 5), (5, 7)]

    def test_invalid_arguments(self):
        with pytest.raises(ConfigurationError):
            shard_bounds(0, 1)
        with pytest.raises(ConfigurationError):
            shard_bounds(5, 0)
        with pytest.raises(ConfigurationError):
            shard_bounds(3, 4)  # a shard would own no coordinate


class TestShardedAggregator:
    def test_sharded_average_is_bitwise_average(self):
        """Averaging is coordinate-separable: the shard cut is an
        implementation detail, bit for bit (for multi-column shards —
        numpy's single-column reduction takes a different summation
        path, covered by the next test)."""
        rng = np.random.default_rng(1)
        vectors = rng.standard_normal((9, 13))
        plain = Average().aggregate_detailed(vectors).vector
        for num_shards in (1, 2, 5):
            sharded = (
                ShardedAggregator(Average(), num_shards)
                .aggregate_detailed(vectors)
                .vector
            )
            assert sharded.tobytes() == plain.tobytes()

    def test_one_shard_per_coordinate_agrees_to_rounding(self):
        """num_shards == dimension: numpy reduces a (n, 1) slice through
        a different summation order than a column of the full (n, d)
        reduction, so equality here is up to one ulp of the sum — not
        bitwise."""
        rng = np.random.default_rng(1)
        vectors = rng.standard_normal((9, 13))
        plain = Average().aggregate_detailed(vectors).vector
        sharded = (
            ShardedAggregator(Average(), 13).aggregate_detailed(vectors).vector
        )
        np.testing.assert_allclose(sharded, plain, rtol=0, atol=1e-15)

    def test_sharded_krum_is_a_different_rule(self):
        """Krum scores whole vectors; per-shard Krum can pick different
        winners per slice, so sharding legitimately changes the result."""
        rng = np.random.default_rng(2)
        vectors = rng.standard_normal((9, 12))
        plain = Krum(f=2).aggregate_detailed(vectors)
        sharded = ShardedAggregator(Krum(f=2), 4).aggregate_detailed(vectors)
        assert sharded.vector.tobytes() != plain.vector.tobytes()

    def test_selected_is_sorted_union_of_shard_winners(self):
        rng = np.random.default_rng(3)
        vectors = rng.standard_normal((9, 12))
        result = ShardedAggregator(Krum(f=2), 4).aggregate_detailed(vectors)
        assert result.selected.dtype == np.int64
        assert sorted(result.selected.tolist()) == result.selected.tolist()
        assert result.scores is None  # not comparable across shards
        bounds = shard_bounds(12, 4)
        winners = {
            int(Krum(f=2).aggregate_detailed(vectors[:, lo:hi]).selected[0])
            for lo, hi in bounds
        }
        assert set(result.selected.tolist()) == winners

    def test_staleness_aware_inner_receives_shard_slices(self):
        """A Kardam inner rule gets the staleness vector with the
        shard's used-params slice — concatenating the per-shard results
        equals running the wrapper per shard by hand."""
        rng = np.random.default_rng(4)
        vectors = rng.standard_normal((7, 10))
        used = rng.standard_normal((7, 10))
        staleness = np.array([0, 1, 0, 2, 0, 1, 0], dtype=np.int64)
        sharded = ShardedAggregator(KardamFilter(Average()), 3)
        result = sharded.aggregate_detailed_stale(
            vectors, staleness, used_params=used
        )
        expected = np.empty(10)
        for lo, hi in shard_bounds(10, 3):
            expected[lo:hi] = (
                KardamFilter(Average())
                .aggregate_detailed_stale(
                    vectors[:, lo:hi], staleness, used_params=used[:, lo:hi]
                )
                .vector
            )
        assert result.vector.tobytes() == expected.tobytes()

    def test_name_and_tolerance_delegation(self):
        sharded = ShardedAggregator(Krum(f=2), 3)
        assert sharded.name == "sharded(krum(f=2),shards=3)"
        sharded.check_tolerance(9)
        from repro.exceptions import ByzantineToleranceError

        with pytest.raises(ByzantineToleranceError):
            sharded.check_tolerance(5)

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            ShardedAggregator("average", 2)
        with pytest.raises(ConfigurationError):
            ShardedAggregator(Average(), 0)

    def test_more_shards_than_coordinates_rejected_at_aggregation(self):
        sharded = ShardedAggregator(Average(), 8)
        with pytest.raises(ConfigurationError):
            sharded.aggregate_detailed(np.zeros((4, 5)))
