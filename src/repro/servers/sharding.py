"""Parameter sharding — per-shard aggregation over coordinate slices.

A sharded parameter server splits the ``d``-dimensional parameter vector
into ``num_shards`` contiguous coordinate slices and aggregates each
shard independently: shard ``k`` runs the choice function on the
``(n, d_k)`` slice of the proposal stack it owns.  This is the
throughput path of Garfield-style server groups — shards are
embarrassingly parallel and each aggregation is an
``O(n² · d_k)`` problem instead of ``O(n² · d)``.

Semantically, sharding *changes the rule*: Krum over the full vectors
can pick a different winner than Krum run per-shard (each shard scores
distances on its own coordinates), so a sharded cell is a distinct grid
point, never silently substituted — ``num_shards = 1`` skips the wrapper
entirely and the degenerate cell stays bit-for-bit the plain rule.

:func:`shard_bounds` lays the slices out (the server group checks it at
construction).  :class:`ShardedAggregator` is the composable rule
wrapper (the same pattern as
:class:`~repro.core.staleness.KardamFilter`): it implements the
staleness-aware interface, slicing the proposal stack — and, for
staleness-aware inner rules, the used-parameter block — per shard and
concatenating the per-shard aggregates back into one ``(d,)`` vector.
"""

from __future__ import annotations

import numpy as np

from repro.core.aggregator import AggregationResult, Aggregator
from repro.core.staleness import StalenessAwareAggregator
from repro.exceptions import ConfigurationError, DimensionMismatchError

__all__ = ["shard_bounds", "ShardedAggregator"]


def shard_bounds(dimension: int, num_shards: int) -> list[tuple[int, int]]:
    """Contiguous, balanced ``[lo, hi)`` coordinate slices.

    The first ``dimension % num_shards`` shards take one extra
    coordinate (the ``numpy.array_split`` convention); every shard is
    non-empty, so ``num_shards`` may not exceed ``dimension``.
    """
    if int(dimension) < 1:
        raise ConfigurationError(f"dimension must be >= 1, got {dimension}")
    if int(num_shards) < 1:
        raise ConfigurationError(f"num_shards must be >= 1, got {num_shards}")
    if int(num_shards) > int(dimension):
        raise ConfigurationError(
            f"num_shards={num_shards} exceeds dimension={dimension}; "
            f"every shard must own at least one coordinate"
        )
    base, extra = divmod(int(dimension), int(num_shards))
    bounds = []
    lo = 0
    for shard in range(int(num_shards)):
        hi = lo + base + (1 if shard < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


class ShardedAggregator(StalenessAwareAggregator):
    """Run the inner choice function independently on each shard slice.

    ``selected`` is the sorted union of the shards' selections (a worker
    may win one shard and lose another); per-row ``scores`` are not
    comparable across shards, so the result carries none.  Staleness
    handling matches the unsharded rule: a staleness-aware inner rule
    receives the per-proposal staleness vector with the shard's slice of
    the used-parameter block, a plain inner rule aggregates each shard
    synchronously.
    """

    def __init__(self, inner: Aggregator, num_shards: int):
        if not isinstance(inner, Aggregator):
            raise ConfigurationError(
                f"inner must be an Aggregator, got {type(inner).__name__}"
            )
        if int(num_shards) < 1:
            raise ConfigurationError(
                f"num_shards must be >= 1, got {num_shards}"
            )
        self.inner = inner
        self.num_shards = int(num_shards)
        self.name = f"sharded({inner.name},shards={self.num_shards})"

    def check_tolerance(self, num_workers: int) -> None:
        self.inner.check_tolerance(num_workers)

    def aggregate_detailed(self, vectors: np.ndarray) -> AggregationResult:
        vectors = np.asarray(vectors, dtype=np.float64)
        return self.aggregate_detailed_stale(
            vectors, np.zeros(vectors.shape[0], dtype=np.int64)
        )

    def aggregate_detailed_stale(
        self,
        vectors: np.ndarray,
        staleness: np.ndarray,
        *,
        used_params: np.ndarray | None = None,
    ) -> AggregationResult:
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise DimensionMismatchError(
                f"proposals must be (n, d), got {vectors.shape}"
            )
        staleness = np.asarray(staleness, dtype=np.int64)
        if staleness.shape != (vectors.shape[0],):
            raise DimensionMismatchError(
                f"staleness must be ({vectors.shape[0]},), "
                f"got {staleness.shape}"
            )
        if used_params is not None:
            used_params = np.asarray(used_params, dtype=np.float64)
            if used_params.shape != vectors.shape:
                raise DimensionMismatchError(
                    f"used_params must match proposals {vectors.shape}, "
                    f"got {used_params.shape}"
                )
        bounds = shard_bounds(vectors.shape[1], self.num_shards)
        inner_stale = isinstance(self.inner, StalenessAwareAggregator)
        aggregate = np.empty(vectors.shape[1], dtype=np.float64)
        selected: set[int] = set()
        for lo, hi in bounds:
            if inner_stale:
                result = self.inner.aggregate_detailed_stale(
                    vectors[:, lo:hi],
                    staleness,
                    used_params=(
                        None if used_params is None else used_params[:, lo:hi]
                    ),
                )
            else:
                result = self.inner.aggregate_detailed(vectors[:, lo:hi])
            aggregate[lo:hi] = result.vector
            selected.update(int(i) for i in np.asarray(result.selected))
        return AggregationResult(
            vector=aggregate,
            selected=np.asarray(sorted(selected), dtype=np.int64),
        )
