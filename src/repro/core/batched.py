"""Batched aggregation kernels — many scenarios through one tensor op.

The scenario-grid engine (:mod:`repro.engine`) carries a ``(B, n, d)``
tensor of proposal stacks — B replica scenarios, n workers each — through
its round loop.  Executing the choice function once per scenario from
Python makes benchmark wall-time a function of interpreter overhead
rather than of the O(n² · d) arithmetic of Lemma 4.1; this module instead
stacks the scenarios into single tensor kernels (one batched GEMM for all
Krum distance matrices, one batched sort for all trimmed means, one
masked committee sweep for all Bulyan selections, one lock-step Weiszfeld
iteration for all geometric medians, ...).

Every kernel is **bit-for-bit identical** to the per-scenario rule it
replaces: ``aggregate_batch(stacks)[b]`` equals
``aggregator.aggregate_detailed(stacks[b])`` down to the last float.
That identity — enforced by ``tests/engine/test_differential.py`` — is
what makes the engine a safe substitute for the per-scenario loop.

Rules without a vectorized kernel still work through
:func:`make_batched_aggregator`: the registry falls back to
:class:`LoopBatchedAggregator`, which runs the ordinary per-scenario path
(so a grid can mix, say, Krum with the exponential minimal-diameter rule
and only the latter pays Python-loop cost).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.aggregator import Aggregator
from repro.core.bulyan import batched_bulyan
from repro.exceptions import (
    ByzantineToleranceError,
    ConfigurationError,
    DimensionMismatchError,
)
from repro.utils.linalg import (
    batch_chunk_size,
    batched_pairwise_sq_distances,
    coordinate_median,
)

__all__ = [
    "BatchedAggregationResult",
    "BatchedAggregator",
    "LoopBatchedAggregator",
    "batched_krum_scores",
    "batched_average",
    "batched_coordinate_median",
    "batched_trimmed_mean",
    "register_batched_kernel",
    "has_batched_kernel",
    "batched_kernel_names",
    "batch_group_key",
    "make_batched_aggregator",
]


# ----------------------------------------------------------------------
# Pure batched kernels
# ----------------------------------------------------------------------


def _as_batch(vectors):
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 3:
        raise DimensionMismatchError(
            f"batched kernels expect shape (B, n, d), got {tuple(vectors.shape)}"
        )
    if vectors.shape[0] == 0 or vectors.shape[1] == 0 or vectors.shape[2] == 0:
        raise DimensionMismatchError(
            f"batch must be non-empty in every axis, got {tuple(vectors.shape)}"
        )
    return vectors


def _chunked_distance_scores(vectors, score_fn):
    """Reduce per-chunk ``(chunk, n, n)`` distance blocks to ``(B, n)``
    scores without ever materializing the full ``(B, n, n)`` tensor.

    ``score_fn`` maps one (writable) distance block to its per-row
    scores.  Chunking only partitions the batch axis, so the result is
    invariant to :data:`~repro.utils.linalg.CHUNK_SIZE`.
    """
    batch, n, _d = vectors.shape
    chunk_size = batch_chunk_size(batch)
    scores = np.empty((batch, n))
    for start in range(0, batch, chunk_size):
        distances = batched_pairwise_sq_distances(
            vectors[start : start + chunk_size], nonfinite_as_inf=True
        )
        scores[start : start + chunk_size] = score_fn(distances)
    return scores


def batched_krum_scores(vectors, f: int):
    """Krum scores for every scenario: ``(B, n, d) -> (B, n)``.

    Slice ``b`` of the result is bit-for-bit equal to
    ``krum_scores(vectors[b], f)``.

    :data:`~repro.utils.linalg.CHUNK_SIZE` caps peak memory: the
    ``(chunk, n, n)`` distance blocks (and their partition copies) are
    materialized one chunk at a time and reduced to ``(chunk, n)``
    scores before the next chunk — the full ``(B, n, n)`` tensor never
    exists.  The scores are invariant to the chunk size.
    """
    vectors = _as_batch(vectors)
    n = vectors.shape[1]
    num_neighbors = n - f - 2
    if num_neighbors < 1:
        raise ByzantineToleranceError(
            f"Krum needs n - f - 2 >= 1 neighbours, got n={n}, f={f}", n=n, f=f
        )
    diagonal = np.arange(n)

    def krum_score(distances):
        distances[:, diagonal, diagonal] = np.inf
        neighbor_part = np.partition(distances, num_neighbors - 1, axis=2)
        return np.sum(neighbor_part[:, :, :num_neighbors], axis=2)

    return _chunked_distance_scores(vectors, krum_score)


def batched_average(vectors):
    """Per-scenario unweighted mean: ``(B, n, d) -> (B, d)``."""
    return np.mean(_as_batch(vectors), axis=1)


def batched_coordinate_median(vectors):
    """Per-scenario coordinate-wise median: ``(B, n, d) -> (B, d)``."""
    return coordinate_median(_as_batch(vectors), 1)


def batched_trimmed_mean(vectors, f: int):
    """Per-scenario coordinate-wise trimmed mean: ``(B, n, d) -> (B, d)``."""
    vectors = _as_batch(vectors)
    n = vectors.shape[1]
    if n <= 2 * f:
        raise ByzantineToleranceError(
            f"trimmed mean needs n > 2f, got n={n}, f={f}", n=n, f=f
        )
    if f == 0:
        return np.mean(vectors, axis=1)
    ordered = np.sort(vectors, axis=1)
    return np.mean(ordered[:, f:-f], axis=1)


# ----------------------------------------------------------------------
# The BatchedAggregator protocol
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BatchedAggregationResult:
    """Outcome of one batched aggregation over B scenario stacks.

    ``vectors`` holds one aggregate per scenario; ``selected`` one index
    array per scenario: row b of a ``(B, k)`` int64 block from a native
    kernel (k = 0 for statistical rules), or item b of a tuple from the
    loop fallback, whose rules may select different counts; ``scores``
    the per-scenario per-worker scores when the rule computes them.
    """

    vectors: object  # (B, d)
    selected: np.ndarray | tuple  # (B, k) int64, or B index arrays
    scores: object | None = None  # (B, n) when present


class BatchedAggregator(ABC):
    """A choice function applied to a batch of proposal stacks at once.

    Implementations must be *observationally identical* to running
    ``aggregator.aggregate_detailed`` on every slice: same vectors (bit
    for bit), same selected indices, same scores.
    """

    #: The per-scenario rule this kernel replicates.
    aggregator: Aggregator

    #: True when the batch runs through a vectorized kernel, False for
    #: the per-scenario loop fallback.
    is_native: bool = True

    #: True when :meth:`aggregate_batch` accepts per-proposal staleness:
    #: the native Kardam kernel (``staleness`` keyword) and the loop
    #: fallback over :class:`~repro.core.staleness.StalenessAwareAggregator`
    #: rules (``staleness`` and ``used_params`` keywords).
    supports_staleness: bool = False

    def __init__(self, aggregator):
        self.aggregator = aggregator

    @abstractmethod
    def aggregate_batch(self, stacks) -> BatchedAggregationResult:
        """Aggregate a ``(B, n, d)`` batch of proposal stacks."""

    def _validated(self, stacks):
        stacks = _as_batch(stacks)
        self.aggregator.check_tolerance(stacks.shape[1])
        return stacks

    def __repr__(self) -> str:
        kind = "native" if self.is_native else "loop"
        return (
            f"{type(self).__name__}({self.aggregator.name!r}, {kind})"
        )


def _no_selection(batch: int) -> np.ndarray:
    """The ``(B, 0)`` selection block of a statistical rule."""
    return np.empty((batch, 0), dtype=np.int64)


class LoopBatchedAggregator(BatchedAggregator):
    """Fallback adapter: run each scenario through its own rule instance.

    Used for rules without a vectorized kernel (minimal-diameter,
    weighted-average, kardam with a dropping filter, and any externally
    registered rule; kernels are dispatched by exact type).  Keeping one
    instance per scenario preserves any per-instance configuration
    exactly as the loop engine would see it.  A single instance adapts
    to any batch size (every slice runs through the same rule — the
    Monte-Carlo trial batching case).
    """

    is_native = False

    def __init__(self, aggregators: Sequence[Aggregator]):
        # Imported lazily: repro.core.staleness imports the aggregator
        # interface from this package's sibling module.
        from repro.core.staleness import StalenessAwareAggregator

        if not aggregators:
            raise ConfigurationError("need at least one aggregator instance")
        self.aggregators = list(aggregators)
        self.aggregator = self.aggregators[0]
        self.supports_staleness = all(
            isinstance(rule, StalenessAwareAggregator)
            for rule in self.aggregators
        )

    def _instances(self, batch: int) -> list[Aggregator]:
        if len(self.aggregators) == 1:
            return self.aggregators * batch
        if batch != len(self.aggregators):
            raise DimensionMismatchError(
                f"batch of {batch} scenarios but "
                f"{len(self.aggregators)} aggregator instances"
            )
        return self.aggregators

    def aggregate_batch(
        self, stacks, *, staleness=None, used_params=None
    ) -> BatchedAggregationResult:
        """Aggregate each scenario through its own rule instance.

        ``staleness`` (``(B, n)`` ints) and ``used_params`` (``(B, n,
        d)``) route through the staleness-aware interface when every
        instance implements it (``aggregate_detailed_stale``), so the
        loop/batched differential identity extends to async cells.
        """
        stacks = _as_batch(stacks)
        if staleness is not None and not self.supports_staleness:
            raise ConfigurationError(
                f"rule {self.aggregator.name!r} is not staleness-aware; "
                f"cannot aggregate stale proposals through it"
            )
        vectors = np.empty((stacks.shape[0], stacks.shape[2]))
        selected: list[np.ndarray] = []
        scores: list[np.ndarray | None] = []
        for b, rule in enumerate(self._instances(stacks.shape[0])):
            if staleness is not None:
                result = rule.aggregate_detailed_stale(
                    stacks[b],
                    staleness[b],
                    used_params=(
                        None if used_params is None else used_params[b]
                    ),
                )
            else:
                result = rule.aggregate_detailed(stacks[b])
            vectors[b] = result.vector
            selected.append(result.selected)
            scores.append(result.scores)
        stacked_scores = (
            np.stack(scores) if all(s is not None for s in scores) else None
        )
        return BatchedAggregationResult(
            vectors=vectors, selected=tuple(selected), scores=stacked_scores
        )


def _select_winners(stacks, scores):
    """Per-scenario argmin selection: first minimal index per row — the
    smallest-identifier tie-break of Krum's footnote 3.  The winners
    come back as one ``(B, 1)`` selection block."""
    winners = np.argmin(scores, axis=1).astype(np.int64)
    vectors = stacks[np.arange(stacks.shape[0]), winners]
    return vectors, winners[:, None]


class _BatchedKrum(BatchedAggregator):
    """Vectorized Krum: one batched distance GEMM, one argmin per scenario."""

    def aggregate_batch(self, stacks) -> BatchedAggregationResult:
        stacks = self._validated(stacks)
        scores = batched_krum_scores(stacks, self.aggregator.f)
        vectors, selected = _select_winners(stacks, scores)
        return BatchedAggregationResult(
            vectors=vectors, selected=selected, scores=scores
        )


class _BatchedMultiKrum(BatchedAggregator):
    """Vectorized Multi-Krum: stable argsort, gather, mean over the m best."""

    def aggregate_batch(self, stacks) -> BatchedAggregationResult:
        stacks = self._validated(stacks)
        rule = self.aggregator
        scores = batched_krum_scores(stacks, rule.f)
        order = np.argsort(scores, axis=1, kind="stable")[:, : rule.m]
        selected = order.astype(np.int64, copy=False)
        if rule.m == 1:
            vectors = stacks[np.arange(stacks.shape[0]), order[:, 0]]
        else:
            gathered = np.take_along_axis(stacks, order[:, :, None], axis=1)
            vectors = np.mean(gathered, axis=1)
        return BatchedAggregationResult(
            vectors=vectors, selected=selected, scores=scores
        )


class _BatchedAverage(BatchedAggregator):
    def aggregate_batch(self, stacks) -> BatchedAggregationResult:
        stacks = self._validated(stacks)
        vectors = batched_average(stacks)
        return BatchedAggregationResult(
            vectors=vectors, selected=_no_selection(stacks.shape[0])
        )


class _BatchedCoordinateMedian(BatchedAggregator):
    def aggregate_batch(self, stacks) -> BatchedAggregationResult:
        stacks = self._validated(stacks)
        vectors = batched_coordinate_median(stacks)
        return BatchedAggregationResult(
            vectors=vectors, selected=_no_selection(stacks.shape[0])
        )


class _BatchedTrimmedMean(BatchedAggregator):
    def aggregate_batch(self, stacks) -> BatchedAggregationResult:
        stacks = self._validated(stacks)
        vectors = batched_trimmed_mean(stacks, self.aggregator.f)
        return BatchedAggregationResult(
            vectors=vectors, selected=_no_selection(stacks.shape[0])
        )


class _BatchedBulyan(BatchedAggregator):
    """Vectorized Bulyan: iterated batched-Krum committee selection over a
    shrinking per-scenario candidate mask, then a batched per-coordinate
    trimmed average around the committee median.  Chunking partitions the
    batch axis so the ``(chunk, n, n)`` distance blocks stay bounded."""

    def aggregate_batch(self, stacks) -> BatchedAggregationResult:
        stacks = self._validated(stacks)
        batch = stacks.shape[0]
        chunk_size = batch_chunk_size(batch)
        committee_size = stacks.shape[1] - 2 * self.aggregator.f
        vectors = np.empty((batch, stacks.shape[2]))
        committees = np.empty((batch, committee_size), dtype=np.int64)
        for start in range(0, batch, chunk_size):
            stop = start + chunk_size
            vectors[start:stop], committees[start:stop] = batched_bulyan(
                stacks[start:stop], self.aggregator.f
            )
        return BatchedAggregationResult(
            vectors=vectors, selected=committees
        )


class _BatchedGeometricMedian(BatchedAggregator):
    """Vectorized geometric median: one batched Weiszfeld iteration with
    per-scenario convergence masking instead of B sequential solves.
    Chunking partitions the batch axis (each lane's iteration is
    independent, so results are chunk-invariant)."""

    def aggregate_batch(self, stacks) -> BatchedAggregationResult:
        # Imported lazily to avoid circular imports at package load (the
        # baselines import repro.core.aggregator).
        from repro.baselines.medians import batched_weiszfeld

        stacks = self._validated(stacks)
        batch = stacks.shape[0]
        chunk_size = batch_chunk_size(batch)
        rule = self.aggregator
        vectors = np.empty((batch, stacks.shape[2]))
        for start in range(0, batch, chunk_size):
            stop = start + chunk_size
            vectors[start:stop] = batched_weiszfeld(
                stacks[start:stop],
                tolerance=rule.tolerance,
                max_iterations=rule.max_iterations,
            )
        return BatchedAggregationResult(
            vectors=vectors, selected=_no_selection(batch)
        )


class _BatchedClosestToAll(BatchedAggregator):
    def aggregate_batch(self, stacks) -> BatchedAggregationResult:
        stacks = self._validated(stacks)
        scores = _chunked_distance_scores(
            stacks, lambda distances: np.sum(distances, axis=2)
        )
        vectors, selected = _select_winners(stacks, scores)
        return BatchedAggregationResult(
            vectors=vectors, selected=selected, scores=scores
        )


class _BatchedKardam(BatchedAggregator):
    """Vectorized Kardam with both filters off (no ``drop_above``, no
    ``lipschitz_quantile``): multiply each stale cell's stack by its
    ``Λ(τ)`` row, then run the inner rule's kernel.  No row is dropped,
    so the inner selection is the cell's selection.  A cell whose
    staleness row is all zero is left untouched, exactly as
    ``aggregate_detailed_stale`` skips the multiply."""

    supports_staleness = True

    @staticmethod
    def supports(rule) -> bool:
        """Dropping filters keep per-instance state (the Lipschitz
        memory) and change the stack size, so only the filters-off rule
        has a kernel — and only when its inner rule does."""
        return (
            rule.drop_above is None
            and rule.lipschitz_quantile is None
            and has_batched_kernel(rule.inner)
        )

    def __init__(self, aggregator):
        super().__init__(aggregator)
        self.inner = make_batched_aggregator(aggregator.inner)

    def aggregate_batch(
        self, stacks, *, staleness=None
    ) -> BatchedAggregationResult:
        """Aggregate a ``(B, n, d)`` batch; ``staleness`` is the ``(B,
        n)`` host-side integer block (``None`` means every proposal is
        fresh)."""
        stacks = self._validated(stacks)
        if staleness is None:
            return self.inner.aggregate_batch(stacks)
        staleness = np.asarray(staleness, dtype=np.int64)
        if staleness.shape != tuple(stacks.shape[:2]):
            raise DimensionMismatchError(
                f"staleness must be {tuple(stacks.shape[:2])}, "
                f"got {staleness.shape}"
            )
        negative = staleness.min(axis=1) < 0
        if negative.any():
            row = staleness[negative.argmax()]
            raise ConfigurationError(
                f"staleness must be >= 0, got {row.tolist()}"
            )
        stale = (staleness.max(axis=1) > 0).tolist()
        if any(stale):
            stacks = np.copy(stacks)
            for b, is_stale in enumerate(stale):
                if is_stale:
                    factor = self.aggregator.dampening_factor(staleness[b])
                    factor = np.asarray(factor, dtype=np.float64)
                    stacks[b] = stacks[b] * factor[:, None]
        return self.inner.aggregate_batch(stacks)


# ----------------------------------------------------------------------
# Registry-driven adaptation
# ----------------------------------------------------------------------

_BUILDERS: dict[type, Callable[..., BatchedAggregator]] = {}


def register_batched_kernel(
    aggregator_type: type, builder: Callable[..., BatchedAggregator]
) -> None:
    """Register a vectorized kernel for an :class:`Aggregator` subclass.

    ``builder(aggregator)`` must return a :class:`BatchedAggregator`
    replicating that instance bit-for-bit.
    A builder with a ``supports(aggregator) -> bool`` attribute covers
    only the instances it accepts; the others take the loop fallback.
    Later registrations override.
    """
    if not isinstance(aggregator_type, type):
        raise ConfigurationError(
            f"aggregator_type must be a class, got {aggregator_type!r}"
        )
    _BUILDERS[aggregator_type] = builder


def has_batched_kernel(aggregator: Aggregator) -> bool:
    """Whether a vectorized kernel replicates this rule instance: one is
    registered for its type and, when the builder has a ``supports``
    predicate (Kardam's), it accepts the instance's configuration."""
    builder = _BUILDERS.get(type(aggregator))
    if builder is None:
        return False
    supports = getattr(builder, "supports", None)
    return supports is None or supports(aggregator)


def batched_kernel_names() -> list[str]:
    """Sorted class names of the rules with vectorized kernels."""
    return sorted(cls.__name__ for cls in _BUILDERS)


def batch_group_key(aggregator: Aggregator) -> tuple[str, str]:
    """Grouping key: scenarios whose rules share this key can share one
    batched kernel call.  The rule's ``name`` encodes its parameters
    (e.g. ``krum(f=6)``), so equal keys mean equal aggregation behavior.
    """
    return (type(aggregator).__qualname__, aggregator.name)


def make_batched_aggregator(
    aggregators: Aggregator | Sequence[Aggregator],
) -> BatchedAggregator:
    """Adapt one rule (or a group of identically-configured instances) to
    the batched protocol.

    Returns the registered vectorized kernel when
    :func:`has_batched_kernel` accepts the rule, otherwise a
    :class:`LoopBatchedAggregator` running the ordinary per-scenario
    path.  When a sequence is given, all instances must share the same
    :func:`batch_group_key`; the loop fallback then keeps one instance
    per scenario (batch slice b uses instance b).
    """
    if isinstance(aggregators, Aggregator):
        instances = [aggregators]
    else:
        instances = list(aggregators)
    if not instances:
        raise ConfigurationError("need at least one aggregator instance")
    keys = {batch_group_key(rule) for rule in instances}
    if len(keys) != 1:
        raise ConfigurationError(
            f"cannot batch differently-configured rules together: {sorted(keys)}"
        )
    representative = instances[0]
    if not has_batched_kernel(representative):
        return LoopBatchedAggregator(instances)
    builder = _BUILDERS[type(representative)]
    return builder(representative)


def _register_builtins() -> None:
    # Imported lazily to avoid circular imports at package load (the
    # baselines import repro.core.aggregator).
    from repro.baselines.average import Average
    from repro.baselines.distance_based import ClosestToAll
    from repro.baselines.medians import (
        CoordinateWiseMedian,
        GeometricMedian,
        TrimmedMean,
    )
    from repro.core.bulyan import Bulyan
    from repro.core.krum import Krum, MultiKrum
    from repro.core.staleness import KardamFilter

    register_batched_kernel(Krum, _BatchedKrum)
    register_batched_kernel(MultiKrum, _BatchedMultiKrum)
    register_batched_kernel(Average, _BatchedAverage)
    register_batched_kernel(CoordinateWiseMedian, _BatchedCoordinateMedian)
    register_batched_kernel(TrimmedMean, _BatchedTrimmedMean)
    register_batched_kernel(ClosestToAll, _BatchedClosestToAll)
    register_batched_kernel(Bulyan, _BatchedBulyan)
    register_batched_kernel(GeometricMedian, _BatchedGeometricMedian)
    register_batched_kernel(KardamFilter, _BatchedKardam)


_register_builtins()
