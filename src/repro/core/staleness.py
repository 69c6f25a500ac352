"""Kardam-style staleness filtering — Byzantine tolerance under asynchrony.

Kardam (Damaskinos et al., "Asynchronous Byzantine Machine Learning")
composes two defenses in front of the update rule: an *empirical
Lipschitz filter* that rejects gradients whose growth rate is an outlier
against the recently accepted ones, and a *dampening* function ``Λ(τ)``
that shrinks a proposal by its staleness ``τ`` before it reaches the
update.  :class:`KardamFilter` is this library's composable version: an
:class:`~repro.core.aggregator.Aggregator` wrapper that filters and
dampens the ``(n, d)`` proposal stack *before the inner rule runs*, so
any registered choice function (krum, bulyan, medians, ...) becomes
staleness-aware without modification.

The wrapper implements :class:`StalenessAwareAggregator`: the parameter
server (and the batched executor's loop fallback) hands it the
per-proposal staleness vector and, when available, the parameter vector
each proposal was actually computed at.  Called through the plain
synchronous interface it treats every proposal as fresh and is *exactly*
the inner rule — the zero-staleness degenerate case does not fork
trajectories, which the async differential tests pin bit-for-bit.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from collections.abc import Callable, Iterable

import numpy as np

from repro.core.aggregator import AggregationResult, Aggregator
from repro.exceptions import (
    ByzantineToleranceError,
    ConfigurationError,
    DimensionMismatchError,
    InvalidVectorError,
)
from repro.utils.validation import check_positive_int

__all__ = [
    "StalenessAwareAggregator",
    "KardamFilter",
    "RateWindow",
    "DAMPENING_MODES",
]

#: Supported staleness-dampening functions Λ(τ); all satisfy Λ(0) = 1
#: exactly, so fresh proposals are bitwise untouched.
DAMPENING_MODES = ("none", "inverse", "exponential")


class StalenessAwareAggregator(Aggregator):
    """An aggregator that can exploit per-proposal staleness.

    The parameter server dispatches to
    :meth:`aggregate_detailed_stale` when its aggregator implements this
    interface; plain rules keep receiving the synchronous
    ``aggregate_detailed`` call.  Implementations must degenerate to
    their own synchronous behavior on an all-zero staleness vector.
    """

    def aggregate_detailed_stale(
        self,
        vectors: np.ndarray,
        staleness: np.ndarray,
        *,
        used_params: np.ndarray | None = None,
    ) -> AggregationResult:
        """Aggregate ``(n, d)`` proposals with per-proposal staleness.

        ``staleness[i]`` is the age (in rounds) of proposal ``i``;
        ``used_params[i]``, when given, is the parameter vector proposal
        ``i`` was computed at (the server reconstructs it from its
        bounded history).
        """
        raise NotImplementedError


class RateWindow:
    """The last ``maxlen`` Lipschitz rates in arrival order, with a
    sorted shadow for :meth:`quantile`.

    It has the interface the rules used of a ``deque(maxlen=...)``:
    ``append``, ``extend``, ``maxlen``, ``len``, iteration in arrival
    order and ``np.asarray``.  It holds the deque rather than
    subclassing it, so no inherited mutator (``popleft``, ``+``) can
    bypass the shadow.  A rate is a quotient of norms, so ``append`` rejects
    NaN and anything negative, −0.0 included: a sorted order has no
    place for NaN, and numpy's partition does not order signed zeros.
    """

    def __init__(self, maxlen: int):
        self._values: deque[float] = deque(maxlen=maxlen)
        self._sorted: list[float] = []

    @property
    def maxlen(self) -> int:
        return self._values.maxlen  # type: ignore[return-value]

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self):
        return iter(self._values)

    def __array__(self, dtype=None, copy=None):
        return np.array(self._values, dtype=dtype)

    def append(self, value: float) -> None:
        """Append ``value``, evicting the oldest rate from a full window."""
        self.extend((value,))

    def extend(self, values: Iterable[float]) -> None:
        """:meth:`append` each of ``values`` in order."""
        window, ordered = self._values, self._sorted
        for value in values:
            value = float(value)
            if not value >= 0.0 or math.copysign(1.0, value) < 0.0:
                raise InvalidVectorError(
                    f"a rate window holds non-negative rates, got {value!r}"
                )
            if len(ordered) == window.maxlen:
                del ordered[bisect_left(ordered, window[0])]
            window.append(value)
            insort(ordered, value)

    def quantile(self, q: float) -> float:
        """``np.quantile(np.asarray(window), q)`` bit for bit.

        Numpy's ``linear`` method in Python floats on the sorted shadow:
        the virtual index ``(n − 1)·q``, its floor, the clip of both
        neighbours to the last entry at ``≥ n − 1`` (where the weight
        becomes ``index + 1``), then ``_lerp``'s two branches.  The
        window must not be empty.
        """
        top = len(self._sorted) - 1
        index = top * q
        below = math.floor(index)
        above = below + 1
        if index >= top:
            below = above = -1
        weight = index - below
        low, high = self._sorted[below], self._sorted[above]
        step = high - low
        if weight >= 0.5:
            return high - step * (1 - weight)
        return low + step * weight


class KardamFilter(StalenessAwareAggregator):
    """Dampen and filter stale proposals before an inner choice function.

    Parameters
    ----------
    inner:
        The wrapped rule that aggregates the filtered stack.
    dampening:
        ``Λ(τ)`` applied to each proposal: ``"inverse"`` (default,
        Kardam's ``1 / (1 + τ)``), ``"exponential"`` (``gamma ** τ``),
        or ``"none"``.  All modes satisfy ``Λ(0) = 1`` exactly.
    gamma:
        Base of the exponential dampening, in (0, 1].
    drop_above:
        Proposals with ``τ > drop_above`` are removed from the stack
        entirely (the hard bounded-staleness cut); ``None`` keeps all.
    lipschitz_quantile:
        When set (in (0, 1]), enables the empirical Lipschitz filter: a
        proposal whose growth rate ``‖v_i(t) − v_i(t')‖ / ‖x_i(t) −
        x_i(t')‖`` (successive proposals of the same worker slot, at the
        parameters each was computed at) exceeds this quantile of the
        recently accepted rates is dropped for the round.  Requires the
        caller to supply ``used_params``; rounds without them skip the
        filter.  Stateful across rounds — build one instance per
        simulation cell, as the registries do.
    window:
        How many accepted Lipschitz coefficients the quantile is taken
        over.

    If a round's filters would drop *every* proposal, the drop is waived
    for that round (liveness over filtering — the dampening still
    applies), mirroring Kardam's guarantee that the server always makes
    progress.

    When the filters *partially* drop rows, the surviving stack can be
    too small for the inner rule's ``2f + 2 < n`` precondition even
    though the full stack satisfied it.  By default the filter then
    degrades gracefully: it rebuilds the inner rule at the largest
    effective ``f`` the surviving stack tolerates (``inner_builder(
    f_eff)`` when supplied, else ``type(inner)(f=f_eff)``) and
    aggregates with that — the filtered rows are, after all, the ones
    Kardam vouches for.  ``strict=True`` restores the old behavior and
    re-raises the :class:`~repro.exceptions.ByzantineToleranceError`.
    """

    def __init__(
        self,
        inner: Aggregator,
        *,
        dampening: str = "inverse",
        gamma: float = 0.5,
        drop_above: int | None = None,
        lipschitz_quantile: float | None = None,
        window: int = 256,
        strict: bool = False,
        inner_builder: Callable[[int], Aggregator] | None = None,
    ):
        if not isinstance(inner, Aggregator):
            raise ConfigurationError(
                f"inner must be an Aggregator, got {type(inner).__name__}"
            )
        if dampening not in DAMPENING_MODES:
            raise ConfigurationError(
                f"dampening must be one of {DAMPENING_MODES}, "
                f"got {dampening!r}"
            )
        if not 0.0 < float(gamma) <= 1.0:
            raise ConfigurationError(
                f"gamma must be in (0, 1], got {gamma}"
            )
        if drop_above is not None:
            drop_above = check_positive_int(drop_above, "drop_above", minimum=0)
        if lipschitz_quantile is not None and not (
            0.0 < float(lipschitz_quantile) <= 1.0
        ):
            raise ConfigurationError(
                f"lipschitz_quantile must be in (0, 1], "
                f"got {lipschitz_quantile}"
            )
        window = check_positive_int(window, "window")
        if not isinstance(strict, bool):
            raise ConfigurationError(
                f"strict must be a bool, got {type(strict).__name__}"
            )
        if inner_builder is not None and not callable(inner_builder):
            raise ConfigurationError(
                "inner_builder must be callable (f_eff -> Aggregator), "
                f"got {type(inner_builder).__name__}"
            )
        self.inner = inner
        self.strict = strict
        self.inner_builder = inner_builder
        # Effective-f fallback aggregators, built lazily the first time
        # the filtered stack undershoots the inner precondition and
        # cached so repeated shortfalls reuse one instance per f_eff.
        self._degraded: dict[int, Aggregator] = {}
        self.dampening = dampening
        self.gamma = float(gamma)
        self.drop_above = drop_above
        self.lipschitz_quantile = (
            None if lipschitz_quantile is None else float(lipschitz_quantile)
        )
        self.window = window
        # Per-worker-slot previous (proposal, params) for the empirical
        # Lipschitz coefficient, plus the accepted-coefficient window.
        self._previous: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._coefficients = RateWindow(maxlen=self.window)
        self.name = self._encode_name()

    def _encode_name(self) -> str:
        extras = []
        if self.dampening != "inverse":
            extras.append(f"dampening={self.dampening}")
        if self.dampening == "exponential" and self.gamma != 0.5:
            extras.append(f"gamma={self.gamma}")
        if self.drop_above is not None:
            extras.append(f"drop_above={self.drop_above}")
        if self.lipschitz_quantile is not None:
            extras.append(f"lipschitz_quantile={self.lipschitz_quantile}")
            if self.window != 256:
                extras.append(f"window={self.window}")
        if self.strict:
            extras.append("strict=True")
        suffix = ("," + ",".join(extras)) if extras else ""
        return f"kardam({self.inner.name}{suffix})"

    # ------------------------------------------------------------------

    def check_tolerance(self, num_workers: int) -> None:
        self.inner.check_tolerance(num_workers)

    def dampening_factor(self, staleness: np.ndarray) -> np.ndarray:
        """``Λ(τ)`` per proposal; ``Λ(0) == 1.0`` exactly in every mode."""
        staleness = np.asarray(staleness, dtype=np.float64)
        if self.dampening == "none":
            return np.ones_like(staleness)
        if self.dampening == "inverse":
            return 1.0 / (1.0 + staleness)
        return self.gamma**staleness

    def aggregate_detailed(self, vectors: np.ndarray) -> AggregationResult:
        """Synchronous call: every proposal is fresh — exactly the inner
        rule.  No ``used_params`` are available on this interface, so
        the Lipschitz filter (which needs them) stays disarmed; it only
        observes rounds dispatched through
        :meth:`aggregate_detailed_stale`, as the parameter server does."""
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
        if np.any(staleness < 0):
            raise ConfigurationError(
                f"staleness must be >= 0, got {staleness.tolist()}"
            )
        if used_params is not None:
            used_params = np.asarray(used_params, dtype=np.float64)
            if used_params.shape != vectors.shape:
                raise DimensionMismatchError(
                    f"used_params must match proposals {vectors.shape}, "
                    f"got {used_params.shape}"
                )

        keep = np.ones(vectors.shape[0], dtype=bool)
        if self.drop_above is not None:
            keep &= staleness <= self.drop_above
        if self.lipschitz_quantile is not None and used_params is not None:
            keep &= self._lipschitz_keep(
                vectors, used_params, admissible=keep
            )
        if not keep.any():
            # Liveness: a round must produce an update.  Waive the drop
            # and let the dampening alone arbitrate.
            keep[:] = True

        kept = np.flatnonzero(keep)
        filtered = vectors[kept]
        kept_staleness = staleness[kept]
        if np.any(kept_staleness > 0):
            filtered = (
                filtered
                * self.dampening_factor(kept_staleness)[:, None]
            )
        result = self._aggregate_filtered(filtered)
        if kept.size == vectors.shape[0]:
            return result
        # Rows were dropped: map the inner rule's selected indices (and
        # scores) back to the caller's original row positions.
        selected = kept[np.asarray(result.selected, dtype=np.int64)]
        scores = None
        if result.scores is not None:
            scores = np.full(vectors.shape[0], np.nan)
            scores[kept] = result.scores
        return AggregationResult(
            vector=result.vector, selected=selected, scores=scores
        )

    def _aggregate_filtered(self, filtered: np.ndarray) -> AggregationResult:
        """Run the inner rule on the surviving stack, degrading its
        effective ``f`` when the filters left too few rows for the
        declared precondition (``strict=True`` re-raises instead)."""
        num_rows = int(filtered.shape[0])
        try:
            self.inner.check_tolerance(num_rows)
        except ByzantineToleranceError:
            if self.strict:
                raise
            degraded = self._degraded_inner(num_rows)
            if degraded is None:
                raise
            return degraded.aggregate_detailed(filtered)
        return self.inner.aggregate_detailed(filtered)

    def _degraded_inner(self, num_rows: int) -> Aggregator | None:
        """Largest-``f`` rebuild of the inner rule whose precondition
        admits ``num_rows`` proposals, or ``None`` when no rebuild does
        (the caller then re-raises the original tolerance error).
        Candidates come from ``inner_builder`` when supplied, else from
        ``type(self.inner)(f=f_eff)``; either failing to build a given
        ``f_eff`` just moves the search down."""
        declared = getattr(self.inner, "f", None)
        if declared is None:
            return None
        for f_eff in range(int(declared) - 1, -1, -1):
            candidate = self._degraded.get(f_eff)
            if candidate is None:
                try:
                    if self.inner_builder is not None:
                        candidate = self.inner_builder(f_eff)
                    else:
                        candidate = type(self.inner)(f=f_eff)
                except (ConfigurationError, TypeError):
                    continue
                if not isinstance(candidate, Aggregator):
                    continue
                self._degraded[f_eff] = candidate
            try:
                candidate.check_tolerance(num_rows)
            except ByzantineToleranceError:
                continue
            return candidate
        return None

    def _lipschitz_keep(
        self,
        vectors: np.ndarray,
        used_params: np.ndarray,
        *,
        admissible: np.ndarray,
    ) -> np.ndarray:
        """Empirical-Lipschitz verdict per worker slot, then update the
        per-slot memory and the accepted-coefficient window.

        A slot's coefficient compares its current and previous proposals
        at the parameters each was computed at.  Slots without history,
        or whose parameter displacement is zero, pass trivially (no
        rate to measure).  ``admissible`` marks rows that survived the
        earlier filters: only their coefficients may enter the learned
        window — a proposal the hard staleness cut already rejected must
        not steer the quantile threshold.
        """
        n = vectors.shape[0]
        keep = np.ones(n, dtype=bool)
        coefficients: list[tuple[int, float]] = []
        for i in range(n):
            previous = self._previous.get(i)
            if previous is not None:
                prev_vector, prev_params = previous
                displacement = float(
                    np.linalg.norm(used_params[i] - prev_params)
                )
                if displacement > 0.0:
                    rate = (
                        float(np.linalg.norm(vectors[i] - prev_vector))
                        / displacement
                    )
                    coefficients.append((i, rate))
        if coefficients and len(self._coefficients) > 0:
            threshold = self._coefficients.quantile(self.lipschitz_quantile)
            for i, rate in coefficients:
                if rate > threshold:
                    keep[i] = False
        # Memory updates: every observed slot advances; only rates of
        # proposals accepted by *every* filter enter the window (Kardam's
        # filter learns from the gradients it admitted).
        for i, rate in coefficients:
            if keep[i] and admissible[i] and np.isfinite(rate):
                self._coefficients.append(rate)
        for i in range(n):
            self._previous[i] = (vectors[i].copy(), used_params[i].copy())
        return keep
