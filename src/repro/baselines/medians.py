"""Robust statistical aggregators: medians and trimmed means.

These postdate or parallel the paper (coordinate-wise median and trimmed
mean were analyzed by Yin et al. 2018; the geometric median is the
classical robust estimator the paper's proof technique is "reminiscent
of").  They are included as ablation baselines: they behave differently
from Krum because they synthesize a new vector instead of selecting a
proposed one.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.core.aggregator import AggregationResult, Aggregator
from repro.exceptions import (
    ByzantineToleranceError,
    ConfigurationError,
    ConvergenceError,
    DimensionMismatchError,
)
from repro.utils.linalg import (
    coordinate_median,
    masked_inverse_distance_weights,
    masked_unit_direction_sum,
)
from repro.utils.validation import check_positive_int

__all__ = [
    "CoordinateWiseMedian",
    "TrimmedMean",
    "GeometricMedian",
    "batched_weiszfeld",
]


class CoordinateWiseMedian(Aggregator):
    """Per-coordinate median of the proposals."""

    name = "coordinate-median"

    def aggregate_detailed(self, vectors: np.ndarray) -> AggregationResult:
        vectors = self._validated(vectors)
        return AggregationResult(vector=coordinate_median(vectors, 0))


class TrimmedMean(Aggregator):
    """Per-coordinate mean after dropping the f smallest and f largest.

    Requires ``n > 2f`` so at least one value per coordinate survives the
    trim.
    """

    def __init__(self, f: int):
        self.f = check_positive_int(f, "f", minimum=0)
        self.name = f"trimmed-mean(f={self.f})"

    def check_tolerance(self, num_workers: int) -> None:
        if num_workers <= 2 * self.f:
            raise ByzantineToleranceError(
                f"trimmed mean needs n > 2f, got n={num_workers}, f={self.f}",
                n=num_workers,
                f=self.f,
            )

    def aggregate_detailed(self, vectors: np.ndarray) -> AggregationResult:
        vectors = self._validated(vectors)
        if self.f == 0:
            return AggregationResult(vector=vectors.mean(axis=0))
        ordered = np.sort(vectors, axis=0)
        trimmed = ordered[self.f : -self.f]
        return AggregationResult(vector=trimmed.mean(axis=0))


# Coincidence threshold of the Weiszfeld singularity handling, relative
# to the spread of the current distance profile (with a floor of 1.0 so
# near-zero clouds do not divide by vanishing scales).  An absolute
# threshold would silently never fire for large-magnitude inputs and
# could fire spuriously for tiny ones.
_COINCIDENCE_RTOL = 1e-12

# Objective stagnation below this relative level counts as a stall; see
# the stall-strike commentary in batched_weiszfeld.
_STALL_RTOL = 1e-12

# Weiszfeld defaults, shared by batched_weiszfeld, GeometricMedian's
# constructor, and the default-name check (which must agree with the
# constructor, or identically-configured instances would land in
# different engine batch groups).
_DEFAULT_TOLERANCE = 1e-9
_DEFAULT_MAX_ITERATIONS = 1000

# Relative slack on the Vardi–Zhang comparison ``‖R‖ <= multiplicity``.
# When the residual exceeds the multiplicity by rounding dust only, the
# true median is within float resolution of the data point (the
# objective is flat to first order there) but the strict comparison
# rejects it — and Weiszfeld then crawls sublinearly across a near-flat
# objective until the iteration budget runs out.  A 1e-12 relative
# margin certifies such marginal points while staying far below any
# statistically meaningful difference.
_VZ_SLACK = 1e-12

# Relative suboptimality an out-of-steps iterate x may carry and still be
# returned: f(x) minus the best lower bound on f* that
# :func:`_objective_floor` takes at x and at every data point must be
# within _GAP_RTOL·f(x).
_GAP_RTOL = 1e-3


def _row_norms(vectors):
    """Per-row euclidean norms along the last axis, NaN/Inf passed through."""
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        return np.sqrt(np.einsum("...d,...d->...", vectors, vectors))


def _point_optimality(values, anchors):
    """Vardi–Zhang verdict for per-scenario anchor data points.

    ``optimal[b]`` certifies ``anchors[b]`` as scenario b's geometric
    median: the residual norm of the unit vectors from the anchor to the
    points outside its coincidence cluster is within the cluster
    multiplicity (including the degenerate case of every row coinciding
    with the anchor).  The verdict depends only on the fixed data
    points, never on the current iterate — the Weiszfeld loop caches it
    per (scenario, nearest point) instead of re-deriving it every
    iteration.  Point distances come from direct row differences (no
    GEMM expansion — its cancellation error at large offsets would
    corrupt the scale-relative coincidence test).
    """
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        offsets = values - anchors[:, None, :]
        point_distances = np.sqrt(np.einsum("bnd,bnd->bn", offsets, offsets))
    r_norm, multiplicity, others = _vardi_zhang_residual(
        values, anchors, point_distances, offsets=offsets
    )
    return ~np.any(others, axis=1) | (r_norm <= multiplicity * (1.0 + _VZ_SLACK))


def _vardi_zhang_residual(values, anchors, distances, *, offsets=None):
    """Vardi–Zhang residual around per-scenario anchor points.

    Rows within ``_COINCIDENCE_RTOL`` of the anchor (relative to the
    scenario's distance spread) form the anchor's cluster; the residual
    ``R`` is the summed unit vector from the anchor to the *other* rows
    (``offsets`` forwards a precomputed ``values - anchors`` tensor, which
    is divided in place into those unit vectors).
    Returns ``(r_norm (B,), multiplicity (B,), others (B, n))``.
    """
    scale = np.fmax(1.0, np.max(distances, axis=1))
    coincident = distances <= _COINCIDENCE_RTOL * scale[:, None]
    others = ~coincident
    residual = masked_unit_direction_sum(
        values, anchors, distances, others, offsets=offsets
    )
    r_norm = _row_norms(residual)
    multiplicity = np.count_nonzero(coincident, axis=1).astype(np.float64)
    return r_norm, multiplicity, others


def _lane_gram(stacks):
    """Each lane's data-point Gram matrix ``(B, n, n)`` and the row norms
    ``(B, n)`` read off its diagonal — the inputs of
    :func:`_screen_rejects`, computed once per solve."""
    diagonal = np.arange(stacks.shape[1])
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        gram = stacks @ np.transpose(stacks, (0, 2, 1))
        return gram, np.sqrt(gram[:, diagonal, diagonal])


def _screen_rejects(gram, norms, anchors, dimension: int):
    """Lanes whose anchor row the exact Vardi–Zhang test provably rejects.

    ``anchors`` (A,) indexes each lane's anchor row j.  From the Gram
    matrix, ``‖R_j‖² = Σ_{i,k≠j} P_ik / (D_i·D_k)`` with the offset Gram
    ``P_ik = ⟨V_i − V_j, V_k − V_j⟩`` and ``D_i² = P_ii`` costs O(n²)
    instead of the exact test's O(n·d).  A computed Gram entry is off by
    at most ``γ·‖V_i‖‖V_k‖`` (γ from the working dtype's epsilon, doubled
    to cover the norms read off the diagonal and the few additions), so
    ``|P̂_ik − P_ik| <= γ·M_i·M_k`` with ``M_i = ‖V_i‖ + ‖V_j‖``.  With
    ``t_i = γ·M_i² / P̂_ii <= 1/4`` every computed cosine is within
    ``1.5·(t_i + t_k)`` of the true one, which bounds ``‖R_j‖²`` from
    below.  A lane is rejected only when
    - every row is finite,
    - every other row is provably farther from the anchor than the exact
      test's coincidence threshold, so its multiplicity is exactly 1, and
    - that lower bound exceeds ``1 + _VZ_SLACK`` plus the exact test's own
      rounding (n unit directions, each within γ of its true value).
    Any other lane is left to :func:`_point_optimality`, which stays the
    only path that can certify a data point.
    """
    lanes, n = norms.shape
    rows = np.arange(lanes)
    cols = np.arange(n)
    unit = np.finfo(np.float64).eps / 2.0
    terms = dimension + n + 8
    gamma = 2.0 * terms * unit / (1.0 - terms * unit)
    others_count = n - 1
    pairs = others_count * others_count + 8
    sum_rounding = 4.0 * others_count * others_count * pairs * unit / (
        1.0 - pairs * unit
    )
    anchor_row = gram[rows, anchors]
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        offset_gram = (
            gram
            - anchor_row[:, :, None]
            - anchor_row[:, None, :]
            + anchor_row[rows, anchors][:, None, None]
        )
        squares = offset_gram[:, cols, cols]
        reach = norms + norms[rows, anchors][:, None]
        error = gamma * reach * reach
        others = cols[None, :] != anchors[:, None]
        finite = np.all(np.isfinite(norms), axis=1)
        accurate = np.all(
            ~others | (np.isfinite(squares) & (squares > 4.0 * error)), axis=1
        )
        # Lower/upper bounds on the true offsets; the factor 2 covers the
        # exact test's own distance rounding on both sides.
        upper = np.sqrt(squares + error)
        lower = np.sqrt(np.fmax(squares - error, 0.0))
        threshold = 2.0 * _COINCIDENCE_RTOL * np.fmax(1.0, np.max(upper, axis=1))
        apart = np.all(~others | (lower > threshold[:, None]), axis=1)
        safe = np.where(others, squares, 1.0)
        lengths = np.sqrt(safe)
        pair = others[:, :, None] & others[:, None, :]
        cosines = np.where(
            pair, offset_gram / (lengths[:, :, None] * lengths[:, None, :]), 0.0
        )
        relative_error = np.sum(np.where(others, error / safe, 0.0), axis=1)
        floor = (
            np.sum(np.sum(cosines, axis=2), axis=1)
            - 3.0 * others_count * relative_error
            - sum_rounding
        )
        target = (1.0 + _VZ_SLACK) * (1.0 + 2.0 * gamma) + 2.0 * n * gamma
        return finite & accurate & apart & (floor > target * target)


def _screened_optimality(lanes: _LaneState, candidates, nearest, points):
    """Vardi–Zhang verdicts of ``points`` on the ``candidates`` lanes (False
    elsewhere): the Gram screen rejects what it can prove, and the exact
    test decides the rest."""
    open_lanes = candidates & ~_screen_rejects(
        lanes.gram, lanes.norms, nearest, lanes.values.shape[2]
    )
    verdict = np.zeros(open_lanes.shape, dtype=np.bool_)
    if np.any(open_lanes):
        verdict[open_lanes] = _point_optimality(
            lanes.values[open_lanes], points[open_lanes]
        )
    return verdict


def _objective_floor(values, anchors, *, offsets=None):
    """Lower bounds on each lane's optimal objective f* from anchor points.

    At an anchor y, by convexity f* >= f(y) − ‖g‖·‖y − x*‖ for any
    subgradient g, and ‖y − x*‖ is at most maxᵢ‖y − Vᵢ‖ (the median lies
    in the data's convex hull) and at most 2·f(y)/n (from n‖y − x*‖ −
    f(y) <= f* <= f(y)).  Near a cluster of rows that bound is loose, so
    it is also taken for the objective with the k rows nearest y moved
    onto y, for every k: that moves f by at most their summed distance
    D_k, its minimum-norm subgradient at y has norm max(‖R_k‖ − k, 0)
    with R_k the unit-vector sum over the other rows, and the bound
    becomes f(y) − 2·D_k − max(‖R_k‖ − k, 0)·radius.  The best k wins.
    Rows at distance 0 contribute no direction.  ``offsets`` forwards
    ``values - anchors``.
    """
    lanes, n = values.shape[0], values.shape[1]
    ranks = np.arange(n)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        if offsets is None:
            offsets = values - anchors[:, None, :]
        distances = _row_norms(offsets)
        order = np.argsort(distances, axis=1, kind="stable")
        nearest_first = np.take_along_axis(distances, order, axis=1)
        units = offsets[np.arange(lanes)[:, None], order] / np.where(
            nearest_first > 0.0, nearest_first, 1.0
        )[:, :, None]
        # kept[k, i]: row i (nearest first) still counts when k are moved.
        kept = (ranks[None, :] >= ranks[:, None]).astype(np.float64)
        slopes = np.fmax(
            _row_norms(np.einsum("ki,bid->bkd", kept, units))
            - ranks.astype(np.float64),
            0.0,
        )
        moved = np.einsum("ki,bi->bk", 1.0 - kept, nearest_first)
        objectives = np.sum(distances, axis=1)[:, None]
        radius = np.minimum(
            np.max(distances, axis=1)[:, None], 2.0 * (objectives - moved) / n
        )
        return np.max(objectives - 2.0 * moved - slopes * radius, axis=1)


@dataclass
class _LaneState:
    """Per-lane state of the lock-step Weiszfeld iteration.

    Everything that must stay aligned across the loop's two compaction
    points lives here: :meth:`compact` filters *every* field, so adding
    a new per-lane array cannot silently desynchronize one of the
    compaction sites.  (Arrays local to a single pass — ``diffs``,
    step residuals, ... — are filtered at their own site instead.)
    """

    indices: np.ndarray  # output slots of the still-active lanes
    values: np.ndarray  # (A, n, d) data points
    gram: np.ndarray  # (A, n, n) data-point Gram matrix (screen input)
    norms: np.ndarray  # (A, n) data-point norms (screen input)
    estimates: np.ndarray  # (A, d) current iterates
    cached_nearest: np.ndarray  # (A,) nearest point of the cached verdict
    cached_optimal: np.ndarray  # (A,) cached Vardi–Zhang verdict
    objectives: np.ndarray  # (A,) running best objective
    strikes: np.ndarray  # (A,) consecutive stall count
    shifts: np.ndarray  # (A,) last step's shift

    def compact(self, keep: np.ndarray) -> None:
        """Drop finished lanes from every per-lane array."""
        for field in fields(self):
            setattr(self, field.name, getattr(self, field.name)[keep])


def batched_weiszfeld(
    stacks,
    *,
    tolerance: float = _DEFAULT_TOLERANCE,
    max_iterations: int = _DEFAULT_MAX_ITERATIONS,
):
    """Geometric medians of a ``(B, n, d)`` batch via Weiszfeld iteration.

    Runs every scenario's fixed-point iteration in lock-step with
    per-scenario convergence masking: scenarios that terminate are
    committed to the output and dropped from the working batch, the rest
    keep iterating.  Every arithmetic step is a per-scenario (lane-wise)
    tensor operation, so slice ``b`` of the result is bit-for-bit what a
    batch of the single scenario ``stacks[b]`` produces — which is
    exactly how :class:`GeometricMedian` runs it (``B = 1``).

    A scenario terminates when (in priority order per iteration):

    1. the Vardi–Zhang optimality test certifies the data point nearest
       to the iterate as the median (Weiszfeld converges only
       sublinearly toward an optimal *data* point, so testing the
       condition directly is what makes termination fast);
    2. the iterate coincides with a data-point cluster whose residual
       certifies the current estimate (the classical singularity case);
    3. the iterate's shift drops below ``tolerance`` (relative to the
       estimate's magnitude), or the objective stalls for three
       consecutive iterations — near a multiplicity-> 1 data point the
       iteration becomes sublinear: the shift plateaus while the
       objective improves only at floating-point-noise scale, and the
       estimate is positionally converged far below any statistically
       meaningful precision by then (the stall-strike rule).

    The optimality test of step 1 runs behind a reject-only screen: the
    solve computes each lane's ``(n, n)`` Gram matrix once, and
    :func:`_screen_rejects` turns it into an O(n²) lower bound on the
    Vardi–Zhang residual with an explicit floating-point error bound.
    Only a lane the bound cannot reject pays the exact O(n·d) test, so
    every verdict is the exact test's.  Each pass writes ``values −
    estimates`` into one ``(B, n, d)`` workspace allocated per solve and
    divides it into unit directions in place.  A pass where no iterate
    sits within the coincidence threshold of a data point (the common
    case) takes the plain step ``T = e + R / Σw`` and skips the cluster,
    dampening and certification arrays, which give the same bits there.

    A scenario still running after ``max_iterations`` steps returns the
    data point nearest its last iterate that passes the optimality test.
    Failing that, it returns the last iterate ``x`` itself when its
    suboptimality certificate holds: ``f(x) − L <= _GAP_RTOL·f(x)``, where
    ``L`` is the best convexity lower bound on ``f*`` taken at ``x`` and at
    every data point y, ``f(y) − ‖g‖·min(maxᵢ‖y − Vᵢ‖, 2·f(y)/n)`` with
    ``g`` the minimum-norm subgradient at y, also with y's k nearest rows
    moved onto it (see :func:`_objective_floor`).
    Raises :class:`~repro.exceptions.ConvergenceError` when neither holds.

    Non-finite rows: a NaN anywhere in a scenario makes it raise
    :class:`~repro.exceptions.ConvergenceError`, since NaN satisfies no
    convergence predicate.  A row with a ±inf entry is out-voted as long
    as one row is finite: the scenario returns one of its finite rows,
    not the median of the finite rows alone.  A scenario whose every row
    carries a ±inf entry raises.
    """
    stacks = np.asarray(stacks, dtype=np.float64)
    if stacks.ndim != 3:
        raise DimensionMismatchError(
            f"batched Weiszfeld expects shape (B, n, d), "
            f"got {tuple(stacks.shape)}"
        )
    if 0 in tuple(stacks.shape):
        raise DimensionMismatchError(
            f"batch must be non-empty in every axis, got {tuple(stacks.shape)}"
        )
    if tolerance <= 0:
        raise ConfigurationError(f"tolerance must be positive, got {tolerance}")
    if max_iterations < 1:
        raise ConfigurationError(
            f"max_iterations must be >= 1, got {max_iterations}"
        )
    batch, n, dimension = stacks.shape
    results = np.empty((batch, dimension))
    if n == 1:
        results[:] = stacks[:, 0]
        return results

    gram, norms = _lane_gram(stacks)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        estimates = np.mean(stacks, axis=1)
    lanes = _LaneState(
        indices=np.arange(batch),  # output slots of still-active lanes
        values=stacks,
        gram=gram,
        norms=norms,
        estimates=estimates,
        # Lazy per-lane cache of the nearest point's optimality verdict:
        # the verdict is estimate-independent, and the nearest point
        # rarely changes once the iterate homes in, so most iterations
        # reuse it.
        cached_nearest=np.full((batch,), -1, dtype=np.int64),
        cached_optimal=np.zeros((batch,), dtype=np.bool_),
        objectives=np.empty((batch,)),
        strikes=np.zeros((batch,), dtype=np.int64),
        shifts=np.full((batch,), float("nan")),
    )
    workspace = np.empty((batch, n, dimension))

    # The loop runs max_iterations Weiszfeld steps; the shift/stall
    # verdict on step t is evaluated at the top of pass t + 1, where the
    # freshly computed estimate distances double as step t's objective —
    # one distance pass per iteration instead of two.  The committed
    # values and the check order (previous step's shift/stall, then the
    # optimality test, then cluster certification) are unchanged.
    for pass_index in range(max_iterations + 1):
        diffs = workspace[: lanes.values.shape[0]]
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            diffs[...] = lanes.values
            diffs -= lanes.estimates[:, None, :]
        distances = _row_norms(diffs)
        current_objectives = np.sum(distances, axis=1)

        if pass_index > 0:
            # 3. Stall strikes and the shift tolerance for the previous
            #    step (``lanes.estimates`` is that step's result).
            stalled = (
                current_objectives
                >= lanes.objectives - _STALL_RTOL * np.fmax(1.0, lanes.objectives)
            )
            lanes.strikes = np.where(stalled, lanes.strikes + 1, 0)
            converged = lanes.shifts <= tolerance * np.fmax(
                1.0, _row_norms(lanes.estimates)
            )
            finished = converged | (lanes.strikes >= 3)
            lanes.objectives = np.minimum(lanes.objectives, current_objectives)
            if np.any(finished):
                results[lanes.indices[finished]] = lanes.estimates[finished]
                keep = ~finished
                if not np.any(keep):
                    return results
                lanes.compact(keep)
                diffs = diffs[keep]
                distances = distances[keep]
        else:
            lanes.objectives = current_objectives

        if pass_index == max_iterations:
            break  # final pass only settles the last step's verdict

        rows = np.arange(lanes.values.shape[0])

        # 1. Optimality test at the nearest data point, served from the
        #    per-lane cache and recomputed only where `nearest` moved.
        nearest = np.argmin(distances, axis=1)
        points = lanes.values[rows, nearest]
        stale = nearest != lanes.cached_nearest
        if np.any(stale):
            lanes.cached_optimal[stale] = _screened_optimality(
                lanes, stale, nearest, points
            )[stale]
            lanes.cached_nearest[stale] = nearest[stale]
        optimal = lanes.cached_optimal
        results[lanes.indices[optimal]] = points[optimal]
        done = np.copy(optimal)

        # 2. Singularity handling at the current iterate.  Lanes whose
        #    iterate sits on a data-point cluster either stop (residual
        #    within the cluster multiplicity) or will take the dampened
        #    Vardi–Zhang step; clean lanes take the plain step.  The
        #    residual divides ``diffs`` in place and doubles as the step
        #    direction below.  When no lane sits on a cluster (``clean``),
        #    the cluster arrays are all-false no-ops and are skipped.
        step_scale = np.fmax(1.0, np.max(distances, axis=1))
        at_point = distances <= _COINCIDENCE_RTOL * step_scale[:, None]
        clean = not np.any(at_point)
        step_others = ~at_point
        weights = masked_inverse_distance_weights(
            distances, step_others
        )
        weight_sum = np.sum(weights, axis=1)
        step_r = masked_unit_direction_sum(
            lanes.values,
            lanes.estimates,
            distances,
            step_others,
            offsets=diffs,
        )
        if not clean:
            at_cluster = np.any(at_point, axis=1)
            has_others = np.any(step_others, axis=1)
            step_r_norm = _row_norms(step_r)
            step_mult = np.count_nonzero(at_point, axis=1).astype(np.float64)
            certified = at_cluster & has_others & (
                step_r_norm <= step_mult * (1.0 + _VZ_SLACK)
            )
            # Commit lanes finishing before the step, in priority order.
            stop_current = ((at_cluster & ~has_others) | certified) & ~done
            results[lanes.indices[stop_current]] = lanes.estimates[stop_current]
            done |= stop_current
        if np.any(done):
            keep = ~done
            if not np.any(keep):
                return results
            lanes.compact(keep)
            step_r = step_r[keep]
            weight_sum = weight_sum[keep]
            if not clean:
                step_r_norm = step_r_norm[keep]
                step_mult = step_mult[keep]
                at_cluster = at_cluster[keep]

        # The Weiszfeld step itself: the fixed-point target is the
        # estimate displaced by the weighted residual,
        # ``T = e + R / Σw`` (one small correction instead of a second
        # full-size weighted sum).
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            new_estimates = lanes.estimates + step_r / weight_sum[:, None]
            if not clean:
                dampening = (step_r_norm - step_mult) / np.where(
                    step_r_norm > 0.0, step_r_norm, 1.0
                )
                corrected = (
                    (1.0 - dampening)[:, None] * lanes.estimates
                    + dampening[:, None] * new_estimates
                )
                new_estimates = np.where(
                    at_cluster[:, None], corrected, new_estimates
                )
            lanes.shifts = _row_norms(new_estimates - lanes.estimates)
        lanes.estimates = new_estimates

    # Out of steps.  A lane can be crawling toward an optimal data point
    # other than its nearest one, along a nearly flat objective that the
    # nearest-point test cannot see across: certify its data points
    # from the nearest outward and commit the first that passes.
    rows = np.arange(lanes.values.shape[0])
    pending = np.full((len(lanes.indices),), True, dtype=np.bool_)
    order = np.argsort(distances, axis=1, kind="stable")
    for nearest in np.transpose(order, (1, 0)):
        points = lanes.values[rows, nearest]
        certified = _screened_optimality(lanes, pending, nearest, points)
        results[lanes.indices[certified]] = points[certified]
        pending &= ~certified
        if not np.any(pending):
            return results
    # Failing that, the last iterate is returned when its suboptimality
    # certificate holds: f(x) minus the best lower bound on f* from the
    # iterate and from every data point is within _GAP_RTOL·f(x).  A
    # non-finite row or iterate makes f(x) non-finite and never certifies.
    objectives = np.sum(distances, axis=1)
    floor = _objective_floor(lanes.values, lanes.estimates, offsets=diffs)
    for row in range(n):
        floor = np.fmax(
            floor, _objective_floor(lanes.values, lanes.values[:, row])
        )
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        bounded = (
            pending
            & np.isfinite(objectives)
            & (objectives - floor <= _GAP_RTOL * objectives)
        )
    results[lanes.indices[bounded]] = lanes.estimates[bounded]
    pending &= ~bounded
    if not np.any(pending):
        return results
    raise ConvergenceError(
        f"Weiszfeld iteration did not converge in {max_iterations} steps "
        f"for {int(np.count_nonzero(pending))} of {batch} scenario(s) "
        f"(last shift {float(np.max(lanes.shifts[pending])):.3g})"
    )


class GeometricMedian(Aggregator):
    """Geometric median via the Weiszfeld fixed-point iteration.

    Minimizes ``Σ_i ‖z − V_i‖`` (unsquared — the squared version is the
    barycenter and not robust).  When an iterate lands on an input point
    the standard singularity fix is applied (treat that point as its own
    cluster and test optimality before continuing); coincidence is
    detected relative to the scenario's distance spread, so the rule is
    translation-invariant for large-magnitude inputs.

    The solve itself is :func:`batched_weiszfeld` with a batch of one —
    the same code path the engine's vectorized kernel runs, which keeps
    the two bit-for-bit identical.
    """

    def __init__(
        self,
        *,
        tolerance: float = _DEFAULT_TOLERANCE,
        max_iterations: int = _DEFAULT_MAX_ITERATIONS,
    ):
        if tolerance <= 0:
            # A bad constructor parameter is a configuration mistake, not
            # a runtime convergence failure.
            raise ConfigurationError(
                f"tolerance must be positive, got {tolerance}"
            )
        self.tolerance = float(tolerance)
        self.max_iterations = check_positive_int(
            max_iterations, "max_iterations", minimum=1
        )
        # Non-default parameters must show up in the name: the engine
        # groups scenarios by (type, name) for batched aggregation, so
        # the name has to distinguish differently-configured instances.
        if (
            self.tolerance == _DEFAULT_TOLERANCE
            and self.max_iterations == _DEFAULT_MAX_ITERATIONS
        ):
            self.name = "geometric-median"
        else:
            # repr round-trips the exact float, so distinct tolerances
            # can never collide to one name (equal names mean equal
            # behavior — the grouping contract).
            self.name = (
                f"geometric-median(tol={self.tolerance!r},"
                f"max_iter={self.max_iterations})"
            )

    def aggregate_detailed(self, vectors: np.ndarray) -> AggregationResult:
        vectors = self._validated(vectors)
        return AggregationResult(vector=self._weiszfeld(vectors))

    def _weiszfeld(self, vectors: np.ndarray) -> np.ndarray:
        return batched_weiszfeld(
            vectors[None, :, :],
            tolerance=self.tolerance,
            max_iterations=self.max_iterations,
        )[0]
