"""Frozen lock-step Weiszfeld solver: the oracle of the geometric median.

:func:`reference_weiszfeld` is ``batched_weiszfeld`` and
:func:`_point_optimality` as they stood before the Gram screen, the
reused workspace, the clean-lane fast path and the out-of-steps
suboptimality certificate, copied verbatim (only the entry point is
renamed, and each call into the retired array-backend namespace is
spelled as the numpy call it forwarded to).  The two masked primitives
it calls are inlined in their original arithmetic.
``tests/baselines/test_weiszfeld_reference.py`` pins the library's
solver against it: wherever this reference returns, the library returns
the same bits, and on non-finite stacks both raise the same error.  Do
not edit this file to follow the library: it is the fixed point later
rewrites of the solver are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.exceptions import (
    ConfigurationError,
    ConvergenceError,
    DimensionMismatchError,
)

__all__ = ["reference_weiszfeld"]


def masked_inverse_distance_weights(distances, active):
    safe = np.where(active, distances, 1.0)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        return np.where(active, 1.0 / safe, 0.0)


def masked_unit_direction_sum(values, anchors, distances, active, *, offsets=None):
    safe = np.where(active, distances, 1.0)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        if offsets is None:
            offsets = values - anchors[:, None, :]
        directions = offsets / safe[:, :, None]
        return np.einsum("bn,bnd->bd", active.astype(np.float64), directions)


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
    (``offsets`` forwards a precomputed ``values - anchors`` tensor).
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


def reference_weiszfeld(
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

    A scenario still running after ``max_iterations`` steps returns the
    data point nearest its last iterate that passes the optimality test.
    Raises :class:`~repro.exceptions.ConvergenceError` when none does
    (e.g. NaN proposals, which never satisfy any convergence predicate).
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

    lanes = _LaneState(
        indices=np.arange(batch),  # output slots of still-active lanes
        values=stacks,
        estimates=np.mean(stacks, axis=1),
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

    # The loop runs max_iterations Weiszfeld steps; the shift/stall
    # verdict on step t is evaluated at the top of pass t + 1, where the
    # freshly computed estimate distances double as step t's objective —
    # one distance pass per iteration instead of two.  The committed
    # values and the check order (previous step's shift/stall, then the
    # optimality test, then cluster certification) are unchanged.
    for pass_index in range(max_iterations + 1):
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            diffs = lanes.values - lanes.estimates[:, None, :]
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
            lanes.cached_optimal[stale] = _point_optimality(
                lanes.values[stale], points[stale]
            )
            lanes.cached_nearest[stale] = nearest[stale]
        optimal = np.copy(lanes.cached_optimal)

        # 2. Singularity handling at the current iterate.  Lanes whose
        #    iterate sits on a data-point cluster either stop (residual
        #    within the cluster multiplicity) or will take the dampened
        #    Vardi–Zhang step; clean lanes take the plain step.  The
        #    residual reuses the already-computed ``diffs`` and doubles
        #    as the step direction below.
        step_scale = np.fmax(1.0, np.max(distances, axis=1))
        at_point = distances <= _COINCIDENCE_RTOL * step_scale[:, None]
        step_others = ~at_point
        at_cluster = np.any(at_point, axis=1)
        all_coincident = at_cluster & ~np.any(step_others, axis=1)
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
        step_r_norm = _row_norms(step_r)
        step_mult = np.count_nonzero(at_point, axis=1).astype(np.float64)
        certified = at_cluster & np.any(step_others, axis=1) & (
            step_r_norm <= step_mult * (1.0 + _VZ_SLACK)
        )

        # Commit lanes finishing before the step, in priority order.
        done = np.copy(optimal)
        results[lanes.indices[optimal]] = points[optimal]
        stop_current = (all_coincident | certified) & ~done
        results[lanes.indices[stop_current]] = lanes.estimates[stop_current]
        done |= stop_current
        if np.any(done):
            keep = ~done
            if not np.any(keep):
                return results
            lanes.compact(keep)
            step_r = step_r[keep]
            weight_sum = weight_sum[keep]
            step_r_norm = step_r_norm[keep]
            step_mult = step_mult[keep]
            at_cluster = at_cluster[keep]

        # The Weiszfeld step itself: the fixed-point target is the
        # estimate displaced by the weighted residual,
        # ``T = e + R / Σw`` (one small correction instead of a second
        # full-size weighted sum).
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            tentative = lanes.estimates + step_r / weight_sum[:, None]
            dampening = (step_r_norm - step_mult) / np.where(
                step_r_norm > 0.0, step_r_norm, 1.0
            )
            corrected = (
                (1.0 - dampening)[:, None] * lanes.estimates
                + dampening[:, None] * tentative
            )
            new_estimates = np.where(at_cluster[:, None], corrected, tentative)
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
        certified = pending & _point_optimality(lanes.values, points)
        results[lanes.indices[certified]] = points[certified]
        pending &= ~certified
    if not np.any(pending):
        return results
    raise ConvergenceError(
        f"Weiszfeld iteration did not converge in {max_iterations} steps "
        f"for {int(np.count_nonzero(pending))} of {batch} scenario(s) "
        f"(last shift {float(np.max(lanes.shifts[pending])):.3g})"
    )

