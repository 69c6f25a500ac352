"""Dense linear-algebra helpers used by the aggregation rules.

The performance-critical piece is :func:`pairwise_sq_distances`: Krum's
O(n² · d) cost (Lemma 4.1 of the paper) is exactly the cost of this one
matrix computation, so it is implemented with a single GEMM rather than a
Python double loop.

The batched/masked primitives in this module are *kernel layer*: they
compute through an :class:`~repro.backend.ArrayBackend` namespace
(``backend=`` parameter, numpy by default) rather than calling ``np.*``
directly, so the same code runs unchanged on any registered backend.
With the default numpy backend every operation delegates to the exact
numpy call used before the seam existed — bit-for-bit identical results.
The host-side plumbing at the bottom (:func:`stack_vectors`,
:func:`flatten_arrays`, :func:`unflatten_array` — model-parameter
marshalling, not aggregation arithmetic) stays plain numpy on purpose,
as do :func:`coordinate_median`, the numpy backend's median itself, and
:func:`exact_row_dots` and :func:`exact_row_norms`, the host-side norms
of the round records and the Lipschitz rules.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.backend import ArrayBackend, resolve_backend
from repro.exceptions import DimensionMismatchError

__all__ = [
    "pairwise_sq_distances",
    "batched_pairwise_sq_distances",
    "masked_krum_scores",
    "masked_coordinate_median",
    "masked_inverse_distance_weights",
    "masked_unit_direction_sum",
    "coordinate_median",
    "exact_row_dots",
    "exact_row_norms",
    "stack_vectors",
    "flatten_arrays",
    "unflatten_array",
]


def pairwise_sq_distances(
    vectors,
    *,
    nonfinite_as_inf: bool = False,
    backend: ArrayBackend | str | None = None,
):
    """Return the ``(n, n)`` matrix of squared euclidean distances.

    Uses the expansion ``||a - b||² = ||a||² + ||b||² - 2⟨a, b⟩`` so the
    dominant cost is one ``n×d`` by ``d×n`` matrix product — O(n²·d), the
    complexity Lemma 4.1 claims for Krum.  Floating-point cancellation can
    produce tiny negative values; these are clamped to zero and the
    diagonal is forced to exactly zero.

    ``nonfinite_as_inf=True`` maps every NaN/Inf entry of the result to
    ``+inf``: a Byzantine worker sending non-finite coordinates is treated
    as infinitely far from everyone (so distance-filtering rules discard
    it instead of propagating NaN through their scores).
    """
    xp = resolve_backend(backend)
    vectors = xp.asarray(vectors)
    if vectors.ndim != 2:
        raise DimensionMismatchError(
            f"vectors must have shape (n, d), got {tuple(vectors.shape)}"
        )
    with xp.errstate():
        sq_norms = xp.einsum("ij,ij->i", vectors, vectors)
        distances = (
            sq_norms[:, None]
            + sq_norms[None, :]
            - 2.0 * (vectors @ xp.transpose(vectors, (1, 0)))
        )
        distances = xp.maximum(distances, 0.0)
    if nonfinite_as_inf:
        distances[~xp.isfinite(distances)] = xp.inf
    diagonal = xp.arange(vectors.shape[0])
    distances[diagonal, diagonal] = 0.0
    return distances


def batched_pairwise_sq_distances(
    vectors,
    *,
    nonfinite_as_inf: bool = False,
    chunk_size: int | None = None,
    backend: ArrayBackend | str | None = None,
):
    """``(B, n, n)`` squared-distance matrices for a ``(B, n, d)`` batch.

    The batched analogue of :func:`pairwise_sq_distances`: every scenario
    in the batch gets the same GEMM expansion, computed with one stacked
    matrix product per chunk instead of B separate Python calls.  Each
    batch slice is numerically *identical* (bit-for-bit) to what the
    unbatched function returns for that slice — the engine's differential
    test harness relies on this.

    ``chunk_size`` bounds how many scenarios are expanded at once, so
    the *intermediates* (Gram-matrix GEMM workspace, non-finite masks)
    stay at ``chunk_size × n²`` floats.  The returned array itself is
    necessarily ``B × n²`` — consumers that only need a per-chunk view
    (e.g. :func:`repro.core.batched.batched_krum_scores`) should call
    this per chunk instead of materializing the full result.  ``None``
    processes the whole batch in one chunk.  The result is invariant to
    the chunk size because chunking only partitions the independent
    batch axis.
    """
    xp = resolve_backend(backend)
    vectors = xp.asarray(vectors)
    if vectors.ndim != 3:
        raise DimensionMismatchError(
            f"vectors must have shape (B, n, d), got {tuple(vectors.shape)}"
        )
    batch, n, _d = vectors.shape
    if chunk_size is None:
        chunk_size = max(batch, 1)
    if chunk_size < 1:
        raise DimensionMismatchError(
            f"chunk_size must be >= 1, got {chunk_size}"
        )
    out = xp.empty((batch, n, n))
    diagonal = xp.arange(n)
    for start in range(0, batch, chunk_size):
        chunk = vectors[start : start + chunk_size]
        with xp.errstate():
            sq_norms = xp.einsum("bij,bij->bi", chunk, chunk)
            distances = (
                sq_norms[:, :, None]
                + sq_norms[:, None, :]
                - 2.0 * (chunk @ xp.transpose(chunk, (0, 2, 1)))
            )
            distances = xp.maximum(distances, 0.0)
        if nonfinite_as_inf:
            distances[~xp.isfinite(distances)] = xp.inf
        distances[:, diagonal, diagonal] = 0.0
        out[start : start + chunk_size] = distances
    return out


def _check_batched_mask(values, active, name: str, xp: ArrayBackend):
    values = xp.asarray(values)
    active = xp.asarray(active, dtype=xp.bool_dtype)
    if values.ndim != 3:
        raise DimensionMismatchError(
            f"{name} expects values of shape (B, n, ...), "
            f"got {tuple(values.shape)}"
        )
    if tuple(active.shape) != tuple(values.shape[:2]):
        raise DimensionMismatchError(
            f"{name} expects an active mask of shape "
            f"{tuple(values.shape[:2])}, got {tuple(active.shape)}"
        )
    return values, active


def masked_krum_scores(
    distances,
    active,
    num_neighbors: int,
    *,
    backend: ArrayBackend | str | None = None,
):
    """Krum scores restricted to an active candidate subset, per scenario.

    ``distances`` is a ``(B, n, n)`` squared-distance batch and ``active``
    a ``(B, n)`` boolean mask of the candidates still in the pool.  For
    every active row the score is the sum of its ``num_neighbors``
    smallest distances to the *other* active rows; inactive rows score
    ``+inf`` so they never win an argmin.  This is the shared scoring
    primitive of Bulyan's iterated committee selection: the per-scenario
    rule runs it with ``B = 1`` and the batched kernel with the whole
    batch, so both paths are bit-for-bit identical per scenario.
    """
    xp = resolve_backend(backend)
    distances, active = _check_batched_mask(
        distances, active, "masked_krum_scores", xp
    )
    n = distances.shape[1]
    if distances.shape[2] != n:
        raise DimensionMismatchError(
            f"distances must be square per scenario, "
            f"got {tuple(distances.shape)}"
        )
    if not 1 <= num_neighbors <= n - 1:
        raise DimensionMismatchError(
            f"num_neighbors must be in [1, n - 1] = [1, {n - 1}], "
            f"got {num_neighbors}"
        )
    counts = xp.count_nonzero(active, axis=1)
    smallest_pool = int(xp.min(counts)) if counts.shape[0] else n
    if num_neighbors > smallest_pool - 1:
        # Asking for more neighbours than any active row has would make
        # the partition sum masked +inf entries — garbage scores, not an
        # error the caller can see.
        raise DimensionMismatchError(
            f"num_neighbors must be <= active_count - 1 = "
            f"{smallest_pool - 1}, got {num_neighbors}"
        )
    masked = xp.where(active[:, None, :], distances, xp.inf)
    diagonal = xp.arange(n)
    masked[:, diagonal, diagonal] = xp.inf
    neighbor_part = xp.partition(masked, num_neighbors - 1, axis=2)
    scores = xp.sum(neighbor_part[:, :, :num_neighbors], axis=2)
    return xp.where(active, scores, xp.inf)


def masked_coordinate_median(
    values, active, *, backend: ArrayBackend | str | None = None
):
    """Coordinate-wise median over the active rows of every scenario.

    ``values`` is ``(B, n, d)`` and ``active`` a ``(B, n)`` mask that must
    select the *same number* of rows in every scenario (the Bulyan
    committee loop removes exactly one candidate per scenario per
    iteration, so the counts stay uniform).  Inactive rows are pushed to
    ``+inf`` before a per-coordinate sort, so non-finite active values
    sort to the high end rather than poisoning the whole median the way
    a plain median would — the shared semantics both the loop and batched
    Bulyan paths use.
    """
    xp = resolve_backend(backend)
    values, active = _check_batched_mask(
        values, active, "masked_coordinate_median", xp
    )
    counts = xp.count_nonzero(active, axis=1)
    if counts.shape[0] == 0 or not xp.all(counts == counts[0]):
        raise DimensionMismatchError(
            "active mask must select the same number of rows in every "
            f"scenario, got counts {sorted(set(xp.to_numpy(counts).tolist()))}"
        )
    m = int(counts[0])
    if m < 1:
        raise DimensionMismatchError("active mask must select at least one row")
    filled = xp.where(active[:, :, None], values, xp.inf)
    ordered = xp.sort(filled, axis=1)
    if m % 2 == 1:
        return xp.copy(ordered[:, (m - 1) // 2])
    return 0.5 * (ordered[:, m // 2 - 1] + ordered[:, m // 2])


def masked_inverse_distance_weights(
    distances, active, *, backend: ArrayBackend | str | None = None
):
    """``1 / distances`` over active rows, exactly zero elsewhere (zero
    distances among inactive rows never enter the division).  The weight
    vector of one Weiszfeld step; callers that need both the step target
    and the Vardi–Zhang residual reuse one weighted einsum over it."""
    xp = resolve_backend(backend)
    safe = xp.where(active, distances, 1.0)
    with xp.errstate():
        return xp.where(active, 1.0 / safe, 0.0)


def _check_masked_distances(values, distances, active, name: str, xp):
    values, active = _check_batched_mask(values, active, name, xp)
    distances = xp.asarray(distances)
    if tuple(distances.shape) != tuple(active.shape):
        raise DimensionMismatchError(
            f"{name} expects distances of shape {tuple(active.shape)}, "
            f"got {tuple(distances.shape)}"
        )
    return values, distances, active


def masked_unit_direction_sum(
    values,
    anchors,
    distances,
    active,
    *,
    offsets=None,
    backend: ArrayBackend | str | None = None,
):
    """Sum of unit vectors from per-scenario anchors to the active rows.

    The Vardi–Zhang residual ``R = Σ_active (V_i − a) / d_i`` for anchors
    ``a`` of shape ``(B, d)`` and row distances ``d`` of shape ``(B, n)``.
    The unit directions are formed by *dividing* actual offsets — never
    through the rearrangement ``Σ w V − (Σ w) a`` or reciprocal
    multiplication, whose rounding is enough to push a residual that is
    exactly equal to the cluster multiplicity (a marginally optimal data
    point, common in tie-heavy stacks) to the wrong side of the
    optimality comparison, leaving Weiszfeld crawling sublinearly
    forever.  The masked reduction is one einsum contraction with a 0/1
    weight row, which is exact (inactive rows are finite by construction:
    a row only becomes inactive when its distance is finite and tiny).
    Both Weiszfeld paths — the per-scenario rule at ``B = 1`` and the
    batched kernel — share this reduction, keeping its floating-point
    behavior identical per scenario.

    ``offsets`` lets callers that already materialized
    ``values - anchors[:, None, :]`` (e.g. to derive ``distances``) pass
    it in instead of paying the subtraction a second time.  It is divided
    in place into the unit directions (same bits as a fresh quotient, no
    second ``(B, n, d)`` array), so pass a copy to keep the offsets.
    """
    xp = resolve_backend(backend)
    values, distances, active = _check_masked_distances(
        values, distances, active, "masked_unit_direction_sum", xp
    )
    anchors = xp.asarray(anchors)
    if tuple(anchors.shape) != (values.shape[0], values.shape[2]):
        raise DimensionMismatchError(
            f"anchors must have shape "
            f"{(int(values.shape[0]), int(values.shape[2]))}, "
            f"got {tuple(anchors.shape)}"
        )
    safe = xp.where(active, distances, 1.0)
    with xp.errstate():
        if offsets is None:
            offsets = values - anchors[:, None, :]
        offsets /= safe[:, :, None]
        return xp.einsum(
            "bn,bnd->bd", xp.astype(active, xp.float_dtype), offsets
        )


def coordinate_median(x, axis: int):
    """``numpy.median(x, axis=axis)`` bit for bit, from one ``np.sort``
    rather than its partition that also probes ``-1`` for NaN lanes.

    ``np.mean`` of the middle order statistics is the reduction
    ``numpy.median`` applies (it reads a −0.0 median as +0.0); a lane
    whose last sorted entry is NaN takes that entry.  Needs
    ``x.shape[axis] >= 1``.
    """
    ordered = np.sort(x, axis=axis)
    n = ordered.shape[axis]
    middle = [slice(None)] * ordered.ndim
    middle[axis] = slice((n - 1) // 2, n // 2 + 1)
    result = np.mean(ordered[tuple(middle)], axis=axis)
    last = ordered.take(-1, axis=axis)
    nans = np.isnan(last)
    if nans.any():
        if np.ndim(result) == 0:
            return last
        np.copyto(result, last, where=nans)
    return result


def exact_row_dots(matrix: np.ndarray) -> np.ndarray:
    """``row.dot(row)`` of every contiguous row of a 2-d ``matrix``, bit
    for bit, from one stacked ``1×d · d×1`` matmul in the input dtype.

    The stacked product dispatches each row to the same BLAS dot as
    ``row.dot(row)``.  The contiguous copy matters: on a strided view
    the BLAS dot sums in a different order (``np.linalg.norm`` ravels a
    strided row into a contiguous copy first).  A batched
    ``norm(M, axis=1)`` or an ``einsum('ij,ij->i')`` reduces
    differently and is not bit-identical.
    """
    rows = np.ascontiguousarray(matrix)
    return np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0]


def exact_row_norms(matrix: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(row)`` of every row of a 2-d ``matrix``, bit for
    bit: ``np.linalg.norm`` of a vector is ``sqrt(v.dot(v))`` with the
    root in the input dtype, and :func:`exact_row_dots` gives the dots.
    """
    return np.sqrt(exact_row_dots(matrix))


def stack_vectors(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Stack a sequence of equal-length 1-d vectors into an ``(n, d)`` matrix."""
    if len(vectors) == 0:
        raise DimensionMismatchError("cannot stack an empty sequence of vectors")
    arrays = [np.asarray(v, dtype=np.float64) for v in vectors]
    first_shape = arrays[0].shape
    if any(a.ndim != 1 for a in arrays):
        raise DimensionMismatchError("stack_vectors expects 1-d vectors")
    if any(a.shape != first_shape for a in arrays):
        shapes = sorted({a.shape for a in arrays})
        raise DimensionMismatchError(f"vectors have inconsistent shapes: {shapes}")
    return np.stack(arrays, axis=0)


def flatten_arrays(arrays: Sequence[np.ndarray]) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Flatten a list of arrays into one 1-d vector plus the shapes to undo it.

    This is how model parameters/gradients become the ``R^d`` vectors the
    parameter server aggregates.  Returns ``(flat, shapes)`` where
    ``unflatten_array(flat, shapes)`` restores the original list.
    """
    if len(arrays) == 0:
        raise DimensionMismatchError("cannot flatten an empty sequence of arrays")
    shapes = [tuple(np.asarray(a).shape) for a in arrays]
    flat = np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays])
    return flat, shapes


def unflatten_array(flat: np.ndarray, shapes: Sequence[tuple[int, ...]]) -> list[np.ndarray]:
    """Invert :func:`flatten_arrays`: split ``flat`` back into shaped arrays."""
    flat = np.asarray(flat, dtype=np.float64)
    if flat.ndim != 1:
        raise DimensionMismatchError(f"flat must be 1-d, got shape {flat.shape}")
    sizes = [int(np.prod(shape, dtype=np.int64)) if shape else 1 for shape in shapes]
    total = int(sum(sizes))
    if flat.size != total:
        raise DimensionMismatchError(
            f"flat vector has {flat.size} entries but shapes require {total}"
        )
    out: list[np.ndarray] = []
    offset = 0
    for shape, size in zip(shapes, sizes):
        out.append(flat[offset : offset + size].reshape(shape))
        offset += size
    return out
