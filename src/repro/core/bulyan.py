"""Bulyan — the authors' follow-up defense (extension feature).

El Mhamdi, Guerraoui, Rouault, *The Hidden Vulnerability of Distributed
Learning in Byzantium* (ICML 2018) showed that in high dimension a
Byzantine worker can stay within the honest cloud on most coordinates
while planting a large error on a few (the leeway the little-is-enough
attack exploits), and proposed **Bulyan**: run a Byzantine-resilient
selection rule (Krum) repeatedly to build a committee, then take a
per-coordinate trimmed average over the committee.

Bulyan requires ``n >= 4f + 3``: the committee has ``θ = n − 2f``
members, and each output coordinate averages the ``β = θ − 2f`` values
closest to the coordinate median.

Both execution paths — the per-scenario :class:`Bulyan` rule and the
engine's ``_BatchedBulyan`` kernel — run through the same batched
primitives (:func:`batched_bulyan_committees`,
:func:`batched_bulyan_aggregate`, built on the masked helpers in
:mod:`repro.utils.linalg`); the per-scenario rule simply passes a batch
of one.  Sharing one implementation is what keeps the two paths
bit-for-bit identical instead of drifting copies.

Included as the paper's natural "future work" extension; the ablation
benches contrast it with Krum under the post-2017 stealth attacks.
"""

from __future__ import annotations

import numpy as np

from repro.core.aggregator import AggregationResult, Aggregator
from repro.exceptions import ByzantineToleranceError, DimensionMismatchError
from repro.utils.linalg import (
    batched_pairwise_sq_distances,
    coordinate_median,
    masked_coordinate_median,
    masked_krum_scores,
)
from repro.utils.validation import check_positive_int

__all__ = [
    "Bulyan",
    "batched_bulyan",
    "batched_bulyan_committees",
    "batched_bulyan_aggregate",
]


def _check_bulyan_batch(stacks, f: int):
    stacks = np.asarray(stacks, dtype=np.float64)
    if stacks.ndim != 3:
        raise DimensionMismatchError(
            f"batched Bulyan expects shape (B, n, d), got {tuple(stacks.shape)}"
        )
    n = stacks.shape[1]
    if n < 4 * f + 3:
        raise ByzantineToleranceError(
            f"Bulyan requires n >= 4f + 3; got n={n}, f={f} "
            f"(need n >= {4 * f + 3})",
            n=n,
            f=f,
        )
    return stacks


def batched_bulyan_committees(stacks, f: int, *, distances=None):
    """Select every scenario's Bulyan committee: ``(B, n, d) -> (B, θ)``.

    The selection phase: ``θ = n − 2f`` rounds of picking the Krum winner
    among the remaining candidates of each scenario and removing it from
    that scenario's pool (a per-scenario shrinking ``active`` mask over a
    distance batch computed once).  When too few candidates remain for
    Krum scoring (``m − f − 2 < 1``, reachable only near the tolerance
    boundary), candidates are ranked by distance to the pool's
    coordinate-wise median instead — a minority cannot drag that median,
    and any Byzantine slipping in here is neutralized by the trimmed
    aggregation phase.  Returned committees are sorted ascending.

    ``distances`` lets callers reuse a precomputed
    ``batched_pairwise_sq_distances(stacks, nonfinite_as_inf=True)``
    batch.
    """
    stacks = _check_bulyan_batch(stacks, f)
    batch, n, _d = stacks.shape
    if distances is None:
        distances = batched_pairwise_sq_distances(stacks, nonfinite_as_inf=True)
    committee_size = n - 2 * f
    active = np.full((batch, n), True, dtype=np.bool_)
    committees = np.empty((batch, committee_size), dtype=np.int64)
    rows = np.arange(batch)
    for step in range(committee_size):
        remaining = n - step
        if remaining - f - 2 >= 1:
            scores = masked_krum_scores(distances, active, remaining - f - 2)
        else:
            medians = masked_coordinate_median(stacks, active)
            with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
                deviations = np.linalg.norm(stacks - medians[:, None, :], axis=2)
            scores = np.where(active, deviations, np.inf)
        # First minimal index per scenario — the smallest-identifier
        # tie-break, matching argmin over the compacted candidate pool.
        winners = np.argmin(scores, axis=1)
        # Degenerate all-+inf rows (every remaining candidate non-finite)
        # make argmin fall on index 0 even when it is already selected;
        # redirect to the first still-active candidate.
        invalid = ~active[rows, winners]
        if np.any(invalid):
            winners = np.where(invalid, np.argmax(active, axis=1), winners)
        committees[:, step] = winners
        active[rows, winners] = False
    return np.sort(committees, axis=1)


def batched_bulyan_aggregate(stacks, committees, f: int):
    """Bulyan's aggregation phase: per coordinate, average the
    ``β = θ − 2f`` committee values closest to the committee median.

    ``stacks`` is ``(B, n, d)``, ``committees`` the ``(B, θ)`` index
    batch from :func:`batched_bulyan_committees`; returns ``(B, d)``.
    """
    stacks = np.asarray(stacks, dtype=np.float64)
    committees = np.asarray(committees, dtype=np.int64)
    if committees.ndim != 2 or committees.shape[0] != stacks.shape[0]:
        raise DimensionMismatchError(
            f"committees must have shape (B, θ) with B={stacks.shape[0]}, "
            f"got {tuple(committees.shape)}"
        )
    selected = np.take_along_axis(stacks, committees[:, :, None], axis=1)
    committee_size = committees.shape[1]
    beta = max(committee_size - 2 * f, 1)
    medians = coordinate_median(selected, 1)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        deviation = np.abs(selected - medians[:, None, :])
    deviation_order = np.argsort(deviation, axis=1, kind="stable")
    closest = deviation_order[:, :beta]
    gathered = np.take_along_axis(selected, closest, axis=1)
    return np.mean(gathered, axis=1)


def batched_bulyan(stacks, f: int, *, distances=None):
    """Full batched Bulyan: returns ``(vectors (B, d), committees (B, θ))``.

    Slice ``b`` is bit-for-bit what
    ``Bulyan(f).aggregate_detailed`` produces for ``stacks[b]`` — the
    per-scenario rule runs this very function with a batch of one.
    """
    stacks = _check_bulyan_batch(stacks, f)
    committees = batched_bulyan_committees(stacks, f, distances=distances)
    return batched_bulyan_aggregate(stacks, committees, f), committees


class Bulyan(Aggregator):
    """Krum-committee selection followed by a coordinate trimmed mean."""

    def __init__(self, f: int):
        self.f = check_positive_int(f, "f", minimum=0)
        self.name = f"bulyan(f={self.f})"

    def check_tolerance(self, num_workers: int) -> None:
        if num_workers < 4 * self.f + 3:
            raise ByzantineToleranceError(
                f"Bulyan requires n >= 4f + 3; got n={num_workers}, "
                f"f={self.f} (need n >= {4 * self.f + 3})",
                n=num_workers,
                f=self.f,
            )

    def aggregate_detailed(self, vectors) -> AggregationResult:
        vectors = self._validated(vectors)
        vector, committees = batched_bulyan(vectors[None, :, :], self.f)
        return AggregationResult(vector=vector[0], selected=committees[0])
