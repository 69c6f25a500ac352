"""Hypothesis property tests for the batched engine kernels.

Two structural invariants of batching:

* **Batch-axis permutation equivariance** — scenarios in a batch are
  independent, so permuting the batch axis must permute the outputs and
  nothing else (bit-for-bit; any cross-scenario leakage would break it).
* **Chunk-size invariance** — chunking only partitions the batch axis,
  so every chunk size must produce the identical result.

One more property covers the grids that feed the engine: a
``ScenarioGrid`` declares the same cells whichever spelling of a knob it
is given, and ``dataclasses.replace`` re-declares it.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.baselines.average import Average
from repro.baselines.medians import (
    CoordinateWiseMedian,
    GeometricMedian,
    TrimmedMean,
    batched_weiszfeld,
)
from repro.core.batched import (
    batched_krum_scores,
    make_batched_aggregator,
)
from repro.core.bulyan import Bulyan, batched_bulyan
from repro.core.krum import Krum, MultiKrum
from repro.engine import ScenarioGrid
from repro.exceptions import ConvergenceError
from repro.utils import linalg
from repro.utils.linalg import batched_pairwise_sq_distances


def batches(min_b=2, max_b=6, min_n=5, max_n=10, min_d=1, max_d=6):
    """Strategy producing (batch, f) with valid Krum parameters."""

    @st.composite
    def build(draw):
        b = draw(st.integers(min_b, max_b))
        n = draw(st.integers(min_n, max_n))
        d = draw(st.integers(min_d, max_d))
        f_max = n - 3
        f = draw(st.integers(0, max(0, min(f_max, (n - 1) // 2))))
        batch = draw(
            hnp.arrays(
                dtype=np.float64,
                shape=(b, n, d),
                elements=st.floats(
                    min_value=-1e6, max_value=1e6, allow_nan=False
                ),
            )
        )
        return batch, f

    return build()


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBatchPermutationEquivariance:
    @given(batches(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_krum_scores(self, case, pyrandom):
        batch, f = case
        perm = list(range(batch.shape[0]))
        pyrandom.shuffle(perm)
        perm = np.asarray(perm)
        scores = batched_krum_scores(batch, f)
        permuted_scores = batched_krum_scores(batch[perm], f)
        assert bitwise_equal(permuted_scores, scores[perm])

    @given(batches(), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_adapters(self, case, pyrandom):
        batch, f = case
        n = batch.shape[1]
        perm = list(range(batch.shape[0]))
        pyrandom.shuffle(perm)
        perm = np.asarray(perm)
        rules = [Average(), CoordinateWiseMedian(), TrimmedMean(f=f)]
        if n - f - 2 >= 1:
            rules.append(Krum(f=f, strict=False))
            rules.append(
                MultiKrum(f=f, m=min(2, n - f - 2), strict=False)
            )
        for rule in rules:
            adapter = make_batched_aggregator(rule)
            straight = adapter.aggregate_batch(batch)
            shuffled = adapter.aggregate_batch(batch[perm])
            assert bitwise_equal(shuffled.vectors, straight.vectors[perm]), (
                rule.name
            )
            for out_slot, in_slot in enumerate(perm):
                np.testing.assert_array_equal(
                    shuffled.selected[out_slot], straight.selected[in_slot]
                )


    @given(batches(min_n=7), st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_bulyan(self, case, pyrandom):
        batch, _f = case
        n = batch.shape[1]
        f = (n - 3) // 4  # largest f with n >= 4f + 3
        perm = list(range(batch.shape[0]))
        pyrandom.shuffle(perm)
        perm = np.asarray(perm)
        vectors, committees = batched_bulyan(batch, f)
        shuffled_vectors, shuffled_committees = batched_bulyan(batch[perm], f)
        assert bitwise_equal(shuffled_vectors, vectors[perm])
        assert bitwise_equal(shuffled_committees, committees[perm])

    @given(batches(), st.randoms(use_true_random=False))
    @settings(max_examples=20, deadline=None)
    def test_geometric_median(self, case, pyrandom):
        # Adversarially tied configurations can legitimately exhaust the
        # iteration budget (a pre-existing Weiszfeld limitation, identical
        # in the loop path); the property is that the *outcome* — result
        # or raise — is equivariant under batch permutation.
        batch, _f = case
        perm = list(range(batch.shape[0]))
        pyrandom.shuffle(perm)
        perm = np.asarray(perm)
        try:
            straight = batched_weiszfeld(batch)
        except ConvergenceError:
            with pytest.raises(ConvergenceError):
                batched_weiszfeld(batch[perm])
            return
        shuffled = batched_weiszfeld(batch[perm])
        assert bitwise_equal(shuffled, straight[perm])


def chunked(kernel, chunk_size: int):
    """``kernel()`` with the batched kernels' chunk size set to
    ``chunk_size``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "CHUNK_SIZE", chunk_size)
        return kernel()


class TestChunkInvariance:
    @given(batches(), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_distances_invariant_to_chunk_size(self, case, chunk_size):
        batch, _f = case
        whole = batched_pairwise_sq_distances(batch)
        parts = chunked(lambda: batched_pairwise_sq_distances(batch), chunk_size)
        assert bitwise_equal(whole, parts)

    @given(batches(), st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_krum_scores_invariant_to_chunk_size(self, case, chunk_size):
        batch, f = case
        whole = batched_krum_scores(batch, f)
        parts = chunked(lambda: batched_krum_scores(batch, f), chunk_size)
        assert bitwise_equal(whole, parts)

    @given(batches(min_n=7), st.integers(1, 8))
    @settings(max_examples=20, deadline=None)
    def test_bulyan_invariant_to_chunk_size(self, case, chunk_size):
        batch, _f = case
        f = (batch.shape[1] - 3) // 4
        adapter = make_batched_aggregator(Bulyan(f=f))
        whole = adapter.aggregate_batch(batch)
        parts = chunked(lambda: adapter.aggregate_batch(batch), chunk_size)
        assert bitwise_equal(whole.vectors, parts.vectors)
        for a, b in zip(whole.selected, parts.selected):
            assert bitwise_equal(a, b)

    @given(batches(), st.integers(1, 8))
    @settings(max_examples=15, deadline=None)
    def test_geometric_median_invariant_to_chunk_size(self, case, chunk_size):
        batch, _f = case
        adapter = make_batched_aggregator(GeometricMedian())
        try:
            whole = adapter.aggregate_batch(batch)
        except ConvergenceError:
            with pytest.raises(ConvergenceError):
                chunked(lambda: adapter.aggregate_batch(batch), chunk_size)
            return
        parts = chunked(lambda: adapter.aggregate_batch(batch), chunk_size)
        assert bitwise_equal(whole.vectors, parts.vectors)


# The nine singular/plural knob pairs of ScenarioGrid, as (singular,
# axis, kwargs of a (name, kwargs) axis or None).
KNOB_PAIRS = (
    ("workload", "workloads", "workload_kwargs"),
    ("max_staleness", "max_staleness_values", None),
    ("delay_schedule", "delay_schedules", "delay_kwargs"),
    ("num_servers", "num_servers_values", None),
    ("byzantine_servers", "byzantine_servers_values", None),
    ("num_shards", "num_shards_values", None),
    ("server_attack", "server_attacks", "server_attack_kwargs"),
    ("topology", "topology_values", None),
    ("degree", "degree_values", None),
)


@st.composite
def singular_grids(draw):
    """Keyword arguments of a valid grid, every knob pair spelled
    singular: a server-path cell with a random server tier and
    staleness, or a gossip cell on a random topology."""
    f_values = draw(
        st.lists(st.sampled_from((0, 1, 2)), min_size=1, max_size=2, unique=True)
    )
    attacks = draw(
        st.lists(
            st.sampled_from(
                (("gaussian", {"sigma": 10.0}), ("sign-flip", {}))
            ),
            min_size=1,
            max_size=2,
            unique_by=lambda spec: spec[0],
        )
    )
    delay_schedule, delay_kwargs = draw(
        st.sampled_from(
            ((None, {}), ("constant", {"tau": 1}), ("random", {"max_delay": 2}))
        )
    )
    kwargs = dict(
        seeds=tuple(
            draw(st.lists(st.integers(0, 9), min_size=1, max_size=2, unique=True))
        ),
        aggregators=tuple(
            draw(
                st.lists(
                    st.sampled_from(
                        (("average", {}), ("krum", {}), ("coordinate-median", {}))
                    ),
                    min_size=1,
                    max_size=2,
                    unique_by=lambda spec: spec[0],
                )
            )
        ),
        f_values=tuple(f_values),
        attacks=tuple(attacks) if any(f_values) else (),
        num_workers=9,
        num_rounds=2,
        workload_kwargs={"dimension": draw(st.integers(2, 4))},
        delay_schedule=delay_schedule,
        delay_kwargs=delay_kwargs,
    )
    topology = draw(
        st.sampled_from(("complete", "ring", "erdos-renyi", "time-varying"))
    )
    if topology == "complete":
        num_servers = draw(st.integers(1, 3))
        byzantine_servers = draw(st.integers(0, min(1, num_servers - 1)))
        kwargs.update(
            max_staleness=draw(st.integers(0, 2)),
            num_servers=num_servers,
            byzantine_servers=byzantine_servers,
            num_shards=draw(st.integers(1, 2)),
        )
        if byzantine_servers:
            kwargs["server_attack"] = "sign-flip-broadcast"
    else:
        kwargs["topology"] = topology
        if topology == "ring":
            kwargs["degree"] = draw(st.sampled_from((2, 4)))
        else:
            kwargs["edge_prob"] = 0.5
        if topology == "time-varying":
            kwargs["rewire_period"] = 2
    return kwargs


def axis_spelling(kwargs, knob, axis, kwargs_knob):
    """``kwargs`` with one knob moved to its one-element axis."""
    out = dict(kwargs)
    value = out.pop(knob, getattr(ScenarioGrid, knob))
    if kwargs_knob is None:
        out[axis] = (value,)
    else:
        out[axis] = ((value, out.pop(kwargs_knob, {})),)
    return out


class TestScenarioGridSpellings:
    @given(singular_grids(), st.integers(10, 12))
    @settings(max_examples=25, deadline=None)
    def test_spellings_declare_the_same_cells(self, kwargs, new_seed):
        grid = ScenarioGrid(**kwargs)
        cells = grid.scenarios()
        assert len(grid) == len(cells)
        labels = [cell.label for cell in cells]
        assert len(set(labels)) == len(labels)
        for pair in KNOB_PAIRS:
            axis_grid = ScenarioGrid(**axis_spelling(kwargs, *pair))
            assert axis_grid.scenarios() == cells, pair[0]
        # Declaring leaves every field as given, so replace re-declares.
        replaced = dataclasses.replace(grid, seeds=(new_seed,))
        fresh = ScenarioGrid(**{**kwargs, "seeds": (new_seed,)})
        assert replaced == fresh
        assert replaced.scenarios() == fresh.scenarios()
