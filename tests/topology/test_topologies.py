"""Topology registry and graph-family invariants.

Every built-in must produce symmetric, self-loop-free, sorted
neighborhoods; seeded families must round-trip deterministically across
fresh binds; and the structured families must satisfy their defining
properties (circulant shift-invariance for the ring, exact degree for
k-regular, the p = 0 / p = 1 extremes for Erdős–Rényi, block constancy
for the time-varying graph).  The shared registry contract (unknown
names, bad kwargs, name validation) is tested once for every family in
``tests/utils/test_registry_contract.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ConfigurationError
from repro.topology import (
    KRegularTopology,
    RingTopology,
    Topology,
    available_topologies,
    counter_uniform,
    make_topology,
)
from repro.topology.base import _MASK64, _SPLITMIX_GAMMA

ALL_TOPOLOGIES = [
    ("complete", {}),
    ("ring", {}),
    ("ring", {"degree": 4}),
    ("k-regular", {"degree": 4}),
    ("erdos-renyi", {"edge_prob": 0.4}),
    ("time-varying", {"edge_prob": 0.4, "rewire_period": 3}),
]


def bound(name, kwargs, num_nodes=12, seed=7) -> Topology:
    return make_topology(name, kwargs).bind(
        num_nodes, np.random.default_rng(seed)
    )


class TestRegistry:
    def test_builtins_registered(self):
        assert available_topologies() == [
            "complete",
            "erdos-renyi",
            "k-regular",
            "ring",
            "time-varying",
        ]

    def test_factory_round_trip(self):
        topo = make_topology("ring", {"degree": 4})
        assert isinstance(topo, RingTopology)
        assert topo.degree == 4

    def test_odd_or_tiny_degree_rejected(self):
        with pytest.raises(ConfigurationError):
            make_topology("ring", {"degree": 3})
        with pytest.raises(ConfigurationError):
            make_topology("ring", {"degree": 0})
        with pytest.raises(ConfigurationError):
            make_topology("k-regular", {"degree": 5})

    def test_bad_edge_prob_rejected(self):
        for p in (-0.1, 1.5):
            with pytest.raises(ConfigurationError):
                make_topology("erdos-renyi", {"edge_prob": p})

    def test_bad_rewire_period_rejected(self):
        with pytest.raises(ConfigurationError):
            make_topology("time-varying", {"rewire_period": 0})

    @pytest.mark.parametrize("bad", [4.9, 2.5, True])
    @pytest.mark.parametrize(
        "name, knob",
        [
            ("ring", "degree"),
            ("k-regular", "degree"),
            ("k-regular", "offsets"),
            ("time-varying", "rewire_period"),
        ],
    )
    def test_integer_knobs_reject_floats_and_bools(self, name, knob, bad):
        with pytest.raises(ConfigurationError, match=f"{knob} must be an integer"):
            make_topology(name, {knob: bad})

    @pytest.mark.parametrize("bad", [2.5, True])
    def test_k_regular_offsets_are_not_truncated(self, bad):
        # int(o) used to bind offsets=(1, 2.5) as [1, 2].
        with pytest.raises(ConfigurationError, match="offsets must be an integer"):
            make_topology("k-regular", {"offsets": (1, bad)})

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"offsets": 3}, r"exactly 2 distinct offsets, got \[3\]"),
            ({"degree": 2, "offsets": 0}, r"must be >= 1 .*got \[0\]"),
        ],
    )
    def test_scalar_offsets_fail_as_configuration_errors(self, kwargs, match):
        with pytest.raises(ConfigurationError, match=match):
            make_topology("k-regular", kwargs)


class TestGraphInvariants:
    @pytest.mark.parametrize("name,kwargs", ALL_TOPOLOGIES)
    def test_neighbors_sorted_in_range_no_self_loop(self, name, kwargs):
        topo = bound(name, kwargs)
        for t in range(4):
            for v in range(12):
                nb = topo.neighbors(v, t)
                assert nb.dtype == np.int64
                assert np.array_equal(nb, np.unique(nb))  # sorted, distinct
                assert v not in nb
                assert np.all((nb >= 0) & (nb < 12))

    @pytest.mark.parametrize("name,kwargs", ALL_TOPOLOGIES)
    def test_undirected_symmetry(self, name, kwargs):
        topo = bound(name, kwargs)
        for t in range(4):
            for v in range(12):
                for u in topo.neighbors(v, t):
                    assert v in topo.neighbors(int(u), t), (name, v, u, t)

    @pytest.mark.parametrize("name,kwargs", ALL_TOPOLOGIES)
    def test_seeded_determinism_round_trip(self, name, kwargs):
        """Fresh binds from equal seeds give identical graphs, and the
        query order never matters (pure neighbors functions)."""
        a = bound(name, kwargs, seed=99)
        b = bound(name, kwargs, seed=99)
        forward = [a.neighbors(v, t) for t in range(3) for v in range(12)]
        backward = [
            b.neighbors(v, t)
            for t in reversed(range(3))
            for v in reversed(range(12))
        ]
        for nb_a, nb_b in zip(forward, reversed(backward)):
            assert np.array_equal(nb_a, nb_b)

    @pytest.mark.parametrize("name,kwargs", ALL_TOPOLOGIES)
    def test_repeated_queries_are_pure(self, name, kwargs):
        topo = bound(name, kwargs)
        first = topo.neighbors(5, 2)
        for _ in range(3):
            assert np.array_equal(topo.neighbors(5, 2), first)

    def test_unbound_topology_refuses_queries(self):
        with pytest.raises(ConfigurationError, match="bind"):
            make_topology("ring").neighbors(0, 0)

    def test_out_of_range_node_rejected(self):
        topo = bound("ring", {})
        for v in (-1, 12):
            with pytest.raises(ConfigurationError):
                topo.neighbors(v, 0)


def per_node_reference(topo: Topology, v: int, t: int) -> np.ndarray:
    """Node ``v``'s neighbors built the way each family built them one
    node at a time before the CSR blocks: circulant offsets through
    ``np.unique``, Erdős–Rényi pairs keyed ``min·n + max``."""
    n = topo.num_nodes
    others = np.delete(np.arange(n, dtype=np.int64), v)
    if topo.name == "complete":
        return others
    if topo.name in ("ring", "k-regular"):
        offsets = (
            np.arange(1, topo.degree // 2 + 1)
            if topo.name == "ring"
            else topo._offsets
        )
        return np.unique(np.concatenate(((v - offsets) % n, (v + offsets) % n)))
    block = t // topo.rewire_period if topo.name == "time-varying" else 0
    entropy = (topo.entropy + block * int(_SPLITMIX_GAMMA)) & _MASK64
    lo, hi = np.minimum(others, v), np.maximum(others, v)
    keys = lo.astype(np.uint64) * np.uint64(n) + hi.astype(np.uint64)
    return others[counter_uniform(entropy, keys) < topo.edge_prob]


@st.composite
def bound_topologies(draw):
    name = draw(st.sampled_from(available_topologies()))
    n = draw(st.integers(3, 60))
    kwargs: dict = {}
    if name in ("ring", "k-regular"):
        kwargs["degree"] = 2 * draw(st.integers(1, (n - 1) // 2))
    if name in ("erdos-renyi", "time-varying"):
        kwargs["edge_prob"] = draw(st.floats(0.0, 1.0))
    if name == "time-varying":
        kwargs["rewire_period"] = draw(st.integers(1, 7))
    seed = draw(st.integers(0, 2**32 - 1))
    return make_topology(name, kwargs).bind(n, np.random.default_rng(seed))


@settings(max_examples=80, deadline=None)
@given(topo=bound_topologies(), t=st.integers(0, 50))
def test_neighbors_block_stacks_neighbors(topo, t):
    """The CSR block is every node's ``neighbors`` row, stacked: sorted,
    symmetric, self-loop free, read-only, and equal to the per-node
    construction it replaced."""
    n = topo.num_nodes
    indptr, indices = topo.neighbors_block(t)
    assert indptr.dtype == indices.dtype == np.int64
    assert indptr.shape == (n + 1,) and indptr[0] == 0
    assert indptr[-1] == indices.size
    assert not indptr.flags.writeable and not indices.flags.writeable
    stacked = Topology.neighbors_block(topo, t)  # the ABC default
    assert np.array_equal(stacked[0], indptr)
    assert np.array_equal(stacked[1], indices)
    adjacency = np.zeros((n, n), dtype=bool)
    for v in range(n):
        row = indices[indptr[v] : indptr[v + 1]]
        assert np.array_equal(row, topo.neighbors(v, t))
        assert np.array_equal(row, per_node_reference(topo, v, t))
        assert np.all(np.diff(row) > 0) and v not in row
        adjacency[v, row] = True
    assert np.array_equal(adjacency, adjacency.T)


class TestFamilies:
    def test_complete_is_everyone_else(self):
        topo = bound("complete", {})
        for v in range(12):
            expected = np.asarray(
                [u for u in range(12) if u != v], dtype=np.int64
            )
            assert np.array_equal(topo.neighbors(v, 0), expected)

    def test_ring_rotation_relabeling_property(self):
        """Circulant graphs are shift-invariant: relabeling every node
        by +1 (mod n) maps neighborhoods onto neighborhoods."""
        topo = bound("ring", {"degree": 4}, num_nodes=11)
        for v in range(11):
            rotated = np.sort((topo.neighbors(v, 0) + 1) % 11)
            assert np.array_equal(rotated, topo.neighbors((v + 1) % 11, 0))

    def test_k_regular_has_exact_degree(self):
        topo = bound("k-regular", {"degree": 6}, num_nodes=13)
        for v in range(13):
            assert len(topo.neighbors(v, 0)) == 6

    def test_k_regular_degree_needs_enough_nodes(self):
        with pytest.raises(ConfigurationError, match="nodes"):
            make_topology("k-regular", {"degree": 8}).bind(
                8, np.random.default_rng(0)
            )

    @pytest.mark.parametrize(
        "offsets, num_nodes, match",
        [
            ((0, 1), None, "self-loop"),
            ((1, 1), None, "distinct"),
            ((1, 2, 3), None, "exactly 2"),
            ((5, 1), 10, r"\[1, 4\]"),
        ],
    )
    def test_k_regular_rejects_bad_offsets(self, offsets, num_nodes, match):
        with pytest.raises(ConfigurationError, match=match):
            KRegularTopology(degree=4, num_nodes=num_nodes, offsets=offsets)

    def test_k_regular_bind_checks_offsets_against_node_count(self):
        unbound = make_topology("k-regular", {"offsets": (5, 1)})
        with pytest.raises(ConfigurationError, match=r"\[1, 4\]"):
            unbound.bind(10, np.random.default_rng(0))

    def test_k_regular_bind_keeps_explicit_offsets(self):
        topo = make_topology("k-regular", {"offsets": [3, 1]}).bind(
            11, np.random.default_rng(0)
        )
        assert np.array_equal(topo.neighbors(0, 0), [1, 3, 8, 10])
        assert all(len(topo.neighbors(v, 0)) == 4 for v in range(11))

    def test_ring_degree_needs_enough_nodes(self):
        with pytest.raises(ConfigurationError, match="nodes"):
            make_topology("ring", {"degree": 6}).bind(
                6, np.random.default_rng(0)
            )

    def test_erdos_renyi_extremes(self):
        full = bound("erdos-renyi", {"edge_prob": 1.0})
        empty = bound("erdos-renyi", {"edge_prob": 0.0})
        complete = bound("complete", {})
        for v in range(12):
            assert np.array_equal(
                full.neighbors(v, 0), complete.neighbors(v, 0)
            )
            assert empty.neighbors(v, 0).size == 0

    def test_erdos_renyi_static_across_rounds(self):
        topo = bound("erdos-renyi", {"edge_prob": 0.5})
        for v in range(12):
            nb = topo.neighbors(v, 0)
            for t in range(1, 5):
                assert np.array_equal(topo.neighbors(v, t), nb)

    def test_time_varying_constant_within_block_changes_across(self):
        topo = bound("time-varying", {"edge_prob": 0.5, "rewire_period": 3})
        block0 = [topo.neighbors(v, 0) for v in range(12)]
        for t in (1, 2):
            for v in range(12):
                assert np.array_equal(topo.neighbors(v, t), block0[v])
        changed = any(
            not np.array_equal(topo.neighbors(v, 3), block0[v])
            for v in range(12)
        )
        assert changed, "rewiring should change some neighborhood"

    def test_bind_returns_fresh_instance(self):
        unbound = make_topology("ring")
        a = unbound.bind(8, np.random.default_rng(0))
        b = unbound.bind(10, np.random.default_rng(0))
        assert a is not unbound and b is not a
        assert a.num_nodes == 8 and b.num_nodes == 10
        assert unbound.num_nodes is None


class TestCounterUniform:
    def test_deterministic_and_uniform_range(self):
        keys = np.arange(10_000, dtype=np.uint64)
        a = counter_uniform(123, keys)
        b = counter_uniform(123, keys)
        assert np.array_equal(a, b)
        assert np.all((a >= 0.0) & (a < 1.0))
        # splitmix64 output should look uniform at this sample size
        assert abs(a.mean() - 0.5) < 0.02

    def test_entropy_decorrelates(self):
        keys = np.arange(1000, dtype=np.uint64)
        a = counter_uniform(1, keys)
        b = counter_uniform(2, keys)
        assert not np.array_equal(a, b)

    def test_vector_matches_scalar_queries(self):
        """Batched and one-at-a-time evaluation agree — the property the
        loop/batched executors rely on."""
        keys = np.arange(64, dtype=np.uint64)
        batched = counter_uniform(7, keys)
        for i, key in enumerate(keys):
            single = counter_uniform(7, np.asarray([key], dtype=np.uint64))
            assert single[0] == batched[i]
