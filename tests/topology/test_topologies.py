"""Topology registry and graph-family invariants.

Every built-in must produce symmetric, self-loop-free, sorted
neighborhoods; seeded families must round-trip deterministically across
fresh binds; and the structured families must satisfy their defining
properties (circulant shift-invariance for the ring, exact degree for
k-regular, the p = 0 / p = 1 extremes for Erdős–Rényi, block constancy
for the time-varying graph).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.topology import (
    CompleteTopology,
    KRegularTopology,
    RingTopology,
    Topology,
    available_topologies,
    counter_uniform,
    make_topology,
    register_topology,
    topology_factory,
)

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

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(ConfigurationError, match="available"):
            make_topology("torus")
        with pytest.raises(ConfigurationError, match="available"):
            topology_factory("torus")

    def test_bad_kwargs_name_the_factory_parameters(self):
        with pytest.raises(ConfigurationError, match="degree"):
            make_topology("complete", {"degree": 4})

    def test_register_rejects_bad_names(self):
        for bad in ("", None, 3):
            with pytest.raises(ConfigurationError):
                register_topology(bad, CompleteTopology)

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
