"""Seeded queries are pure: any order, any repetition, the same answer.

The loop and batched executors ask ``Topology.neighbors`` and
``DelaySchedule.staleness`` / ``staleness_block`` in different orders
(the batched executor prefetches delays a block at a time), so their
bit-for-bit agreement needs every bound query to be a function of its
arguments and the bind-time state only.  A memo cache keyed too
loosely, a counter bumped per call or a draw from a stream kept past
``bind`` each make an answer depend on what was asked before.

One property covers every registered topology and delay schedule plus
the two counter hashes they draw through (``counter_uniform`` and
``seed_sequence_state``): a random plan of queries runs shuffled,
repeated and interleaved across all bound objects, and each answer must
equal the one a fresh bind (or a one-key hash) gives.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.distributed.delays import available_delay_schedules, make_delay_schedule
from repro.topology import available_topologies, counter_uniform, make_topology
from repro.utils.rng import seed_sequence_state

MAX_ROUND = 40


def fresh_topology(name: str, num_nodes: int, seed: int):
    return make_topology(name).bind(num_nodes, np.random.default_rng(seed))


def fresh_delay(name: str, seed: int):
    return make_delay_schedule(name).bind(np.random.default_rng(seed))


@st.composite
def query_plans(draw):
    """A shuffled plan that asks every query twice, over a small grid of
    nodes and rounds so each node is asked at several rounds, and each
    block shape comes back with its axes reordered."""
    num_nodes = draw(st.integers(5, 12))
    nodes = draw(
        st.lists(
            st.integers(0, num_nodes - 1), min_size=2, max_size=4, unique=True
        )
    )
    rounds = draw(
        st.lists(st.integers(0, MAX_ROUND), min_size=2, max_size=4, unique=True)
    )
    keys = draw(
        st.lists(
            st.tuples(st.integers(0, 2**40), st.integers(0, 2**40)),
            min_size=1,
            max_size=5,
        )
    )
    cells = [(node, t) for node in nodes for t in rounds]
    queries = [("neighbors", cell) for cell in cells]
    queries += [("staleness", cell) for cell in cells]
    queries += [
        ("staleness_block", (nodes, rounds)),
        ("staleness_block", (nodes[::-1], rounds)),
        ("staleness_block", (nodes, rounds[::-1])),
        ("counter_uniform", keys),
        ("seed_sequence_state", keys),
    ]
    plan = draw(st.permutations(queries + queries))
    seed = draw(st.integers(0, 2**32 - 1))
    return num_nodes, seed, plan


@given(query_plans())
@settings(max_examples=60, deadline=None)
def test_bound_queries_answer_like_a_fresh_bind(plan):
    num_nodes, seed, queries = plan
    topologies = {
        name: fresh_topology(name, num_nodes, seed)
        for name in available_topologies()
    }
    delays = {name: fresh_delay(name, seed) for name in available_delay_schedules()}

    for kind, args in queries:
        if kind == "neighbors":
            node, round_index = args
            for name, topology in topologies.items():
                want = fresh_topology(name, num_nodes, seed).neighbors(
                    node, round_index
                )
                got = topology.neighbors(node, round_index)
                assert np.array_equal(got, want), (name, node, round_index)
        elif kind == "staleness":
            worker, round_index = args
            for name, schedule in delays.items():
                want = fresh_delay(name, seed).staleness(worker, round_index)
                assert schedule.staleness(worker, round_index) == want, (
                    name,
                    worker,
                    round_index,
                )
        elif kind == "staleness_block":
            workers, rounds = args
            for name, schedule in delays.items():
                fresh = fresh_delay(name, seed)
                block = schedule.staleness_block(workers, rounds)
                assert block.dtype == np.int64
                assert np.array_equal(
                    block, fresh.staleness_block(workers, rounds)
                ), name
                cells = [
                    [fresh.staleness(w, r) for w in workers] for r in rounds
                ]
                assert block.tolist() == cells, name
        elif kind == "counter_uniform":
            keys = np.array([k for k, _ in args], dtype=np.int64)
            before = keys.copy()
            draws = counter_uniform(seed, keys)
            assert np.array_equal(keys, before)  # inputs stay untouched
            for i, key in enumerate(keys):
                one = counter_uniform(seed, key[None])
                assert draws[i] == one[0]
        else:
            keys = np.array(args, dtype=np.int64)
            before = keys.copy()
            words = seed_sequence_state(seed, keys)
            assert np.array_equal(keys, before)
            for row, (a, b) in zip(words, args):
                want = np.random.SeedSequence((seed, a, b)).generate_state(
                    2, np.uint64
                )
                assert np.array_equal(row, want)
