"""Tests for the delay-schedule registry and built-in schedules.

The shared registry contract (unknown names, bad kwargs, name
validation, overrides, the ``None`` arm) is tested once for every
family in ``tests/utils/test_registry_contract.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distributed.delays import (
    DELAY_SCHEDULES,
    ConstantDelay,
    DelaySchedule,
    PeriodicDelay,
    SeededRandomDelay,
    ZeroDelay,
    available_delay_schedules,
    make_delay_schedule,
    register_delay_schedule,
)
from repro.exceptions import ConfigurationError, DimensionMismatchError
from repro.utils.rng import seed_sequence_state


class TestRegistry:
    def test_builtins_registered(self):
        names = available_delay_schedules()
        for expected in ("none", "constant", "periodic", "random"):
            assert expected in names

    def test_make_by_name(self):
        schedule = make_delay_schedule("constant", {"tau": 2})
        assert isinstance(schedule, ConstantDelay)
        assert schedule.tau == 2

    def test_register_custom(self, monkeypatch):
        # A custom schedule gets the default block form for free.
        class EveryOther(DelaySchedule):
            name = "every-other"

            def staleness(self, worker_id, round_index):
                return worker_id % 2

        monkeypatch.setattr(
            DELAY_SCHEDULES, "_factories", dict(DELAY_SCHEDULES._factories)
        )
        register_delay_schedule("every-other-test", EveryOther)
        schedule = make_delay_schedule("every-other-test")
        assert schedule.staleness(3, 0) == 1
        assert schedule.staleness_block([2, 3], [0]).tolist() == [[0, 1]]


class TestSchedules:
    def test_zero_delay(self):
        schedule = ZeroDelay()
        assert schedule.staleness(5, 17) == 0
        assert schedule.bind(np.random.default_rng(0)) is schedule

    def test_constant_uniform(self):
        schedule = ConstantDelay(tau=3)
        assert schedule.staleness(0, 0) == 3
        assert schedule.staleness(7, 99) == 3

    def test_constant_straggler_subset(self):
        schedule = ConstantDelay(tau=2, workers=[1, 4])
        assert schedule.staleness(1, 10) == 2
        assert schedule.staleness(4, 10) == 2
        assert schedule.staleness(0, 10) == 0

    def test_constant_validation(self):
        with pytest.raises(ConfigurationError, match="tau"):
            ConstantDelay(tau=-1)
        with pytest.raises(ConfigurationError, match="worker ids"):
            ConstantDelay(tau=1, workers=[-2])

    def test_periodic_rotates_through_workers(self):
        schedule = PeriodicDelay(tau=2, period=4, stagger=1)
        # Worker i is stale on rounds where (t + i) % 4 == 0.
        assert schedule.staleness(0, 0) == 2
        assert schedule.staleness(0, 1) == 0
        assert schedule.staleness(3, 1) == 2
        assert schedule.staleness(1, 3) == 2

    def test_periodic_cluster_hiccup(self):
        schedule = PeriodicDelay(tau=1, period=3, stagger=0)
        for worker in range(5):
            assert schedule.staleness(worker, 3) == 1
            assert schedule.staleness(worker, 4) == 0

    def test_periodic_validation(self):
        with pytest.raises(ConfigurationError, match="period"):
            PeriodicDelay(tau=1, period=0)
        with pytest.raises(ConfigurationError, match="stagger"):
            PeriodicDelay(tau=1, stagger=-1)

    def test_random_requires_binding(self):
        schedule = SeededRandomDelay(max_delay=3)
        with pytest.raises(ConfigurationError, match="unbound"):
            schedule.staleness(0, 0)

    def test_random_is_pure_and_reproducible(self):
        bound_a = SeededRandomDelay(max_delay=4).bind(
            np.random.default_rng(7)
        )
        bound_b = SeededRandomDelay(max_delay=4).bind(
            np.random.default_rng(7)
        )
        grid_a = [
            bound_a.staleness(w, t) for w in range(6) for t in range(20)
        ]
        # Query in a different order: values must not depend on call
        # order (the loop and batched executors interleave differently).
        grid_b = [
            bound_b.staleness(w, t)
            for w, t in sorted(
                ((w, t) for w in range(6) for t in range(20)),
                key=lambda pair: (pair[1], -pair[0]),
            )
        ]
        lookup = {
            (w, t): bound_b.staleness(w, t)
            for w in range(6)
            for t in range(20)
        }
        assert grid_a == [
            lookup[(w, t)] for w in range(6) for t in range(20)
        ]
        assert all(0 <= tau <= 4 for tau in grid_a)
        assert any(tau > 0 for tau in grid_a)
        assert len(grid_b) == len(grid_a)

    def test_random_different_entropy_differs(self):
        a = SeededRandomDelay(max_delay=4).bind(np.random.default_rng(1))
        b = SeededRandomDelay(max_delay=4).bind(np.random.default_rng(2))
        draws_a = [a.staleness(w, t) for w in range(8) for t in range(16)]
        draws_b = [b.staleness(w, t) for w in range(8) for t in range(16)]
        assert draws_a != draws_b

    def test_random_prob_zero_never_stale(self):
        schedule = SeededRandomDelay(max_delay=5, prob=0.0).bind(
            np.random.default_rng(0)
        )
        assert all(
            schedule.staleness(w, t) == 0
            for w in range(4)
            for t in range(10)
        )

    def test_random_validation(self):
        with pytest.raises(ConfigurationError, match="max_delay"):
            SeededRandomDelay(max_delay=0)
        with pytest.raises(ConfigurationError, match="prob"):
            SeededRandomDelay(max_delay=2, prob=1.5)

    @pytest.mark.parametrize("bad", [1.5, True])
    @pytest.mark.parametrize(
        "name, knob",
        [
            ("constant", "tau"),
            ("periodic", "tau"),
            ("periodic", "period"),
            ("periodic", "stagger"),
            ("random", "max_delay"),
        ],
    )
    def test_integer_knobs_reject_floats_and_bools(self, name, knob, bad):
        # A truncated knob would run a lag other than the one the cell
        # label names.
        with pytest.raises(ConfigurationError, match=f"{knob} must be an integer"):
            make_delay_schedule(name, {knob: bad})


# Word-boundary values: SeedSequence splits an integer into one uint32
# word below 2**32 and two from 2**32 on, so these exercise every entropy
# layout the vectorized hash groups by (one-word entropy occurs with
# probability 2**-31 for a bound schedule, so it is pinned, not sampled).
ENTROPY_EDGES = (0, 1, 2**32 - 1, 2**32, 2**63 - 1)
KEY_EDGES = (0, 2**32 - 1, 2**32)


def _reference_state(entropy, worker, round_index):
    return np.random.SeedSequence(
        entropy=(entropy, worker, round_index)
    ).generate_state(2, np.uint64)


class TestSeedSequenceState:
    @pytest.mark.parametrize("entropy", ENTROPY_EDGES)
    def test_word_boundaries_match_numpy(self, entropy):
        keys = np.asarray(
            [(w, t) for w in KEY_EDGES for t in KEY_EDGES], dtype=np.int64
        )
        got = seed_sequence_state(entropy, keys)
        assert got.dtype == np.uint64
        assert got.shape == (len(keys), 2)
        for (worker, round_index), row in zip(keys.tolist(), got):
            assert np.array_equal(
                row, _reference_state(entropy, worker, round_index)
            )

    @settings(max_examples=60, deadline=None)
    @given(
        entropy=st.sampled_from(ENTROPY_EDGES) | st.integers(0, 2**63 - 1),
        keys=st.lists(
            st.tuples(
                st.sampled_from(KEY_EDGES) | st.integers(0, 2**40),
                st.sampled_from(KEY_EDGES) | st.integers(0, 2**40),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_matches_numpy_seed_sequence(self, entropy, keys):
        got = seed_sequence_state(entropy, np.asarray(keys, dtype=np.int64))
        for (worker, round_index), row in zip(keys, got):
            assert np.array_equal(
                row, _reference_state(entropy, worker, round_index)
            )

    def test_empty_and_invalid_keys(self):
        empty = seed_sequence_state(5, np.empty((0, 2), dtype=np.int64))
        assert empty.shape == (0, 2)
        with pytest.raises(DimensionMismatchError):
            seed_sequence_state(5, np.arange(4))
        with pytest.raises(ConfigurationError, match="non-negative"):
            seed_sequence_state(5, np.asarray([[1, -1]]))
        with pytest.raises(ConfigurationError, match="integers"):
            seed_sequence_state(5, np.asarray([[1.0, 2.0]]))


class _EveryOther(DelaySchedule):
    """A custom schedule that defines only the scalar query."""

    name = "every-other"

    def staleness(self, worker_id, round_index):
        return (worker_id + round_index) % 2 * 3


WORKERS = [0, 1, 2, 3, 5, 8, 13]
ROUNDS = [0, 1, 2, 3, 4, 7, 11, 40, 63, 64, 65]


def _assert_block_matches_scalar(schedule, workers=WORKERS, rounds=ROUNDS):
    block = schedule.staleness_block(workers, rounds)
    assert block.dtype == np.int64
    assert block.shape == (len(rounds), len(workers))
    expected = [[schedule.staleness(w, t) for w in workers] for t in rounds]
    assert block.tolist() == expected


class TestStalenessBlock:
    @pytest.mark.parametrize("name", available_delay_schedules())
    def test_registry_sweep_default_kwargs(self, name):
        schedule = make_delay_schedule(name).bind(np.random.default_rng(3))
        _assert_block_matches_scalar(schedule)

    @pytest.mark.parametrize(
        "name,kwargs",
        [
            ("random", {"max_delay": 4, "prob": 0.0}),
            ("random", {"max_delay": 4, "prob": 0.3}),
            ("random", {"max_delay": 4, "prob": 1.0}),
            ("random", {"max_delay": 1}),
            ("constant", {"tau": 2, "workers": [1, 5, 21]}),
            ("constant", {"tau": 3}),
            ("periodic", {"tau": 2, "period": 3, "stagger": 0}),
            ("periodic", {"tau": 1, "period": 5, "stagger": 2}),
        ],
    )
    def test_configured_schedules(self, name, kwargs):
        schedule = make_delay_schedule(name, kwargs).bind(
            np.random.default_rng(11)
        )
        _assert_block_matches_scalar(schedule)

    @pytest.mark.parametrize("entropy", ENTROPY_EDGES)
    def test_random_at_word_boundaries(self, entropy):
        schedule = SeededRandomDelay(max_delay=5, prob=0.5, entropy=entropy)
        _assert_block_matches_scalar(
            schedule, workers=list(KEY_EDGES), rounds=list(KEY_EDGES)
        )

    def test_random_prob_interior_mixes_zero_and_lags(self):
        schedule = SeededRandomDelay(max_delay=4, prob=0.3).bind(
            np.random.default_rng(0)
        )
        block = schedule.staleness_block(range(15), range(60))
        assert (block == 0).any() and (block > 0).any()

    def test_custom_subclass_uses_abc_default(self):
        schedule = _EveryOther()
        assert "staleness_block" not in type(schedule).__dict__
        _assert_block_matches_scalar(schedule)

    def test_empty_axes(self):
        for schedule in (
            ZeroDelay(),
            ConstantDelay(tau=2, workers=[1]),
            PeriodicDelay(),
            SeededRandomDelay().bind(np.random.default_rng(0)),
            _EveryOther(),
        ):
            assert schedule.staleness_block([], [0, 1]).shape == (2, 0)
            assert schedule.staleness_block([0, 1], []).shape == (0, 2)

    def test_axes_must_be_one_dimensional(self):
        with pytest.raises(DimensionMismatchError):
            ZeroDelay().staleness_block([[0, 1]], [0])

    def test_unbound_random_block_rejected(self):
        with pytest.raises(ConfigurationError, match="unbound"):
            SeededRandomDelay().staleness_block([0], [0])
