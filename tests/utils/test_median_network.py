"""The selection-network path of ``coordinate_median``.

Stacks of 2 to 7 rows take a pruned odd–even merge network instead of a
sort.  These tests prove each network with the 0–1 principle, pin the
library byte for byte (NaN payloads and signed zeros included) to the
frozen sort path in ``tests/utils/median_reference.py``, and count
``np.sort`` calls so that a silent fallback to the sort cannot hide.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.baselines.medians import CoordinateWiseMedian
from repro.core.batched import batched_coordinate_median
from repro.servers.replication import replica_view
from repro.utils.linalg import _MEDIAN_NETWORKS, coordinate_median
from tests.utils.median_reference import reference_coordinate_median


def _bits(pattern: int) -> float:
    return float(np.array([pattern], dtype=np.uint64).view(np.float64)[0])


#: Distinct NaN payloads and signs (the sort keeps a lane's last one).
_NANS = [
    _bits(0x7FF8000000000000),
    _bits(0xFFF8000000000000),
    _bits(0x7FF8000000000001),
    _bits(0x7FF0000000000001),
    _bits(0xFFFFFFFFFFFFFFFF),
]

#: Ties, signed zeros inside and outside the middle, infinity pairs,
#: subnormals and the ends of the exponent range.
_EDGES = [
    0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, 2.5,
    5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
    1e-300, -1e-300, 1e300, -1e300, 1e308, -1.7976931348623157e308,
]

_VALUES = st.one_of(
    st.sampled_from(_EDGES),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)


def _strides(a: np.ndarray) -> tuple:
    """Strides on the axes longer than one (the only ones that matter)."""
    return tuple(s for s, n in zip(a.strides, a.shape) if n > 1)


def assert_same_bytes(got, want):
    """Equal type, dtype, shape, layout and every byte."""
    assert type(got) is type(want)
    got_array, want_array = np.asarray(got), np.asarray(want)
    assert got_array.dtype == want_array.dtype
    assert got_array.shape == want_array.shape
    assert got_array.tobytes() == want_array.tobytes()
    if isinstance(got, np.ndarray):
        assert _strides(got) == _strides(want)


@st.composite
def _stacks(draw):
    ndim = draw(st.integers(2, 4))
    axis = draw(st.sampled_from([0, 1, -1, -2]))
    shape = list(draw(hnp.array_shapes(min_dims=ndim, max_dims=ndim, max_side=4)))
    shape[axis] = draw(st.integers(1, 9))
    values = draw(hnp.arrays(np.float64, tuple(shape), elements=_VALUES))
    if draw(st.booleans()):
        where = draw(hnp.arrays(np.bool_, values.shape))
        codes = draw(
            hnp.arrays(
                np.int64, values.shape, elements=st.integers(0, len(_NANS) - 1)
            )
        )
        values = np.where(where, np.array(_NANS)[codes], values)
    if draw(st.booleans()):
        with np.errstate(over="ignore", invalid="ignore"):
            values = values.astype(np.float32)
    layout = draw(st.sampled_from(["C", "F", "reversed", "strided"]))
    if layout == "F":
        values = np.asfortranarray(values)
    elif layout == "reversed":
        values = np.flip(values, axis=0)
    elif layout == "strided":
        values = np.repeat(values, 2, axis=-1)[..., ::2]
    return values, axis


def _lane_stack(lane):
    """A ``(1, n, 1)`` stack of one lane."""
    return np.asarray(lane, dtype=np.float64).reshape(1, -1, 1)


class TestNetworks:
    @pytest.mark.parametrize("n", sorted(_MEDIAN_NETWORKS))
    def test_every_binary_input_gets_its_middle(self, n):
        """The 0–1 principle: a comparator network that puts the middle
        order statistic(s) of every 0/1 input on its middle wire(s) does
        so for every input, since min and max commute with every
        monotone map.  For even n the pair is summed, so it may come out
        in either order."""
        low, high = (n - 1) // 2, n // 2
        for bits in itertools.product((0, 1), repeat=n):
            wires = list(bits)
            for a, b, wants_min, wants_max in _MEDIAN_NETWORKS[n]:
                lo, hi = min(wires[a], wires[b]), max(wires[a], wires[b])
                if wants_min:
                    wires[a] = lo
                if wants_max:
                    wires[b] = hi
            ordered = sorted(bits)
            pair = sorted((wires[low], wires[high]))
            assert pair == [ordered[low], ordered[high]], bits

    @pytest.mark.parametrize("n", sorted(_MEDIAN_NETWORKS))
    def test_library_path_on_every_two_valued_input(self, n, sort_calls):
        """The same proof through ``coordinate_median`` itself: one lane
        per binary input, over 1.0 and 2.0 so no lane reads 0 and the
        guard never masks a wrong wire."""
        lanes = np.array(list(itertools.product((1.0, 2.0), repeat=n))).T
        got = coordinate_median(lanes, 0)
        assert sort_calls == []
        assert_same_bytes(got, reference_coordinate_median(lanes, 0))

    def test_pruned_sizes(self):
        """Comparators per network once pruned to the middle wire(s)."""
        assert {n: len(steps) for n, steps in _MEDIAN_NETWORKS.items()} == {
            2: 0, 3: 3, 4: 4, 5: 8, 6: 12, 7: 14,
        }


@pytest.fixture
def sort_calls(monkeypatch):
    """The shapes ``np.sort`` is called on while the test runs."""
    calls = []
    sort = np.sort

    def counting_sort(a, *args, **kwargs):
        calls.append(np.shape(a))
        return sort(a, *args, **kwargs)

    monkeypatch.setattr(np, "sort", counting_sort)
    return calls


class TestMatchesFrozenSortPath:
    @settings(max_examples=400, deadline=None)
    @given(case=_stacks())
    @example(case=(_lane_stack([-0.0, -0.0, -0.0]), 1))
    @example(case=(_lane_stack([-0.0, -0.0]), 1))
    @example(case=(_lane_stack([-0.0, 0.0, -0.0, 1.0, 2.0]), -2))
    @example(case=(_lane_stack([np.inf, -np.inf]), 1))
    @example(case=(_lane_stack([_NANS[2], 1.0, _NANS[4]]), 1))
    @example(case=(_lane_stack([1e308, 1.5e308, -1.0, 3.0]), 1))
    def test_bytes_equal_the_sort_path(self, case):
        x, axis = case
        before = x.tobytes()
        with np.errstate(over="ignore"):  # 1e308 pairs sum to inf on both paths
            got = coordinate_median(x, axis)
            want = reference_coordinate_median(x, axis)
        assert_same_bytes(got, want)
        assert x.tobytes() == before
        assert not np.shares_memory(got, x)

    def test_signed_zero_lane_reads_the_sort(self):
        stack = _lane_stack([-0.0, -0.0, -0.0])
        got = coordinate_median(stack, 1)
        assert got.tobytes() == np.zeros((1, 1)).tobytes()  # +0.0, as np.mean

    def test_overflowing_middle_pair_warns_like_the_sort(self):
        stack = _lane_stack([1e308, 1.5e308, 1.7e308, 1.1e308])
        with pytest.warns(RuntimeWarning, match="overflow"):
            reference_coordinate_median(stack, 1)
        with pytest.warns(RuntimeWarning, match="overflow"):
            got = coordinate_median(stack, 1)
        assert got.tobytes() == np.full((1, 1), np.inf).tobytes()


class TestSortCalls:
    """No stack the workloads reduce reaches ``np.sort`` below 8 rows."""

    def test_neighbourhood_stack(self, rng, sort_calls):
        stacks = rng.standard_normal((200, 7, 100))
        got = batched_coordinate_median(stacks)
        single = CoordinateWiseMedian().aggregate(stacks[3])
        assert sort_calls == []
        assert_same_bytes(got, reference_coordinate_median(stacks, 1))
        assert single.tobytes() == got[3].tobytes()

    def test_replica_block(self, rng, sort_calls):
        broadcasts = rng.standard_normal((48, 3, 200))
        got = replica_view(broadcasts)
        assert sort_calls == []
        assert_same_bytes(got, reference_coordinate_median(broadcasts, -2))

    def test_eight_rows_sort(self, rng, sort_calls):
        stacks = rng.standard_normal((4, 8, 10))
        got = batched_coordinate_median(stacks)
        assert sort_calls == [(4, 8, 10)]
        assert_same_bytes(got, reference_coordinate_median(stacks, 1))

    def test_guard_sorts_only_the_suspect_lanes(self, rng, sort_calls):
        stacks = rng.standard_normal((6, 5, 9))
        stacks[2, :3, 4] = 0.0
        stacks[4, 1, 7] = np.nan
        got = batched_coordinate_median(stacks)
        assert sort_calls == [(5, 2)]
        assert_same_bytes(got, reference_coordinate_median(stacks, 1))
