"""Tests for repro.core.staleness.RateWindow, the sorted rate window of
both Lipschitz rules (the Kardam filter and the mimicry attack)."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.staleness import RateWindow
from repro.exceptions import InvalidVectorError

#: Ties, zeros, subnormals and infinities next to ordinary rates (a
#: rate is a quotient of norms, so the window takes no negative value).
_RATES = st.one_of(
    st.sampled_from([0.0, 1.0, 2.5, 5e-324, 1e300, np.inf]),
    st.floats(0.0, 1e3, width=64).map(abs),
)
_QUANTILES = st.one_of(
    st.sampled_from([1.0, 0.9, 0.5, 0.25, 1e-12]),
    st.floats(0.0, 1.0, exclude_min=True),
)


def as_bytes(value) -> bytes:
    return np.float64(value).tobytes()


class TestQuantile:
    @settings(max_examples=300, deadline=None)
    @given(
        maxlen=st.integers(1, 12),
        rates=st.lists(_RATES, min_size=1, max_size=40),
        qs=st.lists(_QUANTILES, min_size=1, max_size=4),
    )
    def test_equals_numpy_quantile_after_every_append(self, maxlen, rates, qs):
        # Windows of length 1 up to exactly maxlen, then eviction.
        window = RateWindow(maxlen=maxlen)
        with np.errstate(invalid="ignore"):
            for rate in rates:
                window.append(rate)
                values = np.asarray(window, dtype=np.float64)
                for q in qs:
                    assert as_bytes(window.quantile(q)) == as_bytes(
                        np.quantile(values, q)
                    )

    def test_full_window_of_rates(self):
        rng = np.random.default_rng(0)
        window = RateWindow(maxlen=256)
        for rate in rng.exponential(size=1000):
            window.append(rate)
        values = np.asarray(window)
        for q in (0.9, 0.99, 1.0, 0.5):
            assert as_bytes(window.quantile(q)) == as_bytes(
                np.quantile(values, q)
            )


class TestDequeInterface:
    def test_arrival_order_and_maxlen(self):
        window = RateWindow(maxlen=3)
        for rate in (3.0, 1.0, 2.0, 0.5):
            window.append(rate)
        assert window.maxlen == 3
        assert len(window) == 3
        assert list(window) == [1.0, 2.0, 0.5]
        assert np.asarray(window).tobytes() == np.array([1.0, 2.0, 0.5]).tobytes()
        assert window and not RateWindow(maxlen=2)

    @pytest.mark.parametrize("rate", [float("nan"), -0.0, -1.0, -np.inf])
    def test_rejects_nan_and_negative_rates(self, rate):
        # NaN has no place in the sorted order, and numpy's partition
        # does not order signed zeros.
        window = RateWindow(maxlen=3)
        window.append(2.0)
        with pytest.raises(InvalidVectorError, match="non-negative"):
            window.append(rate)
        assert list(window) == [2.0]
        assert window.quantile(0.5) == 2.0

    def test_copies_keep_the_sorted_shadow(self):
        window = RateWindow(maxlen=3)
        for rate in (3.0, 1.0, 2.0):
            window.append(rate)
        clone = copy.deepcopy(window)
        clone.append(0.5)
        assert list(window) == [3.0, 1.0, 2.0]
        assert window.quantile(1.0) == 3.0
        assert clone.quantile(1.0) == 2.0
