"""``disagreement`` behind its Gram screen equals the frozen brute force.

:func:`repro.utils.linalg.max_pairwise_distance` screens pairs with an
upper bound from one Gram product and evaluates only the pairs that can
still hold the maximum.  Every case here compares it, as a Python float
bit for bit, with :func:`max_pairwise_distance_brute`, the frozen copy of
the all-pairs loop the gossip executor used before the screen.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import repro.topology.gossip as gossip_module
from benchmarks.suite.workloads import grid_kwargs
from repro.engine import ScenarioGrid, run_grid
from repro.utils.linalg import max_pairwise_distance
from tests.topology.gossip_reference import max_pairwise_distance_brute


def assert_same(stack: np.ndarray) -> None:
    got = max_pairwise_distance(stack)
    with np.errstate(over="ignore", invalid="ignore"):
        want = max_pairwise_distance_brute(stack)
    assert type(got) is float
    if np.isnan(want):
        assert np.isnan(got)
    else:
        assert got == want, (got, want, stack.shape)


@st.composite
def stacks(draw):
    """Small stacks of every kind the screen must get right: integer
    values (duplicate rows, tied distances), generic floats, clouds at
    a 1e8 offset with spreads down to 1e-8, and rows with NaN or ±inf."""
    n = draw(st.integers(1, 9))
    d = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["integers", "floats", "offset"]))
    if kind == "integers":
        values = draw(
            hnp.arrays(np.float64, (n, d), elements=st.integers(-2, 2).map(float))
        )
    elif kind == "floats":
        values = draw(
            hnp.arrays(
                np.float64,
                (n, d),
                elements=st.floats(-1e6, 1e6, allow_nan=False, width=64),
            )
        )
    else:
        spread = 10.0 ** draw(st.integers(-8, 0))
        unit = draw(
            hnp.arrays(np.float64, (n, d), elements=st.floats(-1.0, 1.0, width=64))
        )
        values = 1e8 + spread * unit
    if draw(st.booleans()):
        row = draw(st.integers(0, n - 1))
        col = draw(st.integers(0, d - 1))
        values[row, col] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return values


@settings(max_examples=400, deadline=None)
@given(stacks())
@example(np.zeros((1, 3)))
@example(np.array([[0.0], [3.0]]))
@example(np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]]))
@example(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]))
@example(np.array([[1.0, np.nan], [0.0, 0.0]]))
@example(np.array([[np.inf, 0.0], [np.inf, 0.0], [0.0, 0.0]]))
@example(np.array([[-np.inf], [np.inf]]))
def test_screen_equals_brute_force(stack):
    assert_same(stack)


@pytest.mark.parametrize(
    "scale", [1.0, 1e-160, 1e150], ids=["unit", "underflow", "overflow"]
)
def test_screen_equals_brute_force_at_extreme_scales(scale):
    """Products that underflow, and squares and differences that
    overflow to inf: the bound still holds, or the pair is evaluated."""
    rng = np.random.default_rng(3)
    for _ in range(50):
        stack = rng.standard_normal((int(rng.integers(2, 30)), 7)) * scale
        assert_same(stack)


@pytest.mark.parametrize("dimension", [30, 100])
def test_screen_keeps_near_ties(dimension):
    """The rows of an orthogonal matrix are all √2 apart in exact
    arithmetic, so their computed distances differ only in the last bits,
    and the Gram estimate of a pair can fall below its exact distance.
    The screen may skip a pair only when its bound, with the rounding
    error of the Gram product and of the brute force's own expression
    included, stays below the best distance already found.  (A bound
    without those error terms fails this on several of the stacks.)"""
    rng = np.random.default_rng(0)
    for _ in range(100):
        rows, _ = np.linalg.qr(rng.standard_normal((dimension, dimension)))
        assert_same(np.ascontiguousarray(rows))


def test_strided_stack_takes_the_brute_force():
    """A non-contiguous stack reduces its rows in another order, so the
    helper answers it with the brute force itself."""
    stack = np.asfortranarray(np.random.default_rng(1).standard_normal((40, 9)))
    assert_same(stack)


def test_gossip_ring_stacks(monkeypatch):
    """Every honest-parameter stack the benchmark's gossip-ring grid
    (seed 0) evaluates: 6 cells of 198 honest nodes at d = 100, three
    evaluated rounds each."""
    seen = []

    def recording(stack):
        seen.append(stack.shape)
        assert_same(stack)
        return max_pairwise_distance(stack)

    monkeypatch.setattr(gossip_module, "max_pairwise_distance", recording)
    run_grid(ScenarioGrid(**grid_kwargs("gossip-ring", 0)), eval_every=10)
    assert seen == [(198, 100)] * 18
