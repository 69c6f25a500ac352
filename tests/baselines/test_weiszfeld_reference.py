"""The Weiszfeld solver against its frozen reference.

``tests/baselines/weiszfeld_reference.py`` holds the solver as it stood
before the Gram screen, the reused workspace, the clean-lane fast path
and the out-of-steps certificate.  Over every stack family below:

* wherever the reference returns, the library returns the same bits;
* on NaN/±inf stacks both raise the same ``ConvergenceError``;
* on finite stacks where the reference runs out of steps, the library
  returns a point whose suboptimality certificate holds.

A hypothesis sweep over small finite stacks adds that the library never
raises there and that every point it returns is certified.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.baselines.medians import _GAP_RTOL, GeometricMedian, batched_weiszfeld
from repro.exceptions import ConvergenceError
from tests.baselines.weiszfeld_reference import reference_weiszfeld

# The crawl stack: (0, 0) is optimal (residual 2.9994 within its
# multiplicity 3), but the iterate's nearest point (0, -2) is not.
CRAWL = np.array([[0, -2], [1, -24], [0, -2], [0, 0], [0, 0], [0, 0]], float)


def objective_floor(stack: np.ndarray, anchor: np.ndarray) -> float:
    """Certified lower bound on ``f*`` from one anchor point y.

    For any subgradient g of f at y, convexity gives
    ``f* >= f(y) − ‖g‖·‖y − x*‖``, and ``‖y − x*‖`` is at most
    ``maxᵢ‖y − Vᵢ‖`` (the median lies in the convex hull) and at most
    ``2·f(y)/n`` (``n‖y − x*‖ − f(y) <= f* <= f(y)``).  Moving the k rows
    nearest y (and any row at y) onto y changes f by at most their
    summed distance; the moved objective's minimum-norm subgradient at
    y has norm ``max(‖R‖ − m, 0)``, with R the unit-vector sum over the
    other rows and m the rows on y.  The best k wins."""
    distances = np.linalg.norm(stack - anchor, axis=1)
    order = np.argsort(distances, kind="stable")
    bounds = []
    for k in range(len(stack)):
        on = distances == 0
        on[order[:k]] = True
        off = ~on
        residual = ((stack[off] - anchor) / distances[off, None]).sum(axis=0)
        slope = max(np.linalg.norm(residual) - np.count_nonzero(on), 0.0)
        moved = distances[on].sum()
        objective = distances[off].sum()
        radius = min(distances.max(), 2.0 * objective / len(stack))
        bounds.append(objective - slope * radius - moved)
    return max(bounds)


def polished(stack: np.ndarray, point: np.ndarray, steps: int = 2000) -> np.ndarray:
    """``point`` after plain Weiszfeld steps (stopping on a data point):
    an anchor whose gradient is small where ``point`` sits next to a
    data point and the first-order bound at ``point`` is loose."""
    for _ in range(steps):
        distances = np.linalg.norm(stack - point, axis=1)
        if not distances.all():
            break
        weights = 1.0 / distances
        point = weights @ stack / weights.sum()
    return point


def assert_certified(stack: np.ndarray, point: np.ndarray) -> None:
    """``f(point) − f*`` is within ``_GAP_RTOL·f(point)``, by the best
    :func:`objective_floor` over ``point``, the data points and, if
    those do not suffice, ``point`` polished.

    The solver resolves a median only down to absolute floors: it stops
    once a step moves less than ``1e-9·max(1, ‖x‖)`` (the default
    tolerance) and merges rows closer than ``1e-12·max(1, spread)``.  A
    cloud narrower than that stops after one step or collapses onto one
    of its rows, so the check allows n times the larger floor on top of
    the relative gap."""
    assert np.isfinite(point).all()
    distances = np.linalg.norm(stack - point, axis=1)
    allowed = (
        _GAP_RTOL * distances.sum() * (1 + 1e-9)
        + len(stack)
        * max(1e-9 * max(1.0, np.linalg.norm(point)), 1e-12 * max(1.0, distances.max()))
    )
    floor = max(objective_floor(stack, anchor) for anchor in (point, *stack))
    if distances.sum() - floor > allowed:
        floor = max(floor, objective_floor(stack, polished(stack, point)))
    assert distances.sum() - floor <= allowed


def assert_matches_reference(stacks: np.ndarray) -> None:
    """One batch: same bits where the reference returns, the same error
    on non-finite input, a certified point where finite input raises."""
    try:
        # The frozen reference takes its starting mean outside its own
        # errstate scopes; that warning is the reference's, not the
        # library's.
        with np.errstate(invalid="ignore"):
            expected = reference_weiszfeld(stacks)
    except ConvergenceError as error:
        if not np.isfinite(stacks).all():
            with pytest.raises(ConvergenceError) as raised:
                batched_weiszfeld(stacks)
            assert str(raised.value) == str(error)
            return
        got = batched_weiszfeld(stacks)
        for stack, point in zip(stacks, got):
            assert_certified(stack, point)
        return
    assert batched_weiszfeld(stacks).tobytes() == expected.tobytes()


def random_stacks(rng):
    for shape in [(6, 2, 1), (6, 3, 2), (5, 5, 3), (4, 9, 5), (3, 7, 4), (2, 12, 30)]:
        yield rng.standard_normal(shape)


def byzantine_stacks(rng):
    """(8, 20, 1000) stacks shaped like the paper grid's: an honest cloud
    plus f rows that are one duplicated omniscient vector or wide
    Gaussian noise."""
    stacks = []
    for lane in range(8):
        f = 3 + lane % 2
        center = rng.standard_normal(1000)
        honest = center + 0.5 * rng.standard_normal((20 - f, 1000))
        if lane % 4 < 2:
            byzantine = np.tile(-10.0 * honest.mean(axis=0), (f, 1))
        else:
            byzantine = 200.0 * rng.standard_normal((f, 1000))
        stacks.append(np.vstack([honest, byzantine]))
    yield np.stack(stacks)


def majority_stacks(rng):
    for n, d in [(5, 2), (7, 3), (9, 4)]:
        stack = rng.standard_normal((4, n, d))
        stack[:, : n // 2 + 1] = stack[:, :1]
        yield stack


def offset_stacks(rng):
    for n, d in [(5, 3), (8, 2)]:
        yield 1e8 + rng.standard_normal((3, n, d))


def tiny_stacks(rng):
    for n, d in [(5, 3), (8, 2)]:
        yield 1e-10 * rng.standard_normal((3, n, d))


def collinear_stacks(rng):
    for n, d in [(4, 2), (5, 3), (7, 4)]:
        direction = rng.standard_normal(d)
        steps = rng.standard_normal((3, n))
        yield rng.standard_normal((3, 1, d)) + steps[:, :, None] * direction


def crawl_stacks(rng):
    yield CRAWL[None]
    yield np.concatenate([rng.standard_normal((2, 6, 2)), CRAWL[None]])


def non_finite_stacks(rng):
    for bad in (np.nan, np.inf, -np.inf):
        stack = rng.standard_normal((3, 6, 3))
        stack[1, 2] = bad
        yield stack
        single = rng.standard_normal((1, 5, 2))
        single[0, 0, 1] = bad
        yield single
    mixed = rng.standard_normal((2, 7, 2))
    mixed[0, 1] = np.inf
    mixed[0, 3] = -np.inf
    yield mixed


FAMILIES = [
    random_stacks,
    byzantine_stacks,
    majority_stacks,
    offset_stacks,
    tiny_stacks,
    collinear_stacks,
    crawl_stacks,
    non_finite_stacks,
]


@pytest.mark.parametrize("family", FAMILIES, ids=lambda family: family.__name__)
def test_family_matches_reference(family):
    rng = np.random.default_rng(2024)
    for stacks in family(rng):
        assert_matches_reference(stacks)


def solve_outcome(stack: np.ndarray) -> bytes | str:
    """The solver's result bytes, or its ``ConvergenceError`` text."""
    try:
        return batched_weiszfeld(stack).tobytes()
    except ConvergenceError as error:
        return str(error)


def test_non_finite_input_warns_nothing():
    """With warnings raised as errors, non-finite input returns or raises
    ``ConvergenceError`` exactly as with warnings ignored: +inf and -inf
    in one coordinate make the starting mean NaN, which must not warn."""
    opposed = np.random.default_rng(0).standard_normal((1, 7, 2))
    opposed[0, 1] = np.inf
    opposed[0, 3] = -np.inf
    stacks = [opposed, *non_finite_stacks(np.random.default_rng(2024))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        expected = [solve_outcome(stack) for stack in stacks]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert [solve_outcome(stack) for stack in stacks] == expected


# Finite stacks on which the reference runs out of steps, found by
# sweeps: flat objectives next to a data point that is not quite optimal
# (residuals 1 + 9.7e-4, 2 + 7.4e-4 at a double point, 1 + 3.5e-3), and
# a median next to two rows 2.4e-5 apart.  At the last iterate,
# ‖g‖·maxᵢ‖x − Vᵢ‖ / f(x) reads 1.8e-3, 1.5e-3, 1.8e-3 and 5.3e-3; they
# certify through the radius 2·f(y)/n, the bound taken at a data point,
# or the bound with the anchor's nearest rows moved onto it.
NEAR_OPTIMAL_POINTS = [
    np.array(
        [
            [-138.71062854, 12.28568845],
            [-138.44908205, 12.48117747],
            [-148.75594886, 3.40589799],
            [-140.06771929, 11.2461118],
        ]
    ),
    np.array(
        [
            [0.0, -4.0, 12.0, 0.0, 0.0],
            [60.0, 0.0, 102.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0],
        ]
    ),
    np.array(
        [
            [10.66899935, 29.44971248],
            [10.56054236, 29.30933052],
            [19.96919555, 39.24924733],
            [11.85963428, 30.88412512],
        ]
    ),
    np.array(
        [
            [0.0, 246.0, 0.0, -70.0],
            [2.35226723e-05, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 1.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
    ),
]


def test_benign_out_of_steps_stacks_return_certified_points():
    # Standard-normal (4, 2) stacks of default_rng(2) on which the
    # reference runs out of steps with no certified data point.  Their
    # last iterates carry relative certificates of at most 4e-4.
    rng = np.random.default_rng(2)
    stacks = [rng.standard_normal((4, 2)) for _ in range(216)]
    for stack in [stacks[142], stacks[173], stacks[215], *NEAR_OPTIMAL_POINTS]:
        with pytest.raises(ConvergenceError):
            reference_weiszfeld(stack[None])
        assert_matches_reference(stack[None])
        rule_point = GeometricMedian().aggregate(stack)
        assert rule_point.tobytes() == batched_weiszfeld(stack[None])[0].tobytes()


def test_poisoned_lane_still_raises_alone():
    # A NaN lane next to the crawl lane: the crawl lane certifies, the
    # NaN lane is the one scenario left to raise on.
    poisoned = CRAWL.copy()
    poisoned[1, 0] = np.nan
    with pytest.raises(ConvergenceError, match="1 of 2 scenario"):
        batched_weiszfeld(np.stack([CRAWL, poisoned]))


@st.composite
def finite_stacks(draw):
    n = draw(st.integers(3, 9))
    d = draw(st.integers(1, 5))
    stack = draw(
        hnp.arrays(
            np.float64,
            (n, d),
            elements=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
        )
    )
    if draw(st.booleans()):
        # Duplicate rows.
        copies = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n))
        for source, target in copies:
            stack[target] = stack[source]
    if draw(st.booleans()):
        # Collinear rows along the first row's direction.
        steps = draw(hnp.arrays(np.float64, (n,), elements=st.floats(-1e3, 1e3)))
        stack = stack[1] + steps[:, None] * stack[0]
    return stack


@given(finite_stacks())
@settings(max_examples=150, deadline=None)
def test_finite_stacks_never_raise_and_are_certified(stack):
    assert_certified(stack, batched_weiszfeld(stack[None])[0])
