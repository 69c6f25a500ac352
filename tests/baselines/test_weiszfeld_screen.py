"""Soundness of the Gram screen in front of the Vardi–Zhang test.

``_screen_rejects`` may only answer "not optimal" when the exact test
``_point_optimality`` answers the same.  The sweep checks that for every
(lane, anchor) pair over stacks built to sit on the test's edges:
duplicates, collinear rows, data-point medians, residuals of norm
``1 ± 1e-9`` and large offsets.  A counter test
guards the other side: on a stack shaped like the paper grid's, the
screen decides every verdict, so the exact test never runs.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import repro.baselines.medians as medians
from tests.baselines.test_weiszfeld_reference import byzantine_stacks


def marginal_rows(draw, n: int, d: int) -> np.ndarray:
    """Rows whose anchor (row 0, the origin) has residual norm 1 ± δ.

    Two rows at angle θ with ``2·cos(θ/2) = 1 + δ`` give that residual;
    the rest come in opposite pairs whose unit vectors cancel (an odd
    leftover duplicates the anchor).  A random rotation embeds the plane
    in d dimensions."""
    delta = draw(st.sampled_from([-1e-6, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 1e-6]))
    half = np.arccos((1.0 + delta) / 2.0)
    radii = draw(hnp.arrays(np.float64, (n,), elements=st.floats(1e-3, 1e3)))
    plane = np.zeros((n, 2))
    plane[1] = radii[1] * np.array([np.cos(half), np.sin(half)])
    plane[2] = radii[2] * np.array([np.cos(half), -np.sin(half)])
    for row in range(3, n - 1, 2):
        angle = draw(st.floats(0.0, 2 * np.pi))
        direction = np.array([np.cos(angle), np.sin(angle)])
        plane[row] = radii[row] * direction
        plane[row + 1] = -radii[row + 1] * direction
    basis, _ = np.linalg.qr(
        draw(hnp.arrays(np.float64, (d, d), elements=st.floats(-1.0, 1.0)))
        + 3.0 * np.eye(d)
    )
    return plane @ basis[:2]


@st.composite
def screen_stacks(draw):
    lanes = draw(st.integers(1, 3))
    n = draw(st.integers(2, 9))
    d = draw(st.integers(1, 5))
    kind = draw(
        st.sampled_from(["random", "duplicates", "collinear", "median", "marginal"])
    )
    stacks = draw(
        hnp.arrays(
            np.float64,
            (lanes, n, d),
            elements=st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
        )
    )
    if kind == "duplicates":
        for source, target in draw(
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n)
        ):
            stacks[:, target] = stacks[:, source]
    elif kind == "collinear":
        steps = draw(hnp.arrays(np.float64, (lanes, n), elements=st.floats(-1e3, 1e3)))
        stacks = stacks[:, :1] + steps[:, :, None] * stacks[:, 1:2]
    elif kind == "median":
        stacks[:, : n // 2 + 1] = stacks[:, :1]
    elif kind == "marginal" and n >= 3 and d >= 2:
        stacks = np.stack([marginal_rows(draw, n, d) for _ in range(lanes)])
    offset = draw(st.sampled_from([0.0, 0.0, 1e4, 1e8, 1e12]))
    return stacks + offset


@given(stacks=screen_stacks())
@settings(max_examples=200, deadline=None)
def test_screen_reject_implies_exact_reject(stacks):
    lanes, n, d = stacks.shape
    gram, norms = medians._lane_gram(stacks)
    for anchor in range(n):
        anchors = np.full(lanes, anchor)
        rejected = medians._screen_rejects(gram, norms, anchors, d)
        optimal = medians._point_optimality(stacks, stacks[:, anchor])
        assert not np.any(rejected & optimal), (anchor, rejected, optimal)


def test_screen_rejects_a_marginally_non_optimal_anchor():
    # ‖R‖ = 1 + 1e-9 > 1 + _VZ_SLACK: the exact test rejects the origin,
    # and the error bound at d = 2 is tight enough for the screen to say
    # so as well.
    half = np.arccos((1.0 + 1e-9) / 2.0)
    stack = np.array(
        [[0.0, 0.0], [np.cos(half), np.sin(half)], [2 * np.cos(half), -2 * np.sin(half)]]
    )[None]
    gram, norms = medians._lane_gram(stack)
    assert medians._screen_rejects(gram, norms, np.zeros(1, int), 2).all()
    assert not medians._point_optimality(stack, stack[:, 0]).any()


def test_paper_grid_shaped_stack_never_runs_the_exact_test(monkeypatch):
    # A bound so loose that the screen stops rejecting would send every
    # nearest-point verdict to the exact O(n·d) test.
    (stack,) = byzantine_stacks(np.random.default_rng(0))
    calls = []
    exact = medians._point_optimality

    def counted(values, anchors):
        calls.append(values.shape[0])
        return exact(values, anchors)

    monkeypatch.setattr(medians, "_point_optimality", counted)
    medians.batched_weiszfeld(stack)
    assert calls == []
