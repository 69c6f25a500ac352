"""The differential comparator must see every field of a round record."""

from __future__ import annotations

import dataclasses

import pytest

from repro.distributed.metrics import RoundRecord
from tests.distributed.identity import records_equal

BASE = RoundRecord(
    round_index=3,
    learning_rate=0.1,
    aggregate_norm=2.0,
    params_norm=1.5,
    selected=(0, 4),
    byzantine_selected=1,
    loss=0.25,
    accuracy=0.5,
    grad_norm=0.75,
    extras={"dist_to_opt": 1.0, "disagreement": 0.5},
)


def test_equal_records_compare_equal():
    assert records_equal(BASE, dataclasses.replace(BASE))


@pytest.mark.parametrize(
    "change",
    [
        {"round_index": 4},
        {"learning_rate": 0.2},
        {"aggregate_norm": 2.5},
        {"params_norm": 1.0},
        {"selected": (0, 5)},
        {"byzantine_selected": 0},
        {"loss": None},
        {"accuracy": 0.6},
        {"grad_norm": float("nan")},
        {"extras": {"dist_to_opt": 1.0, "disagreement": 0.6}},
        {"extras": {"dist_to_opt": 1.0}},
    ],
    ids=lambda change: next(iter(change)),
)
def test_any_field_difference_is_seen(change):
    assert not records_equal(BASE, dataclasses.replace(BASE, **change))


def test_floats_compare_by_their_bits():
    nan = dataclasses.replace(BASE, loss=float("nan"))
    assert records_equal(nan, dataclasses.replace(nan))
    assert not records_equal(
        dataclasses.replace(BASE, aggregate_norm=0.0),
        dataclasses.replace(BASE, aggregate_norm=-0.0),
    )
    assert not records_equal(
        BASE, dataclasses.replace(BASE, extras={**BASE.extras, "disagreement": -0.5})
    )
