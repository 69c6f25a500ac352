"""Smoke tests of the repository benchmark (``python -m benchmarks.suite``).

Two ``--smoke`` sets (seeds 0 and 1) run through the same harness as a
full set: every workload, one repeat, one traced run and the loop check.
"""

from __future__ import annotations

import pytest

from benchmarks.suite import harness
from benchmarks.suite.compare import compare, verdict
from benchmarks.suite.workloads import WORKLOADS


@pytest.fixture(scope="module")
def smoke_sets() -> dict[int, dict]:
    return {
        seed: harness.run_set(list(WORKLOADS), seed, smoke=True, log=lambda _: None)
        for seed in (0, 1)
    }


def test_benchmark_json_names_the_suite_workloads():
    assert [w["name"] for w in harness.spec()["workloads"]] == list(WORKLOADS)


def test_every_metric_is_emitted_with_its_unit(smoke_sets):
    bench = harness.spec()
    for data in smoke_sets[0]["workloads"].values():
        end_to_end = {n: m["unit"] for n, m in data["end_to_end"].items()}
        assert end_to_end == {
            **{m["name"]: m["unit"] for m in bench["end_to_end"]},
            "error_rate": harness.ERROR_RATE["unit"],
        }
        per_layer = {n: m["unit"] for n, m in data["per_layer"].items()}
        assert per_layer == {m["name"]: m["unit"] for m in bench["per_layer"]}


def test_error_rate_is_zero(smoke_sets):
    for result in smoke_sets.values():
        assert result["error_rate"] == 0
        for data in result["workloads"].values():
            assert data["failed"] == 0
            assert data["end_to_end"]["error_rate"]["median"] == 0


def test_another_seed_passes_every_check_on_other_inputs(smoke_sets):
    for workload in WORKLOADS:
        first = smoke_sets[0]["workloads"][workload]["digest"]
        second = smoke_sets[1]["workloads"][workload]["digest"]
        assert first is not None and second is not None
        assert first != second


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_digests_are_equal(workload):
    plain = harness.child(workload, 0, True, "batched")
    traced = harness.child(workload, 0, True, "traced")
    assert plain["error"] is None and traced["error"] is None
    assert traced["digests"] == plain["digests"]
    assert traced["restored"]


def test_tracing_restores_every_wrapped_attribute():
    from benchmarks.suite.trace import Tracer, targets

    originals = {(cls, name): cls.__dict__[name] for _, cls, name in targets()}
    tracer = Tracer()
    tracer.install()
    try:
        assert all(
            cls.__dict__[name] is not original
            for (cls, name), original in originals.items()
        )
    finally:
        tracer.uninstall()
    assert tracer.restored()
    assert all(
        cls.__dict__[name] is original
        for (cls, name), original in originals.items()
    )


def _metric(samples, better="higher", bound=0.1):
    return {
        **harness.summary(samples),
        "unit": "x",
        "better": better,
        "bound": bound,
    }


def test_compare_verdicts():
    base = _metric([100.0, 101.0, 99.0, 100.5])
    assert verdict(base, _metric([100.0, 102.0, 98.0, 101.0])) == "unchanged"
    assert verdict(base, _metric([80.0, 81.0, 79.0, 80.5])) == "regressed"
    assert verdict(base, _metric([130.0, 131.0, 129.0, 130.5])) == "improved"
    assert verdict(base, _metric([60.0, 140.0, 90.0, 120.0])) == "unresolved"
    lower = _metric([10.0, 10.1, 9.9, 10.0], better="lower")
    assert verdict(lower, _metric([12.0, 12.1, 11.9, 12.0], "lower")) == "regressed"
    errors = _metric([0.0], better="lower", bound=0.0)
    assert verdict(errors, _metric([0.01], "lower", 0.0)) == "regressed"


def _one_metric_set(samples):
    return {"workloads": {"w": {"end_to_end": {"m": _metric(samples)}}}}


def test_compare_claim_needs_nine_in_ten_wins():
    parent = _one_metric_set([100.0 + i for i in range(10)])
    faster = _one_metric_set([130.0 + i for i in range(10)])
    lines, passed = compare(parent, faster, "m@w")
    assert passed and lines[-1].startswith("claim m@w: met")
    lines, passed = compare(parent, parent, "m@w")
    assert not passed and "not met" in lines[-1]
