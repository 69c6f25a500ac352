"""Run workloads in child processes, check their outputs, summarize.

Every run of a workload is a fresh ``python -m benchmarks.suite.child``
process with BLAS pinned to one thread, started only after the previous
one exited (a closed loop with one client).  The parent never imports
``repro``; it only collects each child's JSON report.

Correctness, checked over all children of one workload and seed:

* every batched and traced child reports the same SHA-256 digest for
  every cell (so tracing does not perturb the trajectories);
* a loop-executor child re-runs a fixed sample of cells, whose digests
  must equal the batched ones bit for bit;
* every non-``average`` cell ends with a finite loss, every wrapped
  attribute is restored after tracing, and no cell raises.

A cell failing any of these counts once per child toward ``failed``.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[2]

#: One BLAS/OpenMP thread per child: the children run one at a time and
#: the parent waits, so a run owns one core.
THREAD_PIN = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Seconds one child may take before it is killed (and the run fails).
CHILD_TIMEOUT = 60

#: Fewest timed children a ``measure`` run takes, however short
#: ``--seconds`` is.
MIN_REPEATS = 3

#: Timed repeats per workload in a full ``run`` set, after one
#: discarded warm-up round; ``--smoke`` takes one repeat, no warm-up.
REPEATS = 10

#: The end-to-end metric BENCHMARK.json cannot hold (its metrics must
#: never be 0): failed ÷ attempted cells, where any rise is a regression.
ERROR_RATE = {"unit": "fraction", "better": "lower", "bound": 0.0}


class ChildFailed(RuntimeError):
    """A child process crashed or timed out (not a failed cell)."""


def spec() -> dict:
    """BENCHMARK.json: the metric names, units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child(workload: str, seed: int, smoke: bool, mode: str) -> dict:
    """Run one child process to completion and return its report."""
    env = dict(os.environ, **THREAD_PIN)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    args = [workload, str(seed), "smoke" if smoke else "full", mode]
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "benchmarks.suite.child", *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"child {args} timed out") from exc
    if proc.returncode != 0:
        raise ChildFailed(
            f"child {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def _ok(reports: list[dict]) -> list[dict]:
    return [r for r in reports if r["error"] is None]


def _median(reports: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reports)


def check(batched: list[dict], traced: list[dict], loop: dict) -> tuple[int, int]:
    """``(attempted, failed)`` cell counts over one workload's children."""
    reports = batched + traced
    ok = _ok(reports)
    reference = ok[0]["digests"] if ok else {}
    attempted = failed = 0
    for report in reports + [loop]:
        attempted += report["cells"]
        if report["error"] is not None or not report.get("restored", True):
            failed += report["cells"]
            continue
        failed += report["nonfinite_losses"]
        failed += sum(
            1
            for label, digest in report["digests"].items()
            if reference.get(label) != digest
        )
    return attempted, failed


def grid_digest(report: dict) -> str:
    """One SHA-256 over every cell digest of a child's grid."""
    return hashlib.sha256(
        json.dumps(report["digests"], sort_keys=True).encode()
    ).hexdigest()


def end_to_end_values(batched: list[dict]) -> dict[str, float]:
    """The end-to-end metrics of a workload: medians over its children."""
    ok = _ok(batched)
    if not ok:
        return {}
    return {m["name"]: _median(ok, m["name"]) for m in spec()["end_to_end"]}


def layer_values(batched: list[dict], traced: list[dict]) -> dict[str, float]:
    """The per-layer metrics of a workload: medians over its traced
    children, each of which ran right after an untraced one.

    The round percentiles pool every traced ``run_round`` span, and
    ``trace.overhead`` is the median over those adjacent pairs of the
    traced round-loop time over the untraced one, minus 1 — pairing
    keeps the host's slow drift out of it.
    """
    pairs = [
        (plain, traced_run)
        for plain, traced_run in zip(batched, traced)
        if plain["error"] is None and traced_run["error"] is None
    ]
    if not pairs:
        return {}
    ok = [traced_run for _plain, traced_run in pairs]
    values = {
        name: statistics.median(r["layers"][name] for r in ok)
        for name in ok[0]["layers"]
    }
    rounds = [ms for r in ok for ms in r["round_ms"]] or [0.0]
    p50, p75 = (
        statistics.quantiles(rounds, n=4)[1:] if len(rounds) > 1 else rounds * 2
    )
    values.update({
        "engine.simulation.round_ms_p50": p50,
        "engine.simulation.round_ms_p75": p75,
        "core.batched.native_fraction": _median(ok, "native_fraction"),
        "repro.import_s": _median(ok, "import_s"),
        "trace.overhead": statistics.median(
            t["wall_time"] / p["wall_time"] - 1 for p, t in pairs
        ),
    })
    return values


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One timed run of one workload, in the BENCHMARK.json result format.

    Children are started until the next one would end after
    ``seconds`` (and at least :data:`MIN_REPEATS` ran).  With ``trace``
    each untraced child is followed by a traced one and the metrics
    are the per-layer ones; otherwise they are the end-to-end ones.
    """
    deadline = perf_counter() + seconds
    batched: list[dict] = []
    traced: list[dict] = []
    while True:
        lap = perf_counter()
        batched.append(child(workload, seed, False, "batched"))
        if trace:
            traced.append(child(workload, seed, False, "traced"))
        lap = perf_counter() - lap
        if len(batched) >= MIN_REPEATS and perf_counter() + lap > deadline:
            break
    attempted, failed = check(
        batched, traced, child(workload, seed, False, "loop")
    )
    if trace:
        values, metrics = layer_values(batched, traced), spec()["per_layer"]
    else:
        values, metrics = end_to_end_values(batched), spec()["end_to_end"]
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": with_units(values, metrics),
    }


def with_units(values: dict[str, float], metrics: list[dict]) -> dict:
    """``{name: {"value", "unit"}}`` for each BENCHMARK.json metric that
    has a value."""
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in metrics
        if m["name"] in values
    }


def summary(samples: list[float]) -> dict:
    """Median, quartiles, extremes and count of one metric's samples."""
    q1, med, q3 = (
        statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    )
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
        "samples": samples,
    }


def host() -> dict:
    """The measuring host, for sizing later gains against a set."""
    import platform

    import numpy

    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        cpu = next(
            (
                line.split(":", 1)[1].strip()
                for line in cpuinfo.read_text().splitlines()
                if line.startswith("model name")
            ),
            cpu,
        )
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pin": THREAD_PIN,
    }


def run_set(workloads: list[str], seed: int, smoke: bool, log=print) -> dict:
    """One full set: every workload's timed repeats, traces and checks.

    Repeats go round-robin across the workloads, alternating direction,
    so slow drift on a shared host spreads over all of them instead of
    landing on one; each timed child is followed by a traced one.
    """
    warmup, repeats = (0, 1) if smoke else (1, REPEATS)
    batched: dict[str, list[dict]] = {w: [] for w in workloads}
    traced: dict[str, list[dict]] = {w: [] for w in workloads}
    for i in range(warmup + repeats):
        for w in workloads if i % 2 == 0 else workloads[::-1]:
            report = child(w, seed, smoke, "batched")
            if i >= warmup:
                batched[w].append(report)
                traced[w].append(child(w, seed, smoke, "traced"))
        log(f"round {i + 1}/{warmup + repeats} done")
    bench = spec()
    out: dict = {
        "seed": seed,
        "profile": "smoke" if smoke else "full",
        "repeats": repeats,
        "host": host(),
        "workloads": {},
    }
    for w in workloads:
        attempted, failed = check(
            batched[w], traced[w], child(w, seed, smoke, "loop")
        )
        ok = _ok(batched[w])
        end_to_end = {
            m["name"]: {
                "unit": m["unit"],
                "better": m["better"],
                "bound": m["bound"],
                **summary([r[m["name"]] for r in ok]),
            }
            for m in (bench["end_to_end"] if ok else [])
        }
        end_to_end["error_rate"] = {
            **ERROR_RATE, **summary([failed / attempted])
        }
        layers = layer_values(batched[w], traced[w])
        out["workloads"][w] = {
            "cells": batched[w][0]["cells"],
            "attempted": attempted,
            "failed": failed,
            "digest": grid_digest(ok[0]) if ok else None,
            "end_to_end": end_to_end,
            "per_layer": with_units(layers, bench["per_layer"]),
        }
    totals = out["workloads"].values()
    out["error_rate"] = sum(r["failed"] for r in totals) / sum(
        r["attempted"] for r in totals
    )
    return out
