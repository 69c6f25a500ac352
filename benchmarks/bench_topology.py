"""Topology bench — serverless gossip over communication graphs.

Two measurements on the serverless gossip engine:

* **comparison grid** — ``complete`` / ``ring(degree=6)`` /
  ``erdos-renyi(edge_prob=0.8)`` × three gradient rules under the
  gaussian attack at ``f = 2`` on the quadratic reference workload,
  run through *both* grid executors.  Alongside the per-cell
  consensus-error and disagreement metrics, three identities are
  asserted:

  - the loop and batched executors produce bit-identical trajectories
    (both executors must route gossip cells through the same gossip
    engine);
  - the degenerate ``complete`` cell reproduces the axis-free grid —
    same labels, same trajectories, bit for bit (a serverless run over
    the complete graph with zero edge delay *is* the parameter server);
  - every gossip cell reports finite per-round ``consensus_error`` and
    ``disagreement`` extras.

* **ring scaling headline** — a ``ring(degree=6)`` grid at
  ``n ∈ {250, 500, 1000}`` nodes (two Byzantine sign-flippers,
  coordinate-median locally), demonstrating the engine end-to-end at
  ≥ 1000 nodes: per-n wall time plus the per-round consensus-error /
  disagreement trajectory, asserting the honest nodes train (final
  distance-to-optimum under ``TRAIN_MAX``) while disagreement stays
  bounded.  The fault set is *fixed* rather than proportional: on a
  sparse graph a Byzantine node's influence is local, and a contiguous
  2%-of-n block drags its whole neighborhood arc away from the rest of
  the network — real decentralized behavior, but a drifting headline.
  Two adjacent sign-flippers exercise the local-f path (nodes near the
  pair aggregate with ``f_local = 2``) while the drag stays bounded.

Writes the measurement to ``BENCH_topology.json`` at the repo root.

Standalone usage (CI smoke / regenerating the JSON)::

    PYTHONPATH=src python benchmarks/bench_topology.py          # full
    PYTHONPATH=src python benchmarks/bench_topology.py --smoke  # tiny
    PYTHONPATH=src python benchmarks/bench_topology.py --smoke \\
        --output BENCH_topology.smoke.json   # CI artifact
"""

from __future__ import annotations

import json
import math
import platform
import sys
from pathlib import Path

from repro.engine import ScenarioGrid, run_grid
from repro.experiments.reporting import format_table

try:
    from benchmarks.conftest import emit, run_once
except ImportError:  # executed as a script: python benchmarks/bench_topology.py
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from benchmarks.conftest import emit, run_once

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_topology.json"

AGGREGATORS = (
    ("krum", {}),
    ("coordinate-median", {}),
    ("average", {}),
)
TOPOLOGIES = ("complete", "ring", "erdos-renyi")

# Scaling headline thresholds: with two sign-flippers filtered by the
# local coordinate median, every n must finish within TRAIN_MAX of the
# optimum (training works at a thousand nodes) and the honest extremes
# must stay within DISAGREE_MAX of each other (the Byzantine drag stays
# local).  Measured at the full bench: dist_to_opt ~1.6-1.7 and
# disagreement ~2.4 across n ∈ {250, 500, 1000} (from ~10.7 at x_0).
TRAIN_MAX = 3.0
DISAGREE_MAX = 5.0


def _comparison_grid(*, seeds=(0, 1), num_rounds=60, dimension=10):
    return ScenarioGrid(
        seeds=seeds,
        attacks=(("gaussian", {"sigma": 10.0}),),
        aggregators=AGGREGATORS,
        f_values=(2,),
        num_workers=15,
        dimension=dimension,
        sigma=0.5,
        num_rounds=num_rounds,
        learning_rate=0.1,
        lr_timescale=None,
        topology_values=TOPOLOGIES,
        degree=6,
        edge_prob=0.8,
    )


def _axis_free_grid(grid: ScenarioGrid) -> ScenarioGrid:
    return ScenarioGrid(
        seeds=tuple(grid.seeds),
        attacks=tuple(grid.attacks),
        aggregators=AGGREGATORS,
        f_values=tuple(grid.f_values),
        num_workers=grid.num_workers,
        dimension=grid.dimension,
        sigma=0.5,
        num_rounds=grid.num_rounds,
        learning_rate=0.1,
        lr_timescale=None,
    )


def _scaling_grid(num_nodes: int, *, num_rounds=30, dimension=10):
    return ScenarioGrid(
        seeds=(0,),
        attacks=(("sign-flip", {}),),
        aggregators=(("coordinate-median", {}),),
        f_values=(2,),
        num_workers=num_nodes,
        dimension=dimension,
        sigma=0.5,
        num_rounds=num_rounds,
        learning_rate=0.1,
        lr_timescale=None,
        topology="ring",
        degree=6,
    )


def _identical_trajectories(result_a, result_b) -> bool:
    for spec in result_a.specs:
        label = spec.label
        if (
            result_a.final_params[label].tobytes()
            != result_b.final_params[label].tobytes()
        ):
            return False
        history_a = result_a.histories[label]
        history_b = result_b.histories[label]
        if len(history_a) != len(history_b) or any(
            a != b for a, b in zip(history_a, history_b)
        ):
            return False
    return True


def _cell_rows(result) -> list[dict]:
    """Per-cell final metrics; gossip cells add the consensus extras
    (the server path has a single iterate, so they are None there)."""
    rows = []
    for spec in result.specs:
        final = result.histories[spec.label].evaluated[-1]
        rows.append(
            {
                "topology": spec.topology,
                "aggregator": spec.aggregator,
                "seed": spec.seed,
                "dist_to_opt": final.extras.get("dist_to_opt"),
                "consensus_error": final.extras.get("consensus_error"),
                "disagreement": final.extras.get("disagreement"),
            }
        )
    return rows


def run_topology(grids) -> dict:
    comparison, axis_free, scaling = grids

    loop_result = run_grid(comparison, mode="loop", eval_every=10)
    batched_result = run_grid(comparison, mode="batched", eval_every=10)

    pinned = {
        label: (history, loop_result.final_params[label])
        for label, history in loop_result.histories.items()
        if "topo=" not in label
    }
    free = run_grid(axis_free, mode="loop", eval_every=10)
    degenerate_identical = list(pinned) == list(free.histories) and all(
        len(history) == len(free.histories[label])
        and all(a == b for a, b in zip(history, free.histories[label]))
        and params.tobytes() == free.final_params[label].tobytes()
        for label, (history, params) in pinned.items()
    )

    rows = _cell_rows(batched_result)
    gossip_rows = [r for r in rows if r["topology"] != "complete"]
    consensus_finite = all(
        r["consensus_error"] is not None
        and math.isfinite(r["consensus_error"])
        and r["disagreement"] is not None
        and math.isfinite(r["disagreement"])
        for r in gossip_rows
    )

    headline = []
    for grid in scaling:
        result = run_grid(grid, mode="loop", eval_every=5)
        (spec,) = result.specs
        history = result.histories[spec.label]
        headline.append(
            {
                "num_nodes": grid.num_workers,
                "num_byzantine": grid.f_values[0],
                "num_rounds": grid.num_rounds,
                "seconds": round(result.wall_time, 4),
                "rounds_per_second": round(
                    grid.num_rounds / max(result.wall_time, 1e-12), 2
                ),
                "final_dist_to_opt": history.evaluated[-1].extras.get(
                    "dist_to_opt"
                ),
                "trajectory": [
                    {
                        "round": record.round_index,
                        "consensus_error": record.extras.get(
                            "consensus_error"
                        ),
                        "disagreement": record.extras.get("disagreement"),
                    }
                    for record in history.evaluated
                ],
            }
        )

    return {
        "grid": {
            "cells": len(comparison),
            "num_workers": comparison.num_workers,
            "dimension": comparison.dimension,
            "num_rounds": comparison.num_rounds,
            "seeds": list(comparison.seeds),
            "topologies": list(TOPOLOGIES),
            "aggregators": [name for name, _ in AGGREGATORS],
        },
        "backend": batched_result.backend,
        "loop_seconds": round(loop_result.wall_time, 4),
        "batched_seconds": round(batched_result.wall_time, 4),
        "trajectories_identical": _identical_trajectories(
            loop_result, batched_result
        ),
        "degenerate_equals_axis_free": degenerate_identical,
        "consensus_metrics_finite": consensus_finite,
        "cells": rows,
        "headline": headline,
        "train_max": TRAIN_MAX,
        "disagree_max": DISAGREE_MAX,
        "python": platform.python_version(),
    }


def _emit_summary(summary: dict) -> None:
    emit(
        format_table(
            [
                "cells", "n", "rounds", "loop s", "batched s",
                "identical", "degenerate==plain", "consensus finite",
            ],
            [
                [
                    summary["grid"]["cells"],
                    summary["grid"]["num_workers"],
                    summary["grid"]["num_rounds"],
                    summary["loop_seconds"],
                    summary["batched_seconds"],
                    summary["trajectories_identical"],
                    summary["degenerate_equals_axis_free"],
                    summary["consensus_metrics_finite"],
                ]
            ],
            title="Gossip topologies — comparison grid",
        )
    )
    emit(
        format_table(
            ["nodes", "byz", "rounds", "seconds", "rounds/s",
             "dist_to_opt", "disagreement"],
            [
                [
                    row["num_nodes"],
                    row["num_byzantine"],
                    row["num_rounds"],
                    row["seconds"],
                    row["rounds_per_second"],
                    f"{row['final_dist_to_opt']:.4g}",
                    f"{row['trajectory'][-1]['disagreement']:.4g}",
                ]
                for row in summary["headline"]
            ],
            title="Ring(degree=6) scaling — serverless gossip",
        )
    )


def _check(summary: dict) -> list[str]:
    failures = []
    if not summary["trajectories_identical"]:
        failures.append(
            "batched engine diverged from the per-scenario loop on the "
            "topology grid"
        )
    if not summary["degenerate_equals_axis_free"]:
        failures.append(
            "the degenerate complete-graph cells forked from the "
            "axis-free grid"
        )
    if not summary["consensus_metrics_finite"]:
        failures.append(
            "a gossip cell reported a missing or non-finite "
            "consensus_error/disagreement"
        )
    for row in summary["headline"]:
        if not (row["final_dist_to_opt"] < TRAIN_MAX):
            failures.append(
                f"ring gossip at n={row['num_nodes']} should train to "
                f"dist_to_opt < {TRAIN_MAX}, got "
                f"{row['final_dist_to_opt']:.4g}"
            )
        last = row["trajectory"][-1]["disagreement"]
        if not (last < DISAGREE_MAX):
            failures.append(
                f"ring gossip at n={row['num_nodes']} should keep "
                f"disagreement < {DISAGREE_MAX}, got {last:.4g}"
            )
    return failures


def _grids(*, smoke: bool = False):
    if smoke:
        comparison = _comparison_grid(seeds=(0,), num_rounds=10)
        scaling = (_scaling_grid(64, num_rounds=20),)
    else:
        comparison = _comparison_grid()
        scaling = tuple(_scaling_grid(n) for n in (250, 500, 1000))
    return comparison, _axis_free_grid(comparison), scaling


def bench_topology(benchmark):
    summary = run_once(benchmark, lambda: run_topology(_grids()))
    _emit_summary(summary)
    RESULT_PATH.write_text(json.dumps(summary, indent=1) + "\n")
    for failure in _check(summary):
        raise AssertionError(failure)


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run a small grid (1 seed, 64-node ring) without writing "
        "BENCH_topology.json — the CI sanity check",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="also write the summary JSON to this path (used by CI to "
        "upload the smoke measurement as a workflow artifact)",
    )
    args = parser.parse_args(argv)

    summary = run_topology(_grids(smoke=args.smoke))
    _emit_summary(summary)
    print(json.dumps(summary, indent=1))
    if args.output is not None:
        args.output.write_text(json.dumps(summary, indent=1) + "\n")
        print(f"wrote {args.output}")
    failures = _check(summary)
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    if not args.smoke:
        RESULT_PATH.write_text(json.dumps(summary, indent=1) + "\n")
        print(f"wrote {RESULT_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
