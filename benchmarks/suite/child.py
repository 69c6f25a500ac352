"""One benchmark child process: run one workload grid once, report JSON.

Usage::

    python -m benchmarks.suite.child WORKLOAD SEED {full,smoke} {batched,loop,traced}

``batched`` is a timed run, ``traced`` the same run under the per-layer
:class:`~benchmarks.suite.trace.Tracer`, and ``loop`` re-runs the
workload's loop-check sample through the per-scenario executor.  The
last stdout line is one JSON object.  A cell that raises is reported in
``error``; any other failure exits non-zero.

Only the standard library is imported at module level: ``setup_s``
starts just before ``import repro`` and covers the import, grid
expansion, workload materialization and every cell's simulation build,
up to round 0.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import sys
import traceback
from time import perf_counter


def cell_digest(final_params, history) -> str:
    """SHA-256 over a cell's final parameters and every history record."""
    digest = hashlib.sha256(final_params.tobytes())
    for record in history:
        digest.update(repr(record).encode())
    return digest.hexdigest()


def run(workload: str, seed: int, smoke: bool, mode: str) -> dict:
    start = perf_counter()
    from repro.engine import ScenarioGrid, run_grid

    import_s = perf_counter() - start

    from benchmarks.suite.workloads import grid_kwargs, loop_sample_kwargs

    kwargs = (
        loop_sample_kwargs(workload, seed, smoke=smoke)
        if mode == "loop"
        else grid_kwargs(workload, seed, smoke=smoke)
    )
    tracer = None
    if mode == "traced":
        from benchmarks.suite.trace import Tracer

        tracer = Tracer()
        tracer.install()
    grid = ScenarioGrid(**kwargs)
    try:
        result = run_grid(
            grid, mode="loop" if mode == "loop" else "batched", eval_every=10
        )
        elapsed = perf_counter() - start
    except Exception:  # a cell raised: report it, the parent counts it
        return {"cells": len(grid), "error": traceback.format_exc()}
    finally:
        if tracer is not None:
            tracer.uninstall()

    cells = len(result.specs)
    # Loss after a fixed number of rounds, relative to the round-0 loss
    # so that cells started at different distances compare.  Averaging
    # cells may diverge under attack; every other rule must end finite.
    robust = [
        result.histories[spec.label]
        for spec in result.specs
        if spec.aggregator != "average"
    ]
    ratios = [h.evaluated[-1].loss / h.evaluated[0].loss for h in robust]
    finite = [r for r in ratios if math.isfinite(r)]
    out = {
        "cells": cells,
        "error": None,
        "digests": {
            label: cell_digest(result.final_params[label], history)
            for label, history in result.histories.items()
        },
        "nonfinite_losses": len(ratios) - len(finite),
        "wall_time": result.wall_time,
        "worker_rounds_per_s": (
            cells * grid.num_rounds * grid.num_workers / result.wall_time
        ),
        "setup_s": elapsed - result.wall_time,
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "final_loss_ratio": statistics.mean(finite),
        "native_fraction": result.native_fraction,
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(result.wall_time)
        out["round_ms"] = [1e3 * s for s in tracer.round_s]
        out["restored"] = tracer.restored()
    return out


def main(argv: list[str]) -> int:
    workload, seed, profile, mode = argv
    if profile not in ("full", "smoke") or mode not in ("batched", "loop", "traced"):
        raise SystemExit(f"bad child arguments: {argv}")
    print(json.dumps(run(workload, int(seed), profile == "smoke", mode)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
