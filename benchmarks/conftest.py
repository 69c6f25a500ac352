"""Shared infrastructure for the reproduction benches.

Each ``bench_{lemma,prop,fig}*`` module regenerates one figure, lemma
or proposition of the paper, and ``bench_ablation_*`` varies one design
choice.  Benches print the reproduced series/tables and assert the
qualitative claim (who wins, and roughly by how much).  The file names
do not match pytest's defaults, so run them with::

    PYTHONPATH=src python -m pytest -q -s benchmarks/ \\
        -o python_files='bench_*.py' -o python_functions='bench_*'

``bench_engine_grid.py`` times the batched executor against the loop
executor with the same helpers, and ``bench_tournament.py`` also runs as
a script that regenerates ``BENCH_tournament.json``.
"""

from __future__ import annotations

import sys


def emit(text: str) -> None:
    """Print a bench's reproduced table, bypassing pytest capture noise."""
    sys.stdout.write("\n" + text + "\n")


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing.

    Figure-scale experiments are deterministic and expensive; one round
    with one iteration gives the wall-clock without re-running the
    training loops dozens of times.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1)
