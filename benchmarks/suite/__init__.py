"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

See ``README.md`` in this directory and ``BENCHMARK.json`` at the root.
"""
