"""The repo benchmark: four pinned workloads, end-to-end metrics, layer trace.

See ``README.md`` in this directory for the metric definitions, the
workloads and how to run each mode; ``BENCHMARK.json`` at the repo root
declares the same names for the driver.
"""
