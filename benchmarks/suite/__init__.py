"""The repository's benchmark: four workloads, end-to-end and per-layer metrics.

Run the whole set with ``PYTHONPATH=src python -m benchmarks.suite``; the
driver behind ``BENCHMARK.json`` runs one workload per process through
``benchmarks/suite/run.py``.  See ``README.md`` in this directory.
"""
