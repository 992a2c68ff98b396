"""End-to-end serving benchmark for ``repro serve --data-dir``.

Run it from the repository root::

    python3 perfbench/run.py --workload query --seed 1 --seconds 15 --trace 0

See ``perfbench/README.md`` for the workloads, metrics and noise rules.
"""
