"""The repository benchmark: one entry point, two workloads, a per-layer ledger.

Run from the root of a checkout::

    python3 perfbench/run.py --workload engine-exec --seed 1 --seconds 45 --trace 0

See ``perfbench/README.md`` for the workloads and what each metric means.
"""
