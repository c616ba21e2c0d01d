"""The repository's canonical benchmark: ``plan``, ``serve`` and ``churn``.

Run one workload with ``python3 perfbench/run.py --workload plan --seed 1
--seconds 25 --trace 0``; ``perfbench/README.md`` explains the workloads,
the metrics and what each layer metric should move.
"""
