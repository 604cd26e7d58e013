"""The repository benchmark: three workloads driven through the public front doors.

``python3 perfbench/run.py --workload offline|serve-rounds|serve-join|all``
measures end-to-end metrics with tracing off (``--trace 0``) or a per-layer
table from a traced run (``--trace 1``).  See ``perfbench/README.md``.
"""
