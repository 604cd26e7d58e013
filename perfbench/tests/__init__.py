"""Tests of the benchmark's own arithmetic and a smoke size of every workload.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""
