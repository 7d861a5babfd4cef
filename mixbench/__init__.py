"""Benchmark of the mixspec command line: workloads, tracing and checks.

Run one measurement from the repository root with

    python3 mixbench/run.py --workload spectrum --seed 1 --seconds 18 --trace 0

See NOTES.md in this directory for the workloads and the metrics.
"""
