"""Scheduler benchmark: fixed workloads timed end to end and per layer.

Run ``python3 perfbench/run.py --workload <name>`` from the repository root;
``perfbench/README.md`` describes the workloads and metrics.
"""
