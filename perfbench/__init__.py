"""End-to-end and per-layer performance benchmark for the mahabench CLI.

Run ``python3 perfbench/run.py --help`` from the repository root; the
README in this directory describes the workloads and metrics.
"""
