"""Checked benchmark for relayauction: three workloads, end-to-end metrics
from untraced runs and per-layer metrics from traced runs.

Run ``python3 perfbench/run.py --help`` from the repository root; see
``perfbench/README.md`` for the workloads, seeds and reference figures.
"""
