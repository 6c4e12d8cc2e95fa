"""Benchmark of the repro program: workloads, spans and metrics (see README.md)."""

from perfbench.layers import LAYERS
from perfbench.workloads import WORKLOADS

__all__ = ["LAYERS", "WORKLOADS"]
