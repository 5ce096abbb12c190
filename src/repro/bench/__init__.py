"""Benchmark harness: regenerates every figure and table in the paper.

Experiment ids (see DESIGN.md's per-experiment index):

========  ==========================================================
``fig2``  M-VIA vs TCP point-to-point latency and bandwidth
``fig3``  Aggregated multi-link bandwidth, 2-D and 3-D mesh
``fig4``  MPI/QMP point-to-point latency and aggregated bandwidth
``fig5``  Broadcast and global-sum times on the 4x8x8 torus
``fig6``  Scatter (one-to-all personalized): SDF vs OPT
``table1``  LQCD Gflops/node and $/Mflops, GigE mesh vs Myrinet
``routing``  Non-nearest-neighbor latency: 18.5 + 12.5 (n-1) us
========  ==========================================================

Run ``python -m repro.bench <id> [--quick]`` or use
:func:`repro.bench.harness.run_experiment`; the studies outside the
paper's set (``conformance``, ``nic-collectives``, ``explain``,
``pdes``, ``chaos``) are names in the same registry.
"""

from repro.bench.harness import (
    EXPERIMENTS,
    ExperimentResult,
    run_experiment,
)
from repro.bench.report import render_table, to_csv

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "render_table",
    "run_experiment",
    "to_csv",
]
