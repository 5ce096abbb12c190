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

from repro._lazy import lazy_exports

#: Public name -> submodule, resolved on first access: a service job
#: that runs one :mod:`~repro.bench.microbench` point loads neither.
_EXPORTS = {
    "EXPERIMENTS": "harness",
    "ExperimentResult": "harness",
    "run_experiment": "harness",
    "render_table": "report",
    "to_csv": "report",
}

__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, globals())
