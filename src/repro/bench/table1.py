"""Table 1: normalized LQCD benchmark and $/Mflops (paper section 6)."""

from __future__ import annotations

from repro.bench.harness import ExperimentResult
from repro.lqcd.benchmark import TABLE1_LATTICES, LqcdBenchmark


def table1(quick: bool = False) -> ExperimentResult:
    """LQCD Gflops/node and estimated $/Mflops for both machines."""
    if quick:
        pairs = LqcdBenchmark(gige_dims=(2, 2, 2), myrinet_hosts=8,
                              myrinet_logical_dims=(2, 2, 2),
                              iterations=3).table1(TABLE1_LATTICES[:2])
    else:
        # The benchmark's defaults are Table 1's machines and lattices.
        pairs = LqcdBenchmark().table1()
    rows = []
    for myri, gige in pairs:
        L = myri.local.lx
        rows.append([
            f"{L}^4/node",
            myri.gflops_per_node,
            myri.dollars_per_mflops,
            gige.gflops_per_node,
            gige.dollars_per_mflops,
        ])
    return ExperimentResult(
        experiment="table1",
        title="Table 1: normalized LQCD benchmark and $/Mflops",
        columns=["lattice", "Myrinet Gflops", "Myrinet $/Mflops",
                 "GigE Gflops", "GigE $/Mflops"],
        rows=rows,
        notes=[
            "paper: Myrinet performs a little better per node; GigE "
            "performance grows with lattice size (surface-to-volume); "
            "GigE mesh wins on $/Mflops at production lattice sizes",
            "compute normalized to the same per-node kernel rate on "
            "both machines (paper: 'normalized to a single node for a "
            "fair comparison')",
        ],
    )
