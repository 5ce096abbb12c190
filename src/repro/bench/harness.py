"""Experiment registry and runner."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence

from repro.errors import BenchmarkError


@dataclass
class ExperimentResult:
    """One regenerated table/figure: columns, rows, and notes that
    record what the paper reports for the same experiment."""

    experiment: str
    title: str
    columns: Sequence[str]
    rows: List[List[Any]]
    notes: Sequence[str] = field(default_factory=list)

    def render(self) -> str:
        from repro.bench.report import render_table

        return render_table(self.title, self.columns, self.rows,
                            notes=self.notes)

    def csv(self) -> str:
        from repro.bench.report import to_csv

        return to_csv(self.columns, self.rows)

    def column(self, name: str) -> List[Any]:
        try:
            index = list(self.columns).index(name)
        except ValueError:
            raise BenchmarkError(
                f"{self.experiment}: no column {name!r}"
            ) from None
        return [row[index] for row in self.rows]


def _registry() -> Dict[str, Callable[[bool], ExperimentResult]]:
    from repro.bench import figures
    from repro.bench.table1 import table1
    from repro.bench import ablations

    return {
        "fig2": figures.fig2,
        "fig3": figures.fig3,
        "fig4": figures.fig4,
        "fig5": figures.fig5,
        "fig6": figures.fig6,
        "routing": figures.routing,
        "table1": table1,
        "ablation-threshold": ablations.eager_threshold,
        "ablation-coalescing": ablations.interrupt_coalescing,
        "ablation-tokens": ablations.token_count,
        "ablation-overhead": ablations.host_overhead,
        "ablation-checksum": ablations.checksum_offload,
        "ablation-kernel-reduce": ablations.kernel_collectives,
        "ablation-napi": ablations.napi,
        "cluster-b": ablations.cluster_b,
        # Meta-experiment: evaluates every encoded paper claim.  Not in
        # EXPERIMENTS (and so not in `all`) since it re-runs the others.
        "conformance": _conformance,
        # Study beyond the paper (host vs kernel vs NIC collective
        # tiers): a name, not a figure, so not in EXPERIMENTS either.
        "nic-collectives": _nic_collectives,
    }


def _conformance(quick: bool) -> "ExperimentResult":
    from repro.bench.conformance import run_conformance

    return run_conformance(quick=quick)


def _nic_collectives(quick: bool) -> "ExperimentResult":
    from repro.bench.nic_collectives import run_study

    return run_study(quick=quick)


#: The paper's experiments: what ``all`` runs and what a service
#: ``figure`` job may name.
EXPERIMENTS = (
    "fig2", "fig3", "fig4", "fig5", "fig6", "routing", "table1",
    "ablation-threshold", "ablation-coalescing", "ablation-tokens",
    "ablation-overhead", "ablation-checksum", "ablation-kernel-reduce",
    "ablation-napi", "cluster-b",
)


def run_experiment(name: str, quick: bool = False) -> ExperimentResult:
    """Run one experiment by id; see :data:`EXPERIMENTS`."""
    registry = _registry()
    if name not in registry:
        raise BenchmarkError(
            f"unknown experiment {name!r}; choose from "
            f"{tuple(registry)}"
        )
    return registry[name](quick)
