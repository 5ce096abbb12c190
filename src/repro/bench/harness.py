"""Experiment registry and runner."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

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
    #: A study whose output is a report, not one table (``explain``),
    #: renders this text as is, in both output modes.
    text: str = ""

    def render(self) -> str:
        from repro.bench.report import render_table

        if self.text:
            return self.text
        return render_table(self.title, self.columns, self.rows,
                            notes=self.notes)

    def csv(self) -> str:
        from repro.bench.report import to_csv

        if self.text:
            return self.text
        return to_csv(self.columns, self.rows)

    def column(self, name: str) -> List[Any]:
        try:
            index = list(self.columns).index(name)
        except ValueError:
            raise BenchmarkError(
                f"{self.experiment}: no column {name!r}"
            ) from None
        return [row[index] for row in self.rows]


def _registry(fault_seed: int = 0, out: Optional[str] = None,
              ) -> Dict[str, Callable[[bool], ExperimentResult]]:
    from repro.bench import ablations, chaos, figures, observability
    from repro.bench.conformance import run_conformance
    from repro.bench.nic_collectives import run_study
    from repro.bench.table1 import table1

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
        # Studies outside the paper's set, so not in EXPERIMENTS (and
        # not in `all`): the claim audit (it re-runs the others), the
        # host/kernel/NIC collective tiers, where the time went (the
        # one study that writes a file, into ``out``), shard scaling,
        # and node crashes under load.
        "conformance": lambda quick: run_conformance(quick=quick),
        "nic-collectives": lambda quick: run_study(quick=quick),
        "explain": lambda quick: observability.explain(quick, out),
        "pdes": _pdes,
        "chaos": lambda quick: chaos.run_chaos(quick, fault_seed),
    }


def _pdes(quick: bool) -> ExperimentResult:
    """The ``aggregate`` workload on subprocess shards, 1, 2 and 4 of
    them: every shard count must return the 1-shard table."""
    import os

    from repro.pdes import run_sharded

    dims = (4, 4, 4) if quick else (4, 8, 8)
    rows: List[List[Any]] = []
    reference = None
    for nshards in (1, 2, 4):
        result = run_sharded(dims, workload="aggregate", nshards=nshards,
                             processes=True)
        if reference is None:
            reference = result
        elif repr(result.table) != repr(reference.table):
            raise BenchmarkError(
                f"pdes: {nshards} shards changed the 1-shard table")
        rows.append([nshards, result.windows, result.events_processed,
                     round(result.wall_seconds, 2),
                     round(reference.wall_seconds / result.wall_seconds,
                           2)])
    return ExperimentResult(
        experiment="pdes",
        title=f"Sharded aggregate on {'x'.join(map(str, dims))}: "
              f"subprocess shards",
        columns=["nshards", "windows", "events", "wall_s", "vs_1_shard"],
        rows=rows,
        notes=[f"host has {os.cpu_count()} cores; every shard count "
               f"returned the 1-shard table"],
    )


#: The paper's experiments: what ``all`` runs and what a service
#: ``figure`` job may name.
EXPERIMENTS = (
    "fig2", "fig3", "fig4", "fig5", "fig6", "routing", "table1",
    "ablation-threshold", "ablation-coalescing", "ablation-tokens",
    "ablation-overhead", "ablation-checksum", "ablation-kernel-reduce",
    "ablation-napi", "cluster-b",
)


def run_experiment(name: str, quick: bool = False, fault_seed: int = 0,
                   out: Optional[str] = None) -> ExperimentResult:
    """Run one experiment or study by name; see :data:`EXPERIMENTS`.

    ``fault_seed`` seeds the ``chaos`` campaigns; ``out`` is the
    directory ``explain`` writes its trace into (no file without it).
    """
    registry = _registry(fault_seed, out)
    if name not in registry:
        raise BenchmarkError(
            f"unknown experiment {name!r}; choose from "
            f"{tuple(registry)}"
        )
    return registry[name](quick)
