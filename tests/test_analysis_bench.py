"""Tests for the bench harness plumbing."""

import pytest

from repro.bench.harness import (
    EXPERIMENTS,
    ExperimentResult,
    run_experiment,
)
from repro.bench.report import render_table, to_csv
from repro.errors import BenchmarkError


def test_render_table_layout():
    text = render_table("Title", ["a", "bb"], [[1, 2.5], [10, 0.25]],
                        notes=["a note"])
    lines = text.splitlines()
    assert lines[0] == "Title"
    assert "a" in lines[2] and "bb" in lines[2]
    assert "note: a note" in text


def test_to_csv():
    csv = to_csv(["x", "y"], [[1, 2.0]])
    assert csv == "x,y\n1,2.00\n"


def test_experiment_result_column():
    result = ExperimentResult("t", "T", ["a", "b"], [[1, 2], [3, 4]])
    assert result.column("b") == [2, 4]
    with pytest.raises(BenchmarkError):
        result.column("zz")
    assert "T" in result.render()
    assert result.csv().startswith("a,b")


def test_unknown_experiment_rejected():
    with pytest.raises(BenchmarkError):
        run_experiment("fig99")


def test_registry_complete():
    for name in ("fig2", "fig3", "fig4", "fig5", "fig6", "table1",
                 "routing", "cluster-b", "ablation-threshold",
                 "ablation-coalescing", "ablation-tokens",
                 "ablation-overhead", "ablation-checksum",
                 "ablation-kernel-reduce", "ablation-napi"):
        assert name in EXPERIMENTS


def test_routing_experiment_quick():
    """The cheapest full experiment: checks the 18.5 + 12.5(n-1) law."""
    result = run_experiment("routing", quick=True)
    measured = result.column("measured RTT/2")
    predicted = result.column("paper model")
    for got, want in zip(measured, predicted):
        assert got == pytest.approx(want, abs=0.8)


def test_to_markdown():
    from repro.bench.report import to_markdown

    md = to_markdown(["a", "b"], [[1, 2.5]])
    lines = md.splitlines()
    assert lines[0] == "| a | b |"
    assert lines[1] == "|---|---|"
    assert lines[2] == "| 1 | 2.50 |"


def test_conformance_claims_well_formed():
    from repro.bench.conformance import CLAIMS

    assert len(CLAIMS) >= 12
    for claim in CLAIMS:
        assert claim.experiment in EXPERIMENTS
        assert claim.claim and claim.source
        assert callable(claim.check)
