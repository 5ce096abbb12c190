"""Tests for the Table 1 benchmark harness."""

import pytest

from repro.errors import BenchmarkError, ConfigurationError
from repro.lqcd.benchmark import (
    DEFAULT_COMPUTE_GFLOPS,
    GIGE_MESH_COSTS,
    MYRINET_COSTS,
    LqcdBenchmark,
    dollars_per_mflops,
    flops_per_iteration,
)
from repro.lqcd.lattice import LocalLattice


@pytest.fixture(scope="module")
def bench():
    return LqcdBenchmark(gige_dims=(2, 2, 2), myrinet_hosts=8,
                         myrinet_logical_dims=(2, 2, 2), iterations=3)


def test_flops_per_iteration():
    local = LocalLattice(4, 4, 4, 4)
    assert flops_per_iteration(local) == 256 * (2 * 570 + 120)


def test_gige_result_sane(bench):
    result = bench.run_gige(LocalLattice(6, 6, 6, 6))
    assert 0 < result.gflops_per_node < DEFAULT_COMPUTE_GFLOPS
    assert result.dollars_per_mflops > 0
    assert 0 < result.efficiency < 1


def test_myrinet_result_sane(bench):
    result = bench.run_myrinet(LocalLattice(6, 6, 6, 6))
    assert 0 < result.gflops_per_node < DEFAULT_COMPUTE_GFLOPS


def test_myrinet_faster_per_node(bench):
    """Paper: 'the LQCD benchmark code performs a little better in the
    switched Myrinet cluster'.  (At the smallest quick-config lattice
    the two are within noise of parity; the rendezvous-size lattices
    show the gap.)"""
    local = LocalLattice(8, 8, 8, 8)
    myri = bench.run_myrinet(local)
    gige = bench.run_gige(local)
    assert myri.gflops_per_node >= gige.gflops_per_node
    # ... but only "a little": within a factor 2.
    assert myri.gflops_per_node < 2 * gige.gflops_per_node


def test_gige_efficiency_rises_with_lattice_size(bench):
    """Paper: 'gradual increase of GigE performance with respect to
    the lattice size ... decreasing surface-to-volume effect'."""
    small = bench.run_gige(LocalLattice(6, 6, 6, 6))
    large = bench.run_gige(LocalLattice(10, 10, 10, 10))
    assert large.gflops_per_node > small.gflops_per_node


def test_gige_wins_dollars_per_mflops_at_production_size(bench):
    local = LocalLattice(8, 8, 8, 8)
    myri = bench.run_myrinet(local)
    gige = bench.run_gige(local)
    assert gige.dollars_per_mflops < myri.dollars_per_mflops


def test_table1_rows(bench):
    rows = bench.table1([LocalLattice(6, 6, 6, 6)])
    assert len(rows) == 1
    myri, gige = rows[0]
    assert myri.label.startswith("Myrinet")
    assert gige.label.startswith("GigE")


def test_cost_model_anchors():
    # Section 3's published prices.
    assert GIGE_MESH_COSTS.network_per_node == 420.0
    assert MYRINET_COSTS.network_per_node == 1000.0
    assert dollars_per_mflops(GIGE_MESH_COSTS, 1.0) == pytest.approx(
        (1400 + 420) / 1000
    )
    with pytest.raises(ConfigurationError):
        dollars_per_mflops(GIGE_MESH_COSTS, 0.0)


def test_mismatched_myrinet_dims_rejected():
    with pytest.raises(BenchmarkError):
        LqcdBenchmark(myrinet_hosts=100, myrinet_logical_dims=(4, 4, 8))
