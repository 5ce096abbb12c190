"""Tests for LogGP characterization and utilization reporting."""

import pytest

from repro.model import (
    LogGP,
    measure_via_loggp,
    prediction_error,
    validate_model,
)
from repro.obs.timeline import (
    link_utilization,
    node_utilization,
    utilization_report,
)
from repro.cluster import build_mesh, run_mpi


@pytest.fixture(scope="module")
def loggp():
    return measure_via_loggp(large_sizes=(262144, 1048576))


def test_loggp_parameters_match_paper_decomposition(loggp):
    # o_send + o_recv ~= 6us (section 4.1); L is the hardware path.
    assert loggp.o == pytest.approx(6.36, abs=0.1)
    assert 11.0 < loggp.L < 13.5
    # G^-1 is the sustained bandwidth, ~110 MB/s.
    assert 1 / loggp.G == pytest.approx(110.0, abs=5.0)


def test_loggp_predicts_small_message_times(loggp):
    # The linear model reproduces the measured latency curve within
    # ~15% over the eager range.
    assert prediction_error(loggp, sizes=(4, 256, 1024, 4096)) < 0.15


def test_loggp_bandwidth_asymptote(loggp):
    assert loggp.bandwidth(2_000_000) == pytest.approx(
        1 / loggp.G, rel=0.05
    )


def test_validate_model_shape(loggp):
    table = validate_model(loggp, sizes=(4, 1024))
    assert set(table) == {4, 1024}
    for measured, predicted in table.values():
        assert measured > 0 and predicted > 0


def test_one_way_time_monotone():
    params = LogGP(L=12.0, o_send=2.5, o_recv=3.5, g=1.0, G=0.009)
    assert params.one_way(1000) > params.one_way(10)
    assert params.o == 6.0


def test_utilization_report_after_traffic():
    cluster = build_mesh((2, 2))

    def program(comm):
        peer = (comm.rank + 1) % comm.size
        other = (comm.rank - 1) % comm.size
        for _ in range(4):
            yield from comm.sendrecv(dest=peer, source=other,
                                     send_nbytes=8192,
                                     recv_nbytes=8192)
        return None

    run_mpi(cluster, program)
    elapsed = cluster.sim.now
    links = link_utilization(cluster, elapsed)
    assert len(links) == len(cluster.links)
    assert any(l.bytes_forward > 0 for l in links)
    assert all(0 <= l.utilization_forward <= 1.01 for l in links)

    nodes = node_utilization(cluster, elapsed)
    assert len(nodes) == 4
    assert all(n.interrupts > 0 for n in nodes)
    assert all(0 <= n.cpu_fraction <= 1.0 for n in nodes)

    report = utilization_report(cluster, elapsed, top=3)
    assert "links" in report
    assert "rank" in report
    assert "%" in report
