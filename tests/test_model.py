"""The analytic model's closed form against the DES it is derived from.

``repro.model.mesh_loggp`` reads the calibrated parameter classes and
nothing else; these tests hold it to the simulator's own
micro-benchmarks (the same numbers under either scheduler) and to the
LogGP that :func:`repro.model.measure_via_loggp` fits from them.
"""

import pytest

from repro.bench import microbench as mb
from repro.hw.myrinet import MyrinetFabric
from repro.hw.params import MyrinetParams, ViaParams
from repro.model import (
    measure_via_loggp,
    mesh_loggp,
    mpi_loggp,
    myrinet_loggp,
    prediction_error,
)


@pytest.fixture(scope="module")
def closed():
    return mesh_loggp()


@pytest.fixture(scope="module")
def fitted():
    return measure_via_loggp()


def test_the_paper_anchors_come_out_of_the_parameters(closed):
    # 18.5 us RTT/2, ~6 us host overhead, 12.5 us/hop, ~110 MB/s.
    assert closed.one_way(4) == pytest.approx(18.5, abs=0.1)
    assert closed.o == pytest.approx(6.36)
    assert closed.hop == pytest.approx(12.5, abs=0.15)
    assert 1 / closed.G == pytest.approx(110.0, abs=0.5)


def test_small_message_one_way_matches_the_des(closed):
    assert closed.one_way(4) == pytest.approx(mb.via_latency(4), rel=0.01)


@pytest.mark.parametrize("hops", [1, 2, 3, 4])
def test_per_hop_cost_matches_the_des(closed, hops):
    assert closed.one_way(4, hops=hops) == pytest.approx(
        mb.via_latency(4, hops=hops), rel=0.01)


def test_sustained_rate_matches_the_des(closed):
    assert 1 / closed.G == pytest.approx(
        mb.via_simultaneous_bandwidth(2_000_000), rel=0.02)


def test_eager_range_one_way(closed):
    # The linear form misses the multi-frame pipeline's shape (worst
    # at 1024 B, 5.6 % low) but not more.
    assert prediction_error(closed, sizes=(4, 256, 1024, 4096)) < 0.06


def test_closed_form_equals_the_des_fit(closed, fitted):
    assert (fitted.o_send, fitted.o_recv) == (closed.o_send, closed.o_recv)
    assert fitted.L == pytest.approx(closed.L, rel=0.01)
    assert fitted.hop == pytest.approx(closed.hop, rel=0.01)
    assert 1 / fitted.G == pytest.approx(1 / closed.G, rel=0.02)


def test_mpi_one_way_matches_the_des(closed):
    model = mpi_loggp()
    assert model.one_way(4) == pytest.approx(mb.mpi_latency(4), rel=0.01)
    # The MPI layer costs more than raw VIA, by less than a microsecond.
    assert 0 < model.one_way(4) - closed.one_way(4) < 1.0


def test_the_model_follows_the_parameters():
    slower = ViaParams(send_overhead=4.68)
    assert mesh_loggp(via=slower).one_way(4) == pytest.approx(
        mesh_loggp().one_way(4) + 2.0)


def test_myrinet_decomposition(sim):
    params = MyrinetParams()
    model = myrinet_loggp(params)
    assert model.o == pytest.approx(params.host_overhead)
    assert 1 / model.G == pytest.approx(params.bandwidth)
    assert model.one_way(0, hops=3) == pytest.approx(
        params.host_overhead + params.latency + 2 * params.per_switch_hop)
    # The fabric charges the send half of the overhead on injection;
    # nothing charges the receive half.
    fabric = MyrinetFabric(sim, 8)
    arrived = []
    fabric.set_receiver(3, lambda *_: arrived.append(sim.now))
    sim.spawn(fabric.send(0, 3, 0))
    sim.run()
    hops = fabric.topology.switch_hops(0, 3)
    assert arrived == [pytest.approx(
        model.one_way(0, hops=hops) - model.o_recv)]
