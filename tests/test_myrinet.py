"""Tests for the Myrinet comparator: fabric, time model, MyriComm."""

import numpy as np
import pytest

from repro.cluster.myrinet_world import MyriWorld
from repro.errors import ConfigurationError
from repro.hw.myrinet import MyrinetFabric
from repro.hw.params import MyrinetParams
from repro.model import myrinet_loggp
from repro.sim import Simulator


def test_time_model_decomposition():
    params = MyrinetParams()
    model = myrinet_loggp(params)
    assert model.one_way(0, hops=3) == pytest.approx(
        params.host_overhead + params.latency + 2 * params.per_switch_hop
    )
    # Bandwidth asymptotes to the link rate.
    assert model.bandwidth(10_000_000) == pytest.approx(
        params.bandwidth, rel=0.01
    )


def test_latency_grows_with_hops():
    model = myrinet_loggp()
    assert model.one_way(0, hops=3) > model.one_way(0, hops=1)


def test_fabric_delivers(sim):
    fabric = MyrinetFabric(sim, 8)
    received = []
    fabric.set_receiver(3, lambda src, payload, nbytes: received.append(
        (src, payload, nbytes)
    ))

    def send():
        yield from fabric.send(0, 3, 1000, payload="hello")

    sim.spawn(send())
    sim.run()
    assert received == [(0, "hello", 1000)]


def test_fabric_rejects_loopback(sim):
    fabric = MyrinetFabric(sim, 4)

    def send():
        yield from fabric.send(1, 1, 10)

    process = sim.spawn(send())
    with pytest.raises(ConfigurationError):
        sim.run_until_complete(process)


def test_fabric_latency_magnitude(sim):
    fabric = MyrinetFabric(sim, 8)
    times = []
    fabric.set_receiver(1, lambda *_: times.append(sim.now))

    def send():
        yield from fabric.send(0, 1, 4)

    sim.spawn(send())
    sim.run()
    # Small message: ~GM latency, far below GigE's 18.5us.
    assert 5 < times[0] < 15


def test_myricomm_pt2pt():
    sim = Simulator()
    world = MyriWorld(sim, 4)
    comms = world.comms
    recv = comms[2].irecv(0, tag=5, nbytes=100)
    send = comms[0].isend(2, tag=5, nbytes=100, data="gm")
    sim.run_until_complete(send)
    sim.run_until_complete(recv)
    assert recv.received_data == "gm"
    assert recv.received_src == 0


def test_myricomm_unexpected_then_matched():
    sim = Simulator()
    world = MyriWorld(sim, 2)
    send = world.comms[0].isend(1, tag=9, nbytes=50, data="early")
    sim.run_until_complete(send)
    sim.run(until=sim.now + 100)
    recv = world.comms[1].irecv(0, tag=9, nbytes=50)
    sim.run_until_complete(recv)
    assert recv.received_data == "early"


def test_myricomm_allreduce():
    sim = Simulator()
    world = MyriWorld(sim, 8)
    results = []

    def program(comm):
        value = yield from comm.allreduce(nbytes=8,
                                          data=np.float64(comm.rank))
        results.append(float(value))

    processes = [sim.spawn(program(c)) for c in world.comms]
    for process in processes:
        sim.run_until_complete(process)
    assert results == [28.0] * 8


def test_myricomm_barrier_and_compute():
    sim = Simulator()
    world = MyriWorld(sim, 4)
    after = []

    def program(comm):
        yield from comm.compute(100.0 * comm.rank)
        yield from comm.barrier()
        after.append(sim.now)

    processes = [sim.spawn(program(c)) for c in world.comms]
    for process in processes:
        sim.run_until_complete(process)
    assert min(after) >= 300.0
