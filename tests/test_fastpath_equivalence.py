"""The fast path must be invisible in every reproduced number.

The simulator carries two execution strategies (see
:mod:`repro.fastpath`): the per-event reference path and the fast path
(zero-delay queue bypass, callback-fused transfers, and the frame-train
bulk transmit of :mod:`repro.hw.fastpath`).  These tests pin the
contract that both produce *bit-identical* experiment tables — ``repr``
equality of every cell, not approximate agreement — and that the fast
path is deterministic run-to-run.

Figure 2 exercises the point-to-point latency/bandwidth paths where
frame trains engage; figure 3 the aggregated-bandwidth runs where the
engagement guard must refuse and fall back; figure 5 the multi-hop
collectives mixing both regimes.
"""

from __future__ import annotations

import pytest

from repro import fastpath
from repro.bench.harness import run_experiment


def _table(name: str, fast: bool):
    with fastpath.force(fast):
        result = run_experiment(name, quick=True)
    return [[repr(cell) for cell in row] for row in result.rows]


@pytest.mark.parametrize("name", ["fig2", "fig3", "fig5"])
def test_tables_bit_identical(name):
    reference = _table(name, fast=False)
    fast = _table(name, fast=True)
    assert fast == reference


def test_fastpath_deterministic():
    first = _table("fig2", fast=True)
    second = _table("fig2", fast=True)
    assert first == second


def _stream(gige_params, nbytes=200_000):
    """One-way bulk stream over a 2-node pair; returns the cluster."""
    from repro.hw.params import GigEParams
    from repro.via.descriptors import RecvDescriptor, SendDescriptor
    from tests.conftest import make_via_pair

    cluster, (vi0, r0), (vi1, r1) = make_via_pair(
        gige_params=gige_params
    )
    sim = cluster.sim

    def receiver():
        for _ in range(8):
            vi1.post_recv(RecvDescriptor(r1, 0, nbytes))
        for _ in range(8):
            yield from vi1.recv_wait()

    def sender():
        for _ in range(8):
            yield from vi0.post_send(SendDescriptor(r0, 0, nbytes))
            yield from vi0.send_wait()

    sim.spawn(receiver())
    process = sim.spawn(sender())
    sim.run_until_complete(process)
    sim.run()
    return cluster


def _total_trains(cluster):
    return sum(
        port.stats["trains"]
        for node in cluster.nodes for port in node.ports.values()
    )


@pytest.mark.parametrize("fault_kwargs", [
    {"loss_rate": 0.01},
    {"flap_period": 500.0, "flap_down": 50.0},
    {"corrupt_rate": 0.02},
], ids=["loss", "flap", "corrupt"])
def test_trains_disengage_on_fault_capable_links(fault_kwargs):
    """Any fault knob makes links fault-capable; the frame-train plan
    schedules arrivals unconditionally, so it must refuse them."""
    from repro.hw.faults import FaultParams
    from repro.hw.params import GigEParams

    with fastpath.force(True):
        cluster = _stream(GigEParams(
            faults=FaultParams(seed=3, **fault_kwargs)
        ))
    assert _total_trains(cluster) == 0


def test_trains_engage_on_healthy_links():
    """Control: the same workload on a clean wire does use trains, so
    the disengagement test above is not vacuously passing."""
    from repro.hw.params import GigEParams

    with fastpath.force(True):
        cluster = _stream(GigEParams())
    assert _total_trains(cluster) > 0


# ---------------------------------------------------------------------------
# Reliable delivery: loss recovery and node-death teardown run from
# the same instants under both schedulers.  tools/fastpath_defects.py
# prints what these assert.
# ---------------------------------------------------------------------------

LOSS = 0.01
EXCHANGE_SIZES = (512, 4096, 40_000)
TIER_MESH = (2, 2, 2)
CRASH_VICTIMS = (1, 3, 6)
CRASH_INSTANTS = (137.3, 260.5, 401.3)


def both_schedulers(run):
    """``[run() on the fast scheduler, run() on the reference]``."""
    from repro.hw import faults

    observed = []
    for fast in (True, False):
        faults.clear_registry()  # injectors register process-wide
        with fastpath.force(fast):
            observed.append(run())
    faults.clear_registry()
    return observed


def _observe(cluster, results):
    return (results, cluster.sim.now, cluster.reliability_stats(),
            cluster.sim.recorder.span_keys())


def _lossy_mesh(dims, seed):
    from repro.cluster.builder import build_mesh
    from repro.hw.faults import FaultParams
    from repro.hw.params import GigEParams
    from repro.obs.recorder import FlightRecorder
    from repro.sim import Simulator

    sim = Simulator()
    sim.recorder = FlightRecorder()
    return build_mesh(dims, sim=sim, gige_params=GigEParams(
        faults=FaultParams(seed=seed, loss_rate=LOSS)))


def _exchange(comm, torus, sizes):
    from repro.mpi.request import waitall

    peers = [rank for _direction, rank in torus.neighbors(comm.rank)]
    received = []
    for nbytes in sizes:
        recvs = [comm.irecv(peer, tag=3, nbytes=nbytes) for peer in peers]
        yield from waitall([comm.isend(peer, tag=3, nbytes=nbytes)
                            for peer in peers])
        yield from waitall(recvs)
        received.append(sum(request.received_bytes for request in recvs))
    return received, comm.engine.sim.now


def lossy_exchange(seed, sizes=EXCHANGE_SIZES):
    """3x3 torus, every rank to all four neighbours, at 1% loss."""
    from repro.cluster.process_api import run_mpi

    cluster = _lossy_mesh((3, 3), seed)
    return _observe(cluster, run_mpi(cluster, _exchange,
                                     args=(cluster.torus, sizes)))


def _tier_rounds(comm, tier):
    comm.set_collective_tier(tier)
    out = []
    for i in range(6):
        total = yield from comm.allreduce(nbytes=64,
                                          data=float(comm.rank + i + 1))
        value = yield from comm.bcast(
            root=i % comm.size, nbytes=256,
            data=("wave", i) if comm.rank == i % comm.size else None)
        yield from comm.barrier()
        out.append((total, value, comm.engine.sim.now))
    return out


def lossy_collectives(tier, seed):
    """allreduce + bcast + barrier x6 on 2x2x2 at 1% loss, one tier."""
    from repro.cluster.process_api import build_world, run_mpi

    cluster = _lossy_mesh(TIER_MESH, seed)
    comms = build_world(cluster)
    if tier != "host":
        for node in cluster.nodes:
            getattr(node.via, f"enable_{tier}_collectives")()
    return _observe(cluster, run_mpi(cluster, _tier_rounds, args=(tier,),
                                     comms=comms))


def crashed_campaign(scenario, victim, crash_at):
    """One chaos campaign's resilient program, no ``Trace`` attached."""
    from repro.bench import chaos
    from repro.cluster.builder import build_mesh
    from repro.cluster.process_api import build_world, run_mpi
    from repro.hw.faults import NodeFaultSpec
    from repro.obs.recorder import FlightRecorder
    from repro.sim import Simulator

    sim = Simulator()
    sim.recorder = FlightRecorder()
    cluster = build_mesh(
        chaos.MACHINE, sim=sim,
        node_faults=[NodeFaultSpec(rank=victim, crash_at=crash_at)])
    program = chaos._resilient(cluster, chaos.SCENARIOS[scenario])
    results = run_mpi(cluster, program, comms=build_world(cluster),
                      limit=chaos.LIMIT_US)
    return _observe(cluster, results)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lossy_exchange_identical_across_schedulers(seed):
    fast, reference = both_schedulers(lambda: lossy_exchange(seed))
    assert fast[2]["frames_dropped"] > 0, "1% loss dropped nothing"
    assert fast == reference


@pytest.mark.parametrize("tier", ["host", "kernel", "nic"])
def test_lossy_collectives_identical_across_schedulers(tier):
    fast, reference = both_schedulers(lambda: lossy_collectives(tier, 5))
    assert fast[2]["frames_dropped"] > 0, "1% loss dropped nothing"
    assert fast == reference


@pytest.mark.parametrize("scenario", ["pt2pt", "lqcd-cg"])
@pytest.mark.parametrize("crash_at", CRASH_INSTANTS)
@pytest.mark.parametrize("victim", CRASH_VICTIMS)
def test_node_crash_identical_across_schedulers(scenario, victim,
                                                crash_at):
    fast, reference = both_schedulers(
        lambda: crashed_campaign(scenario, victim, crash_at))
    assert any(row["verdict"] == "dead" for row in fast[0])
    assert fast == reference
