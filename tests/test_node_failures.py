"""Node-failure tolerance: detection, ULFM recovery, watchdog, chaos."""

import pytest

from repro.bench import chaos
from repro.cluster.builder import build_mesh
from repro.cluster.process_api import build_world, run_mpi
from repro.errors import (
    HangError,
    MessagingError,
    MpiError,
    MpiProcFailed,
    MpiRevoked,
    ViaError,
)
from repro.hw.faults import NodeFaultSpec
from repro.sim.monitor import reliability_summary
from repro.via.descriptors import DescriptorStatus
from repro.via.vi import ViState

FAILURES = (MpiError, ViaError, MessagingError)


def _faulty_mesh(victim=3, crash_at=300.0, dims=(2, 2, 2)):
    return build_mesh(dims, stack="via",
                      node_faults=[NodeFaultSpec(rank=victim,
                                                 crash_at=crash_at)])


def test_node_fault_spec_validation():
    with pytest.raises(Exception):
        NodeFaultSpec(rank=-1)
    with pytest.raises(Exception):
        NodeFaultSpec(rank=0, crash_at=-5.0)
    with pytest.raises(Exception):
        NodeFaultSpec(rank=0, nic_down=((10.0, 5.0),))
    assert not NodeFaultSpec(rank=0).active()
    assert NodeFaultSpec(rank=0, crash_at=1.0).active()


def test_victim_sees_own_crash_and_survivors_detect():
    """The victim's operations raise at the crash instant; every
    survivor learns of the death within the keepalive timeout."""
    cluster = _faulty_mesh(victim=3, crash_at=300.0)
    comms = build_world(cluster)

    def program(comm):
        sim = comm.engine.sim
        try:
            for i in range(50):
                yield from comm.bcast(root=0, nbytes=2048)
            what, when = "finished", sim.now
        except FAILURES as exc:
            what, when = type(exc).__name__, sim.now
        if cluster.node_alive(comm.engine.rank):
            # Idle long enough for detection + gossip to settle even on
            # ranks that outran the failure.
            yield sim.sleep_until(8_000.0)
        return (what, when)

    results = run_mpi(cluster, program, comms=comms, limit=100_000.0)
    assert results[3][0] == "MpiProcFailed"
    assert results[3][1] == pytest.approx(300.0)
    for rank, (what, when) in enumerate(results):
        if rank == 3:
            continue
        # A survivor either outran the failure or caught it promptly
        # (fd_timeout=1000us + detection slack), never hung.
        assert what in ("finished", "MpiProcFailed", "MpiRevoked",
                        "ViaError")
        assert when < 5_000.0
    # Mesh-wide state: everyone but the victim knows the victim died.
    assert cluster.alive_ranks() == [0, 1, 2, 4, 5, 6, 7]
    assert cluster.death_log[0][:2] == (3, 300.0)
    for comm in comms:
        if comm.engine.rank != 3:
            assert 3 in comm.engine._dead_peers


def test_collectives_raise_instead_of_hanging():
    """A collective stalled on live peers still aborts when any group
    member dies (the ULFM collective guarantee) — schedule-time checks
    plus group-tagged request dooming."""
    cluster = _faulty_mesh(victim=1, crash_at=250.0)
    comms = build_world(cluster)

    def program(comm):
        try:
            for _ in range(40):
                yield from comm.allgather(nbytes=1024)
            return "finished"
        except FAILURES as exc:
            return type(exc).__name__

    results = run_mpi(cluster, program, comms=comms, limit=100_000.0)
    assert results[1] == "MpiProcFailed"
    for rank, what in enumerate(results):
        if rank != 1:
            assert what in ("MpiProcFailed", "MpiRevoked")


def _offload_crash_run(tier, crash_at, entries=None):
    """60 offload-tier allreduces on 2x2x2 with rank 2 crashing at
    ``crash_at``: per-rank outcome names, and how many in-flight
    entries the survivors' engines still hold afterwards.  ``entries``
    collects the instants at which the victim enters each call."""
    cluster = _faulty_mesh(victim=2, crash_at=crash_at)
    comms = build_world(cluster)
    engines = [getattr(node.via, f"enable_{tier}_collectives")()
               for node in cluster.nodes]

    def program(comm):
        comm.set_collective_tier(tier)
        try:
            for i in range(60):
                if entries is not None and comm.rank == 2:
                    entries.append(comm.engine.sim.now)
                yield from comm.allreduce(nbytes=64,
                                          data=float(comm.rank + 1))
                if i % 4 == 0:
                    yield from comm.barrier()
            return "finished"
        except FAILURES as exc:
            return type(exc).__name__

    results = run_mpi(cluster, program, comms=comms, limit=100_000.0)
    leaked = sum(len(engine._ops) for rank, engine in enumerate(engines)
                 if cluster.node_alive(rank))
    return results, leaked


@pytest.mark.parametrize("crash_at", (200.0, 333.0, 1000.0))
@pytest.mark.parametrize("tier", ("nic", "kernel"))
def test_nic_collective_crash_raises_everywhere(tier, crash_at):
    """A node dying mid-offload-collective surfaces as
    ``MpiProcFailed`` on every group member, the victim included, at
    either site and wherever in the wave the crash lands — never a raw
    transport error, never a hang (run_mpi returning within the limit
    proves no rank wedged): the state machine aborts its waiters
    through the ULFM path and keeps no in-flight state behind."""
    assert _offload_crash_run(tier, crash_at) == (["MpiProcFailed"] * 8, 0)


@pytest.mark.parametrize("tier", ("nic", "kernel"))
def test_offload_collective_crash_inside_the_deposit(tier):
    """The victim crashes while its own call is still paying for the
    deposit (doorbell / syscall): the waiter exists from entry, so the
    call fails instead of waiting for a wave that cannot come."""
    entries = []
    assert _offload_crash_run(tier, 1e9, entries) == (["finished"] * 8, 0)
    assert _offload_crash_run(tier, entries[5] + 0.1) == (
        ["MpiProcFailed"] * 8, 0)


def test_nic_collective_chaos_scenario_recovers():
    """The nic-collective chaos scenario drives the full ULFM cycle
    (crash -> abort -> revoke -> agree -> shrink -> verify) over
    NIC-tier traffic, deterministically."""
    outcome = chaos.run_campaign(0, fault_seed=5,
                                 scenario="nic-collective")
    assert outcome.deterministic
    if outcome.crash_landed:
        assert outcome.survivors == 7


def test_revoke_poisons_all_ranks():
    cluster = _faulty_mesh(victim=7, crash_at=200.0)
    comms = build_world(cluster)

    def program(comm):
        sim = comm.engine.sim
        try:
            for _ in range(40):
                yield from comm.bcast(root=0, nbytes=1024)
        except FAILURES:
            pass
        if not cluster.node_alive(comm.engine.rank):
            return "dead"
        yield sim.sleep_until(5_000.0)
        if comm.rank == 0:
            comm.revoke()  # propagates out-of-band, instantly
        yield sim.sleep_until(6_000.0)
        # Every operation on a revoked communicator raises at entry.
        try:
            yield from comm.bcast(root=0, nbytes=16)
        except MpiRevoked:
            return "revoked"
        return "leaked"

    results = run_mpi(cluster, program, comms=comms, limit=100_000.0)
    assert results[7] == "dead"
    assert all(r == "revoked" for i, r in enumerate(results) if i != 7)
    assert all(comm.revoked for comm in comms)


def test_shrink_and_continue():
    """The canonical recovery: revoke -> agree -> shrink -> keep going
    on the survivors, with every survivor counted exactly once."""
    cluster = _faulty_mesh(victim=5, crash_at=350.0)
    comms = build_world(cluster)

    def program(comm):
        failed = None
        try:
            for _ in range(40):
                yield from comm.allreduce(nbytes=512)
        except FAILURES as exc:
            failed = exc
            if cluster.node_alive(comm.engine.rank):
                comm.revoke()
        if not cluster.node_alive(comm.engine.rank):
            return "dead"
        ok = yield from comm.agree(failed is None)
        assert ok is False  # at least one survivor saw the failure
        shrunk = yield from comm.shrink()
        assert shrunk.epoch == comm.epoch + 1
        assert shrunk.group.ranks() == (0, 1, 2, 3, 4, 6, 7)
        count = yield from shrunk.allreduce(nbytes=8, data=1)
        return ("recovered", shrunk.size, int(count))

    results = run_mpi(cluster, program, comms=comms, limit=100_000.0)
    assert results[5] == "dead"
    assert all(r == ("recovered", 7, 7)
               for i, r in enumerate(results) if i != 5)


def test_descriptors_drained_with_error_status():
    """Posted receive descriptors on a VI to the dead peer complete
    with ``DescriptorStatus.ERROR`` and carry the failure, so a
    blocked ``recv_wait`` returns instead of hanging."""
    from repro.via.descriptors import RecvDescriptor
    from tests.conftest import make_via_pair

    cluster, (vi0, r0), (_vi1, _r1) = make_via_pair(
        node_faults=[NodeFaultSpec(rank=1, crash_at=100.0)]
    )
    sim = cluster.sim
    vi0.post_recv(RecvDescriptor(r0, 0, 4096))

    def waiter():
        descriptor = yield from vi0.recv_wait()
        return descriptor

    process = sim.spawn(waiter())
    descriptor = sim.run_until_complete(process, limit=100_000.0)
    assert descriptor.status is DescriptorStatus.ERROR
    assert descriptor.error is not None
    assert "peer node 1" in str(descriptor.error)
    assert vi0.state is ViState.ERROR
    assert cluster.nodes[0].via.agent.stats["recv_drained"] >= 1
    # Detection happened on the keepalive timescale, not a retry storm.
    assert sim.now < 3_000.0


def _stale_rma_run(fast):
    """3-node line under (far-future) node faults: an RMA write to an
    address nothing is registered at, then a 64 B send behind it.
    Returns the far agent's ``dropped_dead`` and the receive."""
    from repro import fastpath
    from repro.via.descriptors import (
        RecvDescriptor, RmaWriteDescriptor, SendDescriptor,
    )
    from tests.conftest import make_via_pair

    with fastpath.force(fast):
        cluster, (vi0, r0), (vi2, r2) = make_via_pair(
            hops=2, node_faults=[NodeFaultSpec(rank=1, crash_at=1e9)]
        )
        sim = cluster.sim
        vi2.post_recv(RecvDescriptor(r2, 0, 4096))

        def sender():
            yield from vi0.post_rma_write(RmaWriteDescriptor(
                r0, 0, 64, remote_addr=0xDEAD0000,
            ))
            yield from vi0.post_send(SendDescriptor(r0, 0, 64))

        sim.spawn(sender())
        descriptor = sim.run_until_complete(sim.spawn(vi2.recv_wait()),
                                            limit=100_000.0)
    return cluster.nodes[2].via.agent.stats["dropped_dead"], descriptor


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "reference"])
def test_stale_rma_frame_dropped_at_the_reference_instant(fast):
    """Under node faults an RMA frame for a region that is no longer
    registered is dropped, not an error — after the same demux cost
    whichever scheduler runs, so the send behind it lands on time."""
    dropped, descriptor = _stale_rma_run(fast)
    assert dropped == 1
    assert descriptor.status is DescriptorStatus.DONE
    # The reference scheduler's value at the parent commit, where the
    # fast scheduler read 80.29931829573934 (one rx_demux_cost early).
    assert descriptor.completed_at == 80.59931829573934


def test_watchdog_raises_hang_error():
    """With node faults armed, a distributed hang (a receive nothing
    will ever match) trips the watchdog instead of spinning forever —
    keepalive timers keep the event queue busy, so the kernel's
    deadlock detector can never fire."""
    cluster = _faulty_mesh(victim=1, crash_at=10_000_000.0)
    comms = build_world(cluster)
    assert cluster.watchdog is not None

    def program(comm):
        if comm.rank == 0:
            yield from comm.irecv(1, 99, 64).wait()  # never sent
        return "done"

    with pytest.raises(HangError) as excinfo:
        run_mpi(cluster, program, comms=comms, limit=10_000_000.0)
    assert "hang watchdog" in str(excinfo.value)
    assert "rank 0" in str(excinfo.value)
    assert cluster.watchdog.counters["hangs_detected"] == 1
    totals = cluster.reliability_stats()
    assert totals["hangs_detected"] == 1
    assert "hangs_detected=1" in reliability_summary(totals)


def test_failure_detector_counters_reported():
    cluster = _faulty_mesh(victim=2, crash_at=200.0)
    comms = build_world(cluster)

    def program(comm):
        try:
            for _ in range(30):
                yield from comm.bcast(root=0, nbytes=1024)
        except FAILURES:
            pass
        # Idle long enough for gossip to settle everywhere.
        yield comm.engine.sim.timeout(3_000.0)
        return None

    run_mpi(cluster, program, comms=comms, limit=100_000.0)
    totals = cluster.reliability_stats()
    assert totals["keepalives_sent"] > 0
    assert totals["peers_declared_dead"] >= 7
    assert totals["dead_notices_sent"] > 0
    summary = reliability_summary(totals)
    assert "keepalives_sent" in summary
    assert "peers_declared_dead" in summary


def test_chaos_campaign_deterministic_per_seed():
    """One full chaos campaign per scenario family: no hang, correct
    survivor accounting, and a bit-identical trace on the rerun (the
    campaign itself runs twice and raises otherwise)."""
    outcome = chaos.run_campaign(0, fault_seed=11, scenario="pt2pt")
    assert outcome.deterministic
    assert outcome.finish_us < chaos.LIMIT_US
    # Identical parameters re-derived from the same seed.
    again = chaos.run_campaign(0, fault_seed=11, scenario="pt2pt")
    assert (again.victim, again.crash_at) == (outcome.victim,
                                              outcome.crash_at)
    assert again.trace_events == outcome.trace_events
    # A different seed draws a different schedule (overwhelmingly).
    other = chaos.run_campaign(0, fault_seed=12, scenario="pt2pt")
    assert (other.victim, other.crash_at) != (outcome.victim,
                                              outcome.crash_at)


def test_chaos_harness_covers_collectives_and_solver():
    for scenario in ("bcast", "lqcd-cg"):
        outcome = chaos.run_campaign(1, fault_seed=3, scenario=scenario)
        assert outcome.scenario == scenario
        assert outcome.deterministic
        if outcome.crash_landed:
            assert outcome.survivors == 7


def test_fault_free_runs_unaffected():
    """No node faults: no detector, no watchdog, no FT overhead in the
    engine hot path, and timing identical to an untouched cluster."""
    finishes = []
    for _ in range(2):
        cluster = build_mesh((2, 2, 2), stack="via")
        comms = build_world(cluster)
        assert cluster.watchdog is None
        assert all(not c.engine._ft for c in comms)

        def program(comm):
            for _ in range(5):
                yield from comm.allreduce(nbytes=4096)
            return comm.engine.sim.now

        results = run_mpi(cluster, program, comms=comms)
        finishes.append(tuple(results))
    # Bit-identical timing across whole runs (per-rank times differ —
    # ranks finish the last combine at their own instants).
    assert finishes[0] == finishes[1]
