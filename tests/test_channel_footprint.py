"""What a channel end holds on the host — and that holding less changed
nothing a run reports.

A channel end is a data VI and a control VI with their receive rings
(a count until traffic touches them), three registered regions, three
match queues and a send mutex.  A VI whose completions all go to a CQ
or an ``on_complete`` hook has no completion store of its own, a
``Store`` counts in slots, and ports, VIs, channels and regions have
no attribute dict.  The bounds here fail the day one of those comes
back; the pins fail the day a counter the ledger or a checkpoint reads
changes its keys, order or values.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import tracemalloc

import pytest

from ledger.workloads import simulator_workloads
from repro import fastpath
from repro.cluster.builder import build_mesh
from repro.cluster.process_api import build_engines
from repro.hw.link import Frame
from repro.pdes import CheckpointPolicy, run_sharded, runner
from repro.via.descriptors import RecvDescriptor
from repro.via.packet import ViaPacket

DIMS = (2, 2, 4)


def _open_all_pairs(cluster, engines) -> list:
    """Every rank opens a channel to every rank it has none to."""
    sim = cluster.sim
    processes = [sim.spawn(engine.ensure_channel(peer))
                 for engine in engines for peer in range(len(engines))
                 if peer > engine.rank and peer not in engine.channels]
    for process in processes:
        sim.run_until_complete(process)
    return processes


def _ping_every_channel(cluster, engines) -> list:
    """One 64-byte message over every channel end, both directions:
    (receiving rank, receive request) each."""
    sim = cluster.sim
    pending = []
    for engine in engines:
        for peer in sorted(engine.channels):
            pending.append((engine.rank, engine.irecv(peer, 5, 1, 64)))
            engine.isend(peer, 5, 1, 64, data=(engine.rank, peer))

    def waiter():
        for _rank, request in pending:
            yield request

    sim.run_until_complete(sim.spawn(waiter()))
    return pending


@pytest.mark.parametrize("fast", [True, False])
def test_all_pairs_channel_end_is_small_and_still_works(fast):
    with fastpath.force(fast):
        build_engines(build_mesh((2, 2, 2)))   # warm lazy imports/caches
        cluster = build_mesh(DIMS)
        engines = build_engines(cluster)
        neighbours = sum(len(engine.channels) for engine in engines)
        tracemalloc.start()
        try:
            gc.collect()
            start = tracemalloc.get_traced_memory()[0]
            processes = _open_all_pairs(cluster, engines)
            del processes
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        ends = sum(len(engine.channels) for engine in engines)
        assert ends == 16 * 15 and ends - neighbours == 176
        # Measured on CPython 3.11: 3 504 B per new channel end under the
        # fast scheduler, 3 123 under the reference one (6 138 / 5 753
        # while every VI kept two completion stores, a Store a stats
        # dict, the send lock a holder set, and ports, VIs, channels and
        # regions an attribute dict).  The route cache's entries for the
        # new pairs are in it.
        per_end = grown / (ends - neighbours)
        assert per_end < 4000, per_end

        # The rings are still counts: no receive slot is an object.
        assert not any(type(o) is RecvDescriptor for o in gc.get_objects())

        # ... and every channel still carries a message each way.
        pending = _ping_every_channel(cluster, engines)
        assert len(pending) == ends
        assert all(request.triggered and request.ok
                   and request.received_data == (request.src, rank)
                   for rank, request in pending)
        for engine in engines:
            for channel in engine.channels.values():
                # Completions went to the engine's CQ and hooks: no VI
                # grew a store of its own.
                for vi in (channel.data_vi, channel.ctrl_vi):
                    assert vi._send_done is None and vi._recv_done is None


@pytest.mark.parametrize("fast", [True, False])
def test_no_port_holds_a_frame_once_its_queues_are_empty(fast):
    """A port used to keep the last frame it fetched (and through it the
    packet, payload and completion hook); a parked interrupt dispatcher
    the last frame it handled."""
    with fastpath.force(fast):
        cluster = build_mesh(DIMS)
        engines = build_engines(cluster)
        _ping_every_channel(cluster, engines)
    ports = [port for node in cluster.nodes for port in node.ports.values()]
    assert all(not port.tx_queue and not port._tx_fifo for port in ports)
    assert all(port._tx_frame is None and port._tx_wire_frame is None
               and port._rx_frame is None for port in ports)
    gc.collect()
    assert not any(type(o) in (Frame, ViaPacket) for o in gc.get_objects())


# -- the counters read like the parent's --------------------------------------

def _stats_shape(cluster) -> list:
    """Every stats dict and Store counter the run touches, in order."""
    out = []
    for node in cluster.nodes:
        for _pid, port in sorted(node.ports.items()):
            out.append(("port", port.name, list(port.stats.items())))
            for store in (port.tx_queue, port._tx_fifo, port.rx_credits):
                out.append(("store", store.name, list(store.stats.items())))
        host = node.host
        out.append(("host", list(host.stats.items()),
                    list(host.irq.stats.items()),
                    list(host.cpu.stats.items()),
                    list(host.membus.stats.items())))
        agent = node.via.agent
        out.append(("agent", list(agent.stats.items()),
                    agent._switch_backlog.name,
                    list(agent._switch_backlog.stats.items())))
        for vi_id, rel in sorted(agent._channels.items()):
            out.append(("reliable", vi_id, list(rel.stats.items())))
        engine = node.via.engine
        out.append(("engine", list(engine.stats.items()),
                    engine.recv_cq._store.name,
                    list(engine.recv_cq._store.stats.items())))
        for peer, channel in sorted(engine.channels.items()):
            out.append(("channel", peer, list(channel.stats.items()),
                        list(channel.send_lock.stats.items()),
                        list(channel.data_vi.stats.items()),
                        list(channel.ctrl_vi.stats.items())))
    for link in cluster.links:
        out.append(("link", link.name, repr(link.stats)))
    return out


@contextlib.contextmanager
def _span(_name):
    yield


#: sha256 of ``_stats_shape`` after the ledger's ``torus_collectives``
#: smoke program (seed 3), measured at 1.0.8 before the counters moved
#: into slots: keys, order and values are the parent's.
SHAPE = {True: "948c8253d65742af43e919c884a0617f"
               "d4b05a17aeb15bbf6e885de44955fc1c",
         False: "688e85077a0e437b6efbd9afce9b71d3"
                "b2241fdb6494d76bc1b2dfcc9de6bbbc"}


@pytest.mark.parametrize("fast", [True, False])
def test_stats_read_as_they_did(fast):
    with fastpath.force(fast):
        workload = simulator_workloads()["torus_collectives"]
        ctx = workload.setup(workload.inputs(3, True), _span)
        workload.run(ctx)
    cluster = ctx["cluster"]

    def read():
        """The stats dicts the ledger's snapshot and the checkpoint
        digest read, on one node and one link."""
        node = cluster.nodes[0]
        agent = node.via.agent
        return [*(port.stats for port in node.ports.values()), agent.stats,
                node.via.engine.stats, cluster.links[0].stats,
                *(rel.stats for rel in agent._channels.values())]

    # Live plain dicts, not views built per read.
    first, again = read(), read()
    assert all(type(stats) is dict for stats in first)
    assert all(a is b for a, b in zip(first, again))
    shape = _stats_shape(cluster)
    digest = hashlib.sha256(repr(shape).encode()).hexdigest()
    assert digest == SHAPE[fast]


#: sha256 over the shard digests of a 2-shard ``aggregate`` run on 2x2x4
#: with a capture every 5th window (306 digests fast, 308 reference).
#: The reference value is 1.0.8's.  The fast one moved with 1.0.9: a
#: frame that finds room on its transmit ring goes in without a put
#: event, so the sequence counter and event count in each digest fall
#: (1.0.8: d57b4267...).
SHARDS = {True: (306, "1da1f801370cf549677e9b1361a52aea"
                      "bddfa97df74523c7b8e4e2067859d443"),
          False: (308, "e3467062c552ea3c7b54c5cc148db1d4"
                       "2bb0f2ea923fec2de19a4e7a8d2b259d")}


@pytest.mark.parametrize("fast", [True, False])
def test_shard_digests_are_pinned(fast, monkeypatch):
    seen = []
    digest = runner.InProcessShard.digest

    def spy(shard):
        value = digest(shard)
        seen.append(value)
        return value

    monkeypatch.setattr(runner.InProcessShard, "digest", spy)
    with fastpath.force(fast):
        run_sharded(DIMS, workload="aggregate", nshards=2,
                    checkpoint=CheckpointPolicy(every=5))
    assert (len(seen),
            hashlib.sha256(repr(seen).encode()).hexdigest()) == SHARDS[fast]
