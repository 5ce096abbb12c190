"""Reliable delivery on a lossless wire costs its ACKs and nothing more.

With nothing lost, the reliable layer should never resend: every fragment is
acknowledged inside one RTO.  That holds only if the cumulative ACK a
frame carries is the one current when the frame *leaves*.  A data frame
(or an explicit ACK) can wait in the NIC transmit ring behind a long
reverse burst; an ACK read at enqueue then arrives stale, the sender's
RTO expires on fragments that were delivered long ago, and the whole
window goes out again.  The channel therefore reads ``rx_expected`` in
the frame's ``on_fetched`` hook (``ReliableChannel._stamp``).

Both halves are pinned here under both schedulers: the end-to-end cost
of ``ViaParams(reliable=True)`` against the unreliable run of the same
program, and the per-channel mechanics of the stamp itself.
"""

from __future__ import annotations

import pytest

from repro import fastpath
from repro.cluster.builder import build_mesh
from repro.cluster.process_api import run_mpi
from repro.hw.params import ViaParams
from repro.mpi.request import waitall
from repro.via.descriptors import RecvDescriptor, SendDescriptor
from repro.via.packet import PacketKind, ViaPacket
from repro.via.vi import Reliability
from tests.conftest import make_via_pair

#: (mesh, phases of (bytes, rounds)): the 2-node ring's simultaneous
#: 64 KB exchange, and the 3x3 torus running the ``lossy_mesh`` program
#: with nothing lost.
SHAPES = [((2,), ((65536, 1),)), ((3, 3), ((8192, 4), (65536, 1)))]


def _exchange(comm, torus, phases):
    """Every rank isend/irecvs to all its neighbours at once; returns
    the simulated time from the opening barrier to the last one."""
    sim = comm.engine.sim
    peers = [rank for _direction, rank in torus.neighbors(comm.rank)
             if rank != comm.rank]
    yield from comm.barrier()
    start = sim.now
    for nbytes, rounds in phases:
        recvs = []
        for _ in range(rounds):
            recvs += [comm.irecv(peer, tag=3, nbytes=nbytes)
                      for peer in peers]
            yield from waitall([comm.isend(peer, tag=3, nbytes=nbytes)
                                for peer in peers])
        yield from waitall(recvs)
        yield from comm.barrier()
    return sim.now - start


def _run(dims, phases, reliable: bool):
    """(elapsed us, reliability stats, frames put on the wire)."""
    cluster = build_mesh(dims, via_params=ViaParams(reliable=reliable))
    elapsed = max(run_mpi(cluster, _exchange,
                          args=(cluster.torus, phases)))
    tx_frames = sum(port.stats["tx_frames"] for node in cluster.nodes
                    for port in node.ports.values())
    return elapsed, cluster.reliability_stats(), tx_frames


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "reference"])
@pytest.mark.parametrize("dims,phases", SHAPES,
                         ids=["2-node-64K", "3x3-lossy_mesh-program"])
def test_clean_wire_costs_only_its_acks(dims, phases, fast):
    with fastpath.force(fast):
        bare, bare_stats, _ = _run(dims, phases, reliable=False)
        elapsed, stats, tx_frames = _run(dims, phases, reliable=True)
    retransmits = stats["retransmits"]
    assert bare_stats["retransmits"] == 0
    assert elapsed <= 1.05 * bare, (
        f"reliable run {elapsed:.1f} us vs {bare:.1f} us unreliable")
    assert retransmits <= 0.01 * tx_frames, (
        f"{retransmits} retransmits of {tx_frames} frames on a clean wire")


def _fragment(seq: int) -> ViaPacket:
    return ViaPacket(kind=PacketKind.DATA, src_node=0, dst_node=1,
                     dst_vi=0, seq=seq)


def _behind_a_burst():
    """Node 1 queues one reliable 4-byte send behind a 64 KB burst of
    an unreliable VI on the same port.  One fragment reaches the
    reliable channel just before the send is posted, three more while
    its frame waits in the ring.  Returns the channel and what was
    seen: its ACK state right after the post (``after_post``), and at
    the frame's fetch the ACK it carries, the channel's current one
    and whether the checksum verifies."""
    cluster, (vi0, r0), (vi1, r1) = make_via_pair(
        via_params=ViaParams(reliable=True))
    sim = cluster.sim
    d0, d1 = cluster.nodes[0].via, cluster.nodes[1].via
    ends = []
    for device in (d0, d1):
        tag = device.create_protection_tag()
        ends.append((device.create_vi(tag,
                                      reliability=Reliability.UNRELIABLE),
                     device.register_memory_now(1 << 17, tag)))
    (b0, rb0), (b1, rb1) = ends
    request = sim.spawn(d0.agent.connect_request(b0, 1, "burst"))
    accept = sim.spawn(d1.agent.connect_wait(b1, "burst"))
    sim.run_until_complete(request)
    sim.run_until_complete(accept)
    b0.post_recv(RecvDescriptor(rb0, 0, 65536))
    vi0.post_recv(RecvDescriptor(r0, 0, 4096))

    channel = d1.agent.channel_for(vi1)
    port = d1.egress_port(0)
    seen = {}

    def fetched(frame, stamp):
        if stamp is not None:
            stamp()
        packet = frame.payload
        seen.update(ack=packet.ack, current=channel.rx_expected - 1,
                    verifies=packet.verify())

    def node1():
        yield from b1.post_send(SendDescriptor(rb1, 0, 65536))
        channel.rx_gate(_fragment(0))
        yield from vi1.post_send(SendDescriptor(r1, 0, 4))
        frame = port.tx_queue.items[-1]
        assert frame.payload.seq == 0 and frame.payload.dst_vi == vi0.vi_id
        frame.on_fetched = (lambda stamp=frame.on_fetched:
                            fetched(frame, stamp))
        seen["after_post"] = (channel._pending_ack, channel._ack_armed)
        for seq in (1, 2, 3):
            yield sim.timeout(60.0)
            channel.rx_gate(_fragment(seq))

    sim.run_until_complete(sim.spawn(node1()))
    sim.run()
    return channel, seen


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "reference"])
def test_ack_is_read_when_the_frame_is_fetched(fast):
    with fastpath.force(fast):
        channel, seen = _behind_a_burst()
    # Enqueued when only fragment 0 had arrived; fetched after all four.
    assert channel.rx_expected == 4
    assert seen["ack"] == seen["current"] == 3
    # The ACK field is checksummed: the stamp re-seals the header.
    assert seen["verifies"]


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "reference"])
def test_frame_in_the_ring_keeps_the_delayed_ack(fast):
    with fastpath.force(fast):
        _channel, seen = _behind_a_burst()
    # Queued is not sent: one fragment still owes its ACK, and the
    # delayed-ACK timer stays armed while the frame waits.
    assert seen["after_post"] == (1, True)
