"""Selective repeat on one reliable VI, with losses chosen frame by frame.

A VI's path is FIFO, so a sequence gap at the receiver is a loss.  The
receiver holds what arrives past the gap and NACKs the gap once (an
explicit ACK whose ``seq`` names the missing fragment); the sender
resends that fragment alone, and on an RTO expiry only the head of its
window.  The fragment that fills the gap releases the held run behind
it, so reassembly sees the lossless fragment stream.

Every case runs under both schedulers.  The losses are chosen by
wrapping the one link's fault verdict, so each test names exactly
which wire copies never arrive.
"""

from __future__ import annotations

import contextlib

import pytest

from repro import fastpath
from repro.hw.params import ViaParams
from repro.via.descriptors import RecvDescriptor, SendDescriptor
from repro.via.packet import PacketKind
from tests.conftest import make_via_pair

#: One message of this many fragments.
NFRAGS = 16

both = pytest.mark.parametrize("fast", [True, False],
                               ids=["fast", "reference"])


def _pair(drop_data=(), drop_nacks=0):
    """A reliable 2-node pair whose link loses the first wire copy of
    each DATA fragment in ``drop_data`` and the first ``drop_nacks``
    NACKs.  Returns (cluster, ends, wire log of (kind, seq))."""
    cluster, end0, end1 = make_via_pair(
        via_params=ViaParams(reliable=True))
    link = cluster.links[0]
    judge = link._judge
    wire = []
    pending = set(drop_data)
    nacks = drop_nacks

    def judged(side, frame):
        nonlocal nacks
        packet = frame.payload
        kind, seq = packet.kind, packet.seq
        wire.append((kind, seq))
        drop = False
        if kind is PacketKind.DATA and seq in pending:
            pending.discard(seq)
            drop = True
        elif kind is PacketKind.ACK and seq >= 0 and nacks:
            nacks -= 1
            drop = True
        if drop:
            link.stats["dropped"][side] += 1
            return False
        return judge(side, frame)

    link._judge = judged
    return cluster, end0, end1, wire


def _send_one(cluster, end0, end1, spawn_at=None):
    """Send one NFRAGS-fragment message 0 -> 1.  Returns the receive
    (payload, bytes) and the fragment order reassembly saw."""
    (vi0, r0), (vi1, r1) = end0, end1
    sim = cluster.sim
    frame_payload = cluster.nodes[0].via.frame_payload
    nbytes = NFRAGS * frame_payload
    agent = cluster.nodes[1].via.agent
    handled = []
    handle = agent._handle_payload

    def logged(packet, paid_until=None):
        handled.append(packet.seq)
        return handle(packet, paid_until)

    agent._handle_payload = logged
    vi1.post_recv(RecvDescriptor(r1, 0, nbytes))

    def sender():
        yield from vi0.post_send(
            SendDescriptor(r0, 0, nbytes, payload=("msg", nbytes)))
        done = yield from vi0.send_wait()
        return done.status

    receive = sim.spawn(vi1.recv_wait())
    send = sim.spawn(sender())
    if spawn_at is not None:
        sim.run(until=spawn_at[0])
        spawn_at[1]()
    descriptor = sim.run_until_complete(receive)
    sim.run_until_complete(send)
    sim.run()
    return (descriptor.received_payload, descriptor.received_bytes), \
        handled


def _channels(cluster, end0, end1):
    (vi0, _r0), (vi1, _r1) = end0, end1
    return (cluster.nodes[0].via.agent.channel_for(vi0),
            cluster.nodes[1].via.agent.channel_for(vi1))


def _data_copies(wire):
    copies = {}
    for kind, seq in wire:
        if kind is PacketKind.DATA:
            copies[seq] = copies.get(seq, 0) + 1
    return copies


def _lossless():
    cluster, end0, end1, _wire = _pair()
    return _send_one(cluster, end0, end1)[0]


@both
@pytest.mark.parametrize("drops,nacks", [((3,), 1), ((3, 9), 2),
                                         ((0,), 1)],
                         ids=["one-gap", "two-gaps", "first-fragment"])
def test_a_gap_draws_one_nack_and_one_resend(fast, drops, nacks):
    with fastpath.force(fast):
        lossless = _lossless()
        cluster, end0, end1, wire = _pair(drop_data=drops)
        received, handled = _send_one(cluster, end0, end1)
    # The NACK resent exactly the missing fragments, once each.
    assert _data_copies(wire) == {
        seq: 2 if seq in drops else 1 for seq in range(NFRAGS)}
    sender, receiver = _channels(cluster, end0, end1)
    assert receiver.stats["nacks_sent"] == nacks
    assert sender.stats["nack_resends"] == len(drops)
    assert sender.stats["retransmits"] == len(drops)
    assert sender.stats["timeouts"] == 0
    assert receiver.stats["held"] > 0 and not receiver.held
    # Held fragments reach reassembly in sequence order, once each,
    # and the message matches the lossless run.
    assert handled == list(range(NFRAGS))
    assert received == lossless


@both
def test_an_rto_resends_only_the_head(fast):
    """The gap's NACK is lost too: the sender's RTO fires with the
    whole message after the gap unacknowledged, and resends only the
    head — the receiver holds the rest."""
    with fastpath.force(fast):
        lossless = _lossless()
        cluster, end0, end1, wire = _pair(drop_data=(3,), drop_nacks=1)
        received, handled = _send_one(cluster, end0, end1)
    assert _data_copies(wire) == {
        seq: 2 if seq == 3 else 1 for seq in range(NFRAGS)}
    sender, receiver = _channels(cluster, end0, end1)
    assert receiver.stats["nacks_sent"] == 1
    assert sender.stats["timeouts"] == 1
    assert sender.stats["retransmits"] == 1
    assert sender.stats["nack_resends"] == 0
    assert receiver.stats["held"] == NFRAGS - 4
    assert handled == list(range(NFRAGS))
    assert received == lossless


@both
def test_a_resent_held_fragment_is_a_duplicate(fast):
    """A held fragment that arrives again is dropped and counted as a
    duplicate; reassembly still sees each fragment once, in order."""
    with fastpath.force(fast):
        lossless = _lossless()
        cluster, end0, end1, wire = _pair(drop_data=(3,), drop_nacks=1)
        sender, receiver = _channels(cluster, end0, end1)
        resent = []

        def resend_held():
            # Every fragment is on the wire or held well inside the
            # 300 us RTO; put a second copy of fragment 5 behind them.
            entry = next(e for e in sender.unacked if e.seq == 5)
            resent.append(sorted(receiver.held))
            cluster.sim.spawn(sender._retransmit(entry))

        received, handled = _send_one(cluster, end0, end1,
                                      spawn_at=(250.0, resend_held))
    assert 5 in resent[0]
    assert receiver.stats["dup_frames"] == 1
    assert _data_copies(wire)[5] == 2
    assert handled == list(range(NFRAGS))
    assert received == lossless


@both
def test_lossy_mesh_resends_about_one_fragment_per_loss(fast):
    """The ledger's ``lossy_mesh`` program at its pinned seed: at most
    two resends per dropped frame, over what the same program resends
    on a clean wire.  That clean-wire share is RTO expiries on
    one-frame messages whose explicit ACK waits behind another VI's
    burst in the receiver's transmit ring; no loss is involved (25 of
    the 57 retransmits here).  Go-back-N resent whole windows: 584
    retransmits for 26 drops."""
    from ledger.workloads import simulator_workloads
    from tests.test_reliability_clean_wire import _run

    workload = simulator_workloads()["lossy_mesh"]
    inputs = workload.inputs(20050404, False)
    with fastpath.force(fast):
        ctx = workload.setup(inputs,
                             lambda _name: contextlib.nullcontext())
        outcome = workload.verify(ctx, workload.run(ctx))
        _elapsed, clean, _tx = _run(inputs["dims"], inputs["phases"],
                                    reliable=True)
    counts = outcome.counts
    assert outcome.failed == 0
    assert counts["hw.frames_dropped"] > 0
    assert counts["via.retransmits"] <= (
        2 * counts["hw.frames_dropped"] + clean["retransmits"])
