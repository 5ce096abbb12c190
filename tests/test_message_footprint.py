"""A posted message costs what is in flight, not its whole fragment list.

``ViaDevice.transmit`` hands the port a :class:`~repro.via.device.Fragments`
burst: one object per message that cuts fragment *i* (packet, seal,
frame) only when it is taken.  The NIC cuts each as its fetch stage
takes it, a committed frame train cuts all of its frames at commit (they
are in flight), and the reliable channel cuts each as its window admits
it.  Nothing simulated moves: the frozen oracle below is what the peer
received when every fragment was built at post time.

The transmit ring counts frames on every put path, so a fast-scheduler
train that stands for many frames holds as many slots as the reference
scheduler's per-frame puts do, until each frame is taken.

Counts are taken with a ``gc`` census of live :class:`ViaPacket` objects,
at each arrival on the peer port (a tap on the link) and when a post
returns: neither adds a queue entry, so the census cannot change what
it counts.
"""

from __future__ import annotations

import gc
import hashlib
import pickle

import pytest

from repro import fastpath
from repro.hw.link import Frame
from repro.hw.nic import TX_FIFO_FRAMES
from repro.hw.params import ViaParams
from repro.tcpip.segment import SegmentKind, TcpSegment
from repro.via.descriptors import (
    RecvDescriptor, RmaWriteDescriptor, SendDescriptor,
)
from repro.via.packet import PacketKind, ViaPacket
from tests.conftest import make_via_pair

BOTH = pytest.mark.parametrize("fast", [True, False],
                               ids=["fast", "reference"])

PAYLOAD_KINDS = (PacketKind.DATA, PacketKind.RMA_WRITE)


class _Tap:
    """Stands in for the peer port on the link: calls ``seen(frame)``
    on each arrival, then hands the frame on."""

    def __init__(self, port, seen) -> None:
        self.port = port
        self.seen = seen

    def __getattr__(self, name):
        return getattr(self.port, name)

    def frame_arrived(self, frame) -> None:
        self.seen(frame)
        self.port.frame_arrived(frame)


def _tapped_pair(seen, reliable=False):
    cluster, end0, end1 = make_via_pair(
        via_params=ViaParams(reliable=True) if reliable else None)
    link = cluster.links[0]
    link._ports[1] = _Tap(link._ports[1], seen)
    return cluster, end0, end1


def _fragments_alive(src_node: int, skip=()) -> int:
    """Distinct payload fragments from ``src_node`` alive (a reliable
    template and its wire copy are one fragment), less ``skip``."""
    gc.collect()
    return len({(obj.msg_id, obj.frag_index) for obj in gc.get_objects()
                if type(obj) is ViaPacket and obj.src_node == src_node
                and obj.kind in PAYLOAD_KINDS} - set(skip))


def _held_by_sender(fast, nbytes, both_ways=False, reliable=False):
    """Peak of node 0's fragments alive and not yet at the peer, over
    every arrival and the post's return; and the sender port's stats."""
    arrived = set()
    peak = [0]

    def census():
        peak[0] = max(peak[0], _fragments_alive(0, arrived))

    def seen(frame):
        packet = frame.payload
        if packet.src_node == 0 and packet.kind in PAYLOAD_KINDS:
            arrived.add((packet.msg_id, packet.frag_index))
            census()

    with fastpath.force(fast):
        cluster, (vi0, r0), (vi1, r1) = _tapped_pair(seen, reliable)
        sim = cluster.sim
        vi0.post_recv(RecvDescriptor(r0, 0, nbytes))
        vi1.post_recv(RecvDescriptor(r1, 0, nbytes))

        def send(vi, region):
            yield from vi.post_send(SendDescriptor(region, 0, nbytes))
            census()

        sim.spawn(send(vi0, r0))
        if both_ways:
            sim.spawn(send(vi1, r1))
        sim.run()
    assert len(arrived) == -(-nbytes // cluster.nodes[0].via.frame_payload)
    return peak[0], cluster.links[0]._ports[0].stats


@BOTH
def test_a_queued_message_holds_no_fragment_the_nic_has_not_taken(fast):
    # Both ends send at once, so the fast scheduler's trains fall back
    # to the per-frame stages (as on a contended mesh): the sender holds
    # the frame in DMA, the FIFO's and the one on the wire.  Every
    # fragment was built at post time before: 45.
    peak, stats = _held_by_sender(fast, 65536, both_ways=True)
    assert peak <= TX_FIFO_FRAMES + 2
    assert stats["trains"] == 0
    assert stats["train_fallbacks"] == (1 if fast else 0)


def test_a_committed_train_cuts_its_frames_at_commit():
    with fastpath.force(True):
        cluster, (vi0, r0), (vi1, r1) = make_via_pair()
        sim = cluster.sim
        vi1.post_recv(RecvDescriptor(r1, 0, 65536))
        alive = {}

        def send():
            yield from vi0.post_send(SendDescriptor(r0, 0, 65536))
            alive["posted"] = _fragments_alive(0)

        sim.spawn(send())
        sim.run()
    ports = cluster.nodes[0].via.ports.values()
    assert sum(port.stats["trains"] for port in ports) == 1
    # Queued as one ring item; nothing cut until the plan commits.
    assert alive["posted"] == 0


@BOTH
def test_a_reliable_window_bounds_the_fragments_cut(fast):
    window = ViaParams().rel_window
    nbytes = 1 << 18                       # 180 fragments
    peak, _stats = _held_by_sender(fast, nbytes, reliable=True)
    assert 180 > window
    assert peak <= window


# -- what reaches the peer: the eager cut, frozen ---------------------------

def _program(vi0, r0, rma_region, tamper):
    """Process: a multi-fragment send with completion fields, a
    3-fragment send, an empty one and an RMA write with immediate;
    ``tamper`` rewrites each descriptor once its post has returned."""
    for descriptor in (
            SendDescriptor(r0, 0, 65536, payload="big", immediate=7),
            SendDescriptor(r0, 0, 3000, payload=("mid", 1)),
            SendDescriptor(r0, 0, 0, payload="empty", immediate=0),
            RmaWriteDescriptor(r0, 0, 10000, payload="rma", immediate=9,
                               remote_addr=rma_region.addr + 16,
                               notify=True)):
        if isinstance(descriptor, RmaWriteDescriptor):
            yield from vi0.post_rma_write(descriptor)
            if tamper:
                descriptor.remote_addr += 64
                descriptor.notify = False
        else:
            yield from vi0.post_send(descriptor)
        if tamper:
            descriptor.payload = "changed"
            descriptor.immediate = 12345
            descriptor.nbytes = 1


def _delivered(fast, reliable, tamper=False):
    """What node 1's port received of the program: one record per
    payload fragment, with its arrival instant."""
    got = []

    def seen(frame):
        packet = frame.payload
        if packet.kind in PAYLOAD_KINDS:
            got.append((
                sim.now.hex(), packet.kind.value, packet.msg_id,
                packet.frag_index, packet.num_frags, packet.msg_offset,
                packet.payload_bytes, packet.msg_bytes, packet.remote_addr,
                packet.seq, packet.ack, packet.checksum, packet.notify,
                packet.immediate, repr(packet.payload), frame.padded_bytes,
                frame.kind))

    with fastpath.force(fast):
        cluster, (vi0, r0), (vi1, r1) = _tapped_pair(seen, reliable)
        sim = cluster.sim
        rma_region = cluster.nodes[1].via.register_memory_now(
            1 << 17, vi1.tag, rma_write=True)
        for _ in range(4):
            vi1.post_recv(RecvDescriptor(r1, 0, 1 << 17))
        sim.spawn(_program(vi0, r0, rma_region, tamper))
        sim.run()
    return got


#: The peer's records at 139720e, where ``transmit`` built every packet
#: and frame of a message at post time: 56 fragments per program
#: (45 + 3 + 1 + 7), sha256 of their ``repr``.  The same under both
#: schedulers.
EAGER_CUT = {
    False: "5fb152286b9503dba9946483e414a252877f472aa8c9ed2e1cbe8d1fadb97ad5",
    True: "1d93e83352e20ad004caa3b68ddb7037d4450503c7b3a4af267ae96746a0a339",
}


@BOTH
@pytest.mark.parametrize("reliable", [False, True],
                         ids=["unreliable", "reliable"])
def test_the_peer_receives_what_the_eager_cut_sent(fast, reliable):
    got = _delivered(fast, reliable)
    assert len(got) == 56
    digest = hashlib.sha256(repr(got).encode()).hexdigest()
    assert digest == EAGER_CUT[reliable]
    # The completion fields ride on each message's last fragment only.
    for record in got:
        last = record[3] == record[4] - 1
        notify, immediate, payload = record[12:15]
        if not last:
            assert (notify, immediate, payload) == (False, None, "None")
    lasts = [record[12:15] for record in got if record[3] == record[4] - 1]
    assert lasts == [(False, 7, "'big'"), (False, None, "('mid', 1)"),
                     (False, 0, "'empty'"), (True, 9, "'rma'")]
    if reliable:
        assert [record[9] for record in got] == list(range(56))


@BOTH
def test_a_descriptor_changed_after_its_post_does_not_change_its_fragments(
        fast):
    tampered = _delivered(fast, reliable=False, tamper=True)
    assert tampered == _delivered(fast, reliable=False)


# -- the ring counts frames on every put path -------------------------------

#: Return instants of four back-to-back 1 MB posts on a 2-node line
#: (720 frames each, a 2048-entry ring), and the final clock: the
#: reference scheduler's, frame by frame.  The third post waits for 112
#: of the first message's frames to be taken, the fourth for the rest of
#: them and 112 of the second's.  (The fast scheduler used to return
#: from the third and fourth posts at once.)
RING_FULL = (["0x1.d1eaa85dfe0f6p+4", "0x1.fccbf00c128a4p+4",
              "0x1.658d64d05f59bp+10", "0x1.557cf02f8cedap+13"],
             "0x1.291cab0f302b6p+15")


@BOTH
def test_a_full_ring_holds_a_post_where_the_reference_does(fast):
    with fastpath.force(fast):
        cluster, (vi0, r0), (vi1, r1) = make_via_pair()
        sim = cluster.sim
        ring = next(iter(cluster.nodes[0].via.ports.values())).tx_queue
        for _ in range(4):
            vi1.post_recv(RecvDescriptor(r1, 0, 1 << 20))
        returns = []
        held = []

        def send():
            for _ in range(4):
                yield from vi0.post_send(SendDescriptor(r0, 0, 1 << 20))
                returns.append(sim.now.hex())
                held.append(ring.frames())

        sim.spawn(send())
        sim.run()
    assert (returns, sim.now.hex()) == RING_FULL
    assert max(held) == ring.capacity == 2048
    assert ring.frames() == 0 and ring.puts == ring.gets


# -- slotted wire objects ---------------------------------------------------

def test_wire_objects_are_slotted():
    frame = Frame(10, 42, payload=ViaPacket(PacketKind.DATA, 0, 1, 1))
    segment = TcpSegment(SegmentKind.DATA, 0, 1, 3)
    for obj in (frame, frame.payload, segment):
        assert not hasattr(obj, "__dict__"), type(obj)
    # The receive path's DMA-done instant is a declared field.
    assert frame.rx_ready is None


def test_a_frame_unpickles_from_either_state_form():
    packet = ViaPacket(PacketKind.DATA, 0, 1, 1, payload_bytes=10).seal()
    frame = Frame(10, 42, payload=packet, kind="via-data")
    frame.rx_ready = 3.5
    # Slotted: the state is ``(None, slots)``.
    assert frame.__reduce_ex__(4)[2][0] is None
    copy = pickle.loads(pickle.dumps(frame, protocol=4))
    assert copy == frame and copy.padded_bytes == 52
    assert copy.rx_ready == 3.5 and copy.frame_id == frame.frame_id
    # A window log written before the slots holds a plain dict, and the
    # oldest ones no ``padded_bytes``.
    old = Frame.__new__(Frame)
    old.__setstate__({"payload_bytes": 10, "header_bytes": 42,
                      "payload": packet, "kind": "via-data",
                      "on_fetched": None, "corrupted": False,
                      "frame_id": frame.frame_id})
    assert old == frame and old.padded_bytes == 52 and old.rx_ready is None
