"""VIA wire packets.

Every Ethernet frame the M-VIA device sends carries one
:class:`ViaPacket` — the header the modified M-VIA prepends: source and
destination *node* (mesh rank, so the packet switch can route),
destination VI number, message sequencing and fragmentation fields, and
a checksum.  The Jlab modification made the Intel hardware checksum
each packet (section 4); software checksumming is modeled as a CPU cost
in the NIC when offload is disabled.
"""

from __future__ import annotations

import enum
import itertools
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Optional

_msg_ids = itertools.count()


class PacketKind(enum.Enum):
    """Wire packet types of the modified M-VIA."""

    DATA = "data"              # two-sided send fragment
    RMA_WRITE = "rma_write"    # remote DMA write fragment
    CONNECT = "connect"        # connection request
    ACCEPT = "accept"          # connection accept
    DISCONNECT = "disconnect"  # teardown
    REDUCE = "reduce"          # interrupt-level partial reduction (s7)
    CBCAST = "cbcast"          # interrupt-level result broadcast (s7)
    ACK = "ack"                # reliable-delivery cumulative ACK
    KEEPALIVE = "keepalive"    # failure-detector neighbor heartbeat
    DEADNOTICE = "deadnotice"  # failure-detector death gossip
    NIC_REDUCE = "nic_reduce"  # NIC-resident partial reduction
    NIC_CBCAST = "nic_cbcast"  # NIC-resident result/broadcast wave
    NIC_REQUEST = "nic_request"  # NIC-resident request / held answer
    CREQUEST = "crequest"      # interrupt-level request / held answer


#: Wire kinds of the offload-collective state machine
#: (:mod:`repro.via.offload_collective`), one triple per execution site:
#: (reduce-up, wave-down, request: an ask, or a *held* answer).  The
#: kernel site takes its frames in the receive interrupt; the NIC
#: site's port-level hook consumes them before the host rx path.  A
#: node without the matching site rejects them.
KERNEL_COLLECTIVE_KINDS = (
    PacketKind.REDUCE, PacketKind.CBCAST, PacketKind.CREQUEST,
)
NIC_COLLECTIVE_KINDS = (
    PacketKind.NIC_REDUCE, PacketKind.NIC_CBCAST, PacketKind.NIC_REQUEST,
)


#: Checksummed header layout: kind code, the eleven integer header
#: fields, ``notify``, ``immediate`` as (present, value) so None stays
#: distinct from 0, then ``seq`` and ``ack``.  The code is the kind's
#: position, carried on the member: a dict keyed by kind would hash an
#: Enum (a Python-level ``__hash__``) twice per frame.  ``frame_label``
#: is the debug label of the Ethernet frame that carries the kind.
for _code, _kind in enumerate(PacketKind):
    _kind.wire_code = _code
    _kind.frame_label = f"via-{_kind.value}"
PacketKind.RMA_WRITE.frame_label = "via-rma"
_pack_header = struct.Struct("<17q").pack


@dataclass(slots=True)
class ViaPacket:
    """One frame's worth of VIA traffic.

    ``frag_index``/``num_frags`` implement fragmentation of descriptors
    larger than the per-frame payload; fragments of one message travel
    the same deterministic route, so reassembly may assume ordering
    (asserted by the kernel agent).
    """

    kind: PacketKind
    src_node: int
    dst_node: int
    dst_vi: int
    #: Sender's VI id (connection handshake and completion routing).
    src_vi: int = -1
    msg_id: int = 0
    frag_index: int = 0
    num_frags: int = 1
    payload_bytes: int = 0
    #: Byte offset of this fragment within the whole message.
    msg_offset: int = 0
    #: Total message length (so the receiver can check truncation
    #: before the last fragment arrives).
    msg_bytes: int = 0
    #: RMA destination address (RMA_WRITE only).
    remote_addr: int = 0
    #: Remote completion requested (RMA write with immediate).
    notify: bool = False
    immediate: Optional[int] = None
    #: Explicit source route: remaining egress ports, consumed one per
    #: hop by the kernel switch (the OPT scatter injects these; when
    #: None the switch falls back to Shortest-Direction-First).  Being
    #: hop-mutable, the route is excluded from the end-to-end checksum.
    route: Optional[tuple] = None
    #: Reliable-delivery sequence number of this frame on its VI
    #: channel (-1 = unsequenced, the unreliable/legacy wire format).
    #: On an ACK packet it names a missing fragment: a NACK.
    seq: int = -1
    #: Piggybacked cumulative ACK: highest in-order sequence number the
    #: sender of *this* packet has received on the destination VI's
    #: channel (-1 = no ACK information).
    ack: int = -1
    payload: Any = field(default=None, repr=False)
    checksum: Optional[int] = None
    #: Flight-recorder trace id of the message this fragment belongs
    #: to (observability only; not a wire header field, so it is
    #: excluded from the checksum and never affects simulation state).
    trace: Any = field(default=None, repr=False, compare=False)

    @classmethod
    def next_msg_id(cls) -> int:
        """Process-global fallback allocator (hand-built packets only).

        Real senders draw from ``ViaDevice.next_msg_id`` — per-device
        streams are what lets a checkpoint replay reproduce the exact
        ids of the original run (see ``docs/CHECKPOINT.md``).
        """
        return next(_msg_ids)

    def compute_checksum(self) -> int:
        """Header checksum over the routing-relevant fields.

        Payloads are Python objects, not bytes, so the checksum covers
        the header exactly — which is what protects against the
        misrouting/corruption bugs checksums caught in the real system.
        """
        immediate = self.immediate
        return zlib.crc32(_pack_header(
            self.kind.wire_code, self.src_node, self.dst_node,
            self.dst_vi, self.src_vi, self.msg_id, self.frag_index,
            self.num_frags, self.payload_bytes, self.msg_offset,
            self.msg_bytes, self.remote_addr, self.notify,
            immediate is not None, immediate or 0, self.seq, self.ack,
        ))

    def clone(self) -> "ViaPacket":
        """Fresh shallow copy for (re)transmission.

        The kernel switch consumes ``route`` hop by hop on the wire
        copy, so the reliable sender keeps a pristine template and
        transmits a clone per attempt.  One positional constructor call
        in field order: ``dataclasses.replace`` walks the fields and
        builds keywords for every reliable send.  Nineteen arguments,
        not all twenty: on CPython 3.11 the call's argument tuple, freed,
        goes onto the free list of 20-tuples, which no allocation takes
        from, so each call would leave 200 bytes there, up to 2 000
        tuples (400 KB), until a full collection clears the list.
        """
        packet = ViaPacket(
            self.kind, self.src_node, self.dst_node, self.dst_vi,
            self.src_vi, self.msg_id, self.frag_index, self.num_frags,
            self.payload_bytes, self.msg_offset, self.msg_bytes,
            self.remote_addr, self.notify, self.immediate, self.route,
            self.seq, self.ack, self.payload, self.checksum,
        )
        packet.trace = self.trace
        return packet

    def seal(self) -> "ViaPacket":
        """Stamp the checksum (sender side)."""
        self.checksum = self.compute_checksum()
        return self

    def verify(self) -> bool:
        """Receiver-side checksum verification."""
        return self.checksum == self.compute_checksum()
