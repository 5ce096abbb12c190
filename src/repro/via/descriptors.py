"""VIP-style descriptors.

A descriptor describes one data-transfer request: control fields
(status, completion hook) plus a data segment (registered buffer,
length).  Send descriptors may carry 32-bit immediate data — the
MPI/QMP layer piggybacks flow-control tokens there, exactly as the
paper describes ("piggybacked application message").

One is built per send and per consumed receive buffer, so they are
plain ``__slots__`` classes, equal only to themselves.
"""

from __future__ import annotations

import enum
from typing import Any, Optional

from repro.errors import ViaDescriptorError
from repro.via.memory import MemoryRegion
from repro.via.packet import PacketKind


class DescriptorStatus(enum.Enum):
    """Completion status of a descriptor."""

    PENDING = "pending"
    DONE = "done"
    ERROR = "error"


class Descriptor:
    """Common descriptor fields.

    ``payload`` is an arbitrary object riding with the bytes,
    ``immediate`` the 32-bit immediate data (piggybacked tokens etc.).
    ``on_complete``, when set, is invoked with the descriptor *instead
    of* queueing the completion (callback-driven consumers like the
    messaging core use this to avoid drain loops).  ``route`` is an
    explicit source route (egress port per hop, first hop included);
    None routes Shortest-Direction-First.  The device sets ``status``,
    ``completed_at`` (simulated us), ``error`` (the transport error
    behind status ERROR) and ``trace`` (flight-recorder id).
    """

    __slots__ = ("region", "offset", "nbytes", "status", "completed_at",
                 "payload", "immediate", "on_complete", "route", "error",
                 "trace")

    def __init__(self, region: MemoryRegion, offset: int, nbytes: int,
                 payload: Any = None, immediate: Optional[int] = None,
                 on_complete: Optional[object] = None,
                 route: Optional[tuple] = None) -> None:
        if nbytes < 0:
            raise ViaDescriptorError(f"negative length {nbytes}")
        if offset < 0 or offset + nbytes > region.nbytes:
            raise ViaDescriptorError(
                f"segment [{offset}, +{nbytes}) outside region "
                f"of {region.nbytes} bytes"
            )
        self.region = region
        self.offset = offset
        self.nbytes = nbytes
        self.status = DescriptorStatus.PENDING
        self.completed_at = None
        self.payload = payload
        self.immediate = immediate
        self.on_complete = on_complete
        self.route = route
        self.error = self.trace = None

    @property
    def addr(self) -> int:
        return self.region.addr + self.offset

    def mark_done(self, now: float) -> None:
        if self.status is not DescriptorStatus.PENDING:
            raise ViaDescriptorError(f"{self!r} completed twice")
        self.status = DescriptorStatus.DONE
        self.completed_at = now

    def mark_error(self, now: float) -> None:
        self.status = DescriptorStatus.ERROR
        self.completed_at = now

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(region@{self.region.addr:#x}"
                f"+{self.offset}, {self.nbytes}B, {self.status.value})")


class SendDescriptor(Descriptor):
    """An ordinary (two-sided) send.

    The class attributes are what the one data path (``VI._post``,
    ``ViaDevice.transmit``) reads off the kind of message: wire kind,
    API span name, trace label, VI stats key, and the RMA-only wire
    fields, which a two-sided send leaves unset.
    """

    __slots__ = ()
    packet_kind = PacketKind.DATA
    post_name = "post_send"
    trace_label = "via-send"
    stat = "sends"
    remote_addr = None
    notify = False


class RecvDescriptor(Descriptor):
    """A posted receive buffer.

    ``received_bytes``/``received_payload`` are filled at completion;
    ``received_immediate`` carries the sender's immediate data.
    """

    __slots__ = ("received_bytes", "received_payload", "received_immediate")

    def __init__(self, region: MemoryRegion, offset: int, nbytes: int):
        Descriptor.__init__(self, region, offset, nbytes)
        self.received_bytes = 0
        self.received_payload = self.received_immediate = None


class RmaWriteDescriptor(Descriptor):
    """A remote-DMA write: local segment -> remote registered address.

    ``remote_addr`` must fall inside an RMA-write-enabled region on the
    peer.  ``notify`` requests remote completion (consumes a receive
    descriptor there), which VIA calls "RDMA write with immediate".
    """

    __slots__ = ("remote_addr", "notify")
    packet_kind = PacketKind.RMA_WRITE
    post_name = "post_rma_write"
    trace_label = "via-rma"
    stat = "rma_writes"

    def __init__(self, region: MemoryRegion, offset: int, nbytes: int,
                 payload: Any = None, immediate: Optional[int] = None,
                 on_complete: Optional[object] = None,
                 route: Optional[tuple] = None,
                 remote_addr: int = 0, notify: bool = False) -> None:
        Descriptor.__init__(self, region, offset, nbytes, payload,
                            immediate, on_complete, route)
        self.remote_addr = remote_addr
        self.notify = notify
