"""Blocking stream sockets over the modeled TCP stack.

The API is deliberately message-shaped (``send``/``recv`` of whole
application messages) because that is how the paper's TCP baseline was
exercised — but the model underneath is a byte stream with
segmentation, a send window and delayed ACKs, so the costs scale the
way real sockets do.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Any, List, Optional, TYPE_CHECKING

from repro.errors import TcpError
from repro.hw.node import PRIO_KERNEL, PRIO_USER

if TYPE_CHECKING:  # pragma: no cover
    from repro.tcpip.stack import TcpStack


class SocketState(enum.Enum):
    CLOSED = "closed"
    SYN_SENT = "syn-sent"
    LISTEN = "listen"
    ESTABLISHED = "established"
    FIN_SENT = "fin-sent"


class TcpSocket:
    """One established (or in-progress) TCP connection endpoint."""

    def __init__(self, stack: "TcpStack", conn_id: int,
                 peer_node: Optional[int] = None) -> None:
        self.stack = stack
        self.conn_id = conn_id
        self.peer_node = peer_node
        self.state = SocketState.CLOSED
        # Send side.
        self.next_seq = 0
        self.in_flight = 0
        self._window_waiters: List = []
        # Receive side.
        self.available = 0
        self.consumed = 0
        self._payloads: deque = deque()
        #: Blocked recvs: (bytes each waits for, its wake event).
        self._recv_waiters: List = []
        #: Delayed-ACK state.
        self.segments_since_ack = 0
        self.bytes_since_ack = 0
        self.stats = {"sent_msgs": 0, "recv_msgs": 0,
                      "sent_bytes": 0, "recv_bytes": 0}

    # -- user API -------------------------------------------------------------
    def send(self, nbytes: int, payload: Any = None):
        """Process: send one application message of ``nbytes``.

        Returns once every byte has been accepted by the NIC transmit
        ring (socket-buffer semantics: the user buffer is reusable).
        """
        if self.state is not SocketState.ESTABLISHED:
            raise TcpError(f"send on {self.state.value} socket")
        if nbytes < 0:
            raise TcpError(f"negative send size {nbytes}")
        stack, host = self.stack, self.stack.host
        self.stats["sent_msgs"] += 1
        self.stats["sent_bytes"] += nbytes
        yield from host.cpu_work(
            host.params.syscall_cost + stack.params.send_overhead,
            PRIO_USER,
        )
        # The user->kernel copy (TCP's extra copy relative to VIA).
        if stack.params.send_copy and nbytes:
            yield from host.copy(nbytes, PRIO_USER)
        mss = stack.mss
        remaining = nbytes
        offset = 0
        while remaining > 0 or offset == 0:
            seg_bytes = min(mss, remaining)
            last = seg_bytes == remaining
            # Honor the send window.
            while self.in_flight + seg_bytes > stack.params.window_bytes:
                wake = stack.sim.event(name=f"win:{self.conn_id}")
                self._window_waiters.append(wake)
                yield wake
            self.in_flight += seg_bytes
            yield from host.cpu_work(stack.params.per_segment_tx,
                                     PRIO_KERNEL)
            yield from stack.transmit_data(
                self, seg_bytes, psh=last,
                payload=payload if last else None,
                msg_bytes=nbytes if last else 0,
            )
            offset += seg_bytes
            remaining -= seg_bytes
            if last:
                break

    def recv(self, nbytes: int):
        """Process: block until ``nbytes`` arrived; returns the list of
        message payload objects consumed (usually one)."""
        if self.state is not SocketState.ESTABLISHED:
            raise TcpError(f"recv on {self.state.value} socket")
        stack, host = self.stack, self.stack.host
        while self.available < nbytes:
            wake = stack.sim.event(name=f"rcv:{self.conn_id}")
            self._recv_waiters.append((nbytes, wake))
            yield wake
        yield from host.cpu_work(
            host.params.syscall_cost + stack.params.recv_overhead,
            PRIO_USER,
        )
        # The kernel->user copy.
        if stack.params.recv_copy and nbytes:
            yield from host.copy(nbytes, PRIO_USER)
        self.available -= nbytes
        self.consumed += nbytes
        self.stats["recv_msgs"] += 1
        self.stats["recv_bytes"] += nbytes
        payloads = []
        while self._payloads and self._payloads[0][0] <= self.consumed:
            payloads.append(self._payloads.popleft()[1])
        return payloads

    def close(self):
        """Process: send FIN and close this end.

        Model simplification: one FIN closes both directions (the
        benchmarks never half-close); pending receives on the peer
        fail fast rather than hanging.
        """
        if self.state is not SocketState.ESTABLISHED:
            raise TcpError(f"close on {self.state.value} socket")
        self.state = SocketState.FIN_SENT
        yield from self.stack.transmit_fin(self)
        self.state = SocketState.CLOSED

    def peer_closed(self) -> None:
        """Stack-side: the remote end sent FIN."""
        self.state = SocketState.CLOSED
        waiters, self._recv_waiters = self._recv_waiters, []
        for _nbytes, wake in waiters:
            wake.fail(TcpError(
                f"conn {self.conn_id}: peer closed the connection"
            ))

    # -- stack-side notifications ----------------------------------------------
    def data_arrived(self, nbytes: int, psh: bool, payload: Any,
                     end_seq: int) -> None:
        self.available += nbytes
        if psh:
            self._payloads.append((end_seq, payload))
        # A blocked recv is woken once its byte count has arrived, not
        # by every segment on the way.
        waiters, self._recv_waiters = self._recv_waiters, []
        for entry in waiters:
            if entry[0] <= self.available:
                entry[1].succeed()
            else:
                self._recv_waiters.append(entry)

    def ack_arrived(self, ack_bytes: int) -> None:
        if ack_bytes > self.in_flight:
            raise TcpError(
                f"conn {self.conn_id}: ACK of {ack_bytes} bytes with only "
                f"{self.in_flight} in flight"
            )
        self.in_flight -= ack_bytes
        waiters, self._window_waiters = self._window_waiters, []
        for wake in waiters:
            wake.succeed()
