"""Per-node kernel TCP/IP stack over the mesh GigE ports.

The stack installs itself as the receive driver on every port, routes
by destination mesh rank (direct port for nearest neighbors, kernel IP
forwarding with SDF routing otherwise), segments application messages
at the MSS, applies delayed ACKs and the send window, and charges the
kernel-path CPU costs from :class:`~repro.hw.params.TcpParams`.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.errors import ConfigurationError, TcpError
from repro.hw.link import Frame
from repro.hw.nic import GigEPort
from repro.hw.node import Host, PRIO_KERNEL
from repro.hw.params import TcpParams
from repro.sim import Simulator, Store
from repro.topology.routing import sdf_next_direction
from repro.topology.torus import Torus
from repro.tcpip.segment import SegmentKind, TcpSegment
from repro.tcpip.socket import SocketState, TcpSocket


class TcpStack:
    """The kernel network stack of one node."""

    #: Kernel cost of connection handshake packet processing.
    HANDSHAKE_COST = 2.0

    def __init__(self, sim: Simulator, host: Host, rank: int, torus: Torus,
                 ports: Dict[int, GigEPort],
                 params: Optional[TcpParams] = None) -> None:
        if not ports:
            raise ConfigurationError(f"node {rank}: TCP stack with no ports")
        self.sim = sim
        self.host = host
        self.rank = rank
        self.torus = torus
        self.ports = dict(ports)
        self.params = params or TcpParams()
        mtu = next(iter(self.ports.values())).params.mtu
        self.mss = mtu - self.params.header_bytes
        if self.mss <= 0:
            raise ConfigurationError("TCP headers larger than MTU")
        self.sockets: Dict[int, TcpSocket] = {}
        self._listeners: Dict[int, object] = {}
        self._pending_syn: Dict[int, TcpSegment] = {}
        self._connectors: Dict[int, object] = {}
        self._forward_backlog = Store(sim, name=f"ipfwd[{rank}]")
        self.stats = {"segments_in": 0, "segments_out": 0, "acks": 0,
                      "forwarded": 0}
        for port in self.ports.values():
            port.set_driver(
                lambda frame, _port=port: self._handle_frame(frame, _port)
            )
        sim.spawn(self._forward_drain(), name=f"ipfwd-drain[{rank}]")

    # -- connection management ---------------------------------------------
    def listen(self, conn_id: int):
        """Process: passive open; returns an ESTABLISHED socket."""
        if conn_id in self.sockets:
            raise TcpError(f"conn {conn_id} already open on node {self.rank}")
        sock = TcpSocket(self, conn_id)
        sock.state = SocketState.LISTEN
        self.sockets[conn_id] = sock
        syn = self._pending_syn.pop(conn_id, None)
        if syn is None:
            wake = self.sim.event(name=f"listen:{conn_id}")
            self._listeners[conn_id] = wake
            syn = yield wake
        sock.peer_node = syn.src_node
        yield from self._transmit_control(
            syn.src_node, SegmentKind.SYN_ACK, conn_id
        )
        sock.state = SocketState.ESTABLISHED
        return sock

    def connect(self, dst_node: int, conn_id: int):
        """Process: active open; returns an ESTABLISHED socket."""
        if conn_id in self.sockets:
            raise TcpError(f"conn {conn_id} already open on node {self.rank}")
        sock = TcpSocket(self, conn_id, peer_node=dst_node)
        sock.state = SocketState.SYN_SENT
        self.sockets[conn_id] = sock
        wake = self.sim.event(name=f"connect:{conn_id}")
        self._connectors[conn_id] = wake
        yield from self._transmit_control(dst_node, SegmentKind.SYN, conn_id)
        yield wake
        sock.state = SocketState.ESTABLISHED
        return sock

    # -- transmit ---------------------------------------------------------
    def _egress(self, dst_node: int) -> GigEPort:
        direction = sdf_next_direction(self.torus, self.rank, dst_node)
        if direction is None:
            raise TcpError(f"node {self.rank}: no route to {dst_node}")
        port = self.ports.get(direction.port)
        if port is None:
            raise ConfigurationError(
                f"node {self.rank}: no adapter toward {dst_node}"
            )
        return port

    def transmit_data(self, sock: TcpSocket, seg_bytes: int, psh: bool,
                      payload, msg_bytes: int):
        """Process: put one data segment on the wire (kernel context)."""
        segment = TcpSegment(
            kind=SegmentKind.DATA,
            src_node=self.rank,
            dst_node=sock.peer_node,
            conn_id=sock.conn_id,
            seq=sock.next_seq,
            nbytes=seg_bytes,
            psh=psh,
            payload=payload,
            msg_bytes=msg_bytes,
        )
        sock.next_seq += seg_bytes
        self.stats["segments_out"] += 1
        frame = Frame(seg_bytes, self.params.header_bytes,
                      payload=segment, kind="tcp-data")
        yield from self._egress(sock.peer_node).enqueue_tx(frame)

    def _transmit_control(self, dst_node: int, kind: SegmentKind,
                          conn_id: int, ack_bytes: int = 0):
        yield from self.host.cpu_work(self.HANDSHAKE_COST
                                      if kind in (SegmentKind.SYN,
                                                  SegmentKind.SYN_ACK)
                                      else self.params.ack_cost,
                                      PRIO_KERNEL)
        segment = TcpSegment(kind=kind, src_node=self.rank,
                             dst_node=dst_node, conn_id=conn_id,
                             ack_bytes=ack_bytes)
        frame = Frame(0, self.params.header_bytes, payload=segment,
                      kind=f"tcp-{kind.value}")
        yield from self._egress(dst_node).enqueue_tx(frame)

    # -- receive (interrupt context) ---------------------------------------
    def _handle_frame(self, frame: Frame, port: GigEPort):
        segment: TcpSegment = frame.payload
        try:
            if segment.dst_node != self.rank:
                yield from self._forward(frame, segment)
                return
            if segment.kind is SegmentKind.DATA:
                yield from self._handle_data(segment)
            elif segment.kind is SegmentKind.ACK:
                yield from self._handle_ack(segment)
            elif segment.kind is SegmentKind.SYN:
                yield from self._handle_syn(segment)
            elif segment.kind is SegmentKind.SYN_ACK:
                yield from self._handle_syn_ack(segment)
            elif segment.kind is SegmentKind.FIN:
                yield from self._handle_fin(segment)
        finally:
            port.post_rx_descriptors(1)

    def _socket_for(self, segment: TcpSegment) -> TcpSocket:
        sock = self.sockets.get(segment.conn_id)
        if sock is None:
            raise TcpError(
                f"node {self.rank}: segment for unknown conn "
                f"{segment.conn_id}"
            )
        return sock

    def _handle_data(self, segment: TcpSegment):
        self.stats["segments_in"] += 1
        # Softirq protocol processing (IP input + TCP input).
        yield self.sim.timeout(self.params.per_segment_rx)
        sock = self._socket_for(segment)
        sock.data_arrived(segment.nbytes, segment.psh, segment.payload,
                          segment.seq + segment.nbytes)
        sock.segments_since_ack += 1
        sock.bytes_since_ack += segment.nbytes
        if segment.psh or sock.segments_since_ack >= self.params.segments_per_ack:
            ack_bytes = sock.bytes_since_ack
            sock.segments_since_ack = 0
            sock.bytes_since_ack = 0
            self.sim.spawn(
                self._transmit_control(sock.peer_node, SegmentKind.ACK,
                                       sock.conn_id, ack_bytes=ack_bytes),
                name=f"ack[{self.rank}:{sock.conn_id}]",
            )

    def _handle_ack(self, segment: TcpSegment):
        self.stats["acks"] += 1
        yield self.sim.timeout(self.params.ack_cost)
        self._socket_for(segment).ack_arrived(segment.ack_bytes)

    def _handle_syn(self, segment: TcpSegment):
        yield self.sim.timeout(self.HANDSHAKE_COST)
        wake = self._listeners.pop(segment.conn_id, None)
        if wake is None:
            self._pending_syn[segment.conn_id] = segment
        else:
            wake.succeed(segment)

    def transmit_fin(self, sock: TcpSocket):
        """Process: send the connection-teardown segment."""
        yield from self.host.cpu_work(self.params.ack_cost, PRIO_KERNEL)
        segment = TcpSegment(kind=SegmentKind.FIN, src_node=self.rank,
                             dst_node=sock.peer_node,
                             conn_id=sock.conn_id)
        frame = Frame(0, self.params.header_bytes, payload=segment,
                      kind="tcp-fin")
        yield from self._egress(sock.peer_node).enqueue_tx(frame)

    def _handle_fin(self, segment: TcpSegment):
        yield self.sim.timeout(self.params.ack_cost)
        sock = self.sockets.get(segment.conn_id)
        if sock is not None:
            sock.peer_closed()

    def _handle_syn_ack(self, segment: TcpSegment):
        yield self.sim.timeout(self.HANDSHAKE_COST)
        wake = self._connectors.pop(segment.conn_id, None)
        if wake is None:
            raise TcpError(
                f"node {self.rank}: SYN-ACK for conn {segment.conn_id} "
                "with no pending connect"
            )
        wake.succeed(segment)

    # -- IP forwarding ------------------------------------------------------
    def _forward(self, frame: Frame, segment: TcpSegment):
        self.stats["forwarded"] += 1
        yield self.sim.timeout(self.params.ip_forward_cost)
        out = Frame(frame.payload_bytes, frame.header_bytes,
                    payload=segment, kind=frame.kind)
        if len(self._forward_backlog) > 0:
            self._forward_backlog.push(out)
            return
        egress = self._egress(segment.dst_node)
        if not egress.try_enqueue_tx(out):
            self._forward_backlog.push(out)

    def _forward_drain(self):
        while True:
            frame = yield self._forward_backlog.get()
            segment: TcpSegment = frame.payload
            yield from self._egress(segment.dst_node).enqueue_tx(frame)
