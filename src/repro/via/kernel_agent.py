"""The VIA kernel agent: connection management, receive dispatch, and
the modified M-VIA's interrupt-level mesh packet switch.

Everything in this module that handles frames runs *inside the NIC's
receive interrupt* (the port's driver generator is invoked with the CPU
already held at IRQ priority).  That is faithful to the real system:
M-VIA's receive copy happens in the kernel handler, and the Jlab
modification forwards non-local packets at interrupt level "without
copying data to and from user space" (section 5.1), which is why the
per-hop routing latency (12.5 us) is lower than the end-to-end latency
(18.5 us) — the two host-overhead ends are skipped.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.errors import ViaDescriptorError, ViaError, TruncationError
from repro.hw.link import Frame
from repro.hw.nic import GigEPort
from repro.obs.recorder import IRQ_WAIT as _IRQ_WAIT, \
    SWITCH_FORWARD as _SWITCH_FORWARD
from repro.sim import Store
from repro.via.descriptors import RecvDescriptor
from repro.via.packet import (
    KERNEL_COLLECTIVE_KINDS,
    NIC_COLLECTIVE_KINDS,
    PacketKind,
    ViaPacket,
)
from repro.via.reliability import ReliableChannel
from repro.via.vi import VI, ViState

if TYPE_CHECKING:  # pragma: no cover
    from repro.via.device import ViaDevice


class KernelAgent:
    """Per-node kernel-mode component of the VIA model."""

    #: CPU cost of connection-management packet handling (us).
    CONNECT_HANDLING_COST = 1.5

    def __init__(self, device: "ViaDevice") -> None:
        self.device = device
        self.sim = device.sim
        #: discriminator -> (vi, wake event) registered by connect_wait.
        self._listeners: Dict[object, Tuple[VI, object]] = {}
        #: discriminator -> queued CONNECT packets that arrived early.
        self._early_connects: Dict[object, List[ViaPacket]] = {}
        #: vi_id -> wake event for pending connect_request.
        self._connectors: Dict[int, object] = {}
        #: Frames awaiting an egress ring slot (switch backlog).
        self._switch_backlog = Store(device.sim,
                                     name=f"switchbl[{device.rank}]")
        #: vi_id -> reliable-delivery channel (created on demand).
        self._channels: Dict[int, ReliableChannel] = {}
        #: (src_node, src_vi, discriminator) -> local VI, for every
        #: completed passive-side handshake; lets a retransmitted
        #: CONNECT be answered with a duplicate ACCEPT instead of a
        #: second accept.
        self._accepted: Dict[Tuple, VI] = {}
        self.stats = {
            "frames": 0, "forwarded": 0, "checksum_errors": 0,
            "connects": 0, "rma_frames": 0, "data_frames": 0,
            "backlogged": 0,
            # Reliable-delivery counters (see via.reliability).
            "dropped_bad_checksum": 0, "acks_sent": 0,
            "acks_received": 0, "retransmits": 0, "timeouts": 0,
            "dup_frames": 0, "ooo_dropped": 0, "rel_failures": 0,
            "connect_retries": 0, "dup_accepts": 0, "dup_connects": 0,
            # Failure-detector counters (node faults only; all zero on
            # a fault-free run).
            "keepalives_sent": 0, "keepalives_received": 0,
            "dead_notices_sent": 0, "dead_notices_received": 0,
            "peers_declared_dead": 0, "recv_drained": 0,
            "dropped_dead": 0,
        }
        #: Keepalive-based failure detector; installed by the cluster
        #: builder only when node faults are configured, so the
        #: fault-free hot path pays one ``is None`` check at most.
        self._fd: Optional["_FailureDetector"] = None
        #: World ranks this node has already processed a death for
        #: (keeps gossip and teardown idempotent).
        self._known_dead: set = set()
        #: fn(dead_rank) hooks run after VI teardown on a death notice;
        #: the messaging engine registers here to fail pending requests.
        self.death_callbacks: list = []
        device.sim.spawn(self._backlog_drain(),
                         name=f"switch-drain[{device.rank}]")

    # ------------------------------------------------------------------
    # Connection management (kernel slow path).
    # ------------------------------------------------------------------
    def connect_request(self, vi: VI, dst_node: int, discriminator):
        """Process: active side of VipConnectRequest + wait."""
        if vi.state is not ViState.IDLE:
            raise ViaError(f"{vi!r} cannot connect from {vi.state.value}")
        vi.state = ViState.CONNECT_PENDING
        wake = self.sim.event(name=f"connect:{vi.vi_id}")
        self._connectors[vi.vi_id] = wake
        yield from self.device.transmit_control(
            dst_node, PacketKind.CONNECT, dst_vi=0, src_vi=vi.vi_id,
            payload=discriminator,
        )
        if self.device.reliable:
            # Handshake frames are not covered by the per-VI windows
            # (no connection yet), so the active side re-sends CONNECT
            # on its own timer until the ACCEPT lands.
            self.sim.spawn(
                self._connect_retry(vi, dst_node, discriminator),
                name=f"connect-rto[{self.device.rank}:{vi.vi_id}]",
            )
        peer = yield wake
        if peer is None:
            vi.state = ViState.ERROR
            raise vi.error or ViaError(f"{vi!r}: connect failed")
        vi.peer = peer
        vi.state = ViState.CONNECTED
        return vi

    def _connect_retry(self, vi: VI, dst_node: int, discriminator):
        """Process: retransmission timer for an in-flight CONNECT."""
        params = self.device.params
        rto = params.rel_rto
        retries = 0
        while vi.vi_id in self._connectors:
            yield self.sim.timeout(rto)
            if vi.vi_id not in self._connectors:
                return
            retries += 1
            if retries > params.rel_max_retries:
                wake = self._connectors.pop(vi.vi_id)
                vi.error = ViaError(
                    f"{vi!r}: connect to node {dst_node} failed after "
                    f"{params.rel_max_retries} retries"
                )
                self.stats["rel_failures"] += 1
                wake.succeed(None)
                self.suspect(dst_node, "connect retries exhausted")
                return
            self.stats["connect_retries"] += 1
            rto = min(rto * params.rel_rto_backoff, params.rel_rto_max)
            yield from self.device.transmit_control(
                dst_node, PacketKind.CONNECT, dst_vi=0, src_vi=vi.vi_id,
                payload=discriminator,
            )

    def connect_wait(self, vi: VI, discriminator):
        """Process: passive side (VipConnectWait + VipConnectAccept)."""
        if vi.state is not ViState.IDLE:
            raise ViaError(f"{vi!r} cannot accept from {vi.state.value}")
        early = self._early_connects.get(discriminator)
        if early:
            packet = early.pop(0)
            if not early:
                del self._early_connects[discriminator]
            yield from self._accept(vi, packet)
            return vi
        vi.state = ViState.CONNECT_PENDING
        wake = self.sim.event(name=f"accept:{vi.vi_id}")
        self._listeners[discriminator] = (vi, wake)
        packet = yield wake
        yield from self._accept(vi, packet)
        return vi

    def _accept(self, vi: VI, packet: ViaPacket):
        vi.peer = (packet.src_node, packet.src_vi)
        vi.state = ViState.CONNECTED
        try:
            self._accepted[
                (packet.src_node, packet.src_vi, packet.payload)
            ] = vi
        except TypeError:  # unhashable discriminator: no dedup
            pass
        yield from self.device.transmit_control(
            packet.src_node, PacketKind.ACCEPT,
            dst_vi=packet.src_vi, src_vi=vi.vi_id,
        )

    # ------------------------------------------------------------------
    # Reliable delivery (see via.reliability for the protocol).
    # ------------------------------------------------------------------
    def channel_for(self, vi: VI) -> ReliableChannel:
        """The VI's reliable-delivery channel, created on first use."""
        channel = self._channels.get(vi.vi_id)
        if channel is None:
            channel = ReliableChannel(self, vi)
            self._channels[vi.vi_id] = channel
        return channel

    def reliable_transmit(self, vi: VI, packets, route, descriptor):
        """Process: send ``packets`` (one message's fragments) through
        the VI's reliable channel.

        Each fragment waits for send-window room, gets the next
        sequence number, and is tracked for retransmission.  The
        descriptor completes when the *last* fragment is cumulatively
        ACKed (not at DMA fetch: under loss the buffer may be re-read
        for retransmission until then).
        """
        channel = self.channel_for(vi)
        last = len(packets) - 1
        for index, packet in enumerate(packets):
            yield from channel.admit()
            yield from channel.transmit(
                packet, route, descriptor if index == last else None,
            )

    def _apply_ack(self, packet: ViaPacket) -> None:
        vi = self.device.vis.get(packet.dst_vi)
        if vi is not None:
            self.channel_for(vi).process_ack(packet.ack)

    def _reliable_rx(self, packet: ViaPacket) -> bool:
        """Sequence-gate an arriving sequenced fragment."""
        vi = self.device.vis.get(packet.dst_vi)
        if vi is None:
            raise ViaError(
                f"node {self.device.rank}: sequenced frame for unknown "
                f"VI {packet.dst_vi}"
            )
        return self.channel_for(vi).rx_gate(packet)

    # ------------------------------------------------------------------
    # Receive dispatch — runs at interrupt level, CPU already held.
    # ------------------------------------------------------------------
    def handle_frame(self, frame: Frame, port: GigEPort,
                     paid_until: Optional[float] = None):
        """Generator: process one received frame (driver entry point).

        ``paid_until`` (fast path only) is the instant up to which the
        interrupt dispatcher's per-frame cost is owed but not yet slept.
        A frame folds that cost into its handler's first wait only if
        handling it touches no reliability state: a transit frame, or a
        payload fragment carrying neither a sequence number nor an ACK,
        on a fabric without node faults.  Every other frame pays here,
        so go-back-N and teardown run from the reference instants.
        """
        self.stats["frames"] += 1
        packet: ViaPacket = frame.payload
        rec = self.sim.recorder
        if rec is not None:
            ctx = packet.trace
            ready = getattr(frame, "rx_ready", None)
            if ctx is not None and ready is not None:
                # Coalescing + dispatch delay: rx DMA done to the
                # instant the handler's cost accrual starts (paid_until
                # is that instant when the dispatcher folded it).
                base = paid_until if paid_until is not None \
                    else self.sim._now
                rec.span(ctx, _IRQ_WAIT, port.name,
                         f"n{self.device.rank}", ready, base)
        try:
            device = self.device
            kind = packet.kind
            damaged = device.params.verify_checksums and (
                frame.corrupted or not packet.verify())
            transit = packet.dst_node != device.rank
            is_payload = (kind is PacketKind.DATA
                          or kind is PacketKind.RMA_WRITE)
            node_faults = self._node_faults_armed()
            if paid_until is not None and (
                    damaged or node_faults or not (
                        transit or (is_payload and packet.seq < 0
                                    and packet.ack < 0))):
                yield self.sim.sleep_until(paid_until)
                paid_until = None
            if damaged:
                # The Jlab driver change (section 4): every packet is
                # checksummed, so wire damage is detected and the frame
                # dropped rather than delivered as good data.
                self.stats["checksum_errors"] += 1
                self.stats["dropped_bad_checksum"] += 1
                return
            if node_faults and not self._inbound_alive(packet):
                # Node-fault teardown: a crashed node's NIC is silent
                # (it neither forwards, ACKs, nor accepts), and
                # survivors drop late traffic for VIs a death notice
                # already tore down.
                self.stats["dropped_dead"] += 1
                return
            if transit:
                try:
                    yield from self._forward(frame, packet, paid_until)
                except ViaError:
                    # Transit frame for a destination the node faults
                    # partitioned off: no live route, drop it.
                    self.stats["dropped_dead"] += 1
                return
            engine = device.kernel_collective
            if engine is not None and kind in engine.kinds:
                # Interrupt-level collective site: its own per-peer ARQ
                # gates these frames, not a VI channel's.
                yield from engine.handle_irq(packet)
                return
            if kind is PacketKind.ACK:
                # Explicit cumulative ACK: pure sender-side bookkeeping.
                self.stats["acks_received"] += 1
                self._apply_ack(packet)
                return
            if packet.ack >= 0:
                # Piggybacked cumulative ACK on reverse-direction data.
                self._apply_ack(packet)
            if packet.seq >= 0 and not self._reliable_rx(packet):
                # Duplicate or out-of-order fragment: dropped (and
                # re-ACKed) before any demux/copy cost is paid.
                return
            if is_payload:
                yield from self._handle_payload(packet, paid_until)
            elif kind is PacketKind.CONNECT:
                yield from self._handle_connect(packet)
            elif kind is PacketKind.ACCEPT:
                yield from self._handle_accept(packet)
            elif kind is PacketKind.DISCONNECT:
                yield from self._handle_disconnect(packet)
            elif kind is PacketKind.KEEPALIVE:
                self.stats["keepalives_received"] += 1
                if self._fd is not None:
                    self._fd.heard(packet.src_node)
            elif kind is PacketKind.DEADNOTICE:
                self.stats["dead_notices_received"] += 1
                dead_rank, reason = packet.payload
                self.on_peer_dead(dead_rank, f"notice: {reason}")
            elif (kind in KERNEL_COLLECTIVE_KINDS
                    or kind in NIC_COLLECTIVE_KINDS):
                # An offload-collective frame reached the generic host
                # rx path: a peer runs a collective site this node has
                # not enabled.  Fail loudly instead of silently eating
                # the frame and hanging the sender's collective.
                site = ("NIC" if kind in NIC_COLLECTIVE_KINDS
                        else "kernel")
                raise ViaError(
                    f"node {device.rank}: received {kind.value} frame "
                    f"but {site} collectives are not enabled on this "
                    f"node"
                )
        finally:
            # Recycle the ring descriptor this frame consumed.
            port.post_rx_descriptors(1)

    def _handle_payload(self, packet: ViaPacket,
                        paid_until: Optional[float] = None):
        """One DATA or RMA_WRITE fragment: demux, then the receive copy.

        On a commodity GigE adapter every incoming frame is DMA'd into
        the kernel ring buffers, so a two-sided send and a "remote DMA"
        write both pay M-VIA's single kernel copy into the user buffer
        or target region ("one memory copy on receiving").  What RMA
        eliminates is the *user-level* staging: no bounce buffer, no
        library copy, no receive-descriptor consumption except for the
        final notify.  The kind supplies the demux and what the last
        fragment finishes.
        """
        device = self.device
        sim = self.sim
        if packet.kind is PacketKind.DATA:
            self.stats["data_frames"] += 1
            demux = self._demux_data
        else:
            self.stats["rma_frames"] += 1
            demux = self._demux_rma
        nbytes = packet.payload_bytes if device.params.recv_copy else 0
        if sim._fast and nbytes and device.host.membus.setup:
            # Demux bookkeeping runs now instead of after the demux
            # timeout: the CPU is held at IRQ level for the whole
            # interrupt batch, so no other process can observe the
            # earlier mutation, and the copy joins the memory bus at
            # the reference path's exact instant.
            base = sim._now if paid_until is None else paid_until
            when = base + device.params.rx_demux_cost
            target = demux(packet)
            if target is None:
                yield sim.sleep_until(when)
                return
            yield device.host.copy_at(nbytes, when)
        else:
            if paid_until is not None:
                yield sim.sleep_until(paid_until)
            yield sim.timeout(device.params.rx_demux_cost)
            target = demux(packet)
            if target is None:
                return
            if nbytes:
                # Ring buffer -> user buffer, performed by the kernel
                # at interrupt level.
                yield from device.host.copy(nbytes, hold_cpu=False)
        self._finish(packet, *target)

    def _demux_data(self, packet: ViaPacket):
        """``(vi, None)``: per-fragment reassembly bookkeeping."""
        device = self.device
        vi = device.vis.get(packet.dst_vi)
        if vi is None:
            raise ViaError(
                f"node {device.rank}: DATA for unknown VI {packet.dst_vi}"
            )
        if packet.frag_index == 0:
            if vi._reassembly is not None:
                raise ViaError(f"{vi!r}: interleaved messages on one VI")
            try:
                descriptor: RecvDescriptor = vi.recv_queue.popleft()
            except IndexError:
                raise ViaDescriptorError(
                    f"{vi!r}: DATA arrived with empty receive queue "
                    "(flow control violated)"
                ) from None
            if packet.msg_bytes > descriptor.nbytes:
                raise TruncationError(
                    f"{vi!r}: message of {packet.msg_bytes} bytes into "
                    f"{descriptor.nbytes}-byte buffer"
                )
            vi._reassembly = [packet.msg_id, 0, descriptor]
        reassembly = vi._reassembly
        if reassembly is None or reassembly[0] != packet.msg_id:
            raise ViaError(f"{vi!r}: fragment for wrong message")
        if reassembly[1] != packet.frag_index:
            raise ViaError(
                f"{vi!r}: out-of-order fragment {packet.frag_index}, "
                f"expected {reassembly[1]}"
            )
        reassembly[1] += 1
        return vi, None

    def _demux_rma(self, packet: ViaPacket):
        """``(vi, landing region)``, or None for a stale frame once
        node faults are armed.

        A death notice tears down pending receives (deregistering their
        landing regions) while the matching RMA data can already be in
        flight; under node faults such a frame is dropped like any
        other traffic addressed to torn-down state, never an error.
        """
        device = self.device
        try:
            vi = device.vis.get(packet.dst_vi)
            if vi is None:
                raise ViaError(
                    f"node {device.rank}: RMA for unknown VI "
                    f"{packet.dst_vi}"
                )
            return vi, device.memory.find(
                packet.remote_addr, packet.payload_bytes, vi.tag,
                for_rma_write=True,
            )
        except ViaError:
            if not self._node_faults_armed():
                raise
            self.stats["dropped_dead"] += 1
            return None

    def _finish(self, packet: ViaPacket, vi: VI, region) -> None:
        """The message's last fragment completes the receive it
        consumed: the reassembly's descriptor for a two-sided send, a
        freshly popped one for an RMA write that asked for notify."""
        if packet.frag_index != packet.num_frags - 1:
            return
        if region is None:
            if vi._reassembly is None and vi.state is ViState.ERROR:
                # A death notice tore this VI down (draining the
                # in-progress reassembly) while the receive copy held
                # the irq process; the frame's work is already failed.
                self.stats["dropped_dead"] += 1
                return
            descriptor = vi._reassembly[2]
            vi._reassembly = None
        else:
            if packet.payload is not None:
                region.data = packet.payload
            if not packet.notify:
                return
            try:
                descriptor = vi.recv_queue.popleft()
            except IndexError:
                raise ViaDescriptorError(
                    f"{vi!r}: RMA notify with empty receive queue"
                ) from None
        descriptor.received_bytes = packet.msg_bytes
        descriptor.received_payload = packet.payload
        descriptor.received_immediate = packet.immediate
        if self.sim.recorder is not None:
            descriptor.trace = packet.trace
        vi.complete_recv(descriptor)

    def _handle_connect(self, packet: ViaPacket):
        self.stats["connects"] += 1
        yield self.sim.timeout(self.CONNECT_HANDLING_COST)
        discriminator = packet.payload
        try:
            accepted = self._accepted.get(
                (packet.src_node, packet.src_vi, discriminator)
            )
        except TypeError:
            accepted = None
        if accepted is not None:
            # Retransmitted CONNECT for a handshake we already
            # completed (our ACCEPT was lost): answer with a duplicate
            # ACCEPT, do not consume a listener.
            self.stats["dup_connects"] += 1
            yield from self.device.transmit_control(
                packet.src_node, PacketKind.ACCEPT,
                dst_vi=packet.src_vi, src_vi=accepted.vi_id,
            )
            return
        listener = self._listeners.pop(discriminator, None)
        if listener is None:
            early = self._early_connects.setdefault(discriminator, [])
            if any(p.src_node == packet.src_node
                   and p.src_vi == packet.src_vi for p in early):
                # Retransmitted CONNECT already queued.
                self.stats["dup_connects"] += 1
                return
            early.append(packet)
            return
        _vi, wake = listener
        wake.succeed(packet)

    def _handle_accept(self, packet: ViaPacket):
        yield self.sim.timeout(self.CONNECT_HANDLING_COST)
        wake = self._connectors.pop(packet.dst_vi, None)
        if wake is None:
            vi = self.device.vis.get(packet.dst_vi)
            if (vi is not None and vi.state is ViState.CONNECTED
                    and vi.peer == (packet.src_node, packet.src_vi)):
                # Duplicate ACCEPT (the peer answered a retransmitted
                # CONNECT): the handshake already completed, ignore.
                self.stats["dup_accepts"] += 1
                return
            raise ViaError(
                f"node {self.device.rank}: ACCEPT for VI {packet.dst_vi} "
                "with no pending connect"
            )
        wake.succeed((packet.src_node, packet.src_vi))

    def _handle_disconnect(self, packet: ViaPacket):
        yield self.sim.timeout(self.CONNECT_HANDLING_COST)
        vi = self.device.vis.get(packet.dst_vi)
        if vi is not None:
            vi.state = ViState.IDLE
            vi.peer = None

    # ------------------------------------------------------------------
    # The mesh packet switch.
    # ------------------------------------------------------------------
    def _forward(self, frame: Frame, packet: ViaPacket,
                 paid_until: Optional[float] = None):
        """Store-and-forward one transit frame at interrupt level."""
        self.stats["forwarded"] += 1
        device = self.device
        rec = self.sim.recorder
        if paid_until is not None:
            # Folds the dispatcher's per-frame cost: same instant as
            # sleeping to paid_until and then the forward timeout.
            t0 = paid_until
            yield self.sim.sleep_until(
                paid_until + device.params.switch_forward_cost
            )
        else:
            t0 = self.sim._now
            yield self.sim.timeout(device.params.switch_forward_cost)
        if rec is not None and packet.trace is not None:
            rec.span(packet.trace, _SWITCH_FORWARD, f"n{device.rank}",
                     f"n{device.rank}", t0, self.sim._now)
        if packet.route:
            # Source-routed (OPT scatter): take the named hop, then
            # consume it for downstream switches.
            port_index = packet.route[0]
            packet.route = packet.route[1:] or None
            egress = device.ports.get(port_index)
            if egress is None:
                raise ViaError(
                    f"node {device.rank}: source route names missing "
                    f"port {port_index}"
                )
        else:
            egress = device.egress_port(packet.dst_node, packet=packet)
        out = Frame(
            payload_bytes=frame.payload_bytes,
            header_bytes=frame.header_bytes,
            payload=packet,
            kind=frame.kind,
        )
        # Preserve ordering: once anything is backlogged, everything
        # queues behind it.
        if len(self._switch_backlog) > 0 or not egress.try_enqueue_tx(out):
            self.stats["backlogged"] += 1
            self._switch_backlog.push((out, egress))

    def _backlog_drain(self):
        """Kernel thread that drains switch frames blocked on full
        egress rings."""
        while True:
            frame, egress = yield self._switch_backlog.get()
            yield from egress.enqueue_tx(frame)

    # ------------------------------------------------------------------
    # Node-failure handling (engaged only with node faults configured).
    # ------------------------------------------------------------------
    def start_failure_detector(self, cluster) -> None:
        """Arm the keepalive failure detector (cluster builder hook)."""
        if self._fd is None:
            self._fd = _FailureDetector(self, cluster)

    def _node_faults_armed(self) -> bool:
        health = self.device._fabric_health
        return health is not None and getattr(health, "has_node_faults",
                                              False)

    def _inbound_alive(self, packet: ViaPacket) -> bool:
        """Under node faults: may this frame be processed, or is an
        endpoint torn down?

        False when this node has crashed (fail-stop: the NIC goes
        silent with it) or when the frame targets a local VI already
        moved to ERROR by a death notice.
        """
        if not self.device._fabric_health.node_alive(self.device.rank):
            return False
        if packet.dst_node == self.device.rank and packet.kind in (
                PacketKind.DATA, PacketKind.RMA_WRITE):
            vi = self.device.vis.get(packet.dst_vi)
            if vi is not None and vi.state is ViState.ERROR:
                return False
        return True

    def suspect(self, rank: int, reason: str) -> bool:
        """A whole retry budget burned on ``rank``: tell the detector.

        With the failure detector armed this is a death verdict for the
        node (True: the notice tears everything down); without it
        (plain link faults, PR 3 semantics) the caller keeps its own
        per-VI / per-collective error.
        """
        if self._fd is None:
            return False
        self._fd.suspect(rank, reason)
        return True

    def report_retry_exhausted(self, vi: VI) -> None:
        """Reliable-channel evidence against ``vi``'s peer node."""
        if vi.peer is not None:
            self.suspect(vi.peer[0], "retry budget exhausted")

    def on_peer_dead(self, dead_rank: int, reason: str = "declared dead"
                     ) -> None:
        """Local teardown for a remote node's death (idempotent).

        Every VI connected to the dead node moves to ERROR: unACKed
        sends and pre-posted receive buffers drain through the normal
        completion surfaces with ``DescriptorStatus.ERROR`` so blocked
        waits return, then the kernel collective engine and the
        registered death callbacks (messaging engine) get their turn.
        """
        if dead_rank in self._known_dead or dead_rank == self.device.rank:
            return
        self._known_dead.add(dead_rank)
        self.stats["peers_declared_dead"] += 1
        device = self.device
        for vi in list(device.vis.values()):
            if vi.peer is not None and vi.peer[0] == dead_rank:
                self._fail_vi(vi, ViaError(
                    f"{vi!r}: peer node {dead_rank} {reason}"
                ))
        engine = device.collective
        if engine is not None:
            engine.on_peer_dead(dead_rank, reason)
        for callback in list(self.death_callbacks):
            callback(dead_rank)

    def on_local_crash(self, reason: str = "node crashed") -> None:
        """Fail-stop teardown of this node's own endpoints.

        Run at the crash instant so the victim's pending operations
        surface errors at the victim too ("raises at every affected
        rank") instead of silently freezing.
        """
        device = self.device
        for vi in list(device.vis.values()):
            self._fail_vi(vi, ViaError(f"{vi!r}: local {reason}"))
        for vi_id in list(self._connectors):
            wake = self._connectors.pop(vi_id)
            vi = device.vis.get(vi_id)
            if vi is not None and vi.error is None:
                vi.error = ViaError(f"{vi!r}: local {reason}")
            wake.succeed(None)
        engine = device.collective
        if engine is not None:
            engine.on_local_crash(reason)
        for callback in list(self.death_callbacks):
            callback(device.rank)

    def _fail_vi(self, vi: VI, error: ViaError) -> None:
        """Move one VI to ERROR and drain both completion directions."""
        if vi.state is not ViState.ERROR:
            vi.state = ViState.ERROR
            vi.error = error
        channel = self._channels.get(vi.vi_id)
        if channel is not None:
            channel.fail_peer_dead(vi.error)
        while vi.recv_queue:
            descriptor = vi.recv_queue.popleft()
            self.stats["recv_drained"] += 1
            vi.fail_recv(descriptor)
        if vi._reassembly is not None:
            descriptor = vi._reassembly[2]
            vi._reassembly = None
            self.stats["recv_drained"] += 1
            vi.fail_recv(descriptor)

    def _send_control_safe(self, dst_node: int, kind: PacketKind,
                           payload=None):
        """Process: best-effort control frame; unreachable peers are
        dropped silently (keepalives and death gossip are datagrams)."""
        try:
            yield from self.device.transmit_control(
                dst_node, kind, dst_vi=0, src_vi=-1, payload=payload,
            )
        except ViaError:
            pass


class _FailureDetector:
    """Timeout-based failure detector over torus-neighbor keepalives.

    Each node heartbeats its distinct torus neighbors every
    ``fd_interval`` us; ``fd_timeout`` us of silence from a live
    neighbor is a death verdict.  Verdicts (from silence or from
    retry-budget exhaustion) update the mesh-wide alive-set on the
    cluster, tear down local endpoints, and gossip ``DEADNOTICE``
    frames along :func:`~repro.topology.routing.alive_path` routes so
    non-neighbors learn of the death with realistic propagation delay.
    """

    def __init__(self, agent: KernelAgent, cluster) -> None:
        self.agent = agent
        self.cluster = cluster
        self.device = agent.device
        self.sim = agent.sim
        self.interval = self.device.params.fd_interval
        self.timeout = self.device.params.fd_timeout
        rank = self.device.rank
        self.neighbor_ranks = sorted({
            neighbor for _d, neighbor in cluster.torus.neighbors(rank)
            if neighbor != rank
        })
        self.last_heard = {n: 0.0 for n in self.neighbor_ranks}
        self.sim.spawn(self._loop(), name=f"fd[{rank}]")

    def heard(self, rank: int) -> None:
        if rank in self.last_heard:
            self.last_heard[rank] = self.sim.now

    def suspect(self, rank: int, reason: str) -> None:
        """Out-of-band evidence (retry exhaustion) of a dead peer."""
        self._declare(rank, reason)

    def _declare(self, rank: int, reason: str) -> None:
        agent = self.agent
        if rank == self.device.rank or rank in agent._known_dead:
            return
        if not self.cluster.node_alive(self.device.rank):
            return  # a crashed node renders no verdicts
        self.cluster.declare_dead(rank, by=self.device.rank,
                                  reason=reason)
        agent.on_peer_dead(rank, f"declared dead ({reason})")
        # Gossip to every other live rank along alive paths; peers cut
        # off by the same failure are unreachable and dropped.
        for peer in self.cluster.alive_ranks():
            if peer == self.device.rank or peer == rank:
                continue
            agent.stats["dead_notices_sent"] += 1
            self.sim.spawn(
                agent._send_control_safe(
                    peer, PacketKind.DEADNOTICE, payload=(rank, reason),
                ),
                name=f"gossip[{self.device.rank}->{peer}]",
            )

    def _loop(self):
        sim = self.sim
        cluster = self.cluster
        agent = self.agent
        rank = self.device.rank
        now = sim.now
        for neighbor in self.neighbor_ranks:
            self.last_heard[neighbor] = now
        while cluster.node_alive(rank):
            # Deliberately consult only the agent's *local* death record
            # (_known_dead), never the cluster's god view: a crash
            # updates the global alive-set instantly, but survivors may
            # only learn of it through missing keepalives or gossip.
            for neighbor in self.neighbor_ranks:
                if neighbor in agent._known_dead:
                    continue
                agent.stats["keepalives_sent"] += 1
                sim.spawn(
                    agent._send_control_safe(
                        neighbor, PacketKind.KEEPALIVE,
                    ),
                    name=f"ka[{rank}->{neighbor}]",
                )
            yield sim.timeout(self.interval)
            if not cluster.node_alive(rank):
                return
            now = sim.now
            for neighbor in self.neighbor_ranks:
                silence = now - self.last_heard[neighbor]
                if (neighbor not in agent._known_dead
                        and silence > self.timeout):
                    self._declare(
                        neighbor, f"no keepalive for {silence:.0f}us",
                    )
