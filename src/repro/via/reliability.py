"""Per-VI reliable-delivery channels: go-back-N over the lossy mesh.

The modified M-VIA's checksums (section 4) only give *detection* — a
damaged frame is dropped, and without recovery the message is gone.
This module supplies the recovery half, in the style of the go-back-N
retransmission the related PM/Ethernet and APENet clusters layered
over their unreliable mesh links:

* every DATA/RMA fragment carries a per-VI sequence number
  (:attr:`~repro.via.packet.ViaPacket.seq`);
* the sender keeps a bounded window of unacknowledged fragments, with
  a retransmission timer and exponential backoff; a bounded budget of
  consecutive timeouts without progress transitions the VI to ERROR
  and fails its pending sends (the VIA error surface);
* the receiver delivers strictly in order: duplicates and
  out-of-order fragments are dropped (and re-ACKed), so the existing
  reassembly machinery sees exactly the lossless frame stream;
* ACKs are cumulative, delayed (every ``rel_ack_every`` frames or
  ``rel_ack_delay`` us), and piggybacked on reverse-direction data
  (:attr:`~repro.via.packet.ViaPacket.ack`).

Channels live in the node's :class:`~repro.via.kernel_agent.KernelAgent`
(one per local VI) and hold both the transmit state for the VI's
outgoing sequence space and the receive state for frames addressed to
it.  All timer and ACK scheduling uses the deterministic simulation
clock, so a given fault seed reproduces the identical recovery
schedule on every run.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, TYPE_CHECKING

from repro.errors import ViaError
from repro.hw.link import Frame
from repro.obs.recorder import ACK as _ACK, \
    DESC_QUEUED as _DESC_QUEUED, RETRANSMIT as _RETRANSMIT, \
    TIMEOUT as _TIMEOUT
from repro.sim.events import Callback
from repro.via.packet import PacketKind, ViaPacket
from repro.via.vi import ViState

if TYPE_CHECKING:  # pragma: no cover
    from repro.via.kernel_agent import KernelAgent
    from repro.via.descriptors import Descriptor
    from repro.via.vi import VI


class _SendEntry:
    """One unacknowledged fragment: pristine packet template plus the
    route and descriptor needed to rebuild a wire copy per attempt."""

    __slots__ = ("seq", "packet", "route", "descriptor")

    def __init__(self, seq: int, packet: ViaPacket,
                 route: Optional[tuple],
                 descriptor: Optional["Descriptor"]) -> None:
        self.seq = seq
        self.packet = packet
        #: Full source route (first hop included) of the original
        #: attempt; retransmissions under a dead-link fabric drop it
        #: and let fault-aware routing find a live path.
        self.route = route
        #: Completed (or failed) when this entry's seq is cumulatively
        #: ACKed; only the final fragment of a message carries one.
        self.descriptor = descriptor


class ReliableChannel:
    """Reliable-delivery state of one VI (both directions)."""

    def __init__(self, agent: "KernelAgent", vi: "VI") -> None:
        self.agent = agent
        self.vi = vi
        self.sim = agent.sim
        self.params = agent.device.params
        # -- transmit side -------------------------------------------------
        self.next_seq = 0
        self.unacked: deque = deque()
        self.rto = self.params.rel_rto
        #: Consecutive timeouts without cumulative-ACK progress.
        self.retries = 0
        self._deadline = 0.0
        self._timer_running = False
        self._window_waiters: list = []
        # -- receive side --------------------------------------------------
        #: Next in-order sequence number expected from the peer.
        self.rx_expected = 0
        self._pending_ack = 0
        self._ack_gen = 0
        self._ack_armed = False
        self.stats = {
            "retransmits": 0, "timeouts": 0, "dup_frames": 0,
            "ooo_dropped": 0, "acks_sent": 0, "max_retry_streak": 0,
        }

    # ------------------------------------------------------------------
    # Transmit side.
    # ------------------------------------------------------------------
    def admit(self):
        """Process: block until the send window has room."""
        while len(self.unacked) >= self.params.rel_window:
            self._check_error()
            waiter = self.sim.event(name=f"relwin:{self.vi.vi_id}")
            self._window_waiters.append(waiter)
            yield waiter
        self._check_error()

    def _check_error(self) -> None:
        if self.vi.state is ViState.ERROR:
            raise self.vi.error or ViaError(
                f"{self.vi!r}: reliable channel failed"
            )

    def transmit(self, packet: ViaPacket, route: Optional[tuple],
                 descriptor: Optional["Descriptor"]):
        """Process: sequence, track, and enqueue one fragment."""
        packet.seq = self.next_seq
        self.next_seq += 1
        entry = _SendEntry(packet.seq, packet, route, descriptor)
        self.unacked.append(entry)
        rec = self.sim.recorder
        if rec is not None:
            rank = self.agent.device.rank
            if packet.trace is not None:
                rec.event(packet.trace, _DESC_QUEUED,
                          f"vi{self.vi.vi_id} seq{packet.seq}",
                          f"n{rank}", self.sim.now)
            rec.metrics.observe(
                f"window:n{rank}-vi{self.vi.vi_id}", self.sim.now,
                float(len(self.unacked)),
            )
        yield from self._send_entry(entry, route)
        self._ensure_timer()

    def _send_entry(self, entry: _SendEntry, route: Optional[tuple]):
        """Process: put one wire copy of ``entry`` on the egress ring."""
        device = self.agent.device
        packet = entry.packet.clone()
        packet.route = route[1:] if route else None
        packet.ack = self.rx_expected - 1
        packet.seal()
        # Piggybacked ACK information: anything delivered so far is
        # now acknowledged, so the delayed-ACK timer can stand down.
        self._note_ack_carried()
        frame = Frame(
            payload_bytes=packet.payload_bytes,
            header_bytes=device.params.header_bytes,
            payload=packet,
            kind=packet.kind.frame_label,
        )
        if route:
            port = device.ports.get(route[0])
            if port is None:
                raise ViaError(
                    f"node {device.rank}: route starts on missing "
                    f"port {route[0]}"
                )
        else:
            peer_node, _peer_vi = self.vi.peer
            try:
                port = device.egress_port(peer_node, packet=packet)
            except ViaError:
                # No live route (the peer's node died and took every
                # path with it): drop this attempt.  Either a later
                # retry finds a route or the failure detector tears
                # the VI down and fails the pending sends.
                return
        yield from port.enqueue_tx(frame)

    # -- retransmission timer ----------------------------------------------
    def _ensure_timer(self) -> None:
        if not self._timer_running and self.unacked:
            self._timer_running = True
            self._deadline = self.sim.now + self.rto
            self.sim.spawn(
                self._timer_loop(),
                name=f"rel-rto[{self.agent.device.rank}:{self.vi.vi_id}]",
            )

    def _timer_loop(self):
        params = self.params
        agent = self.agent
        while self.unacked:
            if self.sim.now < self._deadline:
                yield self.sim.sleep_until(self._deadline)
                continue
            # The timer expired with fragments still unacknowledged.
            self.retries += 1
            if self.retries > self.stats["max_retry_streak"]:
                self.stats["max_retry_streak"] = self.retries
            self.stats["timeouts"] += 1
            agent.stats["timeouts"] += 1
            rec = self.sim.recorder
            if rec is not None and self.unacked:
                head = self.unacked[0].packet
                if head.trace is not None:
                    rec.event(head.trace, _TIMEOUT,
                              f"vi{self.vi.vi_id} rto{self.retries}",
                              f"n{agent.device.rank}", self.sim.now)
            if self.retries > params.rel_max_retries:
                self._fail()
                break
            self.rto = min(self.rto * params.rel_rto_backoff,
                           params.rel_rto_max)
            self._deadline = self.sim.now + self.rto
            # Go-back-N: resend the whole outstanding window.  Snapshot
            # first — ACKs may arrive while the resends queue.
            batch = list(self.unacked)
            self.stats["retransmits"] += len(batch)
            agent.stats["retransmits"] += len(batch)
            if rec is not None:
                for entry in batch:
                    if entry.packet.trace is not None:
                        rec.event(entry.packet.trace, _RETRANSMIT,
                                  f"vi{self.vi.vi_id} seq{entry.seq}",
                                  f"n{agent.device.rank}", self.sim.now)
            dead_fabric = agent.device.fabric_degraded()
            for entry in batch:
                # Under a degraded fabric the original source route may
                # cross a dead link; fall back to fault-aware routing.
                route = None if dead_fabric else entry.route
                yield from self._send_entry(entry, route)
        self._timer_running = False

    def _fail(self) -> None:
        """Retry budget exhausted: surface a VIA error on the VI."""
        vi = self.vi
        self.agent.stats["rel_failures"] += 1
        self.fail_peer_dead(ViaError(
            f"{vi!r}: reliable delivery failed after "
            f"{self.params.rel_max_retries} retransmission timeouts "
            f"(seq {self.unacked[0].seq if self.unacked else '?'} "
            f"unacknowledged)"
        ))
        # A whole retry budget burned without one ACK is strong
        # evidence the peer is gone — hand it to the failure detector
        # (a no-op unless the cluster carries node faults).
        self.agent.report_retry_exhausted(vi)

    def fail_peer_dead(self, error: ViaError) -> None:
        """Tear down the transmit side: the peer is (as good as) dead.

        Unacknowledged sends fail through the normal completion path
        (``DescriptorStatus.ERROR``) and window waiters wake into
        ``_check_error`` so blocked senders raise instead of hanging.
        """
        vi = self.vi
        if vi.state is not ViState.ERROR:
            vi.state = ViState.ERROR
            vi.error = error
        while self.unacked:
            entry = self.unacked.popleft()
            if entry.descriptor is not None:
                vi.fail_send(entry.descriptor)
        self._wake_window_waiters()

    def _wake_window_waiters(self) -> None:
        waiters, self._window_waiters = self._window_waiters, []
        for waiter in waiters:
            waiter.succeed()

    # -- ACK processing ------------------------------------------------------
    def process_ack(self, ack: int) -> None:
        """Cumulative ACK: retire entries, complete descriptors."""
        progressed = False
        vi = self.vi
        rec = self.sim.recorder
        while self.unacked and self.unacked[0].seq <= ack:
            entry = self.unacked.popleft()
            progressed = True
            if rec is not None and entry.packet.trace is not None:
                rec.event(entry.packet.trace, _ACK,
                          f"vi{vi.vi_id} seq{entry.seq}",
                          f"n{self.agent.device.rank}", self.sim.now)
            if entry.descriptor is not None:
                vi.complete_send(entry.descriptor)
        if progressed:
            self.retries = 0
            self.rto = self.params.rel_rto
            self._deadline = self.sim.now + self.rto
            self._wake_window_waiters()

    # ------------------------------------------------------------------
    # Receive side.
    # ------------------------------------------------------------------
    def rx_gate(self, packet: ViaPacket) -> bool:
        """Sequence check for an arriving fragment.

        Returns True when the fragment is the next in order and should
        be delivered; duplicates and out-of-order fragments are
        dropped (go-back-N keeps no reorder buffer) and re-ACKed so
        the sender resynchronizes.
        """
        agent = self.agent
        if packet.seq == self.rx_expected:
            self.rx_expected += 1
            self._pending_ack += 1
            if self._pending_ack >= self.params.rel_ack_every:
                self._send_ack_now()
            elif not self._ack_armed:
                self._ack_armed = True
                gen = self._ack_gen
                Callback(self.sim,
                         lambda: self._ack_timer_fired(gen),
                         delay=self.params.rel_ack_delay)
            return True
        if packet.seq < self.rx_expected:
            self.stats["dup_frames"] += 1
            agent.stats["dup_frames"] += 1
        else:
            self.stats["ooo_dropped"] += 1
            agent.stats["ooo_dropped"] += 1
        # Re-ACK immediately: a gap or duplicate means the sender is
        # (or soon will be) retransmitting; the cumulative ACK tells it
        # exactly where to resume.
        self._send_ack_now()
        return False

    def _ack_timer_fired(self, gen: int) -> None:
        if gen != self._ack_gen:
            return
        self._ack_armed = False
        if self._pending_ack > 0:
            self._send_ack_now()

    def _note_ack_carried(self) -> None:
        """A piggybacked ACK went out; cancel the delayed-ACK timer."""
        if self._pending_ack or self._ack_armed:
            self._pending_ack = 0
            self._ack_gen += 1
            self._ack_armed = False

    def _send_ack_now(self) -> None:
        self._pending_ack = 0
        self._ack_gen += 1
        self._ack_armed = False
        self.stats["acks_sent"] += 1
        self.agent.stats["acks_sent"] += 1
        self.sim.spawn(
            self._ack_process(),
            name=f"rel-ack[{self.agent.device.rank}:{self.vi.vi_id}]",
        )

    def _ack_process(self):
        """Process: transmit one explicit cumulative-ACK packet."""
        device = self.agent.device
        vi = self.vi
        if vi.peer is None:  # pragma: no cover - defensive
            return
        peer_node, peer_vi = vi.peer
        packet = ViaPacket(
            kind=PacketKind.ACK,
            src_node=device.rank,
            dst_node=peer_node,
            dst_vi=peer_vi,
            src_vi=vi.vi_id,
            msg_id=device.next_msg_id(),
            payload_bytes=0,
            ack=self.rx_expected - 1,
        ).seal()
        frame = Frame(0, device.params.header_bytes, payload=packet,
                      kind=packet.kind.frame_label)
        try:
            port = device.egress_port(peer_node, packet=packet)
        except ViaError:
            # ACK to an unreachable peer: nothing to acknowledge to.
            return
        yield from port.enqueue_tx(frame)
