"""Per-VI reliable-delivery channels: selective repeat over the mesh,
and the one retransmission timer every recovery path runs.

The modified M-VIA's checksums (section 4) only give *detection* — a
damaged frame is dropped.  This module supplies the recovery half.  A
VI's path is FIFO, so a sequence gap *is* a loss, and a channel
repeats only what was lost:

* every DATA/RMA fragment carries a per-VI sequence number
  (:attr:`~repro.via.packet.ViaPacket.seq`); the sender keeps a
  bounded window of the unacknowledged ones;
* the receiver holds fragments past a gap (at most a window of them)
  and sends **one** NACK per gap (an ACK whose ``seq`` names the
  missing fragment); the sender resends just that fragment;
* the fragment that fills a gap releases the held run behind it, so
  reassembly sees the lossless frame stream; duplicates (held ones
  included) are dropped and re-ACKed;
* ACKs are cumulative, delayed (every ``rel_ack_every`` frames or
  ``rel_ack_delay`` us), piggybacked on reverse data, and read when
  the NIC fetches their frame (its ``on_fetched`` hook);
* an :class:`RtoTimer` expiry resends the window's head; a spent
  budget moves the VI to ERROR, fails its pending sends and, under
  node faults, hands the peer to ``Liveness.suspect``.  The CONNECT handshake and the
  offload collectives' waiting ranks run the same timer: only what an
  expiry resends (or asks) and what a spent budget fails differ.

Channels live in the node's :class:`~repro.via.kernel_agent.KernelAgent`
(one per local VI, both directions).  Every timer runs on the
simulation clock, so a fault seed reproduces its recovery schedule.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, TYPE_CHECKING

from repro.errors import ViaError
from repro.hw.link import Frame
from repro.obs import ACK as _ACK, \
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


class RtoTimer:
    """The one retransmission timer (of a VI, a CONNECT or an asked offload
    peer).  :meth:`start` arms a full ``rel_rto`` unless armed (RFC 6298
    5.1); ACK :meth:`progress` resets backoff and budget and restarts a
    full RTO, or disarms if nothing is left; :meth:`stop` disarms.  An
    expiry backs off (``rel_rto_backoff``, capped at ``rel_rto_max``)
    and runs ``on_expire`` and any generator it returns; expiry
    ``rel_max_retries + 1`` runs ``on_exhausted`` instead.  Each arming
    spawns a process; a disarmed one exits when it wakes."""

    __slots__ = ("sim", "params", "on_expire", "on_exhausted", "name",
                 "rto", "retries", "deadline", "armed", "_epoch")

    def __init__(self, sim, params, on_expire, on_exhausted, name):
        self.sim = sim
        self.params = params
        self.on_expire = on_expire
        self.on_exhausted = on_exhausted
        self.name = name
        self.rto = params.rel_rto
        #: Consecutive expiries without progress.
        self.retries = 0
        self.armed = False
        self._epoch = 0

    def start(self) -> None:
        if not self.armed:
            self.armed = True
            self.deadline = self.sim.now + self.rto
            self._epoch += 1
            self.sim.spawn(self._run(self._epoch), name=self.name)

    def progress(self, idle: bool) -> None:
        self.retries = 0
        self.rto = self.params.rel_rto
        self.deadline = self.sim.now + self.rto
        self.armed = self.armed and not idle

    def stop(self) -> None:
        self.armed = False

    def _run(self, epoch: int):
        sim, params = self.sim, self.params
        while self.armed and epoch == self._epoch:
            if sim.now < self.deadline:
                yield sim.sleep_until(self.deadline)
                continue
            self.retries += 1
            if self.retries > params.rel_max_retries:
                self.armed = False
                self.on_exhausted()
                break
            self.rto = min(self.rto * params.rel_rto_backoff,
                           params.rel_rto_max)
            self.deadline = sim.now + self.rto
            resend = self.on_expire()
            if resend is not None:
                yield from resend


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
        self.timer = RtoTimer(
            self.sim, self.params, self._expire, self._fail,
            f"rel-rto[{agent.device.rank}:{vi.vi_id}]")
        self._window_waiters: list = []
        # -- receive side --------------------------------------------------
        #: Next in-order sequence number expected from the peer.
        self.rx_expected = 0
        #: seq -> fragment that arrived past the gap at ``rx_expected``.
        #: The gap has been NACKed exactly when this is non-empty.
        self.held: dict = {}
        self._pending_ack = 0
        self._ack_gen = 0
        self._ack_armed = False
        self.stats = {
            "retransmits": 0, "nack_resends": 0, "timeouts": 0,
            "dup_frames": 0, "held": 0, "acks_sent": 0, "nacks_sent": 0,
            "max_retry_streak": 0,
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
        if rec is not None and packet.trace is not None:
            rec.event(packet.trace, _DESC_QUEUED,
                      f"vi{self.vi.vi_id} seq{packet.seq}",
                      f"n{self.agent.device.rank}", self.sim.now)
        yield from self._send_entry(entry, route)
        if self.unacked:  # not if a teardown emptied it meanwhile
            self.timer.start()

    def _send_entry(self, entry: _SendEntry, route: Optional[tuple]):
        """Process: put one wire copy of ``entry`` on the egress ring."""
        device = self.agent.device
        packet = entry.packet.clone()
        packet.route = route[1:] if route else None
        frame = Frame(
            payload_bytes=packet.payload_bytes,
            header_bytes=device.params.header_bytes,
            payload=packet,
            kind=packet.kind.frame_label,
            on_fetched=lambda: self._stamp(packet),
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
    def _timeout(self) -> None:
        """Count one RTO expiry (the budget's last one included)."""
        retries = self.timer.retries
        stats = self.stats
        stats["max_retry_streak"] = max(stats["max_retry_streak"], retries)
        stats["timeouts"] += 1
        self.agent.stats["timeouts"] += 1
        head = self.unacked[0].packet
        if self.sim.recorder is not None and head.trace is not None:
            self.sim.recorder.event(
                head.trace, _TIMEOUT, f"vi{self.vi.vi_id} rto{retries}",
                f"n{self.agent.device.rank}", self.sim.now)

    def _expire(self):
        """Resend only the head: the receiver holds what followed it."""
        self._timeout()
        return self._retransmit(self.unacked[0])

    def _retransmit(self, entry: _SendEntry):
        """Process: put one more wire copy of ``entry`` on the ring."""
        agent = self.agent
        self.stats["retransmits"] += 1
        agent.stats["retransmits"] += 1
        rec = self.sim.recorder
        if rec is not None and entry.packet.trace is not None:
            rec.event(entry.packet.trace, _RETRANSMIT,
                      f"vi{self.vi.vi_id} seq{entry.seq}",
                      f"n{agent.device.rank}", self.sim.now)
        # Under a degraded fabric the original source route may cross
        # a dead link; fall back to fault-aware routing.
        yield from self._send_entry(
            entry, None if agent.device.fabric_degraded() else entry.route)

    def _fail(self) -> None:
        """Retry budget exhausted: surface a VIA error on the VI."""
        self._timeout()
        vi = self.vi
        self.agent.stats["rel_failures"] += 1
        self.fail_peer_dead(ViaError(
            f"{vi!r}: reliable delivery failed after "
            f"{self.params.rel_max_retries} retransmission timeouts "
            f"(seq {self.unacked[0].seq} unacknowledged)"
        ))
        # A whole retry budget burned without one ACK is strong
        # evidence the peer is gone: under node faults, a verdict.
        live = self.agent.device.liveness
        if live is not None:
            live.suspect(vi.peer[0], "retry budget exhausted")

    def fail_peer_dead(self, error: ViaError) -> None:
        """Tear down the transmit side: the peer is (as good as) dead.

        Unacknowledged sends fail through the normal completion path
        (``DescriptorStatus.ERROR``) and window waiters wake into
        ``_check_error`` so blocked senders raise instead of hanging.
        Held fragments are dropped: a dead peer's data is never
        delivered later.
        """
        vi = self.vi
        if vi.state is not ViState.ERROR:
            vi.state = ViState.ERROR
            vi.error = error
        self.held.clear()
        self.timer.stop()
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
    def process_ack(self, ack: int, nack: int = -1) -> None:
        """Cumulative ACK: retire entries, complete descriptors; then
        resend the head alone if ``nack`` names it."""
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
            self.timer.progress(not self.unacked)
            self._wake_window_waiters()
        if nack >= 0 and self.unacked and self.unacked[0].seq == nack:
            self.stats["nack_resends"] += 1
            self.sim.spawn(
                self._retransmit(self.unacked[0]),
                name=f"rel-nack[{self.agent.device.rank}:{vi.vi_id}]",
            )

    # ------------------------------------------------------------------
    # Receive side.
    # ------------------------------------------------------------------
    def rx_gate(self, packet: ViaPacket) -> bool:
        """Sequence check for an arriving fragment.

        Returns True when the fragment is the next in order and should
        be delivered, after which the caller drains :meth:`release`.
        A fragment past the gap (within a window of it) is held, and
        the first one held NACKs the gap.  A duplicate, held or
        delivered, is dropped and re-ACKed at once.
        """
        agent = self.agent
        seq = packet.seq
        if seq == self.rx_expected:
            self._deliver()
            return True
        if seq < self.rx_expected or seq in self.held:
            self.stats["dup_frames"] += 1
            agent.stats["dup_frames"] += 1
            self._send_ack_now()
        elif seq - self.rx_expected < self.params.rel_window:
            if not self.held:
                self._send_ack_now(nack=self.rx_expected)
            self.held[seq] = packet
            self.stats["held"] += 1
            agent.stats["held"] += 1
        return False

    def release(self) -> Optional[ViaPacket]:
        """The held fragment next in order, now delivered, or None.

        Called after each in-order delivery.  When the run behind a
        filled gap ends at another gap, that gap is NACKed once here.
        """
        held = self.held
        if not held:
            return None
        packet = held.pop(self.rx_expected, None)
        if packet is None:
            self._send_ack_now(nack=self.rx_expected)
            return None
        self._deliver()
        return packet

    def _deliver(self) -> None:
        """Advance past one in-order fragment; ACK now or arm the
        delayed-ACK timer."""
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

    def _ack_timer_fired(self, gen: int) -> None:
        if gen != self._ack_gen:
            return
        self._ack_armed = False
        if self._pending_ack > 0:
            self._send_ack_now()

    def _stamp(self, packet: ViaPacket) -> None:
        """``on_fetched`` hook of every frame this channel sends.

        The cumulative ACK is read when the NIC fetches the frame, not
        when it enqueues: a frame can wait in the transmit ring behind
        a long reverse burst, and an ACK stamped at enqueue would leave
        stale.  The ACK is a checksummed header field, so re-seal.
        """
        packet.ack = self.rx_expected - 1
        packet.seal()
        self._note_ack_carried()

    def _note_ack_carried(self) -> None:
        """An ACK-carrying frame left; cancel the delayed-ACK timer."""
        if self._pending_ack or self._ack_armed:
            self._pending_ack = 0
            self._ack_gen += 1
            self._ack_armed = False

    def _send_ack_now(self, nack: int = -1) -> None:
        self._pending_ack = 0
        self._ack_gen += 1
        self._ack_armed = False
        self.stats["acks_sent"] += 1
        self.agent.stats["acks_sent"] += 1
        if nack >= 0:
            self.stats["nacks_sent"] += 1
            self.agent.stats["nacks_sent"] += 1
        self.sim.spawn(
            self._ack_process(nack),
            name=f"rel-ack[{self.agent.device.rank}:{self.vi.vi_id}]",
        )

    def _ack_process(self, nack: int):
        """Process: transmit one explicit cumulative ACK (a NACK)."""
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
            seq=nack,
        )
        frame = Frame(0, device.params.header_bytes, payload=packet,
                      kind=packet.kind.frame_label,
                      on_fetched=lambda: self._stamp(packet))
        try:
            port = device.egress_port(peer_node, packet=packet)
        except ViaError:
            # ACK to an unreachable peer: nothing to acknowledge to.
            return
        yield from port.enqueue_tx(frame)
