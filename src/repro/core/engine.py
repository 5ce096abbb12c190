"""The per-node progress engine: protocols, matching, rendezvous.

One :class:`MessagingEngine` runs on each node.  It owns the channels,
the posted-receive and unexpected-message queues, and a progress
process that drains the node's VIA receive completion queue.  MPI
(:mod:`repro.mpi`) and QMP (:mod:`repro.qmp`) are thin facades over
this engine — the paper's design exactly ("both systems are derived
from a common core").

Protocol summary (paper section 5.1):

* eager (< 16 KB): sender copies into a bounce buffer, VIA send; the
  send request completes as soon as the copy is staged (user buffer
  reusable).  Receiver matches at the library level and pays one more
  copy bounce -> user buffer.
* rendezvous RMA (>= 16 KB): receiver advertises its (registered)
  buffer to the expected sender when it posts the receive — the
  *sender-side matching* technique [Tatebe et al.] — so a send that
  finds an advert issues the zero-copy remote write immediately.  A
  send with no advert yet sends a small RTS; the receiver answers with
  the advert once a matching receive is posted (this path also covers
  MPI_ANY_SOURCE receives).  The RMA write carries remote completion
  (notify), which consumes one pre-posted descriptor, so it also costs
  one data token.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.core.channel import Channel
from repro.core.matching import MatchQueue, match
from repro.core.message import (
    ANY_SOURCE,
    ANY_TAG,
    CoreParams,
    Envelope,
    MsgType,
    RecvRequest,
    SendRequest,
)
from repro.errors import (
    MessagingError,
    MpiError,
    MpiProcFailed,
    MpiRevoked,
    ViaError,
)
from repro.hw.node import PRIO_USER
from repro.obs import API_CALL as _API_CALL
from repro.sim import Event
from repro.via.descriptors import (
    RecvDescriptor,
    RmaWriteDescriptor,
    SendDescriptor,
)
from repro.via.device import ViaDevice


class ConnectionManager:
    """Out-of-band channel coordination (the real system bootstrapped
    connections over a TCP service at MPI_Init time)."""

    def __init__(self) -> None:
        self.engines: Dict[int, "MessagingEngine"] = {}
        #: Revoked communicator contexts (ULFM MPI_Comm_revoke),
        #: context -> epoch at revocation.  Revocation rides the same
        #: out-of-band control plane as the bootstrap notifications, so
        #: it reaches every engine even when the fabric is broken.
        self.revoked: Dict[int, int] = {}
        #: Fault-tolerant agreement deposits (ULFM MPI_Comm_agree):
        #: (context, seq) -> (flag, survivors).  Written exactly once
        #: per agreement, by the first tree root to decide; every
        #: participant that completes returns the deposited value, so
        #: the result is uniform no matter how many roots die mid-way.
        self.agreements: Dict = {}

    def register(self, engine: "MessagingEngine") -> None:
        self.engines[engine.rank] = engine

    def notify(self, from_rank: int, to_rank: int) -> None:
        """Ask ``to_rank``'s engine to open its side of a channel."""
        peer = self.engines.get(to_rank)
        if peer is None:
            raise MessagingError(f"no engine registered for rank {to_rank}")
        peer.open_channel_from(from_rank)

    def revoke(self, context: int, epoch: int) -> None:
        """Propagate a communicator revocation to every engine."""
        if context in self.revoked:
            return
        self.revoked[context] = epoch
        for engine in self.engines.values():
            engine.revoke_context(context)

    def deposit_agreement(self, key, flag: bool, survivors) -> tuple:
        """Record (first-writer-wins) one agreement's decision.

        Returns the authoritative ``(flag, survivors)``.  On a fresh
        deposit every engine's pending traffic for this agreement is
        kicked: the decision is final, so participants still blocked in
        the message protocol re-check the registry instead of waiting
        for peers that may never send.
        """
        existing = self.agreements.get(key)
        if existing is not None:
            return existing
        decision = (flag, tuple(survivors))
        self.agreements[key] = decision
        context, seq = key
        ft_context = -2 * context - 2
        for engine in self.engines.values():
            engine.kick_agreement(ft_context, key)
        return decision


class MessagingEngine:
    """The messaging core instance of one node."""

    def __init__(self, device: ViaDevice, manager: ConnectionManager,
                 params: Optional[CoreParams] = None) -> None:
        self.device = device
        self.sim = device.sim
        self.rank = device.rank
        self.manager = manager
        self.params = params or CoreParams()
        self.ptag = device.create_protection_tag()
        self.recv_cq = device.create_cq(name=f"core-rcq[{self.rank}]")
        #: peer rank -> Channel, or a pending Event during handshake.
        self.channels: Dict[int, Union[Channel, Event]] = {}
        self._vi_to_channel: Dict[int, Channel] = {}
        self.posted = MatchQueue()
        self.unexpected = MatchQueue()
        #: Blocked MPI_Probe callers, woken on unexpected arrivals.
        self._probe_waiters: list = []
        #: recv_id -> RecvRequest with an outstanding advert.
        self.rendezvous_recvs: Dict[int, RecvRequest] = {}
        #: Orphaned RMA payloads (advert consumed by a stale receiver
        #: state); they re-enter matching as unexpected messages.
        self.stats = {"sends": 0, "recvs": 0, "eager_sent": 0,
                      "rma_sent": 0, "rts_sent": 0, "adverts_sent": 0,
                      "unexpected": 0, "orphaned_rma": 0,
                      "failed_requests": 0, "errored_completions": 0}
        #: Diagnostics back-reference (hang reports walk
        #: device -> engine -> pending_requests()).
        device.engine = self
        #: The node-fault owner (:class:`~repro.via.liveness.Liveness`):
        #: fault-tolerance mode is on exactly when it exists.  Off, the
        #: engine does zero extra work per request and produces
        #: bit-identical event traces.
        self.liveness = device.liveness
        #: In-flight requests, tracked only in FT mode so a death
        #: notice can fail exactly the doomed ones.
        self._pending: set = set()
        #: Communicator contexts revoked via the connection manager.
        self.revoked: set = set()
        manager.register(self)
        self.sim.spawn(self._progress(), name=f"engine[{self.rank}]")

    # ------------------------------------------------------------------
    # Channel management.
    # ------------------------------------------------------------------
    def ensure_channel(self, peer: int):
        """Process: the channel to ``peer``, creating it if needed."""
        if peer == self.rank:
            raise MessagingError(f"rank {self.rank}: self-channel")
        live = self.liveness
        if live is not None and peer in live.dead:
            raise MpiProcFailed(
                f"rank {self.rank}: channel to failed rank {peer}",
                dead_rank=peer,
            )
        existing = self.channels.get(peer)
        if isinstance(existing, Channel):
            return existing
        if existing is not None:
            yield existing
            return self.channels[peer]
        pending = self.sim.event(name=f"chan{self.rank}-{peer}")
        self.channels[peer] = pending
        self.manager.notify(self.rank, peer)
        channel = Channel(self, peer)
        self._vi_to_channel[channel.data_vi.vi_id] = channel
        self._vi_to_channel[channel.ctrl_vi.vi_id] = channel
        try:
            yield from channel.connect(active=self.rank < peer)
        except (ViaError, MessagingError, MpiError) as exc:
            # Handshake failed (peer dead, fabric partitioned).  The
            # failed event stays as a tombstone: later callers yield it
            # and raise instead of re-dialing a dead peer.
            if not pending.triggered:
                pending.fail(exc)
            raise
        self.channels[peer] = channel
        if not pending.triggered:
            pending.succeed()
        return channel

    def open_channel_from(self, peer: int) -> None:
        """Manager callback: open our side of a peer-initiated channel."""
        if peer not in self.channels:
            self.sim.spawn(self._accept_channel(peer),
                           name=f"accept[{self.rank}<-{peer}]")

    def _accept_channel(self, peer: int):
        """Process shell: accept with no waiter to throw into.

        The peer can die between dialing us and our ACCEPT going out;
        the tombstoned channel event already records the failure for
        anyone who later wants this peer, so the accept itself just
        stops.
        """
        try:
            yield from self.ensure_channel(peer)
        except (ViaError, MessagingError, MpiError):
            if self.liveness is None:
                raise

    # ------------------------------------------------------------------
    # Public nonblocking API (used by the MPI and QMP facades).
    # ------------------------------------------------------------------
    def isend(self, dst: int, tag: int, context: int, nbytes: int,
              data=None, route=None, synchronous: bool = False,
              pack_bytes: int = 0) -> SendRequest:
        """Start a send; returns immediately with the request handle.

        ``route`` is an explicit source route (egress port per hop,
        first hop included) that the kernel switch follows instead of
        SDF — the OPT scatter's region-constrained paths use it.
        ``synchronous`` gives MPI_Ssend semantics: the request only
        completes once the receiver has matched (always rendezvous).
        """
        request = SendRequest(self.sim, dst, tag, context, nbytes, data)
        request.route = tuple(route) if route else None
        request.synchronous = synchronous
        request.pack_bytes = pack_bytes
        rec = self.sim.recorder
        if rec is not None:
            # MPI/QMP entry point: the message is born here; the trace
            # id rides the envelope, descriptor, and every fragment.
            request.trace = rec.start_trace(
                f"msg[{self.rank}->{dst}] tag{tag} {nbytes}B",
                f"n{self.rank}", self.sim.now,
            )
        self.stats["sends"] += 1
        if self.liveness is not None:
            self._track(request)
        self.sim.spawn(self._send_process(request),
                       name=f"send[{self.rank}->{dst}]")
        return request

    def iprobe(self, src: int, tag: int, context: int):
        """MPI_Iprobe: the first matching unexpected envelope or None.

        Only messages that have *arrived* are visible, matching MPI
        semantics (a sent-but-in-flight message is not probeable).
        """
        for entry, esrc, etag, ectx in self.unexpected:
            envelope = entry[0]
            if match(src, tag, context, esrc, etag, ectx):
                return envelope
        return None

    def probe(self, src: int, tag: int, context: int):
        """Process: MPI_Probe — block until a matching message is
        queued; returns its envelope without consuming it."""
        while True:
            envelope = self.iprobe(src, tag, context)
            if envelope is not None:
                return envelope
            wake = self.sim.event(name=f"probe[{self.rank}]")
            self._probe_waiters.append(wake)
            yield wake

    def irecv(self, src: int, tag: int, context: int, nbytes: int,
              unpack_bytes: int = 0) -> RecvRequest:
        """Post a receive; returns immediately with the request handle."""
        request = RecvRequest(self.sim, src, tag, context, nbytes)
        request.unpack_bytes = unpack_bytes
        self.stats["recvs"] += 1
        if self.liveness is not None:
            self._track(request)
        self.sim.spawn(self._recv_process(request),
                       name=f"recv[{self.rank}<-{src}]")
        return request

    # ------------------------------------------------------------------
    # Send side.
    # ------------------------------------------------------------------
    def _send_process(self, request: SendRequest):
        """Process shell: surface failures on the request.

        The body runs as a spawned process with no waiter, so an
        unhandled raise would take down the whole simulation; a VIA or
        channel failure (peer death, partitioned fabric) instead fails
        the request, which throws into whoever waits on it.
        """
        try:
            yield from self._send_body(request)
        except (ViaError, MessagingError, MpiError) as exc:
            self._fail_request(request, exc)

    def _send_body(self, request: SendRequest):
        channel = yield from self.ensure_channel(request.dst)
        # Non-contiguous user buffers are packed into contiguous
        # staging before transmission (derived-datatype cost).  The
        # eager path's bounce copy subsumes packing, so only the
        # rendezvous path pays it separately.
        if (request.nbytes < self.params.eager_threshold
                and not request.synchronous):
            lock = channel.send_lock.request()
            yield lock
            try:
                yield from self._send_eager(channel, request)
            finally:
                channel.send_lock.release(lock)
        else:
            yield from self._send_rendezvous(channel, request)

    def _send_eager(self, channel: Channel, request: SendRequest):
        self.stats["eager_sent"] += 1
        yield from channel.take_data_token()
        # Copy into the pre-registered bounce buffer.
        if request.nbytes:
            yield from self.device.host.copy(request.nbytes, PRIO_USER)
        envelope = Envelope(
            MsgType.EAGER, self.rank, request.tag, request.context,
            request.nbytes, data=request.data, send_id=request.req_id,
        )
        channel.piggyback(envelope)
        descriptor = SendDescriptor(
            channel.bounce_region, 0,
            min(request.nbytes + Envelope.HEADER_BYTES,
                channel.bounce_region.nbytes),
            payload=envelope, on_complete=_noop,
            route=request.route,
        )
        if self.sim.recorder is not None:
            _stamp_trace(request, envelope, descriptor)
        yield from channel.data_vi.post_send(descriptor)
        # Eager semantics: user buffer already staged -> send complete.
        # (Guarded: a death notice may have failed the request while
        # this process was blocked on tokens or the host bus.)
        if not request.triggered:
            request.succeed()

    def _send_rendezvous(self, channel: Channel, request: SendRequest):
        self.stats["rma_sent"] += 1
        if request.pack_bytes:
            yield from self.device.host.copy(request.pack_bytes,
                                             PRIO_USER)
        lock = channel.send_lock.request()
        yield lock
        try:
            advert = channel.advert_queue.pop_first_match(
                0, request.tag, request.context
            )
            if advert is None:
                channel.pending_sends.append(request, 0, request.tag,
                                             request.context)
                self.stats["rts_sent"] += 1
                # The RTS travels IN-BAND on the data VI so it reaches
                # the receiver's matching logic in channel-FIFO order
                # with eager traffic — this is what keeps mixed
                # small/large sends on one (src, tag) matching in MPI
                # send order.
                yield from channel.take_data_token()
                envelope = Envelope(
                    MsgType.RTS, self.rank, request.tag,
                    request.context, request.nbytes,
                    send_id=request.req_id,
                )
                channel.piggyback(envelope)
                descriptor = SendDescriptor(
                    channel.bounce_region, 0, Envelope.HEADER_BYTES,
                    payload=envelope, on_complete=_noop,
                )
                if self.sim.recorder is not None:
                    _stamp_trace(request, envelope, descriptor)
                yield from channel.data_vi.post_send(descriptor)
                # The advert handler performs the RMA on arrival.
                return
        finally:
            channel.send_lock.release(lock)
        yield from self._rma_write(channel, request, advert)

    def _rma_write(self, channel: Channel, request: SendRequest,
                   advert: Envelope):
        """Process shell for :meth:`_rma_body` (spawned from the
        progress loop, so failures must land on the request)."""
        try:
            yield from self._rma_body(channel, request, advert)
        except (ViaError, MessagingError, MpiError) as exc:
            self._fail_request(request, exc)

    def _rma_body(self, channel: Channel, request: SendRequest,
                  advert: Envelope):
        """Process: the zero-copy remote write for a matched pair.

        Takes the channel send lock: the RMA fragments must not
        interleave with another message's fragments on the data VI.
        """
        if request.nbytes > advert.nbytes:
            return _refuse(request, "send of {} bytes into adverted "
                           "buffer of {}", request.nbytes, advert.nbytes)
        lock = channel.send_lock.request()
        yield lock
        try:
            yield from channel.take_data_token()  # the notify uses one
            envelope = Envelope(
                MsgType.RMA_DATA, self.rank, request.tag,
                request.context, request.nbytes, data=request.data,
                send_id=request.req_id, recv_id=advert.recv_id,
            )
            channel.piggyback(envelope)
            region = self.device.register_memory_now(
                max(request.nbytes, 1), self.ptag
            )

            def complete(_descriptor, region=region, request=request):
                # Registration-cache style: release the pin once the
                # buffer has been DMA'd out.
                self.device.memory.deregister(region)
                if not request.triggered:
                    request.succeed()

            descriptor = RmaWriteDescriptor(
                region, 0, request.nbytes,
                payload=envelope, remote_addr=advert.remote_addr,
                notify=True,
                on_complete=complete,
                route=request.route,
            )
            if self.sim.recorder is not None:
                _stamp_trace(request, envelope, descriptor)
            yield from channel.data_vi.post_rma_write(descriptor)
        finally:
            channel.send_lock.release(lock)

    def _send_ctrl(self, channel: Channel, envelope: Envelope,
                   is_token_msg: bool = False):
        yield from channel.take_ctrl_token(for_token_msg=is_token_msg)
        channel.piggyback(envelope)
        channel.stats["ctrl"] += 1
        descriptor = SendDescriptor(
            channel.bounce_region, 0, Envelope.HEADER_BYTES,
            payload=envelope, on_complete=_noop,
        )
        yield from channel.ctrl_vi.post_send(descriptor)

    # ------------------------------------------------------------------
    # Receive side.
    # ------------------------------------------------------------------
    def _recv_process(self, request: RecvRequest):
        """Process shell: surface failures on the request (see
        :meth:`_send_process`)."""
        try:
            yield from self._recv_body(request)
        except (ViaError, MessagingError, MpiError) as exc:
            self._fail_request(request, exc)

    def _recv_body(self, request: RecvRequest):
        yield from self.device.host.cpu_work(self.params.match_cost,
                                             PRIO_USER)
        entry = self.unexpected.pop_first_match_by_probe(
            request.src, request.tag, request.context
        )
        if entry is not None:
            envelope = entry[0]
            if envelope.msg_type is MsgType.RTS:
                # A large send is waiting for a buffer: answer it.
                yield from self._bind_to_rts(request, entry)
            else:
                yield from self._deliver_unexpected(request, entry)
            return
        self.posted.append(request, request.src, request.tag,
                           request.context)
        if (self.params.proactive_adverts
                and request.nbytes >= self.params.eager_threshold
                and request.src != ANY_SOURCE):
            # Sender-side matching: advertise the buffer to the
            # expected sender (binds this receive to a rendezvous).
            self.posted.remove(request)
            channel = yield from self.ensure_channel(request.src)
            yield from self._advertise(channel, request)

    def _bind_to_rts(self, request: RecvRequest, entry):
        envelope, _descriptor, channel = entry
        if envelope.nbytes > request.nbytes:
            return _refuse(request, "RTS for {} bytes, receive of {}",
                           envelope.nbytes, request.nbytes)
        yield from self._advertise(channel, request)

    def _deliver_unexpected(self, request: RecvRequest, entry):
        envelope, descriptor, channel = entry
        if envelope.nbytes > request.nbytes:
            return _refuse(request, "unexpected message of {} bytes "
                           "for receive of {}", envelope.nbytes,
                           request.nbytes)
        if envelope.nbytes:
            yield from self.device.host.copy(envelope.nbytes, PRIO_USER)
        self._complete_recv(request, envelope)
        if descriptor is not None:
            self._repost(channel, descriptor)
            self._maybe_return_tokens(channel)

    def _advertise(self, channel: Channel, request: RecvRequest):
        request.adverted = True
        region = self.device.register_memory_now(
            max(request.nbytes, 1), self.ptag, rma_write=True
        )
        request.rma_region = region
        self.rendezvous_recvs[request.req_id] = request
        channel.outstanding_adverts.append(request, 0, request.tag,
                                           request.context)
        self.stats["adverts_sent"] += 1
        yield from self._send_ctrl(channel, Envelope(
            MsgType.ADVERT, self.rank, request.tag, request.context,
            request.nbytes, recv_id=request.req_id,
            remote_addr=region.addr,
        ))

    def _advertise_safe(self, channel: Channel, request: RecvRequest):
        """Process shell for adverts spawned from the progress loop."""
        try:
            yield from self._advertise(channel, request)
        except (ViaError, MessagingError, MpiError) as exc:
            self._fail_request(request, exc)

    def _complete_recv(self, request: RecvRequest,
                       envelope: Envelope) -> None:
        request.received_bytes = envelope.nbytes
        request.received_data = envelope.data
        request.received_src = envelope.src_rank
        request.received_tag = envelope.tag
        self.rendezvous_recvs.pop(request.req_id, None)
        region = getattr(request, "rma_region", None)
        if region is not None:
            # Registration-cache style: unpin the landing buffer.
            self.device.memory.deregister(region)
            request.rma_region = None
        if not request.triggered:
            request.succeed()

    # ------------------------------------------------------------------
    # Progress: drain VIA receive completions.
    # ------------------------------------------------------------------
    def _progress(self):
        while True:
            vi, _queue, descriptor = yield from self.recv_cq.wait()
            if descriptor.error is not None:
                # Drained with DescriptorStatus.ERROR (the peer was
                # declared dead): no envelope arrived and the channel
                # is torn down — nothing to credit or handle.
                self.stats["errored_completions"] += 1
                continue
            channel = self._vi_to_channel.get(vi.vi_id)
            if channel is None:
                raise MessagingError(
                    f"rank {self.rank}: completion on unknown VI "
                    f"{vi.vi_id}"
                )
            envelope: Envelope = descriptor.received_payload
            if envelope is None:
                raise MessagingError(
                    f"rank {self.rank}: completion without envelope"
                )
            channel.credit(envelope.data_tokens, envelope.ctrl_tokens)
            handler = {
                MsgType.EAGER: self._handle_eager,
                MsgType.RMA_DATA: self._handle_rma_data,
                MsgType.RTS: self._handle_rts,
                MsgType.ADVERT: self._handle_advert,
                MsgType.TOKENS: self._handle_tokens,
            }[envelope.msg_type]
            try:
                yield from handler(channel, envelope, descriptor)
            except (ViaError, MessagingError) as exc:
                if self.liveness is None:
                    raise
                # Late traffic on a torn-down channel: frames that were
                # in flight when the peer died complete here, but the
                # ERROR-state VI refuses reposts.  Drop them — the
                # requests they fed were failed by the death notice.
                self.stats["errored_completions"] += 1
                del exc
            self._maybe_return_tokens(channel)

    def _handle_eager(self, channel: Channel, envelope: Envelope,
                      descriptor: RecvDescriptor):
        channel.stats["eager"] += 1
        yield from self.device.host.cpu_work(self.params.match_cost,
                                             PRIO_USER)
        # Rendezvous-bound receives (adverted) only complete via their
        # RMA; eager traffic matches the next unbound receive.
        request = self.posted.pop_first_match_where(
            envelope.src_rank, envelope.tag, envelope.context,
            lambda req: not req.adverted,
        )
        if request is None:
            # Buffer stays held (token not returned) until matched.
            self._queue_unexpected(envelope, descriptor, channel)
            return
        if envelope.nbytes > request.nbytes:
            return _refuse(request, "message of {} bytes for receive "
                           "of {}", envelope.nbytes, request.nbytes)
        rec = self.sim.recorder
        if rec is not None:
            t0 = self.sim.now
        yield from channel.data_vi.consume_recv_cost()
        if rec is not None and envelope.trace is not None:
            rec.span(envelope.trace, _API_CALL, "consume_recv",
                     f"n{self.rank}", t0, self.sim.now)
        if envelope.nbytes:
            yield from self.device.host.copy(envelope.nbytes, PRIO_USER)
        self._complete_recv(request, envelope)
        self._repost(channel, descriptor)

    def _handle_rma_data(self, channel: Channel, envelope: Envelope,
                         descriptor: RecvDescriptor):
        channel.stats["rma"] += 1
        request = self.rendezvous_recvs.pop(envelope.recv_id, None)
        if request is not None:
            channel.outstanding_adverts.remove(request)
        if request is None or request.triggered:
            # Stale advert: the receive completed some other way.  The
            # payload re-enters matching as an unexpected message (no
            # buffer held; a later match pays the copy).
            self.stats["orphaned_rma"] += 1
            self._queue_unexpected(envelope, None, channel)
            self._repost(channel, descriptor)
            return
        self.posted.remove(request)
        rec = self.sim.recorder
        if rec is not None:
            t0 = self.sim.now
        yield from channel.data_vi.consume_recv_cost()
        if rec is not None and envelope.trace is not None:
            rec.span(envelope.trace, _API_CALL, "consume_recv",
                     f"n{self.rank}", t0, self.sim.now)
        unpack = getattr(request, "unpack_bytes", 0)
        if unpack:
            # Derived-datatype receive: scatter the contiguous landing
            # buffer back into the strided user layout.
            yield from self.device.host.copy(unpack, PRIO_USER)
        self._complete_recv(request, envelope)
        self._repost(channel, descriptor)

    def _handle_rts(self, channel: Channel, envelope: Envelope,
                    descriptor: RecvDescriptor):
        """An in-band request-to-send: match like an eager arrival."""
        yield from self.device.host.cpu_work(self.params.ctrl_cost,
                                             PRIO_USER)
        # RTS rides the data VI, so it recycles a *data* descriptor.
        self._repost(channel, descriptor)
        # Did this RTS cross an advert already in flight to its sender?
        # FIFO pairing on both sides makes absorbing it here safe.
        absorbed = channel.outstanding_adverts.pop_first_match(
            0, envelope.tag, envelope.context
        )
        if absorbed is not None:
            return
        request = self.posted.pop_first_match_where(
            envelope.src_rank, envelope.tag, envelope.context,
            lambda req: not req.adverted,
        )
        if request is not None:
            if envelope.nbytes > request.nbytes:
                return _refuse(request, "RTS for {} bytes, receive of {}",
                               envelope.nbytes, request.nbytes)
            # Spawned: an advert may block on control tokens, and the
            # progress loop must never block on flow control.
            self.sim.spawn(self._advertise_safe(channel, request),
                           name=f"advert[{self.rank}]")
            return
        # No receive yet: the RTS queues exactly like an unexpected
        # eager message, preserving unified arrival order.
        self._queue_unexpected(envelope, None, channel)

    def _handle_advert(self, channel: Channel, envelope: Envelope,
                       descriptor: RecvDescriptor):
        yield from self.device.host.cpu_work(self.params.ctrl_cost,
                                             PRIO_USER)
        self._repost(channel, descriptor, ctrl=True)
        request = channel.pending_sends.pop_first_match_by_probe(
            0, envelope.tag, envelope.context
        )
        if request is not None:
            # Spawned: the RMA needs a data token and must not stall
            # the progress loop while waiting for one.
            self.sim.spawn(self._rma_write(channel, request, envelope),
                           name=f"rma[{self.rank}]")
        else:
            channel.advert_queue.append(envelope, 0, envelope.tag,
                                        envelope.context)

    def _handle_tokens(self, channel: Channel, envelope: Envelope,
                       descriptor: RecvDescriptor):
        channel.stats["token_msgs"] += 1
        yield from self.device.host.cpu_work(self.params.ctrl_cost,
                                             PRIO_USER)
        self._repost(channel, descriptor, ctrl=True)

    def _queue_unexpected(self, envelope: Envelope, descriptor,
                          channel: Channel) -> None:
        self.stats["unexpected"] += 1
        self.unexpected.append(
            (envelope, descriptor, channel),
            envelope.src_rank, envelope.tag, envelope.context,
        )
        waiters, self._probe_waiters = self._probe_waiters, []
        for wake in waiters:
            wake.succeed()

    # ------------------------------------------------------------------
    # Buffer recycling and credit return.
    # ------------------------------------------------------------------
    def _repost(self, channel: Channel, descriptor: RecvDescriptor,
                ctrl: bool = False) -> None:
        vi = channel.ctrl_vi if ctrl else channel.data_vi
        vi.post_recv(RecvDescriptor(descriptor.region, descriptor.offset,
                                    descriptor.nbytes))
        if ctrl:
            channel.owe_ctrl()
        else:
            channel.owe_data()

    def _maybe_return_tokens(self, channel: Channel) -> None:
        if channel.needs_explicit_return() and not channel.token_msg_pending:
            # Spawned, and limited to one outstanding TOKENS message per
            # channel: the progress loop must never block, and a flood
            # of explicit returns would waste the reserve credits.
            channel.token_msg_pending = True
            self.sim.spawn(self._token_return(channel),
                           name=f"tokens[{self.rank}]")

    def _token_return(self, channel: Channel):
        try:
            yield from self._send_ctrl(
                channel,
                Envelope(MsgType.TOKENS, self.rank, 0, 0, 0),
                is_token_msg=True,
            )
        except (ViaError, MessagingError):
            # Credit return to a dead peer: nothing left to flow-control.
            if self.liveness is None:
                raise
        finally:
            channel.token_msg_pending = False

    # ------------------------------------------------------------------
    # Fault tolerance (active only with node faults configured).
    # ------------------------------------------------------------------
    def _track(self, request) -> None:
        self._pending.add(request)
        request.add_callback(lambda _e: self._pending.discard(request))

    def pending_requests(self) -> list:
        """Untriggered requests, oldest first (hang diagnostics)."""
        return sorted((r for r in self._pending if not r.triggered),
                      key=lambda r: r.req_id)

    def _fail_request(self, request, error: Exception) -> None:
        """Fail one request and scrub it from every matching surface.

        The scrub matters: without it a late-arriving message could
        match the dead entry and double-complete it, or a stale advert
        could draw an RMA into a freed buffer.
        """
        if request.triggered:
            return
        self.stats["failed_requests"] += 1
        if isinstance(request, RecvRequest):
            self.posted.remove(request)
            self.rendezvous_recvs.pop(request.req_id, None)
            region = getattr(request, "rma_region", None)
            if region is not None:
                self.device.memory.deregister(region)
                request.rma_region = None
            for channel in self.channels.values():
                if isinstance(channel, Channel):
                    channel.outstanding_adverts.remove(request)
        else:
            for channel in self.channels.values():
                if isinstance(channel, Channel):
                    channel.pending_sends.remove(request)
        self.sim.progress += 1
        request.fail(error)

    def fail_doomed(self, dead_rank: int) -> None:
        """Death-notice hook (the node's liveness owner calls it once
        per death).

        Fails every pending request the death dooms: sends to the dead
        rank; receives from it (and from ANY_SOURCE — ULFM fails
        wildcard receives on any process failure, since the dead rank
        can no longer be ruled out as the intended sender); all
        fault-tolerance agreement traffic (negative contexts are
        blanket-failed so :meth:`Communicator.agree` retries with the
        new alive-set instead of waiting on a reshuffled tree); and,
        when the dead rank is this node, everything.
        """
        own = dead_rank == self.rank
        error = MpiProcFailed(
            f"rank {self.rank}: "
            + ("node crashed" if own else f"peer rank {dead_rank} failed"),
            dead_rank=dead_rank,
        )
        for request in self.pending_requests():
            doomed = own or request.context < 0
            if not doomed:
                # Collective traffic is doomed by *any* death in the
                # communicator's group, not just a dead direct partner:
                # a missing relay stalls the whole dissemination chain,
                # so ranks blocked on live peers would otherwise wait
                # forever (ULFM: collectives raise MPI_ERR_PROC_FAILED
                # at every rank that cannot complete).
                members = getattr(request, "ft_members", None)
                doomed = members is not None and dead_rank in members
            if not doomed:
                if isinstance(request, RecvRequest):
                    doomed = request.src in (dead_rank, ANY_SOURCE)
                else:
                    doomed = request.dst == dead_rank
            if doomed:
                self._fail_request(request, error)
        # A handshake aimed at the dead peer can never complete; wake
        # its waiters (the connect process guards its own succeed).
        pending = self.channels.get(dead_rank)
        if (pending is not None and not isinstance(pending, Channel)
                and not pending.triggered):
            pending.fail(ViaError(
                f"rank {self.rank}: connect to dead rank {dead_rank}"
            ))

    def revoke_context(self, context: int) -> None:
        """ULFM revocation arrived: poison the context's wire traffic.

        Pending requests on the communicator's point-to-point and
        collective contexts fail with :class:`MpiRevoked`; new
        operations are refused at the communicator layer.  Agreement
        contexts (negative) are exempt — ULFM requires
        ``MPI_Comm_agree`` to work on a revoked communicator.
        """
        if context in self.revoked:
            return
        self.revoked.add(context)
        wire = (2 * context, 2 * context + 1)
        error = MpiRevoked(
            f"rank {self.rank}: communicator context {context} revoked"
        )
        for request in self.pending_requests():
            if request.context in wire:
                self._fail_request(request, error)

    def kick_agreement(self, ft_context: int, key) -> None:
        """An agreement was decided: release its blocked participants.

        Participants still inside the message protocol re-enter their
        retry loop (the thrown failure is caught there), find the
        deposit, and return the decided value.
        """
        error = MpiProcFailed(
            f"rank {self.rank}: agreement {key} decided out-of-band"
        )
        for request in self.pending_requests():
            if request.context == ft_context:
                self._fail_request(request, error)


def _stamp_trace(request, envelope: Envelope, descriptor) -> None:
    """Carry the request's flight-recorder trace onto what it sends."""
    envelope.trace = descriptor.trace = getattr(request, "trace", None)


def _refuse(request, text: str, nbytes: int, room: int) -> None:
    """Payload larger than the buffer: fail ``request`` with ``text``
    (unless a death notice already settled it)."""
    if not request.triggered:
        request.fail(MessagingError(text.format(nbytes, room)))


def _noop(_descriptor) -> None:
    """Discard a send completion (the request completed earlier)."""
