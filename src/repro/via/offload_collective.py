"""Offload tree collectives: one state machine, run at two sites.

The paper's section 7 plans "interrupt-level based collective
communication, in which intermediate collective communications are
carried out in the kernel space"; Yu, Buntinas, Graham & Panda
(cs/0402027) move the same forwarding one step further down, into the
NIC, and describe the result as the same tree algorithm run on a
different processor, with its own reliability.  This module says it in
code: :class:`TreeCollective` is the algorithm, :class:`KernelCollective`
and :class:`NicCollective` are the two processors.

The machine, per node, over the dimension-order tree of the torus:

* **deposit** — the caller pays one crossing to hand its contribution
  down (a syscall / a mapped doorbell write), then waits;
* **reduce up** — child subtree values are parked per child and folded
  only when the subtree is complete, local contribution first, then
  children in tree order: the host tree's order, so every tier returns
  the same bits whatever order frames arrive in.  One reduce frame per
  subtree climbs to the root;
* **wave down** — the root turns the result around; every node relays
  the wave to its children and completes its own waiter.  A wave that
  beats the local call (``bcast``) parks its result for the deposit;
* **sequence alignment** — every rank calls in the same order (the MPI
  collective discipline), which keeps the per-node sequence counters
  equal without negotiation;
* **faults** — a call refuses to start with a *known*-dead participant
  (the agent's detection-based record, never the fault oracle); a death
  notice or local crash fails every waiter with
  :class:`~repro.errors.ViaError`, which the communicator turns into
  ``MpiProcFailed``;
* **reliability** — iff ``device.reliable`` (some link can lose frames)
  every frame carries a per-peer sequence number and receivers return
  cumulative ACKs; one :class:`~repro.via.reliability.RtoTimer` per
  peer resends every unACKed frame to it.  On a lossless fabric frames
  stay unsequenced and no ACK or timer exists.

A site says only what differs: wire kinds and span names, what the
deposit and each arriving kind cost, where arrival runs (inside the
receive interrupt, CPU held / a firmware process behind the port's
``collective_hook`` — no descriptor, DMA or interrupt), how a frame
leaves (the host transmit ring / firmware cost + FIFO injection) and
how the waiter completes (inline / the collective's one interrupt).
Costs are module constants, not :class:`~repro.hw.params.GigEParams`
fields (the canonical config digest is pinned).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple, TYPE_CHECKING

from repro.collectives.tree import dimension_order_tree
from repro.errors import ViaError
from repro.hw.link import Frame
from repro.hw.node import PRIO_USER
from repro.obs.recorder import (
    API_CALL as _API_CALL,
    COMPLETION as _COMPLETION,
    NIC_COMBINE as _NIC_COMBINE,
    NIC_FORWARD as _NIC_FORWARD,
)
from repro.via.packet import (
    KERNEL_COLLECTIVE_KINDS,
    NIC_COLLECTIVE_KINDS,
    PacketKind,
    ViaPacket,
)
from repro.via.reliability import RtoTimer

if TYPE_CHECKING:  # pragma: no cover
    from repro.via.device import ViaDevice

#: Kernel cost of one combine step at interrupt level (us).
COMBINE_COST = 0.5
#: Kernel cost of taking the result wave and completing the waiter.
COMPLETE_COST = 0.8
#: NIC firmware cost to accept one collective frame off the wire (us).
NIC_RX_COST = 0.35
#: NIC firmware cost of one combine (fold) step on a partial value.
NIC_COMBINE_COST = 0.25
#: NIC firmware cost to build and inject one outgoing frame.
NIC_TX_COST = 0.2
#: Host cost of the user-space doorbell that deposits the contribution
#: into NIC memory (no syscall: a mapped register write).
DOORBELL_COST = 0.3
#: Host IRQ-handler cost of delivering the final result (paid once per
#: collective, not per hop).
NIC_COMPLETE_COST = 0.4


class _OpState:
    """Per-collective in-flight state on one node."""

    __slots__ = ("sequence", "mode", "root", "parent", "children",
                 "child_values", "value_local", "have_local", "op",
                 "nbytes", "waiter", "trace", "result", "done")

    def __init__(self, sequence: int, mode: str, root: int,
                 parent: Optional[int], children: Tuple[int, ...]) -> None:
        self.sequence = sequence
        self.mode = mode
        self.root = root
        self.parent = parent
        self.children = children
        #: Child subtree values keyed by child rank, folded at subtree
        #: completion in tree order, not arrival order.
        self.child_values: Dict[int, Any] = {}
        self.value_local: Any = None
        #: The local call has made its deposit.
        self.have_local = False
        self.op: Optional[Callable] = None
        self.nbytes = 0
        self.waiter = None
        self.trace = None
        self.result: Any = None
        self.done = False


class TreeCollective:
    """The tree-collective state machine bound to one node's device.

    A site subclass sets ``kinds`` (reduce-up, wave-down, cumulative
    ACK), ``label`` / ``prefix`` (error messages / process names),
    ``trace_name``, ``deposit_span``, ``completion_name`` (flight
    recorder), ``deposit_cost``, ``rx_cost`` (per arriving kind), and
    implements ``_transmit`` and ``_complete``.
    """

    #: Span kind recorded for a combine step, if the site records one.
    combine_span: Optional[str] = None
    #: Payload bytes of a wave frame that carries no data (a barrier's).
    empty_wave_bytes = 0

    def __init__(self, device: "ViaDevice") -> None:
        self.device = device
        self.sim = device.sim
        self.rank = device.rank
        self._sequence = 0
        self._ops: Dict[int, _OpState] = {}
        # Per-peer go-back-N state (engaged iff device.reliable).
        self._tx_next: Dict[int, int] = {}
        self._unacked: Dict[int, Dict[int, ViaPacket]] = {}
        self._rx_next: Dict[int, int] = {}
        self._timers: Dict[int, RtoTimer] = {}
        self.stats = {
            "collectives": 0, "frames": 0, "combines": 0,
            "forwards": 0, "completions": 0, "aborted": 0,
            "acks_sent": 0, "acks_received": 0, "retransmits": 0,
            "dup_frames": 0, "ooo_dropped": 0,
            "dropped_bad_checksum": 0, "dropped_dead": 0,
        }

    def _state(self, sequence: int, mode: str, root: int) -> _OpState:
        state = self._ops.get(sequence)
        if state is None:
            parents, children = dimension_order_tree(self.device.torus,
                                                     root)
            state = self._ops[sequence] = _OpState(
                sequence, mode, root, parents[self.rank],
                children[self.rank])
        return state

    # -- fault interop -------------------------------------------------

    def _fail_pending(self, error: ViaError) -> None:
        """Abort every in-flight collective; relay-only state (nobody
        to wake) is just dropped."""
        for state in self._ops.values():
            waiter = state.waiter
            if waiter is not None and not waiter.triggered:
                self.stats["aborted"] += 1
                waiter.fail(error)
        self._ops.clear()

    def _forget(self, peer: int) -> None:
        """Drop what is outstanding to ``peer`` and stop its timer."""
        if self._unacked.pop(peer, None) is not None:
            self._timers[peer].stop()

    def on_peer_dead(self, dead_rank: int, reason: str = "") -> None:
        """Abort in-flight collectives: a participant died mid-wave."""
        self._forget(dead_rank)
        self._fail_pending(ViaError(
            f"node {self.rank}: {self.label} collective aborted, node "
            f"{dead_rank} {reason or 'declared dead'}"
        ))

    def on_local_crash(self, reason: str = "node crashed") -> None:
        for peer in list(self._unacked):
            self._forget(peer)
        self._fail_pending(ViaError(
            f"node {self.rank}: {self.label} collective aborted, "
            f"local {reason}"
        ))

    # -- user API ------------------------------------------------------

    def collective(self, mode: str, root: int, value: Any,
                   op: Optional[Callable], nbytes: int):
        """Process: run one offloaded collective; returns the result.

        ``mode`` is ``"combine"`` (allreduce / barrier with the NULL
        op), ``"reduce"`` (root-only result) or ``"bcast"``.  Every
        rank calls in the same order with the same mode/root/op.
        """
        if mode not in ("combine", "reduce", "bcast"):
            raise ViaError(f"node {self.rank}: unknown {self.label} "
                           f"collective mode {mode!r}")
        # Detection-based on purpose: a collective started inside the
        # crash-to-detection window proceeds, stalls on the missing
        # contribution and is aborted by the death notice — the path
        # host-tier collectives ride.  Checked before any state exists.
        dead = self.device.agent._known_dead
        if dead:
            raise ViaError(
                f"node {self.rank}: {self.label} collective with dead "
                f"participant(s) {sorted(dead)}"
            )
        self._sequence += 1
        state = self._state(self._sequence, mode, root)
        state.op = op
        state.nbytes = nbytes
        self.stats["collectives"] += 1
        sim = self.sim
        if not (mode == "bcast" and self.rank == root
                or mode == "reduce" and state.parent is not None):
            # A bcast root or a non-root reduce contributor does not
            # wait (the site finishes the relay on its own); everyone
            # else gets the waiter before the deposit, so an abort that
            # lands during it has something to fail.
            state.waiter = sim.event(name=f"{self.prefix}[{self.rank}]")
        rec = sim.recorder
        if rec is not None:
            state.trace = rec.start_trace(
                self.trace_name.format(mode=mode, sequence=state.sequence),
                f"n{self.rank}", sim.now)
            t0 = sim.now
        yield from self.device.host.cpu_work(self.deposit_cost, PRIO_USER)
        if rec is not None:
            rec.span(state.trace, _API_CALL, self.deposit_span,
                     f"n{self.rank}", t0, sim.now)
        state.have_local = True
        if mode == "bcast":
            if self.rank == root:
                self._wave_down(state, value)
            if state.done:
                # Root, or the wave beat our deposit: the result is
                # already in hand, no interrupt needed.
                self._ops.pop(state.sequence, None)
                return state.result
        else:
            state.value_local = value
            self._advance(state)
            if state.waiter is None:
                return None
        result = yield state.waiter
        self._ops.pop(state.sequence, None)
        return result

    # -- state machine -------------------------------------------------

    def _advance(self, state: _OpState) -> None:
        """Reduce-up step: fold and pass on once the subtree is in."""
        if (not state.have_local
                or len(state.child_values) < len(state.children)):
            return
        # Canonical fold: local contribution, then children in tree
        # order — the order the host-tier tree folds in.
        value = state.value_local
        for child in state.children:
            value = state.op(value, state.child_values[child])
        if state.parent is not None:
            self._send(self.kinds[0], state.parent, state, value,
                       state.nbytes)
            if state.mode == "reduce":
                # Relay done; nothing further reaches this node.
                self._ops.pop(state.sequence, None)
        elif state.mode == "reduce":
            self._complete_local(state, value)
        else:
            self._wave_down(state, value)

    def _wave_down(self, state: _OpState, value: Any) -> None:
        nbytes = state.nbytes or self.empty_wave_bytes
        for child in state.children:
            self._send(self.kinds[1], child, state, value, nbytes)
        self._complete_local(state, value)

    def _complete_local(self, state: _OpState, value: Any) -> None:
        state.result = value
        state.done = True
        if state.waiter is None or not state.have_local:
            # Nobody waits (bcast root), or the wave beat the local
            # call's deposit, which will pick the parked result up.
            return
        self.stats["completions"] += 1
        self._complete(state, value)

    def _wake(self, state: _OpState, value: Any) -> None:
        """The result reaches the waiting caller (unless an abort got
        there first)."""
        sim = self.sim
        rec = sim.recorder
        if rec is not None and state.trace is not None:
            rec.event(state.trace, _COMPLETION, self.completion_name,
                      f"n{self.rank}", sim.now)
        if not state.waiter.triggered:
            sim.progress += 1
            state.waiter.succeed(value)

    # -- rx path -------------------------------------------------------

    def _accept(self, packet: ViaPacket, damaged: bool) -> bool:
        """Admission of one arriving frame of this site's kinds: drops,
        ACK bookkeeping and the sequence gate.  True = hand it to
        :meth:`_process`."""
        self.stats["frames"] += 1
        health = self.device._fabric_health
        faults = health is not None and health.has_node_faults
        if faults and not health.node_alive(self.rank):
            # A crashed node is silent.
            self.stats["dropped_dead"] += 1
            return False
        if damaged:
            self.stats["dropped_bad_checksum"] += 1
            return False
        peer = packet.src_node
        if faults and not health.node_alive(peer):
            # Late frame from a declared-dead peer: ghost traffic.
            self.stats["dropped_dead"] += 1
            return False
        if packet.kind is self.kinds[2]:
            self.stats["acks_received"] += 1
            unacked = self._unacked.get(peer)
            if unacked:
                acked = [seq for seq in unacked if seq <= packet.ack]
                for seq in acked:
                    del unacked[seq]
                if acked:
                    self._timers[peer].progress(not unacked)
            return False
        if packet.seq < 0:
            return True
        expected = self._rx_next.get(peer, 0)
        if packet.seq == expected:
            self._rx_next[peer] = expected + 1
        elif packet.seq < expected:
            self.stats["dup_frames"] += 1
        else:
            self.stats["ooo_dropped"] += 1
        self._send_ack(peer)
        return packet.seq == expected

    def _process(self, packet: ViaPacket):
        """Generator: the site's handling of one accepted frame."""
        sim = self.sim
        sequence, mode, root, value = packet.payload
        t0 = sim.now
        yield sim.timeout(self.rx_cost[packet.kind])
        state = self._state(sequence, mode, root)
        state.nbytes = max(state.nbytes, packet.payload_bytes)
        if packet.kind is self.kinds[0]:
            rec = sim.recorder
            if (rec is not None and self.combine_span is not None
                    and packet.trace is not None):
                rec.span(packet.trace, self.combine_span,
                         f"n{self.rank}", f"n{self.rank}", t0, sim.now)
            self.stats["combines"] += 1
            state.child_values[packet.src_node] = value
            self._advance(state)
        else:
            if state.trace is None:
                # Pure wave relay (bcast before the local call): carry
                # the incoming trace so forward spans stay attributed.
                state.trace = packet.trace
            self._wave_down(state, value)

    # -- tx path -------------------------------------------------------

    def _send(self, kind: PacketKind, dst: int, state: _OpState,
              value: Any, nbytes: int) -> None:
        packet = ViaPacket(
            kind=kind,
            src_node=self.rank,
            dst_node=dst,
            dst_vi=0,
            msg_id=self.device.next_msg_id(),
            payload_bytes=nbytes,
            payload=(state.sequence, state.mode, state.root, value),
        )
        if self.device.reliable:
            seq = self._tx_next.get(dst, 0)
            self._tx_next[dst] = seq + 1
            packet.seq = seq
            self._unacked.setdefault(dst, {})[seq] = packet
            timer = self._timers.get(dst)
            if timer is None:
                timer = self._timers[dst] = RtoTimer(
                    self.sim, self.device.params,
                    lambda: self._resend(dst),
                    lambda: self._peer_unresponsive(dst),
                    f"{self.prefix}-rto[{self.rank}->{dst}]")
            timer.start()
        packet.seal()
        if self.sim.recorder is not None:
            packet.trace = state.trace
        self.stats["forwards"] += 1
        self.sim.spawn(self._transmit(dst, packet.clone(), state.trace),
                       name=f"{self.prefix}-tx[{self.rank}]")

    def _egress(self, dst: int, packet: ViaPacket):
        """``(port, frame)`` for one outgoing packet, or None when a
        death partitioned ``dst`` off: the frame is dropped and the
        failure notice aborts the op at every waiter."""
        try:
            port = self.device.egress_port(dst, packet=packet)
        except ViaError:
            return None
        return port, Frame(packet.payload_bytes,
                           self.device.params.header_bytes,
                           payload=packet,
                           kind=packet.kind.frame_label)

    # -- per-peer go-back-N --------------------------------------------

    def _send_ack(self, dst: int) -> None:
        packet = ViaPacket(
            kind=self.kinds[2],
            src_node=self.rank,
            dst_node=dst,
            dst_vi=0,
            msg_id=self.device.next_msg_id(),
            payload_bytes=0,
            ack=self._rx_next.get(dst, 0) - 1,
        ).seal()
        self.stats["acks_sent"] += 1
        self.sim.spawn(self._transmit(dst, packet, None),
                       name=f"{self.prefix}-ack[{self.rank}]")

    def _resend(self, dst: int) -> None:
        """The timer's resend: every unacknowledged frame to ``dst``."""
        for packet in self._unacked[dst].values():  # in seq order
            self.stats["retransmits"] += 1
            self.sim.spawn(
                self._transmit(dst, packet.clone(), packet.trace),
                name=f"{self.prefix}-rtx[{self.rank}->{dst}]",
            )

    def _peer_unresponsive(self, dst: int) -> None:
        """Retry budget exhausted: out-of-band death evidence.  With a
        failure detector armed its verdict comes back through
        ``on_peer_dead`` and aborts every waiter."""
        self._forget(dst)
        if not self.device.agent.suspect(
                dst, f"{self.label} collective retry budget exhausted"):
            self._fail_pending(ViaError(
                f"node {self.rank}: {self.label} collective peer {dst} "
                f"unresponsive (retry budget exhausted)"
            ))


class KernelCollective(TreeCollective):
    """Site: the kernel, at interrupt level (paper section 7).

    Intermediate nodes never pay the user-space crossing (the ~6 us
    host overhead plus wakeups), only the interrupt-level per-hop path.
    The tree's root is injected once, like the mesh geometry was.
    """

    kinds = KERNEL_COLLECTIVE_KINDS
    label = "kernel"
    prefix = "kcoll"
    trace_name = "kcoll-{sequence}"
    deposit_span = "kcoll-deposit"
    completion_name = "kcoll"
    rx_cost = {kinds[0]: COMBINE_COST, kinds[1]: COMPLETE_COST}
    empty_wave_bytes = 8

    def __init__(self, device: "ViaDevice", root: int = 0) -> None:
        super().__init__(device)
        self.root = root
        # Depositing the contribution crosses into the kernel.
        self.deposit_cost = device.host.params.syscall_cost
        self.stats["reductions"] = 0

    def global_sum(self, value: Any, op: Callable[[Any, Any], Any],
                   nbytes: int = 8):
        """Process: contribute to the next reduction over the injected
        tree; returns the globally combined value.  Every node must
        call this the same number of times with the same operator."""
        self.stats["reductions"] += 1
        result = yield from self.collective("combine", self.root, value,
                                            op, nbytes)
        return result

    def handle_irq(self, packet: ViaPacket):
        """Generator (kernel agent, CPU held at IRQ priority): one
        arriving frame, its checksum already verified by the agent."""
        if self._accept(packet, False):
            yield from self._process(packet)

    def _transmit(self, dst: int, packet: ViaPacket, trace):
        """Process: post one frame on the host transmit ring."""
        out = self._egress(dst, packet)
        if out is not None:
            yield from out[0].enqueue_tx(out[1])

    def _complete(self, state: _OpState, value: Any) -> None:
        """Inline, from the interrupt handler that took the wave."""
        self._wake(state, value)


class NicCollective(TreeCollective):
    """Site: NIC firmware (cs/0402027).

    Intermediate hops pay no host cost at all — no descriptor post, no
    syscall, no interrupt — only firmware time; each participating host
    takes exactly one interrupt, when its own result is ready.
    """

    kinds = NIC_COLLECTIVE_KINDS
    label = "NIC"
    prefix = "nicoll"
    trace_name = "nicoll-{mode}-{sequence}"
    deposit_span = "nic-doorbell"
    completion_name = "nic-collective"
    combine_span = _NIC_COMBINE
    deposit_cost = DOORBELL_COST
    rx_cost = {kinds[0]: NIC_RX_COST + NIC_COMBINE_COST,
               kinds[1]: NIC_RX_COST}

    def handle_rx(self, frame: Frame) -> bool:
        """Synchronous port hook; True = frame consumed by the NIC."""
        packet = frame.payload
        if (not isinstance(packet, ViaPacket)
                or packet.kind not in self.kinds
                # Multi-hop detour (degraded routing): the host switch
                # forwards it like any transit frame.
                or packet.dst_node != self.rank):
            return False
        if self._accept(packet, frame.corrupted or not packet.verify()):
            self.sim.spawn(self._process(packet),
                           name=f"nicoll-rx[{self.rank}]")
        return True

    def _transmit(self, dst: int, packet: ViaPacket, trace):
        """Process: firmware tx step + FIFO injection of one frame."""
        sim = self.sim
        t0 = sim.now
        yield sim.timeout(NIC_TX_COST)
        out = self._egress(dst, packet)
        if out is None:
            return
        rec = sim.recorder
        if rec is not None and trace is not None:
            rec.span(trace, _NIC_FORWARD, f"n{self.rank}->n{dst}",
                     f"n{self.rank}", t0, sim.now)
        yield from out[0].nic_inject_tx(out[1])

    def _complete(self, state: _OpState, value: Any) -> None:
        """The one host interrupt of a NIC collective."""
        self.device.host.irq.raise_irq(
            [(self._complete_handler, (state, value))],
            source=f"nicoll{self.rank}",
        )

    def _complete_handler(self, item):
        yield self.sim.timeout(NIC_COMPLETE_COST)
        self._wake(*item)
