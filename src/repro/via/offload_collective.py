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
* **reliability** — iff ``device.reliable`` the waiting side recovers
  each op: one :class:`~repro.via.reliability.RtoTimer` per asked peer
  resends a combine child's reduce frame, or requests the wave
  (``bcast``) or a missing child's value (``reduce`` root; a relay
  lacking it asks its own children).  The asked side answers from kept
  op state or says it is *held*, which restarts the asker's timer.

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
from repro.obs import (
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
#: A request-kind frame asks, or answers that the value is not in yet.
ASK, HELD = "ask", "held"


class _OpState:
    """Per-collective state on one node."""

    __slots__ = ("sequence", "mode", "root", "parent", "children",
                 "child_values", "value_local", "have_local", "op",
                 "nbytes", "waiter", "trace", "result", "done", "up")

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
        #: The reduce frame sent to the parent, once sent.
        self.up: Optional[ViaPacket] = None


class TreeCollective:
    """The tree-collective state machine bound to one node's device.

    A site subclass sets ``kinds`` (reduce-up, wave-down, request),
    ``label`` / ``prefix`` (error messages / process names),
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
        # Recovery: done ops kept for asks (from the last combine on),
        # and per asked peer the op asked about.
        self._done: Dict[int, _OpState] = {}
        self._asked: Dict[int, _OpState] = {}
        self._timers: Dict[int, RtoTimer] = {}
        self.stats = {
            "collectives": 0, "frames": 0, "combines": 0,
            "forwards": 0, "completions": 0, "aborted": 0,
            "requests": 0, "held_answers": 0, "retransmits": 0,
            "dropped_bad_checksum": 0, "dropped_dead": 0,
        }

    def _state(self, sequence: int, mode: str, root: int) -> _OpState:
        state = self._ops.get(sequence) or self._done.get(sequence)
        if state is None:
            parents, children = dimension_order_tree(self.device.torus,
                                                     root)
            state = self._ops[sequence] = _OpState(
                sequence, mode, root, parents[self.rank],
                children[self.rank])
        return state

    def _retire(self, state: _OpState) -> None:
        self._ops.pop(state.sequence, None)
        if self.device.reliable:
            if state.mode == "combine":
                # Every rank deposited into it: none asks about an older
                # op again, and this rank has called no later one.
                self._done = {}
            self._done[state.sequence] = state

    # -- fault interop -------------------------------------------------

    def abort(self, why: str) -> None:
        """Fail every waiter (a death, a crash, a spent retry budget);
        relay-only state is just dropped."""
        error = ViaError(f"node {self.rank}: {self.label} collective "
                         f"aborted, {why}")
        for peer in self._asked:
            self._timers[peer].progress(True)
        self._asked.clear()
        for state in self._ops.values():
            waiter = state.waiter
            if waiter is not None and not waiter.triggered:
                self.stats["aborted"] += 1
                waiter.fail(error)
        self._ops.clear()

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
        live = self.device.liveness
        if live is not None and live.dead:
            raise ViaError(
                f"node {self.rank}: {self.label} collective with dead "
                f"participant(s) {sorted(live.dead)}"
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
                self._retire(state)
                return state.result
            if self.device.reliable:
                self._ask(state.parent, state)
        else:
            state.value_local = value
            self._advance(state)
            if state.waiter is None:
                return None
            if mode == "reduce" and self.device.reliable:
                for child in state.children:
                    if child not in state.child_values:
                        self._ask(child, state)
        result = yield state.waiter
        self._retire(state)
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
            state.up = self._send(self.kinds[0], state.parent, state,
                                  value, state.nbytes)
            if state.mode == "reduce":
                # Relay done; kept only to answer requests.
                self._retire(state)
            elif self.device.reliable:
                self._ask(state.parent, state)
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
        """Admission of one arriving frame of this site's kinds: the
        drops.  True = hand it to :meth:`_process`."""
        self.stats["frames"] += 1
        live = self.device.liveness
        if live is not None and not live.node_alive(self.rank):
            # A crashed node is silent.
            self.stats["dropped_dead"] += 1
            return False
        if damaged:
            self.stats["dropped_bad_checksum"] += 1
            return False
        if live is not None and not live.node_alive(packet.src_node):
            # Late frame from a declared-dead peer: ghost traffic.
            self.stats["dropped_dead"] += 1
            return False
        return True

    def _process(self, packet: ViaPacket):
        """Generator: the site's handling of one accepted frame."""
        sim = self.sim
        sequence, mode, root, value = packet.payload
        t0 = sim.now
        yield sim.timeout(self.rx_cost[packet.kind])
        peer, request = packet.src_node, packet.kind is self.kinds[2]
        live = self.device.liveness
        if (sequence < min(self._done, default=0)
                or live is not None and live.dead):
            return  # over everywhere, or ended by a known death
        if request and value == ASK:
            self._reply(peer, packet)
            return
        asked = self._asked.get(peer)
        if asked is not None and asked.sequence == sequence:
            # Answered.  A held answer (alive, waits too) re-arms: a
            # full RTO from now, not a backed-off deadline slept toward.
            self._timers[peer].progress(True)
            if request:
                self._timers[peer].start()
            else:
                del self._asked[peer]
        if request:
            return
        state = self._state(sequence, mode, root)
        state.nbytes = max(state.nbytes, packet.payload_bytes)
        if packet.kind is self.kinds[0]:
            rec = sim.recorder
            if (rec is not None and self.combine_span is not None
                    and packet.trace is not None):
                rec.span(packet.trace, self.combine_span,
                         f"n{self.rank}", f"n{self.rank}", t0, sim.now)
            if peer in state.child_values:
                # Sent again: a waiting combine child asks for the wave.
                if mode == "combine":
                    self._reply(peer, packet)
                return
            self.stats["combines"] += 1
            state.child_values[peer] = value
            self._advance(state)
        elif not state.done:  # else the wave again, after an ask
            if state.trace is None:
                # Pure wave relay (bcast before the local call): carry
                # the incoming trace so forward spans stay attributed.
                state.trace = packet.trace
            self._wave_down(state, value)

    # -- recovery per operation ----------------------------------------

    def _ask(self, peer: int, state: _OpState) -> None:
        """The local waiter needs ``peer``'s answer for ``state``'s op."""
        self._asked[peer] = state
        if peer not in self._timers:
            self._timers[peer] = RtoTimer(
                self.sim, self.device.params, lambda: self._expire(peer),
                lambda: self._peer_unresponsive(peer),
                f"{self.prefix}-rto[{self.rank}->{peer}]")
        self._timers[peer].start()

    def _expire(self, peer: int) -> None:
        """Ask again: a combine child resends its reduce frame."""
        state = self._asked[peer]
        if state.mode == "combine":
            self._put(state.up, "retransmits")
        else:
            self._send(self.kinds[2], peer, state, ASK, 0, "requests")

    def _reply(self, peer: int, packet: ViaPacket) -> None:
        """Answer from op state: the reduce frame or the wave again, else
        a held answer (and a reduce relay asks its missing children)."""
        state = self._state(*packet.payload[:3])
        if state.mode == "reduce" and state.up is not None:
            self._put(state.up, "retransmits")
        elif state.mode != "reduce" and state.done:
            self._send(self.kinds[1], peer, state, state.result,
                       state.nbytes or self.empty_wave_bytes, "retransmits")
        else:
            self._send(self.kinds[2], peer, state, HELD, 0, "held_answers")
            for child in state.children if state.mode == "reduce" else ():
                if child not in state.child_values:
                    self._send(self.kinds[2], child, state, ASK, 0, "requests")

    def _peer_unresponsive(self, dst: int) -> None:
        """Retry budget exhausted: out-of-band death evidence.  Under
        node faults the verdict comes back as a death notice and aborts
        every waiter."""
        live = self.device.liveness
        if live is None:
            self.abort(f"peer {dst} unresponsive (retry budget exhausted)")
        else:
            live.suspect(
                dst, f"{self.label} collective retry budget exhausted")

    # -- tx path -------------------------------------------------------

    def _send(self, kind: PacketKind, dst: int, state: _OpState, value: Any,
              nbytes: int, counter: str = "forwards") -> ViaPacket:
        packet = ViaPacket(
            kind, self.rank, dst, 0, msg_id=self.device.next_msg_id(),
            payload_bytes=nbytes,
            payload=(state.sequence, state.mode, state.root, value),
            trace=state.trace).seal()
        self._put(packet, counter)
        return packet

    def _put(self, packet: ViaPacket, counter: str) -> None:
        self.stats[counter] += 1
        self.sim.spawn(self._transmit(packet.clone()),
                       name=f"{self.prefix}-tx[{self.rank}]")

    def _egress(self, packet: ViaPacket):
        """``(port, frame)`` for one outgoing packet, or None when a
        death partitioned its destination off: the frame is dropped and
        the failure notice aborts the op at every waiter."""
        try:
            port = self.device.egress_port(packet.dst_node, packet=packet)
        except ViaError:
            return None
        return port, Frame(packet.payload_bytes,
                           self.device.params.header_bytes,
                           payload=packet,
                           kind=packet.kind.frame_label)


class KernelCollective(TreeCollective):
    """Site: the kernel, at interrupt level (paper section 7).

    Intermediate nodes never pay the user-space crossing (the ~6 us
    host overhead plus wakeups), only the interrupt-level per-hop path.
    """

    kinds = KERNEL_COLLECTIVE_KINDS
    label = "kernel"
    prefix = "kcoll"
    trace_name = "kcoll-{sequence}"
    deposit_span = "kcoll-deposit"
    completion_name = "kcoll"
    rx_cost = {kinds[0]: COMBINE_COST, kinds[1]: COMPLETE_COST, kinds[2]: 0}
    empty_wave_bytes = 8

    def __init__(self, device: "ViaDevice") -> None:
        super().__init__(device)
        # Depositing the contribution crosses into the kernel.
        self.deposit_cost = device.host.params.syscall_cost

    def handle_irq(self, packet: ViaPacket):
        """Generator (kernel agent, CPU held at IRQ priority): one
        arriving frame, its checksum already verified by the agent."""
        if self._accept(packet, False):
            yield from self._process(packet)

    def _transmit(self, packet: ViaPacket):
        """Process: post one frame on the host transmit ring."""
        out = self._egress(packet)
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
               kinds[1]: NIC_RX_COST, kinds[2]: NIC_RX_COST}

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

    def _transmit(self, packet: ViaPacket):
        """Process: firmware tx step + FIFO injection of one frame."""
        sim = self.sim
        t0 = sim.now
        yield sim.timeout(NIC_TX_COST)
        out = self._egress(packet)
        if out is None:
            return
        rec = sim.recorder
        if rec is not None and packet.trace is not None:
            rec.span(packet.trace, _NIC_FORWARD,
                     f"n{self.rank}->n{packet.dst_node}", f"n{self.rank}",
                     t0, sim.now)
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
