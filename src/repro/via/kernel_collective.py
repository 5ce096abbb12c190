"""Interrupt-level global reduction — the paper's section 7 plan.

"we are working on a scheme of interrupt-level based collective
communication, in which intermediate collective communications are
carried out in the kernel space.  This method eliminates the overhead
of copying data to user space for the intermediate steps, therefore
reduces the overall latency."

Implementation: the dimension-order reduction/broadcast tree is
injected into the kernel agent (like the mesh geometry was).  Each
node's kernel combines its children's partial values with the local
contribution at interrupt level and forwards one REDUCE packet to its
parent; the root turns the result around as a CBCAST wave that
completes every node's waiting user call — so intermediate nodes never
pay the user-space crossing (the ~6 us host overhead plus wakeups),
only the ~12.5 us interrupt-level per-hop path.

Values are Python numbers/arrays combined with a caller-supplied
commutative operator; ``nbytes`` drives the timing.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, TYPE_CHECKING

from repro.collectives.tree import dimension_order_tree
from repro.errors import ViaError
from repro.hw.node import PRIO_USER
from repro.obs.recorder import (
    API_CALL as _API_CALL,
    COMPLETION as _COMPLETION,
)
from repro.via.packet import PacketKind, ViaPacket

if TYPE_CHECKING:  # pragma: no cover
    from repro.via.device import ViaDevice

#: Kernel cost of one combine step (us): arithmetic on a small value
#: plus bookkeeping, at interrupt level.
COMBINE_COST = 0.5
#: Kernel cost of completing the local waiter from the CBCAST handler.
COMPLETE_COST = 0.8


class _OpState:
    """Per-reduction in-flight state on one node."""

    __slots__ = ("partial", "pending", "have_local", "children_seen",
                 "waiter", "op", "nbytes", "trace")

    def __init__(self) -> None:
        self.partial: Any = None
        #: Child values that arrived before the local contribution
        #: supplied the operator.
        self.pending: list = []
        self.have_local = False
        self.children_seen = 0
        self.waiter = None
        self.op: Optional[Callable] = None
        self.nbytes = 0
        self.trace = None


class KernelCollective:
    """Kernel-space reduction engine bound to one node's VIA device."""

    def __init__(self, device: "ViaDevice", root: int = 0) -> None:
        self.device = device
        self.sim = device.sim
        self.root = root
        parents, children = dimension_order_tree(device.torus, root)
        self.parent = parents[device.rank]
        self.children = children[device.rank]
        self._sequence = 0
        self._ops: Dict[int, _OpState] = {}
        self.stats = {"reductions": 0, "combines": 0, "aborted": 0}

    def _check_alive(self) -> None:
        """Schedule-time alive-set check: refuse to start a reduction
        that already has a dead participant (every node contributes)."""
        health = self.device._fabric_health
        if health is None or not getattr(health, "has_node_faults",
                                         False):
            return
        dead = [rank for rank in range(self.device.torus.size)
                if not health.node_alive(rank)]
        if dead:
            raise ViaError(
                f"node {self.device.rank}: kernel collective with dead "
                f"participant(s) {dead}"
            )

    def _fail_pending(self, error: ViaError) -> None:
        for sequence, state in list(self._ops.items()):
            waiter = state.waiter
            if waiter is not None and not waiter.triggered:
                self.stats["aborted"] += 1
                del self._ops[sequence]
                waiter.fail(error)

    def on_peer_dead(self, dead_rank: int, reason: str = "") -> None:
        """Abort in-flight reductions: a participant died mid-wave."""
        self._fail_pending(ViaError(
            f"node {self.device.rank}: kernel collective aborted, "
            f"node {dead_rank} {reason or 'declared dead'}"
        ))

    def on_local_crash(self, reason: str = "node crashed") -> None:
        self._fail_pending(ViaError(
            f"node {self.device.rank}: kernel collective aborted, "
            f"local {reason}"
        ))

    # -- user API ---------------------------------------------------------
    def global_sum(self, value: Any, op: Callable[[Any, Any], Any],
                   nbytes: int = 8):
        """Process: contribute to the next reduction; returns the
        globally combined value.

        Collective: every node must call this the same number of times
        with the same operator.  The user pays one kernel crossing to
        deposit the contribution and is woken by the kernel broadcast.
        """
        self._sequence += 1
        sequence = self._sequence
        state = self._ops.setdefault(sequence, _OpState())
        state.op = op
        state.nbytes = nbytes
        state.waiter = self.sim.event(name=f"kcoll[{self.device.rank}]")
        self.stats["reductions"] += 1
        self._check_alive()
        rec = self.sim.recorder
        if rec is not None:
            state.trace = rec.start_trace(
                f"kcoll-{sequence}", f"n{self.device.rank}",
                self.sim.now)
            t0 = self.sim.now
        # Depositing the contribution crosses into the kernel.
        yield from self.device.host.cpu_work(
            self.device.host.params.syscall_cost, PRIO_USER
        )
        if rec is not None:
            rec.span(state.trace, _API_CALL, "kcoll-deposit",
                     f"n{self.device.rank}", t0, self.sim.now)
        self._contribute_local(sequence, value)
        result = yield state.waiter
        del self._ops[sequence]
        return result

    # -- kernel paths --------------------------------------------------------
    def _contribute_local(self, sequence: int, value: Any) -> None:
        state = self._ops.setdefault(sequence, _OpState())
        state.partial = value
        for early in state.pending:
            state.partial = state.op(state.partial, early)
        state.pending.clear()
        state.have_local = True
        self._maybe_forward(sequence)

    def handle_reduce(self, packet: ViaPacket):
        """Kernel handler: a child's partial value arrived (IRQ ctx)."""
        sequence, value = packet.payload
        yield self.sim.timeout(COMBINE_COST)
        self.stats["combines"] += 1
        state = self._ops.setdefault(sequence, _OpState())
        if state.op is None:
            # A child beat our local contribution; stash until
            # global_sum supplies the operator.
            state.pending.append(value)
        else:
            state.partial = state.op(state.partial, value)
        state.children_seen += 1
        self._maybe_forward(sequence)

    def _maybe_forward(self, sequence: int) -> None:
        state = self._ops.get(sequence)
        if state is None or not state.have_local:
            return
        if state.children_seen < len(self.children):
            return
        if self.parent is None:
            # Root: subtree complete == global result; broadcast it.
            self._broadcast(sequence, state.partial)
        else:
            self.sim.spawn(
                self._send(PacketKind.REDUCE, self.parent, sequence,
                           state.partial, state.nbytes, state.trace),
                name=f"kreduce[{self.device.rank}]",
            )

    def handle_cbcast(self, packet: ViaPacket):
        """Kernel handler: the combined result coming down (IRQ ctx)."""
        sequence, value = packet.payload
        yield self.sim.timeout(COMPLETE_COST)
        self._broadcast(sequence, value)

    def _broadcast(self, sequence: int, value: Any) -> None:
        state = self._ops.setdefault(sequence, _OpState())
        for child in self.children:
            self.sim.spawn(
                self._send(PacketKind.CBCAST, child, sequence, value,
                           state.nbytes or 8, state.trace),
                name=f"kcbcast[{self.device.rank}]",
            )
        rec = self.sim.recorder
        if rec is not None and state.trace is not None:
            rec.event(state.trace, _COMPLETION, "kcoll",
                      f"n{self.device.rank}", self.sim.now)
        if state.waiter is None:
            # Impossible in a correct collective: the root only
            # broadcasts after every node contributed, and contributing
            # sets the waiter.
            raise ViaError(
                f"node {self.device.rank}: collective result with no "
                "local participant"
            )
        self.sim.progress += 1
        state.waiter.succeed(value)

    def _send(self, kind: PacketKind, dst: int, sequence: int,
              value: Any, nbytes: int, trace=None):
        """Process: one kernel-level collective packet."""
        device = self.device
        try:
            port = device.egress_port(dst)
        except ViaError:
            # Destination unreachable (node death partitioned it off):
            # drop; the failure notice aborts the op at every waiter.
            return
        packet = ViaPacket(
            kind=kind,
            src_node=device.rank,
            dst_node=dst,
            dst_vi=0,
            msg_id=device.next_msg_id(),
            payload_bytes=nbytes,
            payload=(sequence, value),
        ).seal()
        if self.sim.recorder is not None:
            packet.trace = trace
        from repro.hw.link import Frame

        frame = Frame(nbytes, device.params.header_bytes,
                      payload=packet, kind=f"via-{kind.value}")
        yield from port.enqueue_tx(frame)
