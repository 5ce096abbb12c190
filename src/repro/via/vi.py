"""The Virtual Interface endpoint.

A VI is a pair of work queues (send, receive) plus connection state.
Descriptors are posted from user space; the device DMAs straight from
or into the registered buffers.  Completions land either on the VI's
own queues or on an attached :class:`~repro.via.completion.CompletionQueue`.

Cost model (user-level library, runs at ``PRIO_USER``):

* ``post_send`` / ``post_rma_write`` pay the send-side host overhead
  (descriptor build + doorbell, ~2.4 us);
* ``recv_wait``/``send_wait`` pay the receive-side completion overhead
  when they *consume* a completion (~3.4 us for receives — together
  with the send side this is the paper's ~6 us host overhead);
* ``post_recv`` is cheap (pre-posting buffers is how VIA amortizes it)
  and modeled as free; ``post_recv_slots`` pre-posts a slab of equal
  buffers as one queue entry (a ring is a count until traffic touches it).
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple, TYPE_CHECKING

from repro.errors import (
    ViaDescriptorError,
    ViaNotConnectedError,
)
from repro.hw.node import PRIO_USER
from repro.obs import API_CALL as _API_CALL, COMPLETION as _COMPLETION
from repro.sim import Store
from repro.via.completion import CompletionQueue, RECV_QUEUE, SEND_QUEUE
from repro.via.descriptors import (
    Descriptor,
    RecvDescriptor,
    RmaWriteDescriptor,
    SendDescriptor,
)
from repro.via.memory import MemoryRegion, ProtectionTag

if TYPE_CHECKING:  # pragma: no cover
    from repro.via.device import ViaDevice


class ViState(enum.Enum):
    IDLE = "idle"
    CONNECT_PENDING = "connect-pending"
    CONNECTED = "connected"
    ERROR = "error"


class Reliability(enum.Enum):
    """VIA reliability levels (section 2)."""

    UNRELIABLE = "unreliable-delivery"
    RELIABLE_DELIVERY = "reliable-delivery"
    RELIABLE_RECEPTION = "reliable-reception"


RELIABILITY_LEVELS = tuple(Reliability)


class RecvQueue:
    """A VI's posted receive buffers, consumed strictly in FIFO order
    (VIA has no matching; tags live in the layers above).  An entry is
    a :class:`RecvDescriptor` or a run of equal slots, ``[region,
    offset, stride, nbytes, count]``, built into descriptors one at a
    time as :meth:`popleft` reaches them.  ``len()`` counts buffers.
    """

    __slots__ = ("_entries", "_unbuilt")

    def __init__(self) -> None:
        #: A list, not a deque: it holds a run or two (760 bytes a deque,
        #: 56 a list), and a VI exists per channel end.
        self._entries: list = []
        #: Buffers still inside runs, beyond each run's one entry.
        self._unbuilt = 0

    def __len__(self) -> int:
        return len(self._entries) + self._unbuilt

    def append(self, descriptor: RecvDescriptor) -> None:
        """Post one descriptor."""
        self._entries.append(descriptor)

    def append_run(self, region: MemoryRegion, stride: int, nbytes: int,
                   count: int) -> None:
        self._entries.append([region, 0, stride, nbytes, count])
        self._unbuilt += count - 1

    def popleft(self) -> RecvDescriptor:
        """The oldest posted buffer; ``IndexError`` when none is."""
        entries = self._entries
        run = entries[0]
        if run.__class__ is not list:
            return entries.pop(0)
        region, offset, stride, nbytes, count = run
        if count == 1:
            del entries[0]
        else:
            run[1] = offset + stride
            run[4] = count - 1
            self._unbuilt -= 1
        return RecvDescriptor(region, offset, nbytes)


class VI:
    """One communication endpoint.  Create via ``ViaDevice.create_vi``."""

    __slots__ = ("device", "vi_id", "tag", "reliability", "state", "error",
                 "peer", "send_cq", "recv_cq", "_send_done", "_recv_done",
                 "recv_queue", "_reassembly", "stats")

    def __init__(self, device: "ViaDevice", vi_id: int, tag: ProtectionTag,
                 send_cq: Optional[CompletionQueue] = None,
                 recv_cq: Optional[CompletionQueue] = None,
                 reliability: Reliability = Reliability.RELIABLE_DELIVERY,
                 ) -> None:
        self.device = device
        self.vi_id = vi_id
        self.tag = tag
        self.reliability = reliability
        self.state = ViState.IDLE
        #: The ViaError that moved the VI to ERROR (reliable-delivery
        #: retry budget exhausted, failed handshake), if any.
        self.error: Optional[Exception] = None
        #: (peer node rank, peer vi id) once connected.
        self.peer: Optional[Tuple[int, int]] = None
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        #: The VI's own completion stores, made by the first completion
        #: or wait that needs one (see :meth:`_done`): a queue whose
        #: completions all go to a CQ or an ``on_complete`` hook never
        #: has one.
        self._send_done: Optional[Store] = None
        self._recv_done: Optional[Store] = None
        self.recv_queue = RecvQueue()
        #: In-flight reassembly: (msg_id, next_frag, descriptor).
        self._reassembly: Optional[list] = None
        self.stats = {"sends": 0, "recvs": 0, "rma_writes": 0,
                      "send_bytes": 0, "recv_bytes": 0}

    # -- connection -----------------------------------------------------------
    def require_connected(self) -> None:
        if self.state is not ViState.CONNECTED:
            raise ViaNotConnectedError(
                f"VI {self.vi_id} on node {self.device.rank} is "
                f"{self.state.value}"
            )

    # -- posting ------------------------------------------------------------
    def post_recv(self, descriptor: RecvDescriptor) -> None:
        """Pre-post a receive buffer (cheap, non-blocking)."""
        if not isinstance(descriptor, RecvDescriptor):
            raise ViaDescriptorError(
                f"post_recv needs a RecvDescriptor, got {type(descriptor)}"
            )
        if descriptor.region.tag != self.tag:
            raise ViaDescriptorError("descriptor/VI protection tag mismatch")
        if len(self.recv_queue) >= self.device.params.recv_queue_depth:
            raise ViaDescriptorError(
                f"VI {self.vi_id} receive queue full "
                f"({self.device.params.recv_queue_depth})"
            )
        self.recv_queue.append(descriptor)

    def post_recv_slots(self, region: MemoryRegion, stride: int,
                        nbytes: int, count: int) -> None:
        """Pre-post ``count`` buffers of ``nbytes`` at ``region`` offsets
        ``0, stride, 2*stride, ...``: the buffers, checks and order of
        ``count`` :meth:`post_recv` calls, but all or nothing and O(1) —
        a slot's descriptor is built when a message consumes it.
        """
        if count < 1 or stride < 0:
            raise ViaDescriptorError(
                f"need count >= 1 and stride >= 0, got {count}, {stride}"
            )
        # First and last slot bound the run: apply their segment checks.
        RecvDescriptor(region, 0, nbytes)
        if region.tag != self.tag:
            raise ViaDescriptorError("descriptor/VI protection tag mismatch")
        RecvDescriptor(region, (count - 1) * stride, nbytes)
        depth = self.device.params.recv_queue_depth
        if len(self.recv_queue) + count > depth:
            raise ViaDescriptorError(
                f"VI {self.vi_id} receive queue full ({depth})"
            )
        self.recv_queue.append_run(region, stride, nbytes, count)

    def post_send(self, descriptor: SendDescriptor):
        """Process: post a send; returns once handed to the device.

        Completion (buffer reusable) is reported separately through
        :meth:`send_wait` / the send CQ.
        """
        return self._post(descriptor, SendDescriptor, "a SendDescriptor")

    def post_rma_write(self, descriptor: RmaWriteDescriptor):
        """Process: post a remote-DMA write (zero-copy on both ends)."""
        return self._post(descriptor, RmaWriteDescriptor,
                          "RmaWriteDescriptor")

    def _post(self, descriptor, wanted, needs: str):
        """Process: the one post.  The descriptor's class names what
        differs between the kinds (see :class:`SendDescriptor`)."""
        self.require_connected()
        if not isinstance(descriptor, wanted):
            raise ViaDescriptorError(
                f"{wanted.post_name} needs {needs}, got {type(descriptor)}"
            )
        if descriptor.region.tag != self.tag:
            raise ViaDescriptorError("descriptor/VI protection tag mismatch")
        self.stats[wanted.stat] += 1
        self.stats["send_bytes"] += descriptor.nbytes
        rec = self.device.sim.recorder
        if rec is not None:
            if descriptor.trace is None:
                # Raw VIA entry point: this is where the message is born.
                descriptor.trace = rec.start_trace(
                    f"{wanted.trace_label} vi{self.vi_id} "
                    f"{descriptor.nbytes}B",
                    f"n{self.device.rank}", self.device.sim.now,
                )
            t0 = self.device.sim.now
        yield from self.device.host.cpu_work(
            self.device.params.send_overhead, PRIO_USER
        )
        if rec is not None:
            rec.span(descriptor.trace, _API_CALL, wanted.post_name,
                     f"n{self.device.rank}", t0, self.device.sim.now)
        yield from self.device.transmit(self, descriptor)

    # -- completion consumption ---------------------------------------------
    def send_wait(self):
        """Process: next send completion (descriptor)."""
        if self.send_cq is not None:
            raise ViaDescriptorError(
                f"VI {self.vi_id} send completions go to its CQ"
            )
        descriptor = yield self._done(SEND_QUEUE).get()
        return descriptor

    def recv_wait(self):
        """Process: next receive completion; pays the recv overhead."""
        if self.recv_cq is not None:
            raise ViaDescriptorError(
                f"VI {self.vi_id} recv completions go to its CQ"
            )
        descriptor = yield self._done(RECV_QUEUE).get()
        rec = self.device.sim.recorder
        if rec is not None:
            t0 = self.device.sim.now
        yield from self.device.host.cpu_work(
            self.device.params.recv_overhead, PRIO_USER
        )
        if rec is not None and descriptor.trace is not None:
            rec.span(descriptor.trace, _API_CALL, "recv_wait",
                     f"n{self.device.rank}", t0, self.device.sim.now)
        return descriptor

    def consume_recv_cost(self):
        """Process: pay the user-level completion-processing overhead
        for a completion obtained through a CQ."""
        yield from self.device.host.cpu_work(
            self.device.params.recv_overhead, PRIO_USER
        )

    # -- device-side completion delivery -------------------------------------
    def _record_completion(self, descriptor, name: str) -> None:
        rec = self.device.sim.recorder
        if rec is not None and descriptor.trace is not None:
            rec.event(descriptor.trace, _COMPLETION, name,
                      f"n{self.device.rank}", self.device.sim.now)

    def _done(self, queue: str) -> Store:
        """The VI's own completion store for ``queue``, made on first
        use."""
        if queue is SEND_QUEUE:
            done = self._send_done
            if done is None:
                done = self._send_done = Store(
                    self.device.sim, name=f"vi{self.vi_id}:sdone")
        else:
            done = self._recv_done
            if done is None:
                done = self._recv_done = Store(
                    self.device.sim, name=f"vi{self.vi_id}:rdone")
        return done

    def _deliver(self, descriptor: Descriptor, cq, queue: str) -> None:
        """Hand a finished descriptor to its hook, else CQ, else VI."""
        if descriptor.on_complete is not None:
            descriptor.on_complete(descriptor)
        elif cq is not None:
            cq.push(self, queue, descriptor)
        else:
            self._done(queue).push(descriptor)

    def complete_send(self, descriptor: Descriptor) -> None:
        self.device.sim.progress += 1
        self._record_completion(descriptor, "send-complete")
        descriptor.mark_done(self.device.sim.now)
        self._deliver(descriptor, self.send_cq, SEND_QUEUE)

    def fail_send(self, descriptor: Descriptor) -> None:
        """Deliver a failed send completion (reliable-delivery retry
        budget exhausted).  The descriptor is marked errored and still
        pushed to the normal completion surface, mirroring how VIA
        reports transport errors through the completion path."""
        self.device.sim.progress += 1
        self._record_completion(descriptor, "send-error")
        descriptor.error = self.error
        descriptor.mark_error(self.device.sim.now)
        self._deliver(descriptor, self.send_cq, SEND_QUEUE)

    def fail_recv(self, descriptor: RecvDescriptor) -> None:
        """Deliver a failed receive completion (peer declared dead).

        Draining posted receive buffers with ``DescriptorStatus.ERROR``
        through the normal completion surface is what lets a blocked
        ``recv_wait()``/CQ ``wait()`` return instead of hanging when
        the peer node dies.
        """
        self.device.sim.progress += 1
        self._record_completion(descriptor, "recv-error")
        descriptor.error = self.error
        descriptor.mark_error(self.device.sim.now)
        self._deliver(descriptor, self.recv_cq, RECV_QUEUE)

    def complete_recv(self, descriptor: RecvDescriptor) -> None:
        self.device.sim.progress += 1
        self._record_completion(descriptor, "recv-complete")
        self.stats["recvs"] += 1
        self.stats["recv_bytes"] += descriptor.received_bytes
        descriptor.mark_done(self.device.sim.now)
        self._deliver(descriptor, self.recv_cq, RECV_QUEUE)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"VI(id={self.vi_id}, node={self.device.rank}, "
            f"state={self.state.value})"
        )
