"""Intel Pro/1000MT-class GigE port model.

Transmit pipeline (two overlapping stages, as on the real adapter):

1. *fetch* — pop the next transmit descriptor, DMA the frame from host
   memory into the on-board FIFO (PCI-X + memory-bus contention), run
   the frame's ``on_fetched`` hook, wait for a FIFO slot;
2. *wire* — per-descriptor NIC processing, then serialization onto the
   link.

Like the receive stage below, the pipeline exists in two forms that
schedule the same instants, chosen once, when the link is attached,
from what the port can see of itself.  ``_tx_fetch_loop`` /
``_tx_wire_loop``, a pair of processes joined by a ``Store``, is the
form of the reference scheduler and of every port whose wire step has
to stay a process: one on a :class:`~repro.hw.link.BoundaryLink`
(egress is committed at serialization *start*) and one that checksums
in software (CPU work sits between FIFO and wire).  Under the fast
scheduler a port on a plain link runs a callback recurrence instead:
the fetch step hangs off the DMA flow's callback list, a producer that
finds the FIFO full waits in a plain list, and the wire step is one
reusable queue entry per port (``_TxWire``) that, at serialization
end, runs ``Link.complete_tx``, takes the next frame, admits the
longest-blocked producer and — if that was the fetch stage — starts
the next fetch inline, which is where the process form's put would
have resumed it.

Receive pipeline:

1. *rx* — a serial stage: per-frame NIC processing (``rx_proc``), the
   optional ``collective_hook`` (a frame it consumes never reaches the
   host), one receive descriptor (waiting when the ring is empty, which
   models 802.3x pause back-pressure rather than drops), DMA of the
   frame to host memory.  It exists in two forms that schedule the same
   instants: ``_rx_loop``, a process, under the reference scheduler;
   under the fast one a callback recurrence on one reusable queue entry
   per port (``frame_arrived`` → ``_RxStage`` → DMA join → completion),
   with frames that land on a busy stage waiting in a plain deque;
2. *interrupt coalescing* — a pending-frame buffer raises the rx
   interrupt ``coalesce_delay`` us after the first undelivered frame or
   immediately once ``coalesce_frames`` are waiting (the "interrupt
   delay" driver tuning of paper section 3);
3. *interrupt* — the handler acquires the CPU at IRQ priority, pays the
   fixed interrupt cost plus a per-frame cost, then hands each frame to
   the attached protocol driver **while still holding the CPU** (Linux
   runs netdev rx at interrupt/softirq level).

Protocol drivers attach via :meth:`set_driver` with a generator
function ``driver(frame)`` that may charge further CPU time (the CPU is
already held) and must re-post receive descriptors via
:meth:`post_rx_descriptors`.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Generator, Optional

from repro.errors import ConfigurationError
from repro.obs.recorder import DMA as _DMA
from repro.hw.fastpath import (
    HARMLESS, FrameTrain, TRAIN_MIN_FRAMES, TrainCallback, commit_train,
    plan_train,
)
from repro.hw.link import Frame, Link
from repro.hw.node import Host, PRIO_IRQ
from repro.hw.params import GigEParams
from repro.sim import Simulator, Store, TokenPool
from repro.sim.events import Callback, Event, URGENT

#: On-board transmit FIFO depth, frames. Enough to keep the wire busy
#: while the next descriptor is fetched.
TX_FIFO_FRAMES = 4


class _StageEntry(Event):
    """A queue entry one serial stage of a port owns and queues again
    for each of its instants (fast scheduler); the stage is serial, so
    at most one is ever outstanding."""

    __slots__ = ("port",)

    def __init__(self, port: "GigEPort") -> None:
        super().__init__(port.sim)
        self.port = port
        self._ok = True
        self._value = None


class _RxStage(_StageEntry):
    """The receive stage's entry: queued for the end of each frame's
    NIC processing."""

    __slots__ = ()

    def _process(self) -> None:
        self.port._rx_processed()


class _TxWire(_StageEntry):
    """The wire stage's entry (plain link): queued for the instant the
    stage takes up a frame handed to it while parked, for the end of a
    committed train's residue and — ``sending`` — for the frame's
    serialization end."""

    __slots__ = ("sending",)

    def __init__(self, port: "GigEPort") -> None:
        super().__init__(port)
        self.sending = False

    def _process(self) -> None:
        if self.sending:
            self.port._tx_sent()
        else:
            self.port._tx_wire_start()


class GigEPort:
    """One port of a dual-port GigE adapter, bound to one link side."""

    def __init__(self, sim: Simulator, host: Host, params: GigEParams,
                 pci_index: int = 0, name: str = "gige") -> None:
        self.sim = sim
        self.host = host
        self.params = params
        self.pci_index = pci_index
        self.name = name
        self.link: Optional[Link] = None
        self.side: Optional[int] = None
        # Transmit path.
        self.tx_queue = Store(sim, capacity=params.tx_ring,
                              name=f"{name}:txq")
        self._tx_fifo = Store(sim, capacity=TX_FIFO_FRAMES,
                              name=f"{name}:txfifo")
        #: The wire stage's entry; set (by ``attach_link``) on a port
        #: whose transmit pipeline runs as callbacks, which then uses
        #: the FIFO Store as deque and counters only: no put or get
        #: event, waiters in ``_tx_blocked``.
        self._tx_wire: Optional[_TxWire] = None
        #: Callback form: the frame in the fetch stage and when its DMA
        #: began; the frame at the wire stage (None while it is parked)
        #: and when its serialization began.
        self._tx_frame: Optional[Frame] = None
        self._tx_t0 = 0.0
        self._tx_wire_frame: Optional[Frame] = None
        self._tx_started = 0.0
        #: Producers that found the FIFO full, oldest first: (frame,
        #: event to succeed on admission — None for the fetch stage).
        self._tx_blocked: list = []
        #: Frames left of a train that was not planned, else None.
        self._tx_unbundled = None
        # Receive path.
        self.rx_credits = TokenPool(sim, params.rx_ring,
                                    level=params.rx_ring,
                                    name=f"{name}:rxcred")
        #: Frames landed but not yet in the rx stage.  The reference
        #: scheduler's rx process waits on a Store; the fast one runs
        #: the stage as callbacks on one reusable entry, so nothing ever
        #: waits and a deque will do (built with the entry, on the
        #: port's first frame).
        self._rx_arrivals = (None if sim._fast
                             else Store(sim, name=f"{name}:rxarr"))
        self._rx_stage: Optional[_RxStage] = None
        #: The frame in the rx stage (fast form), and when its DMA began.
        self._rx_frame: Optional[Frame] = None
        self._rx_t0 = 0.0
        self._pending_frames: list = []
        self._irq_timer_deadline: Optional[float] = None
        self._irq_timer_cb: Optional[TrainCallback] = None
        self._driver: Optional[Callable[[Frame], Generator]] = None
        #: NIC-site collective hook (via.offload_collective),
        #: consulted in the rx stage before any receive descriptor is
        #: consumed.  A True return means the frame was consumed
        #: entirely inside the NIC: no credit, no DMA, no interrupt.
        self.collective_hook: Optional[Callable[[Frame], bool]] = None
        #: Frames hidden inside queued FrameTrains (ring-level parity).
        self._tx_extra = 0
        #: Residue of the last committed train (see hw.fastpath).
        self._virt = None
        self.stats = {
            "tx_frames": 0, "rx_frames": 0, "interrupts": 0,
            "tx_bytes": 0, "rx_bytes": 0, "rx_stalls": 0,
            "trains": 0, "train_frames": 0, "train_fallbacks": 0,
            "nic_rx": 0, "nic_tx": 0,
        }
        if not sim._fast:
            sim.spawn(self._rx_loop(), name=f"{self.name}:rx")

    # -- wiring ------------------------------------------------------------
    def attach_link(self, link: Link, side: int) -> None:
        if self.link is not None:
            raise ConfigurationError(f"{self.name} already attached")
        link.attach(side, self)
        self.link = link
        self.side = side
        sim = self.sim
        if sim._fast and self.params.hw_checksum and not link.is_boundary:
            # Nothing but this port's wire step ever asks for the line
            # and no CPU work sits between FIFO and wire, so the wire
            # step need not be a process: the callback form.
            self._tx_wire = _TxWire(self)
            # The fetch stage parks on the ring once the simulation
            # runs, as a spawned process would.
            Callback(sim, self._tx_fetch_next, priority=URGENT)
        else:
            sim.spawn(self._tx_fetch_loop(), name=f"{self.name}:txfetch")
            sim.spawn(self._tx_wire_loop(), name=f"{self.name}:txwire")

    def set_driver(self, driver: Callable[[Frame], Generator]) -> None:
        """Install the protocol rx handler (a generator function)."""
        self._driver = driver

    # -- transmit ---------------------------------------------------------
    def _need_link(self) -> None:
        # The pipeline starts with the link; a frame handed to a port
        # that has none would sit in the ring for ever.
        if self.link is None:
            raise ConfigurationError(f"{self.name} has no link")

    def enqueue_tx(self, frame: Frame):
        """Process: place a frame on the transmit descriptor ring.

        Blocks when the ring is full (the paper's driver used 2048
        descriptors exactly to make such stalls rare).
        """
        self._need_link()
        yield self.tx_queue.put(frame)

    def try_enqueue_tx(self, frame: Frame) -> bool:
        """Non-blocking ring post; False if the ring is full."""
        self._need_link()
        if (len(self.tx_queue) + self._tx_extra
                >= self.tx_queue.capacity):
            return False
        return self.tx_queue.try_put(frame)

    def send_frames(self, frames: list):
        """Process: enqueue a frame burst; as one train when eligible.

        Reference semantics are a per-frame ring put; the train is a
        fast-path container the fetch stage either plans analytically
        (see :mod:`repro.hw.fastpath`) or unbundles into the identical
        per-frame path.  The whole burst must fit the ring — a burst
        that would block mid-way keeps the per-frame puts.
        """
        self._need_link()
        tx_queue = self.tx_queue
        if (self.sim._fast and len(frames) >= TRAIN_MIN_FRAMES
                and not tx_queue._putters
                and len(tx_queue) + self._tx_extra + len(frames)
                <= tx_queue.capacity):
            self._tx_extra += len(frames) - 1
            tx_queue.stats["puts"] += len(frames) - 1
            yield tx_queue.put(FrameTrain(frames))
            return
        for frame in frames:
            yield tx_queue.put(frame)

    def _open_train(self, train: FrameTrain) -> list:
        """A train leaves the ring: its frames, counted as the ring
        would have counted them one by one."""
        frames = train.frames
        self._tx_extra -= len(frames) - 1
        self.tx_queue.stats["gets"] += len(frames) - 1
        return frames

    def nic_inject_tx(self, frame: Frame):
        """Process: transmit a NIC-originated frame (no descriptor).

        Collective frames the NIC firmware emits were never posted by
        the host, so there is no descriptor fetch and no DMA — the
        frame materializes directly in the on-board transmit FIFO
        (honoring the committed-train residue backpressure exactly
        like the fetch stage) and the wire stage treats it like any
        other frame.
        """
        self._need_link()
        sim = self.sim
        fifo = self._tx_fifo
        virt = self._virt
        if virt is not None:
            while (len(fifo) + virt.occupancy(sim._now)
                    >= fifo.capacity and virt.free_at):
                yield sim.sleep_until(virt.free_at[0])
        self.stats["nic_tx"] += 1
        if self._tx_wire is not None:
            if not self._tx_fifo_put(frame):
                admitted = Event(sim)
                self._tx_blocked.append((frame, admitted))
                yield admitted
        elif not (sim._fast and fifo.try_put(frame)):
            yield fifo.put(frame)

    # The pipeline as two processes: the reference scheduler's form, the
    # oracle for the callback form below, and the fast scheduler's form
    # for a port whose wire step has to be a process (shard boundary,
    # software checksum).  Such a port never plans a train
    # (``plan_train`` refuses both) and so never sees a train's residue.
    def _tx_fetch_loop(self):
        sim = self.sim
        tx_queue = self.tx_queue
        while True:
            frame = tx_queue.try_get() if sim._fast else None
            if frame is None:
                frame = yield tx_queue.get()
            if type(frame) is FrameTrain:
                frames = self._open_train(frame)
                # Unbundle at the instant the callback form would have
                # judged quiescence (see _tx_plan).
                spins = 0
                while (sim._urgent or sim._normal) and spins < 8:
                    spins += 1
                    yield sim.timeout(0)
                self.stats["train_fallbacks"] += 1
                for item in frames:
                    yield from self._fetch_one(item)
                continue
            yield from self._fetch_one(frame)

    def _fetch_one(self, frame: Frame):
        sim = self.sim
        fifo = self._tx_fifo
        wire = frame.padded_bytes + self.params.frame_overhead
        t0 = sim._now
        if sim._fast:
            yield self.host.dma_event(wire, self.pci_index)
        else:
            yield from self.host.dma(wire, self.pci_index)
        if sim.recorder is not None:
            self._tx_fetched_span(frame, t0)
        if frame.on_fetched is not None:
            frame.on_fetched()
        if not (sim._fast and fifo.try_put(frame)):
            yield fifo.put(frame)

    def _tx_fetched_span(self, frame: Frame, t0: float) -> None:
        ctx = getattr(frame.payload, "trace", None)
        if ctx is not None:
            self.sim.recorder.span(ctx, _DMA, self.name,
                                   f"n{self.host.node_id}", t0,
                                   self.sim._now)

    def _tx_wire_loop(self):
        params = self.params
        sim = self.sim
        fifo = self._tx_fifo
        while True:
            frame = fifo.try_get() if sim._fast else None
            if frame is None:
                frame = yield fifo.get()
            # Per-descriptor NIC processing is serial with the wire:
            # this is the ~0.9us that caps a saturated link at ~110 MB/s
            # of user payload (paper section 4.1).
            yield self.sim.timeout(params.tx_proc)
            if not params.hw_checksum:
                yield from self.host.cpu_work(
                    params.sw_checksum_per_byte
                    * (frame.payload_bytes + frame.header_bytes),
                    PRIO_IRQ,
                )
            self.stats["tx_frames"] += 1
            self.stats["tx_bytes"] += frame.payload_bytes
            yield from self.link.transmit(self.side, frame)

    # The same pipeline as a callback recurrence (fast scheduler, plain
    # link).  Each step runs where the process form would have been
    # resumed and queues what it would have queued, in the same order,
    # with one exception: the FIFO slot a serialization end frees for a
    # blocked producer.  The process form queues the producer's put in
    # the urgent lane — empty, or the serialization end (a NORMAL entry
    # of the same instant) would not be running — so it is the very next
    # entry processed; the wire step admits the frame and, when it is
    # the fetch stage that waited, calls it on the spot instead.  An
    # entry goes, no other changes place.
    def _tx_fetch_next(self, _event: Optional[Event] = None) -> None:
        """The fetch stage is free: the next frame of an unbundled
        train, else the ring's next item, else park on the ring."""
        rest = self._tx_unbundled
        if rest is not None:
            frame = next(rest, None)
            if frame is not None:
                self._tx_fetch(frame)
                return
            self._tx_unbundled = None
        item = self.tx_queue.try_get()
        if item is None:
            self.tx_queue.get().callbacks.append(self._tx_ring_got)
        else:
            self._tx_take(item)

    def _tx_ring_got(self, got: Event) -> None:
        self._tx_take(got._value)

    def _tx_take(self, item) -> None:
        if type(item) is FrameTrain:
            self._tx_plan(self._open_train(item), 0)
        else:
            self._tx_fetch(item)

    def _tx_plan(self, frames: list, spins: int) -> None:
        sim = self.sim
        # Let same-instant bookkeeping (the enqueueing process's
        # continuation, completion plumbing) drain before judging
        # quiescence.
        if (sim._urgent or sim._normal) and spins < 8:
            sim.timeout(0).callbacks.append(
                lambda _spin: self._tx_plan(frames, spins + 1))
            return
        plan = plan_train(self, frames)
        if plan is None:
            self.stats["train_fallbacks"] += 1
            self._tx_unbundled = iter(frames)
            self._tx_fetch_next()
            return
        self.stats["trains"] += 1
        self.stats["train_frames"] += len(frames)
        commit_train(self, frames, plan)
        # Park until the per-frame fetch stage would return to the ring
        # (its last FIFO put).
        sim.sleep_until(plan.fetch_free).callbacks.append(
            self._tx_fetch_next)

    def _tx_fetch(self, frame: Frame) -> None:
        self._tx_frame = frame
        self._tx_t0 = self.sim._now
        self.host.dma_event(
            frame.padded_bytes + self.params.frame_overhead, self.pci_index,
        ).callbacks.append(self._tx_fetched)

    def _tx_fetched(self, _flow: Event) -> None:
        frame = self._tx_frame
        if self.sim.recorder is not None:
            self._tx_fetched_span(frame, self._tx_t0)
        if frame.on_fetched is not None:
            try:
                frame.on_fetched()
            except BaseException as exc:
                # What a process that raises does: this stage stops and
                # the kernel re-raises once the entry is done.
                self.sim._crash(self, exc)
                return
        self._tx_put(frame, self._virt)

    def _tx_put(self, frame: Frame, virt) -> None:
        """The fetch stage's FIFO put."""
        sim = self.sim
        fifo = self._tx_fifo
        # FIFO slots still virtually held by a committed train count
        # against the put, until their planned pop instants.
        if (virt is not None
                and len(fifo) + virt.occupancy(sim._now) >= fifo.capacity
                and virt.free_at):
            sim.sleep_until(virt.free_at[0]).callbacks.append(
                lambda _freed: self._tx_put(frame, virt))
        elif self._tx_fifo_put(frame):
            self._tx_fetch_next()
        else:
            self._tx_blocked.append((frame, None))

    def _tx_fifo_put(self, frame: Frame) -> bool:
        """Put without waiting; False when the FIFO is full.  (Full
        whenever a producer is blocked: a freed slot is refilled at
        once.)"""
        fifo = self._tx_fifo
        if not fifo.try_put(frame):
            return False
        if self._tx_wire_frame is None:
            # The wire stage is parked, so the FIFO was empty: the frame
            # goes straight through, and the stage takes it up at this
            # instant behind the entries already queued — where the
            # process form's get would have resumed.
            self._tx_wire_frame = fifo.try_get()
            self.sim.schedule(self._tx_wire, 0.0, URGENT)
        return True

    def _tx_wire_start(self) -> None:
        sim = self.sim
        wire = self._tx_wire
        virt = self._virt
        if virt is not None:
            if sim._now < virt.wire_ready:
                # The virtual wire is still draining a train: this frame
                # starts only once it frees, and its FIFO slot (popped
                # early here) stays occupied until then for fetch
                # backpressure.
                virt.free_at.append(virt.wire_ready)
                sim.schedule_at(wire, virt.wire_ready)
                return
            self._virt = None
        # Per-descriptor processing and serialization are two
        # back-to-back waits with nothing observable between them (the
        # line has no other requester), so they are one absolute
        # wakeup.  The additions mirror the two timeout schedules of
        # the process form exactly.
        self._tx_started = start = sim._now + self.params.tx_proc
        wire.sending = True
        sim.schedule_at(
            wire, start + self.link.serialization_time(self._tx_wire_frame))

    def _tx_sent(self) -> None:
        frame = self._tx_wire_frame
        self.stats["tx_frames"] += 1
        self.stats["tx_bytes"] += frame.payload_bytes
        self.link.complete_tx(self.side, frame, started=self._tx_started)
        self._tx_wire.sending = False
        fifo = self._tx_fifo
        self._tx_wire_frame = fifo.try_get()
        if self._tx_wire_frame is None:
            return  # parked
        fetch_waited = False
        if self._tx_blocked:
            held, admitted = self._tx_blocked.pop(0)
            fifo.try_put(held)
            if admitted is None:
                fetch_waited = True
            else:
                admitted.succeed(None, URGENT)
        self._tx_wire_start()
        if fetch_waited:
            self._tx_fetch_next()

    # -- receive ---------------------------------------------------------
    def frame_arrived(self, frame: Frame) -> None:
        """Called by the link when a frame lands on this port."""
        if not self.sim._fast:
            self._rx_arrivals.try_put(frame)
        elif self._rx_frame is None:
            self._rx_begin(frame)
        else:
            self._rx_arrivals.append(frame)

    def post_rx_descriptors(self, count: int = 1) -> None:
        """Protocol driver returns ``count`` receive descriptors."""
        credits = self.rx_credits
        if credits.level + count > credits.capacity:
            raise ConfigurationError(f"{self.name}: rx ring over-posted")
        credits.add(count)

    def _rx_loop(self):
        """The rx stage as a process: the reference scheduler's form,
        and the oracle for the callback form below."""
        params = self.params
        sim = self.sim
        arrivals = self._rx_arrivals
        credits = self.rx_credits
        while True:
            frame = yield arrivals.get()
            yield sim.timeout(params.rx_proc)
            hook = self.collective_hook
            if hook is not None and hook(frame):
                # Collective frame handled by the NIC engine: it never
                # touches the host (no descriptor, DMA or interrupt).
                self.stats["nic_rx"] += 1
                continue
            if credits.level == 0:
                self.stats["rx_stalls"] += 1
            yield credits.get()
            t0 = sim._now
            yield from self.host.dma(
                frame.padded_bytes + params.frame_overhead, self.pci_index)
            self._rx_delivered(frame, t0)

    # The same stage under the fast scheduler: a callback recurrence on
    # one reusable queue entry.  Each step runs where the process form
    # would have been resumed, so every entry keeps its sequence
    # position relative to the rest of the simulation.
    def _rx_begin(self, frame: Frame) -> None:
        stage = self._rx_stage
        if stage is None:
            stage = self._rx_stage = _RxStage(self)
            self._rx_arrivals = deque()
        self._rx_frame = frame
        self.sim.schedule(stage, self.params.rx_proc)

    def _rx_processed(self) -> None:
        hook = self.collective_hook
        if hook is not None and hook(self._rx_frame):
            self.stats["nic_rx"] += 1
            self._rx_next()
            return
        credits = self.rx_credits
        if credits.level == 0:
            self.stats["rx_stalls"] += 1
            credits.get().callbacks.append(self._rx_dma)
        else:
            credits.try_get()
            self._rx_dma()

    def _rx_dma(self, _credit: Optional[Event] = None) -> None:
        self._rx_t0 = self.sim._now
        self.host.dma_event(
            self._rx_frame.padded_bytes + self.params.frame_overhead,
            self.pci_index,
        ).callbacks.append(self._rx_dma_done)

    def _rx_dma_done(self, _flow: Event) -> None:
        self._rx_delivered(self._rx_frame, self._rx_t0)
        self._rx_next()

    def _rx_next(self) -> None:
        if self._rx_arrivals:
            self._rx_begin(self._rx_arrivals.popleft())
        else:
            self._rx_frame = None

    def _rx_delivered(self, frame: Frame, t0: float) -> None:
        """A frame's DMA to host memory has completed: count it and
        run interrupt coalescing.  Shared by both rx-stage forms."""
        params = self.params
        sim = self.sim
        rec = sim.recorder
        if rec is not None:
            ctx = getattr(frame.payload, "trace", None)
            if ctx is not None:
                rec.span(ctx, _DMA, self.name,
                         f"n{self.host.node_id}", t0, sim._now)
                # handle_frame turns this into the irq-wait span.
                frame.rx_ready = sim._now
        self.stats["rx_frames"] += 1
        self.stats["rx_bytes"] += frame.payload_bytes
        self._pending_frames.append(frame)
        if len(self._pending_frames) >= params.coalesce_frames:
            self._fire_irq()
        elif self._irq_timer_deadline is None:
            deadline = sim._now + params.coalesce_delay
            self._irq_timer_deadline = deadline
            if sim._fast:
                # Same fire instant as the spawned timer: the delay
                # expression matches _irq_timer's timeout op-for-op
                # (the spawn's init event runs at this same instant).
                self._irq_timer_cb = TrainCallback(
                    sim, partial(self._irq_timer_fired, deadline),
                    delay=max(0.0, deadline - sim._now))
            else:
                sim.spawn(self._irq_timer(deadline),
                          name=f"{self.name}:irqtimer")

    def _irq_timer_fired(self, deadline: float) -> None:
        if self._irq_timer_deadline == deadline:
            self._irq_timer_cb = None
            if self._pending_frames:
                self._fire_irq()

    def _irq_timer(self, deadline: float):
        yield self.sim.timeout(max(0.0, deadline - self.sim._now))
        self._irq_timer_fired(deadline)

    def _fire_irq(self) -> None:
        if self._irq_timer_cb is not None:
            # Preempted by the frame-count threshold: the queued timer
            # callback will fire as a deadline-mismatch no-op, so the
            # train guard may ignore it.
            self._irq_timer_cb.guard_scope = HARMLESS
            self._irq_timer_cb = None
        self._irq_timer_deadline = None
        if not self._pending_frames:
            return
        frames, self._pending_frames = self._pending_frames, []
        self.stats["interrupts"] += 1
        if self._driver is None:
            raise ConfigurationError(
                f"{self.name}: frame received with no driver attached"
            )
        # Hand the batch to the host's shared interrupt dispatcher —
        # one CPU entry services pending frames from every port.
        self.host.irq.raise_irq([(self._driver, f) for f in frames],
                                source=self.name)

    def __repr__(self) -> str:  # pragma: no cover
        return f"GigEPort({self.name})"
