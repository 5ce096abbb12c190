"""Intel Pro/1000MT-class GigE port model.

Transmit pipeline (two overlapping stages, as on the real adapter):

1. *fetch* — pop the next transmit descriptor, DMA the frame from host
   memory into the on-board FIFO (PCI-X + memory-bus contention), run
   the frame's ``on_fetched`` hook, wait for a FIFO slot;
2. *wire* — per-descriptor NIC processing; the software checksum, CPU
   work at interrupt priority, when the port has no checksum offload;
   then serialization onto the link.

Every stage of a port is a callback recurrence, under either scheduler;
none is a process.  The fetch step hangs off the DMA flow's callback
list, and a producer that finds the FIFO full waits in a plain list.
The wire step is one reusable queue entry per port (``_TxWire``).  With
checksum offload on a plain link, processing and serialization are one
absolute wakeup.  A software checksum puts the CPU step between them,
and a :class:`~repro.hw.link.BoundaryLink` commits the frame's egress
at the serialization-start instant, so those ports give processing an
entry of its own.  At serialization end the stage runs
``link.complete_tx``, takes the next frame, admits the longest-blocked
producer and — if that was the fetch stage — starts the next fetch
inline.

Receive pipeline:

1. *rx* — a serial stage on one reusable queue entry per port
   (``frame_arrived`` → ``_RxStage`` → DMA join → completion); frames
   that land on a busy stage wait in a plain list.  Per frame: NIC
   processing (``rx_proc``), the optional ``collective_hook`` (a frame
   it consumes never reaches the host), one receive descriptor (waiting
   when the ring is empty, which models 802.3x pause back-pressure
   rather than drops), DMA of the frame to host memory;
2. *interrupt coalescing* — a pending-frame buffer raises the rx
   interrupt ``coalesce_delay`` us after the first undelivered frame or
   immediately once ``coalesce_frames`` are waiting (the "interrupt
   delay" driver tuning of paper section 3);
3. *interrupt* — the handler acquires the CPU at IRQ priority, pays the
   fixed interrupt cost plus a per-frame cost, then hands each frame to
   the attached protocol driver **while still holding the CPU** (Linux
   runs netdev rx at interrupt/softirq level).

The stages used to be processes: a fetch/wire pair joined by a
``Store``, an rx process and a process per coalescing timer.  Those
forms are kept verbatim in ``tests/test_nic_oracle.py``, and the
callback forms are tested against them: same instants, same counters.

Protocol drivers attach via :meth:`set_driver` with a generator
function ``driver(frame)`` that may charge further CPU time (the CPU is
already held) and must re-post receive descriptors via
:meth:`post_rx_descriptors`.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Generator, Optional

from repro.errors import ConfigurationError
from repro.obs import DMA as _DMA
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


class Burst:
    """Frames posted as one message, each built only when it is taken.

    The port takes them in order: :meth:`cut` builds the next one just
    before the fetch stage needs it (or a committed train schedules
    it), so a message waiting in the transmit ring costs its burst, not
    its frames.  :meth:`sizes` gives every frame's (payload bytes,
    padded bytes) without building any, which is all a train plan
    needs, or None when a frame before the last carries an
    ``on_fetched`` hook: a plan needs the host to itself until its last
    DMA.  ``count`` frames, ``taken`` of them cut so far; subclasses
    build frame ``index`` in :meth:`frame`.
    """

    __slots__ = ("count", "taken")

    def cut(self) -> Frame:
        """The next frame, built now."""
        index = self.taken
        self.taken = index + 1
        return self.frame(index)

    def frame(self, index: int) -> Frame:  # pragma: no cover - abstract
        raise NotImplementedError

    def sizes(self):  # pragma: no cover - abstract
        raise NotImplementedError


class _Built(Burst):
    """A burst of frames built in advance (a list handed to
    :meth:`GigEPort.send_frames`)."""

    __slots__ = ("frames",)

    def __init__(self, frames: list) -> None:
        self.frames = frames
        self.count = len(frames)
        self.taken = 0

    def frame(self, index: int) -> Frame:
        return self.frames[index]

    def sizes(self):
        frames = self.frames
        if any(frame.on_fetched is not None for frame in frames[:-1]):
            return None
        return [(frame.payload_bytes, frame.padded_bytes)
                for frame in frames]


class _TxRing(Store):
    """The transmit descriptor ring, counted in frames.

    An item is a frame, a :class:`Burst` put once for each of its frames
    (taking the item cuts the next one), or a :class:`FrameTrain`
    standing for a whole burst.  Every frame holds its slot until the
    fetch stage takes it, as the reference scheduler's per-frame puts
    do: ``hidden`` counts the frames of a train beyond the one item
    that stands for it, down as each is taken.  (A committed train's
    frames leave at commit: its plan takes them all before its last
    DMA, and nothing reaches the host's rings before that.)
    """

    __slots__ = ("hidden",)

    def __init__(self, sim: Simulator, capacity: int, owner) -> None:
        super().__init__(sim, capacity, name="txq", owner=owner)
        self.hidden = 0

    def frames(self) -> int:
        """Frames in the ring: queued, or hidden in trains."""
        return len(self.items) + self.hidden

    def try_put(self, item) -> bool:
        if self._putters or self.frames() >= self.capacity:
            return False
        self._insert(item)
        self._dispatch()
        return True

    def try_get(self):
        item = super().try_get()
        return item.cut() if isinstance(item, Burst) else item

    def _do_put(self, event) -> bool:
        if self.frames() >= self.capacity:
            return False
        self._insert(event.item)
        event.succeed(None, URGENT)
        return True

    def _do_get(self, event) -> bool:
        items = self.items
        if not items:
            return False
        self.gets += 1
        item = items.pop(0)
        event.succeed(item.cut() if isinstance(item, Burst) else item,
                      URGENT)
        return True

    def take_hidden(self) -> None:
        """A train's next frame leaves the ring."""
        self.hidden -= 1
        self.gets += 1
        self._dispatch()


class _StageEntry(Event):
    """A queue entry one serial stage of a port owns and queues again
    for each of its instants; the stage is serial, so at most one is
    ever outstanding."""

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
    """The wire stage's entry: queued for the instant the stage takes
    up a frame handed to it while parked, for the end of a committed
    train's residue, for the port's own ``step`` on a port that does not
    fold processing into serialization (the end of processing, of a
    software checksum) and — ``sending`` — for the frame's
    serialization end."""

    __slots__ = ("sending", "step")

    def __init__(self, port: "GigEPort") -> None:
        super().__init__(port)
        self.sending = False
        self.step = None

    def _process(self) -> None:
        if self.sending:
            self.port._tx_sent()
        elif self.step is None:
            self.port._tx_wire_start()
        else:
            self.step()


class PortDriver:
    """A protocol's receive handler bound to one port: calls
    ``handler(frame, port, paid_until)``.

    ``folds_irq_cost`` advertises the ``paid_until`` protocol to the
    interrupt dispatcher (fast path only): ``paid_until`` is the instant
    up to which the dispatcher's per-frame cost is owed but not yet
    slept, and the handler folds it into its own first wait.  A slotted
    object because a node keeps one per port: a closure plus the
    attribute dict a flag on it needs cost 420 bytes.
    """

    __slots__ = ("handler", "port")

    folds_irq_cost = True

    def __init__(self, handler: Callable, port: "GigEPort") -> None:
        self.handler = handler
        self.port = port

    def __call__(self, frame: Frame, paid_until: Optional[float] = None):
        return self.handler(frame, self.port, paid_until)


class GigEPort:
    """One port of a dual-port GigE adapter, bound to one link side."""

    __slots__ = ("sim", "host", "params", "pci_index", "name", "link", "side",
                 "tx_queue", "_tx_fifo", "_tx_wire", "_tx_folds", "_tx_frame",
                 "_tx_t0", "_tx_wire_frame", "_tx_started", "_tx_cpu",
                 "_tx_blocked", "_tx_unbundled", "rx_credits", "_rx_arrivals",
                 "_rx_stage", "_rx_frame", "_rx_t0", "_pending_frames",
                 "_irq_timer_deadline", "_irq_timer_cb", "_driver",
                 "collective_hook", "_virt", "stats")

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
        self.tx_queue = _TxRing(sim, params.tx_ring, owner=self)
        #: The on-board FIFO, used as a queue and counters only: no put or
        #: get event, waiters in ``_tx_blocked``.
        self._tx_fifo = Store(sim, capacity=TX_FIFO_FRAMES, name="txfifo",
                              owner=self)
        #: The wire stage's entry (built by ``attach_link``).
        self._tx_wire: Optional[_TxWire] = None
        #: Whether processing and serialization are one wakeup: nothing
        #: happens between them (checksum offload, plain link).
        self._tx_folds = True
        #: The frame in the fetch stage and when its DMA began; the
        #: frame at the wire stage (None while it is parked) and when
        #: its serialization began.
        self._tx_frame: Optional[Frame] = None
        self._tx_t0 = 0.0
        self._tx_wire_frame: Optional[Frame] = None
        self._tx_started = 0.0
        #: The CPU, held for a software checksum.
        self._tx_cpu = None
        #: Producers that found the FIFO full, oldest first: (frame,
        #: event to succeed on admission — None for the fetch stage).
        self._tx_blocked: list = []
        #: The frames left of a train that was not planned (an
        #: iterator), else None.
        self._tx_unbundled = None
        # Receive path.
        self.rx_credits = TokenPool(sim, params.rx_ring,
                                    level=params.rx_ring, name="rxcred",
                                    owner=self)
        #: Frames landed but not yet in the rx stage: a list, built
        #: with the stage's entry on the port's first frame.
        self._rx_arrivals = None
        self._rx_stage: Optional[_RxStage] = None
        #: The frame in the rx stage, and when its DMA began.
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
        #: Residue of the last committed train (see hw.fastpath).
        self._virt = None
        self.stats = {
            "tx_frames": 0, "rx_frames": 0, "interrupts": 0,
            "tx_bytes": 0, "rx_bytes": 0, "rx_stalls": 0,
            "trains": 0, "train_frames": 0, "train_fallbacks": 0,
            "nic_rx": 0, "nic_tx": 0,
        }

    # -- wiring ------------------------------------------------------------
    def attach_link(self, link: Link, side: int) -> None:
        if self.link is not None:
            raise ConfigurationError(f"{self.name} already attached")
        link.attach(side, self)
        self.link = link
        self.side = side
        self._tx_folds = self.params.hw_checksum and not link.is_boundary
        self._tx_wire = _TxWire(self)
        # The fetch stage parks on the ring once the simulation runs,
        # as a spawned process would.
        Callback(self.sim, self._tx_fetch_next, priority=URGENT)

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
        descriptors exactly to make such stalls rare).  On the fast
        path a frame that finds room and no producer queued goes in
        without a put event: that event would only wake this process
        again at the same instant.
        """
        self._need_link()
        tx_queue = self.tx_queue
        if self.sim._fast and tx_queue.try_put(frame):
            return
        yield tx_queue.put(frame)

    def try_enqueue_tx(self, frame: Frame) -> bool:
        """Non-blocking ring post; False if the ring is full."""
        self._need_link()
        return self.tx_queue.try_put(frame)

    def send_frames(self, frames):
        """Process: enqueue a burst (a :class:`Burst` or a list of
        frames); as one train when eligible.

        Reference semantics are a per-frame ring put: the burst goes in
        once per frame, and each take cuts its next frame.  The train is
        a fast-path container the fetch stage either plans analytically
        (see :mod:`repro.hw.fastpath`) or unbundles into the identical
        per-frame path.  The whole burst must fit the ring — a burst
        that would block mid-way keeps the per-frame puts.
        """
        self._need_link()
        burst = frames if isinstance(frames, Burst) else _Built(frames)
        count = burst.count
        ring = self.tx_queue
        if (self.sim._fast and count >= TRAIN_MIN_FRAMES
                and not ring._putters
                and ring.frames() + count <= ring.capacity):
            ring.hidden += count - 1
            ring.puts += count - 1
            yield ring.put(FrameTrain(burst))
            return
        for _ in range(count):
            yield ring.put(burst)

    def _open_train(self, train: FrameTrain):
        """A train leaves the ring: its frames, cut one at a time as
        they are taken, each leaving the ring then."""
        burst = train.burst
        ring = self.tx_queue
        yield burst.cut()
        for _ in range(burst.count - 1):
            ring.take_hidden()
            yield burst.cut()

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
        if not self._tx_fifo_put(frame):
            admitted = Event(sim)
            self._tx_blocked.append((frame, admitted))
            yield admitted

    # Each step below runs where the process form resumed and queues
    # what it queued, in the same order, with one exception: the FIFO
    # slot a serialization end frees for a blocked producer.  The process
    # form queues the producer's put in the urgent lane — empty, or the
    # serialization end (a NORMAL entry of the same instant) would not
    # be running — so it is the very next entry processed; the wire step
    # admits the frame and, when it is the fetch stage that waited,
    # calls it on the spot instead.  An entry goes, no other changes
    # place.
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
            self._tx_plan(item, 0)
        else:
            self._tx_fetch(item)

    def _tx_plan(self, train: FrameTrain, spins: int) -> None:
        sim = self.sim
        # Let same-instant bookkeeping (the enqueueing process's
        # continuation, completion plumbing) drain before judging
        # quiescence.
        if (sim._urgent or sim._normal) and spins < 8:
            sim.timeout(0).callbacks.append(
                lambda _spin: self._tx_plan(train, spins + 1))
            return
        plan = plan_train(self, train.burst)
        if plan is None:
            self.stats["train_fallbacks"] += 1
            self._tx_unbundled = self._open_train(train)
            self._tx_fetch_next()
            return
        self.stats["trains"] += 1
        self.stats["train_frames"] += train.burst.count
        commit_train(self, train.burst, plan)
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
        # The frame leaves the stage: the port keeps no reference to it
        # (nor, through it, to its packet and hook) once it is sent.
        self._tx_frame = None
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

    def _tx_fetched_span(self, frame: Frame, t0: float) -> None:
        ctx = getattr(frame.payload, "trace", None)
        if ctx is not None:
            self.sim.recorder.span(ctx, _DMA, self.name,
                                   f"n{self.host.node_id}", t0,
                                   self.sim._now)

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
        if not self._tx_folds:
            wire.step = self._tx_processed
            sim.schedule(wire, self.params.tx_proc)
            return
        # Per-descriptor processing and serialization are two
        # back-to-back waits with nothing observable between them, so
        # they are one absolute wakeup.  The additions mirror the two
        # timeout schedules of the process form exactly.
        self._tx_started = start = sim._now + self.params.tx_proc
        wire.sending = True
        sim.schedule_at(
            wire, start + self.link.serialization_time(self._tx_wire_frame))

    def _tx_processed(self) -> None:
        """Per-descriptor processing is over (a port that does not fold
        it into serialization): the software checksum, else the line."""
        params = self.params
        if params.hw_checksum:
            self._tx_serialize()
            return
        frame = self._tx_wire_frame
        host = self.host
        duration = params.sw_checksum_per_byte * (
            frame.payload_bytes + frame.header_bytes)
        host.stats["cpu_us"] += duration
        self._tx_cpu = request = host.cpu.request(PRIO_IRQ)
        request.callbacks.append(partial(self._tx_checksum, duration))

    def _tx_checksum(self, duration: float, _granted: Event) -> None:
        self._tx_wire.step = self._tx_checksummed
        self.sim.schedule(self._tx_wire, duration)

    def _tx_checksummed(self) -> None:
        cpu, self._tx_cpu = self._tx_cpu, None
        self.host.cpu.release(cpu)
        self._tx_serialize()

    def _tx_serialize(self) -> None:
        """Serialization starts now, an instant the stage has an entry
        for: the link may act on it (a boundary link commits egress)."""
        sim = self.sim
        link = self.link
        frame = self._tx_wire_frame
        self._tx_started = start = sim._now
        link.begin_tx(self.side, frame)
        wire = self._tx_wire
        wire.step = None
        wire.sending = True
        sim.schedule_at(wire, start + link.serialization_time(frame))

    def _tx_sent(self) -> None:
        frame = self._tx_wire_frame
        self.stats["tx_frames"] += 1
        self.stats["tx_bytes"] += frame.payload_bytes
        self.link.complete_tx(self.side, frame, self._tx_started)
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
        if self._rx_frame is None:
            self._rx_begin(frame)
        else:
            self._rx_arrivals.append(frame)

    def post_rx_descriptors(self, count: int = 1) -> None:
        """Protocol driver returns ``count`` receive descriptors."""
        credits = self.rx_credits
        if credits.level + count > credits.capacity:
            raise ConfigurationError(f"{self.name}: rx ring over-posted")
        credits.add(count)

    # Each step runs where the process form resumed, so every entry
    # keeps its sequence position relative to the rest of the
    # simulation.
    def _rx_begin(self, frame: Frame) -> None:
        stage = self._rx_stage
        if stage is None:
            stage = self._rx_stage = _RxStage(self)
            self._rx_arrivals = []
        self._rx_frame = frame
        self.sim.schedule(stage, self.params.rx_proc)

    def _rx_processed(self) -> None:
        hook = self.collective_hook
        if hook is not None and hook(self._rx_frame):
            # Collective frame handled by the NIC engine: it never
            # touches the host (no descriptor, DMA or interrupt).
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
            self._rx_begin(self._rx_arrivals.pop(0))
        else:
            self._rx_frame = None

    def _rx_delivered(self, frame: Frame, t0: float) -> None:
        """A frame's DMA to host memory has completed: count it and
        run interrupt coalescing."""
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
            # The delay expression is the process form's timeout,
            # op for op: the same fire instant.
            self._irq_timer_cb = TrainCallback(
                sim, partial(self._irq_timer_fired, deadline),
                delay=max(0.0, deadline - sim._now))

    def _irq_timer_fired(self, deadline: float) -> None:
        if self._irq_timer_deadline == deadline:
            self._irq_timer_cb = None
            if self._pending_frames:
                self._fire_irq()

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
