"""The NIC stages as processes, frozen: the oracle for the callback forms.

Up to version 1.0.5 every stage of a GigE port existed twice: as the
callback recurrence the fast scheduler ran on a plain link, and as the
processes below, which the reference scheduler ran and so did every
port whose wire step had a CPU step (software checksum) or an egress
commit (shard boundary) in it.  Since 1.0.6 ``src/`` has only the
callback forms; these classes are the process forms kept verbatim:
``_tx_fetch_loop`` / ``_fetch_one`` / ``_tx_wire_loop`` joined by a
``Store``, ``_rx_loop`` fed by a ``Store`` of arrivals, a spawned
``_irq_timer`` per coalescing deadline, ``Link.transmit`` / ``_deliver``
with a line lock per direction, ``BoundaryLink.transmit`` and
``Host.dma``.  Three edits: where the parent picked a stage's form by
scheduler (``GigEPort.__init__``, ``attach_link``, ``frame_arrived``,
``nic_inject_tx``, the coalescing timer), a frozen port always takes the
process branch; and ``Host.dma`` reaches the bus through the live
``dma_event``, which is the parent's ``_dma_enter`` plus
``transfer_event``; and the line lock is a ``Mutex``, the one lock
class left, where it was a capacity-one ``Resource`` that granted the
same way.

``tests/test_event_diet.py`` drives them (``_tx_run`` / ``_both``, the
rx differential) and holds the callback forms, under each scheduler, to
what these schedule under each scheduler: every logged instant, port,
FIFO, ring, host and CPU counter, and a boundary link's outbox.  Do not
"modernise" this module; it is the reference.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from unittest import mock

import pytest

from repro import fastpath
from repro.cluster.builder import build_mesh
from repro.cluster.process_api import run_mpi
from repro.errors import ConfigurationError
from repro.hw.faults import FaultParams
from repro.hw.fastpath import FrameTrain
from repro.hw.link import BoundaryLink, Frame, Link
from repro.hw.nic import GigEPort
from repro.hw.node import Host, PCIX_RATE, PRIO_IRQ
from repro.hw.params import GigEParams
from repro.obs import DMA as _DMA, DROP as _DROP, WIRE_HOP as _WIRE_HOP
from repro.sim import Mutex, Simulator, Store
from repro.sim.events import Callback
from repro.sim.process import Process


class FrozenHost(Host):
    def _dma_enter(self, nbytes, pci_index):
        """Argument check and accounting shared by both DMA shapes."""
        if not 0 <= pci_index < len(self.pci_bytes):
            raise ConfigurationError(
                f"pci index {pci_index} out of range "
                f"[0, {len(self.pci_bytes)})"
            )
        self.stats["dmas"] += 1
        self.stats["dma_bytes"] += nbytes
        self.pci_bytes[pci_index] += nbytes

    def dma(self, nbytes, pci_index=0):
        """Process: a device DMA of ``nbytes`` to/from host memory.

        Contends on the fluid memory bus, individually capped at the
        PCI-X segment rate; never touches the CPU.
        """
        if self.sim._fast and nbytes > 0 and self.membus.setup:
            yield self.dma_event(nbytes, pci_index)
        else:
            self._dma_enter(nbytes, pci_index)
            yield from self.membus.transfer(nbytes, rate_cap=PCIX_RATE)
        return nbytes


def _lines(link):
    name = link.name
    return (Mutex(link.sim, name=f"{name}:0->1"),
            Mutex(link.sim, name=f"{name}:1->0"))


class FrozenLink(Link):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._lines = _lines(self)

    def transmit(self, side, frame):
        """Process: serialize ``frame`` out of ``side``; deliver to peer.

        Returns (via StopIteration) after serialization completes; the
        delivery itself happens ``propagation`` later without blocking
        the caller (the line is free for the next frame immediately).
        """
        peer = self.peer(side)
        line = self._lines[side]
        duration = self.serialization_time(frame)
        req = line.request()
        yield req
        rec = self.sim.recorder
        started = self.sim._now if rec is not None else 0.0
        try:
            yield self.sim.timeout(duration)
            self.stats["frames"][side] += 1
            self.stats["bytes"][side] += frame.payload_bytes
            deliver = self._judge(side, frame)
        finally:
            line.release(req)
        if rec is not None:
            ctx = getattr(frame.payload, "trace", None)
            if ctx is not None:
                if deliver:
                    rec.span(ctx, _WIRE_HOP, self.name, self.name,
                             started, self.sim._now + self.propagation)
                else:
                    rec.event(ctx, _DROP, self.name, self.name,
                              self.sim._now)
        if not deliver:
            return
        if self.sim._fast:
            # One queue entry instead of a spawned delivery process;
            # lands at the identical instant.
            Callback(self.sim, partial(peer.frame_arrived, frame),
                     self.propagation)
        else:
            self.sim.spawn(
                self._deliver(peer, frame), name=f"{self.name}:deliver"
            )

    def _deliver(self, peer, frame):
        yield self.sim.timeout(self.propagation)
        peer.frame_arrived(frame)


class FrozenBoundaryLink(BoundaryLink):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._lines = _lines(self)

    def transmit(self, side, frame):
        """Process: serialize out of the shard; commit to the outbox.

        Mirrors :meth:`Link.transmit`'s timing exactly: the line is
        held for the serialization time and stats/recorder effects land
        at serialization end, so a sharded run and the sequential
        reference process the identical event schedule on the sending
        side.  Only the delivery differs — an outbox record instead of
        a :class:`~repro.sim.events.Callback`, carrying the arrival
        instant the reference path would have used.
        """
        if self.corrupt_every is not None or self.faults is not None:
            raise ConfigurationError(
                f"{self.name}: fault injection unsupported on shard "
                f"boundaries"
            )
        line = self._lines[side]
        duration = self.serialization_time(frame)
        req = line.request()
        yield req
        started = self.sim._now
        # The reference path schedules delivery at serialization end
        # (= fl(started + duration), the timeout's landing instant)
        # plus propagation; precompute the identical chained roundings.
        arrival = (started + duration) + self.propagation
        self._commit(side, frame, arrival)
        try:
            yield self.sim.timeout(duration)
            self.stats["frames"][side] += 1
            self.stats["bytes"][side] += frame.payload_bytes
            self._judge(side, frame)
        finally:
            line.release(req)
        rec = self.sim.recorder
        if rec is not None:
            ctx = getattr(frame.payload, "trace", None)
            if ctx is not None:
                rec.span(ctx, _WIRE_HOP, self.name, self.name,
                         started, arrival)

    def _commit(self, side, frame, arrival):
        """Egress record: ships to the coordinator at the next barrier."""
        self._egress_seq += 1
        # The send-completion hook has already run (the NIC fetch stage
        # invokes it before the frame reaches the wire); drop it so the
        # frame pickles cleanly across the process boundary.
        frame.on_fetched = None
        self.outbox.append(
            (arrival, self.name, self._egress_seq,
             self.remote_rank, self.remote_port, frame)
        )


class FrozenPort(GigEPort):
    def __init__(self, sim, host, params, pci_index=0, name="gige"):
        super().__init__(sim, host, params, pci_index, name)
        self._rx_arrivals = Store(sim, name=f"{name}:rxarr")
        sim.spawn(self._rx_loop(), name=f"{self.name}:rx")

    def attach_link(self, link, side):
        if self.link is not None:
            raise ConfigurationError(f"{self.name} already attached")
        link.attach(side, self)
        self.link = link
        self.side = side
        sim = self.sim
        sim.spawn(self._tx_fetch_loop(), name=f"{self.name}:txfetch")
        sim.spawn(self._tx_wire_loop(), name=f"{self.name}:txwire")

    def nic_inject_tx(self, frame):
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
        if not (sim._fast and fifo.try_put(frame)):
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

    def _fetch_one(self, frame):
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

    def frame_arrived(self, frame):
        """Called by the link when a frame lands on this port."""
        self._rx_arrivals.try_put(frame)

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

    def _rx_delivered(self, frame, t0):
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
            sim.spawn(self._irq_timer(deadline),
                      name=f"{self.name}:irqtimer")

    def _irq_timer(self, deadline):
        yield self.sim.timeout(max(0.0, deadline - self.sim._now))
        self._irq_timer_fired(deadline)


# -- building with the frozen forms ------------------------------------------

def frozen_pair(sim, gige=None, host_params=None):
    """``tests.test_hw_nic._pair`` with every stage a process."""
    gige = gige or GigEParams()
    h0 = FrozenHost(sim, 0, host_params)
    h1 = FrozenHost(sim, 1, host_params)
    link = FrozenLink(sim, gige.wire_rate, gige.frame_overhead,
                      gige.propagation, name="L")
    p0 = FrozenPort(sim, h0, gige, name="p0")
    p1 = FrozenPort(sim, h1, gige, name="p1")
    p0.attach_link(link, 0)
    p1.attach_link(link, 1)
    return p0, p1


@contextmanager
def frozen_clusters():
    """Clusters built inside run every NIC stage as a process."""
    with mock.patch.multiple("repro.cluster.builder", Host=FrozenHost,
                             GigEPort=FrozenPort, Link=FrozenLink,
                             BoundaryLink=FrozenBoundaryLink):
        yield


# -- the oracle is what it says ----------------------------------------------

BOTH = pytest.mark.parametrize("fast", [True, False],
                               ids=["fast", "reference"])


@BOTH
def test_the_frozen_forms_are_processes(fast, monkeypatch):
    built = []
    process_init = Process.__init__

    def counting_init(self, sim, generator, name=""):
        built.append(name)
        process_init(self, sim, generator, name=name)

    with fastpath.force(fast):
        sim = Simulator()
        monkeypatch.setattr(Process, "__init__", counting_init)
        p0, p1 = frozen_pair(sim, GigEParams(coalesce_delay=100.0))
        assert sorted(built) == sorted(
            f"{port}:{stage}" for port in ("p0", "p1")
            for stage in ("rx", "txfetch", "txwire"))
        p1.set_driver(lambda frame: iter(()))

        def send():
            for index in range(3):
                yield from p0.enqueue_tx(Frame(1458, 42, payload=index))
        sim.spawn(send(), name="send")
        sim.run(until=500.0)
        monkeypatch.undo()
    assert p1.stats["rx_frames"] == 3 and p1.stats["interrupts"] == 1
    assert built.count("p1:irqtimer") == 1
    # The reference scheduler delivers through a process per frame.
    assert built.count("L:deliver") == (0 if fast else 3)
    assert p0._tx_wire is None and p1._rx_stage is None


def _lossy_exchange(comm):
    peer = 1 - comm.rank
    for round_ in range(4):
        if comm.rank == 0:
            yield from comm.send(peer, tag=round_, nbytes=20000)
            yield from comm.recv(peer, tag=round_, nbytes=64)
        else:
            yield from comm.recv(peer, tag=round_, nbytes=20000)
            yield from comm.send(peer, tag=round_, nbytes=64)
    return comm.rank


def _lossy_run(fast, frozen):
    gige = GigEParams(faults=FaultParams(seed=5, loss_rate=0.03))
    with fastpath.force(fast):
        if frozen:
            with frozen_clusters():
                cluster = build_mesh((2,), wrap=False, gige_params=gige)
        else:
            cluster = build_mesh((2,), wrap=False, gige_params=gige)
        result = run_mpi(cluster, _lossy_exchange)
    ports = [port for node in cluster.nodes for port in node.ports.values()]
    assert all(type(port) is (FrozenPort if frozen else GigEPort)
               for port in ports)
    return (result, cluster.sim.now.hex(),
            [{key: count for key, count in port.stats.items()
              if not key.startswith("train")} for port in ports],
            [link.stats for link in cluster.links],
            [dict(node.via.agent.stats) for node in cluster.nodes])


def test_frames_a_lossy_link_drops_are_the_frozen_forms_frames():
    """The fault verdict is taken at serialization end, frame by frame,
    in the same order: retransmissions and all."""
    oracle = _lossy_run(False, True)
    assert sum(link["dropped"][0] + link["dropped"][1]
               for link in oracle[3]) > 0
    for fast in (True, False):
        assert _lossy_run(fast, False) == oracle
        assert _lossy_run(fast, True) == oracle
