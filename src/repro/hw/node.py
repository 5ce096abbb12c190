"""The host model: one CPU, a memory bus, and PCI-X segments.

The paper's nodes are single-processor Pentium 4 Xeons, so *all* host
software — user processes, kernel paths, interrupt handlers — contends
for one CPU.  That single fact drives most of the paper's curves (TCP's
simultaneous-bandwidth collapse, the 3-D aggregated-bandwidth falloff),
so the CPU here is a strict priority resource:

* ``PRIO_IRQ``     — hardware interrupt handlers (and the kernel packet
  switch, which runs at interrupt level);
* ``PRIO_KERNEL``  — softirq/kernel protocol processing (TCP);
* ``PRIO_USER``    — user-level library paths (VIA send/completion);
* ``PRIO_COMPUTE`` — application number crunching.

Memory traffic (protocol copies and NIC DMA) shares one fluid memory
bus (:class:`~repro.hw.pci.BandwidthBus`); a copy is additionally
capped at the CPU's sustained copy rate and holds the CPU while it
runs, so heavy DMA traffic visibly slows copies — the mechanism behind
the paper's large-message 3-D aggregated-bandwidth falloff.  Individual
DMA transfers are capped at the PCI-X segment rate; segment-level PCI
contention never binds for GigE ports (two ports per segment peak at
~260 MB/s of a 1064 MB/s segment), so PCI segments are tracked for
statistics only.
"""

from __future__ import annotations

import heapq
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.hw.params import HostParams
from repro.hw.pci import BandwidthBus
from repro.sim import PriorityResource, Simulator
from repro.sim.events import Event, URGENT

PRIO_IRQ = 0
PRIO_KERNEL = 1
PRIO_USER = 2
PRIO_COMPUTE = 3

#: PCI-X 64-bit/133MHz sustained rate (bytes/us); per-DMA rate cap.
PCIX_RATE = 1064.0


class IrqController:
    """Per-host interrupt dispatch with cross-device batching.

    When the CPU takes a network interrupt, Linux's ``do_IRQ`` path
    services *every* device with pending work before returning — so
    under load one interrupt entry amortizes over frames from all six
    GigE ports.  Devices enqueue (handler, frame) work items via
    :meth:`raise_irq`; a single dispatcher process drains the queue
    while holding the CPU at IRQ priority, paying the fixed entry cost
    once per CPU acquisition, not once per frame.
    """

    def __init__(self, host: "Host") -> None:
        self.host = host
        self._pending = []
        self._seq = 0
        self._running = False
        #: What the parked dispatcher waits on; None until it exists.
        self._kick: Optional[Event] = None
        self.stats = {"entries": 0, "items": 0, "polls": 0}

    def raise_irq(self, items, source: str = "") -> None:
        """Queue work items: iterable of (generator_fn, frame).

        ``source`` is a stable device key.  Same-instant work from
        different devices is serviced in (time, source) order — a fixed
        hardware service discipline, so the order frames reach their
        drivers does not depend on event-queue internals (both
        execution strategies of :mod:`repro.fastpath` must agree on
        it).
        """
        now = self.host.sim._now
        for item in items:
            self._seq += 1
            heapq.heappush(self._pending, (now, source, self._seq) + item)
        if not self._running and self._pending:
            self._running = True
            kick, self._kick = self._kick, None
            if kick is None:
                # First interrupt on this node (or the dispatcher died):
                # the new process's start-up entry is the kick.
                self.host.sim.spawn(
                    self._dispatch(), name=f"irq[{self.host.node_id}]"
                )
            else:
                kick.succeed(None, URGENT)

    def _dispatch(self):
        """The node's one dispatcher process: services an interrupt,
        then parks on a kick event until ``raise_irq`` has the next."""
        host = self.host
        sim = host.sim
        while True:
            req = host.cpu.try_acquire(PRIO_IRQ) if sim._fast else None
            if req is None:
                req = host.cpu.request(PRIO_IRQ)
                yield req
            try:
                self.stats["entries"] += 1
                yield sim.timeout(host.params.interrupt_cost)
                per_frame = host.params.interrupt_per_frame
                while True:
                    while self._pending:
                        handler, frame = heapq.heappop(self._pending)[3:]
                        self.stats["items"] += 1
                        if (sim._fast and getattr(
                                handler, "folds_irq_cost", False)):
                            # The driver folds the per-frame cost into
                            # its own first wait (see
                            # KernelAgent.handle_frame).
                            yield from handler(frame, sim._now + per_frame)
                            continue
                        yield sim.timeout(per_frame)
                        yield from handler(frame)
                    # NAPI-style mitigation (the paper's section 7
                    # second item): keep polling briefly instead of
                    # re-arming the interrupt; frames landing in the
                    # window are handled without another entry cost.
                    window = host.params.napi_poll_window
                    if window <= 0:
                        break
                    self.stats["polls"] += 1
                    yield sim.timeout(window)
                    if not self._pending:
                        break
            finally:
                self._running = False
                host.cpu.release(req)
            self._kick = kick = Event(sim)
            # Work raised while the CPU was being released takes the
            # kick at once — the entry a respawn's start-up used to be.
            self.raise_irq([])
            yield kick


class Host:
    """A cluster node's processing and memory resources.

    Parameters
    ----------
    sim: owning simulator.
    node_id: rank-like identifier, used in resource names.
    params: host calibration constants.
    num_pci_buses:
        PCI-X segments (statistics only).  The paper's nodes put three
        dual-port adapters on three PCI-X slots.
    """

    def __init__(self, sim: Simulator, node_id: int,
                 params: Optional[HostParams] = None,
                 num_pci_buses: int = 3) -> None:
        if num_pci_buses < 1:
            raise ConfigurationError("need at least one PCI bus")
        self.sim = sim
        self.node_id = node_id
        self.params = params or HostParams()
        self.cpu = PriorityResource(sim, 1, name=f"cpu[{node_id}]")
        self.irq = IrqController(self)
        self.membus = BandwidthBus(
            sim, self.params.membus_rate, setup=0.02,
            name=f"membus[{node_id}]",
        )
        #: Per-PCI-segment traffic counters (bytes).
        self.pci_bytes: List[float] = [0.0] * num_pci_buses
        self.stats = {"copies": 0, "copy_bytes": 0, "dmas": 0,
                      "dma_bytes": 0, "cpu_us": 0.0}

    # -- CPU ------------------------------------------------------------
    def cpu_work(self, duration: float, priority: int = PRIO_KERNEL):
        """Process: occupy the CPU for ``duration`` at ``priority``."""
        if duration < 0:
            raise ConfigurationError(f"negative CPU work {duration}")
        self.stats["cpu_us"] += duration
        yield from self.cpu.use(duration, priority)

    def compute(self, duration: float):
        """Application computation (lowest priority)."""
        yield from self.cpu_work(duration, PRIO_COMPUTE)

    # -- memory copies -----------------------------------------------------
    def copy(self, nbytes: float, priority: int = PRIO_KERNEL,
             hold_cpu: bool = True):
        """Process: a memory copy of ``nbytes``.

        A copy occupies the CPU for its (contention-extended) duration
        and consumes memory-bus bandwidth at no more than the CPU copy
        rate.  Set ``hold_cpu=False`` only if the caller already holds
        the CPU (e.g. inside an interrupt handler).
        """
        self.stats["copies"] += 1
        self.stats["copy_bytes"] += nbytes
        weight = self.params.copy_bus_weight
        fused = self.sim._fast and nbytes > 0 and self.membus.setup
        if hold_cpu:
            req = self.cpu.try_acquire(priority) if self.sim._fast else None
            if req is None:
                req = self.cpu.request(priority)
                yield req
            try:
                if fused:
                    yield self.membus.transfer_event(
                        nbytes, rate_cap=self.params.copy_rate,
                        weight=weight,
                    )
                else:
                    yield from self.membus.transfer(
                        nbytes, rate_cap=self.params.copy_rate,
                        weight=weight,
                    )
            finally:
                self.cpu.release(req)
        elif fused:
            yield self.membus.transfer_event(
                nbytes, rate_cap=self.params.copy_rate, weight=weight
            )
        else:
            yield from self.membus.transfer(
                nbytes, rate_cap=self.params.copy_rate, weight=weight
            )

    def copy_at(self, nbytes: float, when: float):
        """Fast-path IRQ-level copy whose bus join starts at ``when``.

        Equivalent to waiting until ``when`` and then running
        ``copy(nbytes, hold_cpu=False)``: callers that sit on a fixed
        delay before the copy (the rx demux cost) fold the wait into
        the transfer's setup Callback.  Returns the completion event.
        """
        self.stats["copies"] += 1
        self.stats["copy_bytes"] += nbytes
        return self.membus.transfer_event(
            nbytes, rate_cap=self.params.copy_rate,
            weight=self.params.copy_bus_weight,
            at=when + self.membus.setup,
        )

    def copy_time(self, nbytes: float) -> float:
        """Uncontended duration of a copy (for analytic models)."""
        return nbytes / self.params.copy_rate

    # -- DMA ------------------------------------------------------------
    def _dma_enter(self, nbytes: float, pci_index: int) -> None:
        """Argument check and accounting shared by both DMA shapes."""
        if not 0 <= pci_index < len(self.pci_bytes):
            raise ConfigurationError(
                f"pci index {pci_index} out of range "
                f"[0, {len(self.pci_bytes)})"
            )
        self.stats["dmas"] += 1
        self.stats["dma_bytes"] += nbytes
        self.pci_bytes[pci_index] += nbytes
        rec = self.sim.recorder
        if rec is not None:
            rec.metrics.observe(f"pci{pci_index}:n{self.node_id}",
                                self.sim._now, float(nbytes))

    def dma(self, nbytes: float, pci_index: int = 0):
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

    def dma_event(self, nbytes: float, pci_index: int = 0):
        """Fast-path DMA: the completion event itself, for callers that
        are not processes (or would only ``yield from`` :meth:`dma`).
        Needs ``nbytes > 0``, as ``membus.transfer_event`` does."""
        self._dma_enter(nbytes, pci_index)
        return self.membus.transfer_event(nbytes, rate_cap=PCIX_RATE)

    def interrupt_entry_cost(self) -> float:
        return self.params.interrupt_cost

    def __repr__(self) -> str:  # pragma: no cover
        return f"Host(node={self.node_id})"
