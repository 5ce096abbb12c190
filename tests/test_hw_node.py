"""Tests for the host model: CPU priorities, copies, DMA, IRQ batching."""

import pytest

from repro.errors import ConfigurationError
from repro.hw.node import (
    Host,
    PCIX_RATE,
    PRIO_COMPUTE,
    PRIO_IRQ,
    PRIO_USER,
)
from repro.hw.params import HostParams
from repro.sim import Simulator
from tests.conftest import run


def test_validation(sim):
    with pytest.raises(ConfigurationError):
        Host(sim, 0, num_pci_buses=0)
    host = Host(sim, 0)

    def negative():
        yield from host.cpu_work(-1)

    with pytest.raises(ConfigurationError):
        run(sim, negative())


def test_cpu_priority_ordering(sim):
    host = Host(sim, 0)
    log = []

    def work(tag, priority):
        yield from host.cpu_work(10, priority)
        log.append(tag)

    def submit():
        request = host.cpu.request(PRIO_IRQ)
        yield request
        sim.spawn(work("compute", PRIO_COMPUTE))
        sim.spawn(work("irq", PRIO_IRQ))
        sim.spawn(work("user", PRIO_USER))
        yield sim.timeout(1)
        host.cpu.release(request)

    run(sim, submit())
    sim.run()
    assert log == ["irq", "user", "compute"]


def test_copy_occupies_cpu(sim):
    host = Host(sim, 0, HostParams(copy_rate=100.0))
    log = []

    def copier():
        yield from host.copy(1000, PRIO_USER)
        log.append(("copy", sim.now))

    def worker():
        yield sim.timeout(0.5)
        yield from host.cpu_work(1, PRIO_USER)
        log.append(("work", sim.now))

    sim.spawn(copier())
    sim.spawn(worker())
    sim.run()
    # Copy holds the CPU ~10us; the worker runs after.
    assert log[0][0] == "copy"
    assert log[1][1] > log[0][1]


def test_copy_rate_cap(sim):
    host = Host(sim, 0, HostParams(copy_rate=100.0, membus_rate=10000.0))

    def copier():
        yield from host.copy(1000)
        return sim.now

    # Rate capped at copy_rate, not the (faster) membus.
    assert run(sim, copier()) == pytest.approx(10.0, abs=0.1)


def test_dma_does_not_touch_cpu(sim):
    host = Host(sim, 0)
    log = []

    def dma():
        yield host.dma_event(10000, 0)
        log.append(("dma", sim.now))

    def cpu_user():
        yield from host.cpu_work(1, PRIO_USER)
        log.append(("cpu", sim.now))

    sim.spawn(dma())
    sim.spawn(cpu_user())
    sim.run()
    # CPU work completes long before the DMA (no CPU involvement).
    assert log[0][0] == "cpu"


def test_dma_pci_index_validated(sim):
    host = Host(sim, 0, num_pci_buses=2)
    with pytest.raises(ConfigurationError, match="pci index 5"):
        host.dma_event(100, 5)
    assert host.stats["dmas"] == 0 and sim.queue_length == 0


def test_dma_accounting(sim):
    host = Host(sim, 0, num_pci_buses=3)

    def proc():
        yield host.dma_event(1000, 2)
        return sim.now

    # Setup window, then 1000 bytes at the PCI-X cap.
    assert run(sim, proc()) == pytest.approx(
        host.membus.setup + 1000 / PCIX_RATE)
    assert host.stats["dmas"] == 1
    assert host.stats["dma_bytes"] == 1000
    assert host.pci_bytes == [0.0, 0.0, 1000.0]


def test_irq_controller_batches_entry_cost(sim):
    params = HostParams(interrupt_cost=5.0, interrupt_per_frame=1.0)
    host = Host(sim, 0, params)
    handled = []

    def handler(frame):
        handled.append((frame, sim.now))
        yield sim.timeout(0)

    host.irq.raise_irq([(handler, "f1"), (handler, "f2"), (handler, "f3")])
    sim.run()
    assert [f for f, _t in handled] == ["f1", "f2", "f3"]
    # One entry cost (5) + 3 per-frame costs (1 each) = 8us total.
    assert handled[-1][1] == pytest.approx(8.0)
    assert host.irq.stats["entries"] == 1
    assert host.irq.stats["items"] == 3


def test_irq_work_raised_during_dispatch_joins_batch(sim):
    params = HostParams(interrupt_cost=5.0, interrupt_per_frame=1.0)
    host = Host(sim, 0, params)
    handled = []

    def handler(frame):
        handled.append((frame, sim.now))
        if frame == "first":
            # Arrives while the dispatcher is running.
            host.irq.raise_irq([(handler, "second")])
        yield sim.timeout(0)

    host.irq.raise_irq([(handler, "first")])
    sim.run()
    assert [f for f, _t in handled] == ["first", "second"]
    assert host.irq.stats["entries"] == 1  # same entry served both


def test_compute_runs_at_lowest_priority(sim):
    host = Host(sim, 0)
    log = []

    def background():
        yield from host.compute(100)
        log.append("compute")

    def urgent():
        yield sim.timeout(1)
        yield from host.cpu_work(1, PRIO_IRQ)
        log.append("irq")

    sim.spawn(background())
    sim.spawn(urgent())
    sim.run()
    # Our CPU model is non-preemptive: compute finishes, then irq.
    assert log == ["compute", "irq"]
