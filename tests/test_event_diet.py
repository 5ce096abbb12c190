"""A queue entry only where the model has an instant to mark.

Four places schedule less than they used to, and none of them may move
a simulated instant or a counter: the NIC receive stage (one reusable
entry per port under the fast scheduler, no Store hop), the memory bus
(no wake when a queued join settles first — see
``test_hw_pci_property.py``), process termination (nothing queued when
nobody waits) and the interrupt dispatcher (one process per node).
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import fastpath
from repro.cluster.builder import build_mesh
from repro.cluster.process_api import build_world, run_mpi
from repro.hw.node import Host
from repro.hw.params import GigEParams
from repro.mpi import SUM
from repro.sim import Simulator
from repro.sim.events import AllOf, Event
from repro.sim.process import Process
from repro.sim.store import StoreGet

BOTH = pytest.mark.parametrize("fast", [True, False],
                               ids=["fast", "reference"])


def _stream(comm, nbytes=64 * 1024, count=4):
    """Rank 0 streams ``count`` messages to rank 1, which answers once."""
    if comm.rank == 0:
        for _ in range(count):
            yield from comm.send(1, tag=1, nbytes=nbytes)
        yield from comm.recv(1, tag=2, nbytes=4)
    else:
        for _ in range(count):
            yield from comm.recv(0, tag=1, nbytes=nbytes)
        yield from comm.send(0, tag=2, nbytes=4)
    return comm.rank


def _ports(cluster):
    return [port for node in cluster.nodes for port in node.ports.values()]


# -- (b) the NIC receive stage ---------------------------------------------

def test_fast_rx_stage_is_one_entry_per_port_and_no_store_hop(monkeypatch):
    built = Counter()
    gets_on = Counter()
    event_init = Event.__init__
    get_init = StoreGet.__init__

    def counting_init(self, *args, **kwargs):
        built[type(self).__name__] += 1
        event_init(self, *args, **kwargs)

    def counting_get(self, store, *args, **kwargs):
        gets_on[store.name.rpartition(":")[2]] += 1
        get_init(self, store, *args, **kwargs)

    with fastpath.force(True):
        monkeypatch.setattr(Event, "__init__", counting_init)
        monkeypatch.setattr(StoreGet, "__init__", counting_get)
        cluster = build_mesh((2,), wrap=False)
        assert run_mpi(cluster, _stream) == [0, 1]
        monkeypatch.undo()
        idle = build_mesh((2,), wrap=False)
    ports = _ports(cluster)
    frames = sum(port.stats["rx_frames"] for port in ports)
    assert len(ports) == 2 and frames > 150
    # No process ever waits for an arrival: there is no arrivals Store,
    # so no StoreGet on one (other stores still see gets).
    assert gets_on and "rxarr" not in gets_on
    # One receive entry object per port for the whole run, re-queued for
    # every frame, built on the port's first frame.
    assert built["_RxStage"] == 2
    assert all(port._rx_stage is not None and port._rx_frame is None
               and not port._rx_arrivals for port in ports)
    assert all(port._rx_stage is None and port._rx_arrivals is None
               for port in _ports(idle))


def _observed(cluster, result):
    # Frame trains are a fast-scheduler-only shortcut of the *transmit*
    # side; everything else a port counts must agree.
    return (result, cluster.sim.now.hex(), cluster.sim.progress,
            [{key: count for key, count in port.stats.items()
              if not key.startswith("train")} for port in _ports(cluster)],
            [dict(node.host.stats) for node in cluster.nodes],
            [dict(node.host.irq.stats) for node in cluster.nodes])


def _credit_stall_run():
    # One receive descriptor and a slow interrupt: the next frame has
    # finished its NIC processing long before the handler re-posts.
    cluster = build_mesh((2,), wrap=False,
                         gige_params=GigEParams(rx_ring=1,
                                                coalesce_delay=20.0))
    result = run_mpi(cluster, _stream)
    assert sum(port.stats["rx_stalls"] for port in _ports(cluster)) > 50
    return _observed(cluster, result)


def _allreduce(comm):
    total = 0.0
    for step in range(3):
        total = yield from comm.allreduce(nbytes=64, op=SUM,
                                          data=float(comm.rank + step))
    yield from comm.barrier()
    return total


def _nic_tier_run():
    cluster = build_mesh((2, 2), wrap=True)
    comms = build_world(cluster)
    for node in cluster.nodes:
        node.via.enable_nic_collectives()
    for comm in comms:
        comm.set_collective_tier("nic")
    result = run_mpi(cluster, _allreduce, comms=comms)
    # The hook consumed frames inside the NIC: no credit, DMA or irq.
    assert sum(port.stats["nic_rx"] for port in _ports(cluster)) > 20
    return _observed(cluster, result)


@pytest.mark.parametrize("run", [_credit_stall_run, _nic_tier_run])
def test_callback_rx_stage_matches_the_process_form(run):
    """``_rx_loop`` (reference scheduler) is the oracle for the callback
    recurrence: same port/host/irq counters, same final clock."""
    with fastpath.force(True):
        fast = run()
    with fastpath.force(False):
        reference = run()
    assert fast == reference


def _hop_stream(comm):
    if comm.rank == 0:
        yield from comm.send(2, tag=1, nbytes=8192)
    elif comm.rank == 2:
        yield from comm.recv(0, tag=1, nbytes=8192)
    return comm.rank


@BOTH
def test_rx_arrival_counters_do_not_lie(fast):
    """Reference form: the arrivals Store counts what was put into it
    (it used to read puts 0 / max_level 0 against gets N); the transmit
    ring's non-blocking post is counted like any other put."""
    with fastpath.force(fast):
        cluster = build_mesh((3,), wrap=False)
        run_mpi(cluster, _hop_stream)
    for port in _ports(cluster):
        ring = port.tx_queue.stats
        assert ring["puts"] == ring["gets"] == port.stats["tx_frames"]
        assert ring["max_level"] >= 1 or not ring["puts"]
        if not fast:
            arrivals = port._rx_arrivals.stats
            assert arrivals["puts"] == arrivals["gets"] == (
                port.stats["rx_frames"])
            assert arrivals["max_level"] >= 1 or not arrivals["puts"]
    # The middle node forwarded through try_enqueue_tx.
    assert cluster.nodes[1].via.agent.stats["forwarded"] > 0


# -- (c) a process that ends unawaited ---------------------------------------

def _child(sim, delay, value):
    yield sim.timeout(delay)
    return value


@BOTH
def test_unawaited_end_queues_nothing_and_stays_waitable(fast):
    with fastpath.force(fast):
        sim = Simulator()
        first = sim.spawn(_child(sim, 1.0, "one"))
        second = sim.spawn(_child(sim, 2.0, "two"))
        sim.run(until=2.0)
        # Both ended with no waiter: processed in place, nothing queued.
        assert sim.queue_length == 0
        assert first.processed and second.processed
        assert (first.value, second.value) == ("one", "two")
        events = sim.events_processed
        assert events == 4                  # two start-ups, two timeouts

        seen = []

        def late_waiter():
            value = yield first             # already over: same instant
            seen.append((sim.now, value))
            both = yield AllOf(sim, [first, second])
            seen.append((sim.now, sorted(both.values())))

        waiter = sim.spawn(late_waiter())
        sim.run()
        assert seen == [(2.0, "one"), (2.0, ["one", "two"])]
        assert waiter.processed and sim.queue_length == 0


@BOTH
def test_awaited_end_still_fires_its_waiters(fast):
    with fastpath.force(fast):
        sim = Simulator()
        got = []

        def parent():
            got.append((yield sim.spawn(_child(sim, 3.0, 42))))

        sim.spawn(parent())
        sim.run()
        assert got == [42] and sim.now == 3.0


@BOTH
def test_unawaited_crash_still_surfaces(fast):
    with fastpath.force(fast):
        sim = Simulator()

        def doomed():
            yield sim.timeout(1.0)
            raise RuntimeError("nobody is listening")

        sim.spawn(doomed(), name="doomed")
        with pytest.raises(RuntimeError, match="nobody is listening") as info:
            sim.run()
        assert "doomed" in "".join(info.value.__notes__)


# -- (d) one interrupt dispatcher per node -----------------------------------

@BOTH
def test_a_thousand_interrupts_build_one_dispatcher(fast, monkeypatch):
    built = []
    process_init = Process.__init__

    def counting_init(self, sim, generator, name=""):
        built.append(name)
        process_init(self, sim, generator, name=name)

    with fastpath.force(fast):
        sim = Simulator()
        host = Host(sim, 7)
        handled = []

        def handler(frame):
            handled.append((sim.now, frame))
            yield sim.timeout(0.25)

        def device():
            for index in range(1000):
                yield sim.timeout(10.0)
                host.irq.raise_irq([(handler, index)], source="dev")

        monkeypatch.setattr(Process, "__init__", counting_init)
        sim.spawn(device(), name="device")
        sim.run()
        monkeypatch.undo()
    assert [frame for _when, frame in handled] == list(range(1000))
    assert host.irq.stats == {"entries": 1000, "items": 1000, "polls": 0}
    assert built == ["device", "irq[7]"]
    # Parked, not finished: the next interrupt needs no new process.
    assert not host.irq._running and host.irq._kick is not None


@BOTH
def test_work_raised_during_release_restarts_the_dispatcher(fast):
    """An interrupt landing while the dispatcher is inside its last
    handler wait is serviced by a fresh entry, at the same instants the
    respawned dispatcher used to take."""
    with fastpath.force(fast):
        sim = Simulator()
        host = Host(sim, 0)
        handled = []

        def handler(frame):
            handled.append((sim.now, frame))
            yield sim.timeout(1.0)

        host.irq.raise_irq([(handler, "a")], source="dev")
        cost = host.params.interrupt_cost + host.params.interrupt_per_frame
        sim.run(until=cost + 0.5)           # inside handler("a")
        host.irq.raise_irq([(handler, "b")], source="dev")
        sim.run()
        assert [frame for _when, frame in handled] == ["a", "b"]
        assert host.irq.stats["items"] == 2
        assert sim.now == handled[1][0] + 1.0
