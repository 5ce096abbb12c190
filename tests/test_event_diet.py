"""A queue entry only where the model has an instant to mark.

Five places schedule less than they used to, and none of them may move
a simulated instant or a counter: the NIC receive stage (one reusable
entry per port under the fast scheduler, no Store hop), the NIC
transmit pipeline on a plain link (callbacks on the DMA flow and one
reusable wire entry per port, no entry for a FIFO slot handed to a
blocked producer), the memory bus (no wake when a queued join settles
first — see ``test_hw_pci_property.py``), process termination (nothing
queued when nobody waits) and the interrupt dispatcher (one process per
node).
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import fastpath
from repro.cluster.builder import build_mesh
from repro.cluster.process_api import build_world, run_mpi
from repro.hw.link import BoundaryLink, Frame
from repro.hw.nic import GigEPort, TX_FIFO_FRAMES
from repro.hw.node import Host
from repro.hw.params import GigEParams
from repro.mpi import SUM
from repro.sim import Simulator
from repro.sim.events import AllOf
from repro.sim.process import Process
from repro.sim.store import StoreGet
from tests.test_entry_cost import constructed
from tests.test_hw_nic import _pair

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
    gets_on = Counter()
    get_init = StoreGet.__init__

    def counting_get(self, store, *args, **kwargs):
        gets_on[store.name.rpartition(":")[2]] += 1
        get_init(self, store, *args, **kwargs)

    with fastpath.force(True):
        # StoreGet's own constructor is a seam; what else gets built is
        # counted per object constructed (hot events never reach
        # Event.__init__).
        monkeypatch.setattr(StoreGet, "__init__", counting_get)
        with constructed() as names:
            cluster = build_mesh((2,), wrap=False)
            assert run_mpi(cluster, _stream) == [0, 1]
        monkeypatch.undo()
        idle = build_mesh((2,), wrap=False)
    built = Counter(names)
    ports = _ports(cluster)
    frames = sum(port.stats["rx_frames"] for port in ports)
    assert len(ports) == 2 and frames > 150
    # No process ever waits for an arrival: there is no arrivals Store,
    # so no StoreGet on one (other stores still see gets).
    assert gets_on and "rxarr" not in gets_on
    assert built["StoreGet"] == sum(gets_on.values())
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


# -- (b') the NIC transmit pipeline ------------------------------------------

FRAME = 1458        # payload bytes: DMA ~1.4 us, serialization ~12 us


def _tx_run(fast, scenario, gige=None, until=2000.0):
    """Drive ``scenario(sim, p0, log, frame)`` on a two-port line and
    return everything observable: the instant log (enqueue returns,
    ``on_fetched`` hooks, arrivals at the peer's driver) and the
    counters of port, FIFO, ring and host."""
    with fastpath.force(fast):
        sim = Simulator()
        p0, p1 = _pair(sim, gige)
        # The form follows scheduler, link and params — nothing else.
        assert (p0._tx_wire is not None) == (
            fast and p0.params.hw_checksum)
        log = []

        def frame(label, nbytes=FRAME):
            return Frame(nbytes, 42, payload=label, on_fetched=(
                lambda: log.append(("fetched", sim.now.hex(), label))))

        def driver(port, record):
            def handle(arrived):
                if record:
                    log.append(("rx", sim.now.hex(), arrived.payload))
                port.post_rx_descriptors(1)
                yield sim.timeout(0)
            return handle

        p0.set_driver(driver(p0, False))
        p1.set_driver(driver(p1, True))
        scenario(sim, p0, log, frame)
        sim.run(until=until)
        assert p0._tx_wire_frame is None and not p0._tx_blocked
    return (log,
            {key: count for key, count in p0.stats.items()
             if not key.startswith("train")},
            dict(p0._tx_fifo.stats), dict(p0.tx_queue.stats),
            dict(p0.host.stats), dict(p1.stats))


def _both(scenario, trains=False, **kwargs):
    fast = _tx_run(True, scenario, **kwargs)
    reference = _tx_run(False, scenario, **kwargs)
    if trains:
        # A train is one ring item (fast scheduler only), so the ring's
        # high-water mark is the one counter the two do not share.
        assert fast[3].pop("max_level") < reference[3].pop("max_level")
    assert fast == reference
    return fast


def _labels(log, kind):
    return [label for what, _when, label in log if what == kind]


def test_a_burst_backs_up_behind_the_four_deep_fifo():
    def burst(sim, port, log, frame):
        def send():
            for index in range(12):
                yield from port.enqueue_tx(frame(index))
                log.append(("queued", sim.now.hex(), index))
        sim.spawn(send())

    log, port, fifo, ring, _host, peer = _both(burst)
    assert _labels(log, "rx") == _labels(log, "fetched") == list(range(12))
    assert port["tx_frames"] == peer["rx_frames"] == 12
    assert fifo == {"puts": 12, "gets": 12, "max_level": TX_FIFO_FRAMES}
    assert ring["puts"] == ring["gets"] == 12
    # Back-pressure reached the fetch stage: one frame at the wire, four
    # in the FIFO, the next one fetched and waiting for a slot — so from
    # the seventh on a fetch completes once per serialization, not once
    # per DMA.
    fetched = [float.fromhex(when) for what, when, _ in log
               if what == "fetched"]
    assert fetched[5] - fetched[4] < 2.0 < 10.0 < fetched[7] - fetched[6]


def test_injected_frames_queue_for_the_fifo_in_turn_with_the_host():
    def mixed(sim, port, log, frame):
        def host():
            for index in range(10):
                yield from port.enqueue_tx(frame(("host", index)))

        def firmware():
            yield sim.timeout(20.0)         # FIFO full, fetch stage blocked
            assert len(port._tx_fifo) == TX_FIFO_FRAMES
            for index in range(3):
                yield from port.nic_inject_tx(
                    Frame(64, 42, payload=("nic", index)))
                log.append(("injected", sim.now.hex(), index))
        sim.spawn(host())
        sim.spawn(firmware())

    log, port, fifo, _ring, host, _peer = _both(mixed)
    arrived = _labels(log, "rx")
    assert [n for who, n in arrived if who == "host"] == list(range(10))
    assert [n for who, n in arrived if who == "nic"] == [0, 1, 2]
    # First come, first admitted: each injected frame waits behind the
    # fetched frame that was blocked before it, and the fetch stage's
    # next frame behind the injected one.
    first = arrived.index(("nic", 0))
    assert [who for who, _ in arrived[first:first + 5]] == [
        "nic", "host", "nic", "host", "nic"]
    assert port["nic_tx"] == 3 and host["dmas"] == 10     # no DMA for them
    assert fifo == {"puts": 13, "gets": 13, "max_level": TX_FIFO_FRAMES}


def test_frames_behind_a_committed_train_wait_out_its_residue():
    def train_then_frames(sim, port, log, frame):
        def send():
            yield from port.send_frames([frame(("train", index))
                                         for index in range(6)])
            for index in range(4):
                yield from port.enqueue_tx(frame(("single", index)))
        sim.spawn(send())

    with fastpath.force(True):
        # The burst is planned, not unbundled: the singles that follow
        # meet a virtual wire (``wire_ready``) and virtual FIFO slots
        # (``free_at``) instead of real ones.
        sim = Simulator()
        p0, p1 = _pair(sim)
        p1.set_driver(lambda frame: iter(()))
        train_then_frames(sim, p0, [], lambda label: Frame(FRAME, 42))
        sim.run(until=5.0)
        assert p0.stats["trains"] == 1 and p0.stats["train_frames"] == 6
        assert p0._virt is not None and p0._virt.free_at
    log, port, fifo, ring, _host, peer = _both(train_then_frames,
                                               trains=True)
    assert _labels(log, "rx") == _labels(log, "fetched") == (
        [("train", index) for index in range(6)]
        + [("single", index) for index in range(4)])
    assert port["tx_frames"] == peer["rx_frames"] == 10
    assert fifo == {"puts": 10, "gets": 10, "max_level": TX_FIFO_FRAMES}
    assert ring["puts"] == ring["gets"] == 10


def test_a_full_ring_blocks_enqueue_tx_until_the_fetch_stage_drains_it():
    def crowd(sim, port, log, frame):
        def send():
            for index in range(9):
                yield from port.enqueue_tx(frame(index))
                log.append(("queued", sim.now.hex(), index))
        sim.spawn(send())

    log, _port, _fifo, ring, _host, peer = _both(
        crowd, gige=GigEParams(tx_ring=2))
    queued = [float.fromhex(when) for what, when, _ in log
              if what == "queued"]
    # Two in the ring and one with the fetch stage at once; the rest as
    # the stage comes back for more — the last only after a frame has
    # left the wire and the FIFO moved up.
    assert len(queued) == 9 and queued[:3] == [0.0] * 3
    assert all(0.0 < when < 10.0 for when in queued[3:8]) and (
        queued[8] > 12.0)
    assert ring == {"puts": 9, "gets": 9, "max_level": 2}
    assert peer["rx_frames"] == 9


@BOTH
def test_a_raising_on_fetched_hook_crashes_the_run(fast):
    with fastpath.force(fast):
        sim = Simulator()
        p0, p1 = _pair(sim)

        def hook():
            raise RuntimeError("fetch hook")

        def send():
            yield from p0.enqueue_tx(Frame(FRAME, 42, on_fetched=hook))
            yield from p0.enqueue_tx(Frame(FRAME, 42))
        sim.spawn(send())
        with pytest.raises(RuntimeError, match="fetch hook") as info:
            sim.run(until=1000.0)
        # The kernel's crash report names the stage that died ...
        assert "p0" in "".join(info.value.__notes__)
        # ... and dead it is: nothing of the port ever reaches the wire.
        sim.run(until=2000.0)
        assert p0.stats["tx_frames"] == 0 == p1.stats["rx_frames"]


def _processes_built(monkeypatch, build):
    built = []
    process_init = Process.__init__

    def counting_init(self, sim, generator, name=""):
        built.append(name)
        process_init(self, sim, generator, name=name)

    with fastpath.force(True):
        monkeypatch.setattr(Process, "__init__", counting_init)
        outcome = build()
        monkeypatch.undo()
    return built, outcome


def test_a_plain_port_builds_no_transmit_process(monkeypatch):
    def build():
        sim = Simulator()
        return _pair(sim)

    built, (p0, p1) = _processes_built(monkeypatch, build)
    assert built == []
    assert p0._tx_wire is not None and p1._tx_wire is not None


def test_software_checksum_keeps_the_process_pair(monkeypatch):
    """CPU work sits between FIFO and wire: the wire step has to be a
    process, under the fast scheduler too."""
    def build():
        sim = Simulator()
        ends = _pair(sim, GigEParams(hw_checksum=False))
        return sim, ends

    built, (sim, (p0, p1)) = _processes_built(monkeypatch, build)
    assert built == ["p0:txfetch", "p0:txwire", "p1:txfetch", "p1:txwire"]
    assert p0._tx_wire is None and p1._tx_wire is None

    def checksummed(sim, port, log, frame):
        def send():
            for index in range(6):
                yield from port.enqueue_tx(frame(index))
        sim.spawn(send())

    log, port, _fifo, _ring, host, _peer = _both(
        checksummed, gige=GigEParams(hw_checksum=False))
    assert _labels(log, "rx") == list(range(6))
    assert port["tx_frames"] == 6 and host["cpu_us"] > 0


def test_a_boundary_port_keeps_the_process_pair(monkeypatch):
    """A shard-boundary link commits egress at serialization *start*,
    inside ``BoundaryLink.transmit``: the wire step stays a process."""
    outbox = []

    def build():
        sim = Simulator()
        gige = GigEParams()
        link = BoundaryLink(sim, gige.wire_rate, gige.frame_overhead,
                            gige.propagation, name="cut", outbox=outbox,
                            remote_rank=1, remote_port=0)
        port = GigEPort(sim, Host(sim, 0), gige, name="edge")
        port.attach_link(link, 0)
        return sim, port

    built, (sim, port) = _processes_built(monkeypatch, build)
    assert built == ["edge:txfetch", "edge:txwire"]
    assert port._tx_wire is None

    def send():
        yield from port.send_frames([Frame(FRAME, 42, payload=index)
                                     for index in range(5)])
    with fastpath.force(True):
        sim.spawn(send())
        sim.run(until=200.0)
    assert [record[-1].payload for record in outbox] == list(range(5))
    # A train was queued (fast scheduler) and unbundled, never planned.
    assert port.stats["train_fallbacks"] == 1 and port.stats["trains"] == 0
    assert port.stats["tx_frames"] == 5


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
