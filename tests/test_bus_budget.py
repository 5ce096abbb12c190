"""What a memory-bus transfer costs the host — and must keep costing.

A transfer is one record (flow = join entry = completion event) and a
bus has one wake entry that is queued again and again.  The object
counts fail the day a transfer grows a second event, a ``Callback`` or
a closure again.  The pinned exchange holds the simulated clock to the
bit — that never moves — and the event count and sequence counter to
the last number *derived*: a change may schedule less, but it has to
say which entries went and why nothing observable happened at them
(see ``PINNED``), and the count must then be exact again.
"""

from __future__ import annotations

import gc
import types

import pytest

from repro import fastpath
from repro.cluster.builder import build_mesh
from repro.cluster.process_api import build_world, run_mpi
from repro.hw import pci
from repro.hw.pci import BandwidthBus
from repro.mpi.request import waitall
from repro.sim import Simulator
from tests.test_entry_cost import constructed


def _functions_from_pci() -> int:
    """Live function objects (closures, lambdas) compiled from pci.py."""
    gc.collect()
    return sum(1 for o in gc.get_objects()
               if isinstance(o, types.FunctionType)
               and o.__code__.co_filename == pci.__file__)


def test_fused_transfer_builds_one_record():
    with fastpath.force(True):
        sim = Simulator()
        bus = BandwidthBus(sim, rate=2100.0, setup=0.02)
        functions = _functions_from_pci()
        # Counted where objects are constructed, not in Event.__init__:
        # a flow fills its own slots and never calls up.
        with constructed() as built:
            flows = [bus.transfer_event(4096.0, rate_cap=1064.0)
                     for _ in range(50)]
        # One Event subclass instance per transfer — no done event, no
        # Callback — and it is the queue entry of its own join.
        assert built == ["_Flow"] * 50
        assert [entry[3] for entry in sorted(sim._queue)] == flows
        assert _functions_from_pci() == functions
        sim.run()
        assert all(flow.processed for flow in flows)
        assert sim.events_processed > 50        # joins + wakes ...
        assert _functions_from_pci() == functions


def test_one_wake_entry_serves_every_rearm(monkeypatch):
    with fastpath.force(True):
        sim = Simulator()
        bus = BandwidthBus(sim, rate=2100.0, setup=0.02)
        wake = bus._wake_event
        fired = []
        wake_process = pci._Wake._process

        def spy(self):          # the bus pushes its wake itself, so the
            fired.append(self)  # seam is where a wake entry is run
            wake_process(self)

        monkeypatch.setattr(pci._Wake, "_process", spy)

        def churn(nbytes, cap, weight):
            for _ in range(300):
                yield bus.transfer_event(nbytes, rate_cap=cap,
                                         weight=weight)

        for lane in range(6):       # joins and leaves interleave: stale
            sim.spawn(churn(1500.0 + 64 * lane, 1064.0, 1.0))   # fires
            sim.spawn(churn(700.0 + 48 * lane, 1200.0, 5.0))    # re-arm
        with constructed() as built:
            sim.run()
        assert len(fired) >= 1000
        assert all(event is wake for event in fired)
        # Nothing but the transfers' own records was built on the way.
        assert set(built) == {"_Flow"} and len(built) == 12 * 300
        assert bus._wake_event is wake and not bus._wake_times


def _exchange(comm, torus):
    peers = [rank for _direction, rank in torus.neighbors(comm.rank)]
    recvs = [comm.irecv(peer, tag=3, nbytes=4096) for peer in peers]
    sends = [comm.isend(peer, tag=3, nbytes=4096) for peer in peers]
    yield from waitall(sends)
    yield from waitall(recvs)
    return sum(request.received_bytes for request in recvs)


@pytest.mark.parametrize("fast", [True, False])
def test_exchange_schedules_what_it_always_did(fast):
    """Same instants, fewer objects: 27 memory buses at up to 6 flows,
    pinned in both scheduler modes."""
    with fastpath.force(fast):
        cluster = build_mesh((3, 3, 3))
        comms = build_world(cluster)
        received = run_mpi(cluster, _exchange, args=(cluster.torus,),
                           comms=comms)
    assert received == [6 * 4096] * 27
    sim = cluster.sim
    assert (sim.now, sim.events_processed, sim._sequence) == (
        PINNED[fast])


#: (sim.now, events_processed, sim._sequence).  The clock is the one
#: measured at 845306f, before flows became records.  So were the counts
#: (17488 / 17515 fast, 34854 / 34881 reference) until the event diet:
#:   fast      17488 - 810 zero-delay StoreGet hops into the rx stage
#:                   - 162 start-up entries of the per-port rx process
#:                   - 738 terminations of processes nobody awaited
#:                   - 454 bus wakes a queued join settled first = 15324
#:   reference 34854 - 5711 unawaited terminations (every one)  = 29143
#: The sequence counter now equals the event count: the 27 entries that
#: used to be left queued were the rank processes' own terminations.
#: Then the transmit pipeline became callbacks on these (plain-link,
#: fast-scheduler) ports:
#:   fast      15324 - 324 start-up entries of the per-port txfetch /
#:                     txwire processes
#:                   + 162 entries that park the fetch stage on its ring
#:                     once the clock runs                       = 15162
#: Nothing else went: 3-frame messages never fill a 4-deep FIFO, so no
#: producer ever blocked; the 486 hops that start a parked wire stage
#: and the 810 serialization ends are still entries (the port's one
#: _TxWire, 1296 times), as are the planner's 1296 quiescence spins.
#: Then the reference scheduler ran those callback stages too (the
#: process forms live on in tests/test_nic_oracle.py).  Per frame (810)
#: and per port (162):
#:   reference 29143 - 810 FIFO puts (a StorePut each)
#:                   - 810 FIFO gets that woke the wire process
#:                   - 810 line grants (a Request each)
#:                   - 810 per-descriptor processing timeouts, folded
#:                     into the serialization end
#:                   - 324 ring gets that found the frame already
#:                     queued (the fetch stage takes it with try_get;
#:                     486 times it parks, as the process did)
#:                   - 810 start-ups of the delivery process (its
#:                     timeout is the delivery Callback now)
#:                   - 810 rx arrival gets and 810 rx credit gets
#:                   - 810 start-ups of a coalescing-timer process (its
#:                     timeout is the TrainCallback now)
#:                   - 486 start-ups of the rx / txfetch / txwire
#:                     processes
#:                   + 162 entries that park the fetch stage on its ring
#:                   + 486 hops that start a parked wire stage = 22501
#: A DMA is still two entries (the fused flow, joined then completed,
#: where the bus's transfer() queued a setup timeout and the flow).
#: Then a frame that finds room on its ring and no producer queued went
#: in without a put event (fast scheduler; the reference keeps them):
#:   fast      15162 - 324 StorePut entries of the handshake's frames,
#:                     which only woke the posting process again at the
#:                     same instant                             = 14838
#: (The exchange's 3-frame messages are trains: their puts stay.)
PINNED = {True: (196.00163040935692, 14838, 14838),
          False: (196.00163040935692, 22501, 22501)}
