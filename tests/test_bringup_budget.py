"""What a node costs to build — and what it must keep costing.

Bring-up is O(channels + ports): a ring (2048 NIC receive credits, 32
eager + 64 control buffers per channel end) is a count until traffic
touches it.  These bounds fail the day someone materialises a slot per
ring entry again; the pinned clock and event count fail the day someone
"speeds up" setup by changing the simulated handshake instead.
"""

from __future__ import annotations

import gc
import sys
from collections import Counter

from repro import fastpath
from repro.cluster.builder import build_mesh
from repro.cluster.process_api import build_world
from repro.core.message import CoreParams
from repro.hw.params import GigEParams
from repro.via.descriptors import RecvDescriptor

DIMS = (3, 3, 3)
PORTS = 27 * 6           # = channel ends: every rank talks to 6 neighbours


def _census():
    """GC-tracked objects by type name, and the bytes held in deques."""
    gc.collect()
    objects = gc.get_objects()
    counts = Counter(type(o).__name__ for o in objects)
    deque_bytes = sum(sys.getsizeof(o) for o in objects
                      if type(o).__name__ == "deque")
    return counts, deque_bytes


def _grown(before, after):
    return sum((after[0] - before[0]).values()), after[1] - before[1]


def test_bringup_cost_is_per_channel_not_per_ring_slot():
    build_world(build_mesh((2, 2, 2)))       # warm every lazy import/cache
    start = _census()
    cluster = build_mesh(DIMS)
    meshed = _census()
    comms = build_world(cluster)
    built = _census()

    # The rings are as deep as the paper's, and full.
    ring = GigEParams().rx_ring
    core = CoreParams()
    assert ring == 2048 and (core.data_tokens, core.ctrl_tokens) == (32, 64)
    ports = [port for node in cluster.nodes for port in node.ports.values()]
    assert len(ports) == PORTS
    assert all(len(port.rx_credits) == ring for port in ports)
    channels = [channel for comm in comms
                for channel in comm.engine.channels.values()]
    assert len(channels) == PORTS
    assert all(len(channel.data_vi.recv_queue) == core.data_tokens
               and len(channel.ctrl_vi.recv_queue) == core.ctrl_tokens
               for channel in channels)

    # ... yet no slot of them exists as an object.
    assert built[0]["RecvDescriptor"] == start[0]["RecvDescriptor"]
    assert not any(type(o) is RecvDescriptor for o in gc.get_objects())

    # Per port (build_mesh): measured 28 objects (44 under the reference
    # scheduler, whose ports are three processes each) and no deque at
    # all — a Store's queues are empty tuples until something is put or
    # blocks.  A 2048-entry credit deque alone is 16 KB, a slot object
    # each 2048; an empty deque per Store (two a port) was 1.6 KB.
    fast = fastpath.enabled()
    objects, deque_bytes = _grown(start, meshed)
    assert objects / PORTS < (36 if fast else 52), objects / PORTS
    assert deque_bytes / PORTS < 760, deque_bytes / PORTS

    # Per channel end (build_world): measured 43 objects and 5.5 KB of
    # deques (47 and 8.5 KB under the reference scheduler; 10.3 KB while
    # every Store and MatchQueue was born with one); one object per
    # pre-posted buffer would add 96.
    objects, deque_bytes = _grown(meshed, built)
    assert objects / PORTS < 56, objects / PORTS
    assert deque_bytes / PORTS < (8192 if fast else 10240), (
        deque_bytes / PORTS)


def test_simulated_handshake_is_pinned():
    cluster = build_mesh(DIMS)
    assert cluster.sim.now == 0.0 and cluster.sim.events_processed == 0
    build_world(cluster)
    # Every run starts from this instant, so it is part of the tables.
    assert cluster.sim.now == 62.331684210526326
    # The fast count is the ledger's cluster.setup_events for
    # mesh_aggregate.  Both were 6280 / 11091 until the event diet, which
    # moved no instant and deleted only entries nothing waited on:
    #   fast       6280 - 324 zero-delay StoreGet hops into the rx stage
    #                   - 162 start-up entries of the per-port rx process
    #                   - 304 terminations of processes nobody awaited
    #                   -  49 bus wakes a queued join settled first = 5441
    #   reference 11091 - 1632 unawaited terminations (all of them) = 9459
    # The transmit pipeline as callbacks (fast scheduler; every port
    # here is on a plain link) then took out the processes' start-ups:
    #   fast       5441 - 324 start-up entries of the per-port txfetch /
    #                     txwire processes
    #                   + 162 entries that park the fetch stage on its
    #                     ring once the clock runs              = 5279
    # The handshake's 324 frames never fill a FIFO, so each still costs
    # what it did: the ring's StoreGet, the DMA join, the hop that
    # starts the parked wire stage (a StoreGet then, the port's _TxWire
    # now) and the serialization end (an Event then, _TxWire again).
    assert cluster.sim.events_processed == (
        5279 if fastpath.enabled() else 9459)
