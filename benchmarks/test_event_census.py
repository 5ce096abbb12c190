"""Event census: what every queue entry of one ``mesh_aggregate``
iteration is for.

The ledger's ``mesh_aggregate`` program (3x3x3 wrap torus, every rank
to all six neighbours, 64 KiB rendezvous x1 then 4 KiB eager x2 — the
phase order of the default seed) is run once under the fast scheduler
with every processed entry classified by its type and by who waits on
it.  The per-kind table is asserted *exactly*: the simulation is
deterministic, so a count that moves means someone changed what the
model schedules, and the next event diet starts from a checked census
instead of a scratch script.

The irreducible part is seven entries per frame, each marking an
instant at which something observable happens that no other entry
performs:

====================  =====================================================
fetch join            the tx DMA joins the memory bus (end of setup window)
wire end              serialization end: the frame leaves the sender
arrival               propagation end: the frame lands on the peer port
rx_proc               NIC receive processing done: hook / credit / DMA start
rx join               the rx DMA joins the memory bus
irq timer             the coalescing deadline (or its pre-empted no-op)
copy join             the handler's copy to user memory joins the bus
====================  =====================================================

plus the bus wakes that complete the three joins: 3.93 per frame today,
against a floor of one per transfer (3.07).  Everything else — 2.09
entries per frame, 13.03 in all — belongs to the layers above the NIC
or starts an idle transmit stage (0.11 per frame each for the ring's
``StoreGet`` and the wire stage's take-up hop), and is listed in
``EXPECTED`` by who waits.  Handing a freed FIFO slot to the blocked
fetch stage is not on the list: it used to be a ``StorePut`` entry for
0.73 of the frames, and is a call inside the serialization end now.
"""

from __future__ import annotations

import re
from collections import Counter

from repro import fastpath
from repro.cluster.builder import build_mesh
from repro.cluster.process_api import build_world, run_mpi
from repro.mpi.request import waitall
from repro.sim.events import Event, _PENDING
from repro.sim.process import Process

from .conftest import run_once

DIMS = (3, 3, 3)
#: ``ledger/workloads.py``'s phases in the order seed 20050404 gives.
PHASES = [(65536, 1), (4096, 2)]


def _exchange(comm, torus, phases):
    peers = [rank for _direction, rank in torus.neighbors(comm.rank)
             if rank != comm.rank]
    yield from comm.barrier()
    for nbytes, iters in phases:
        recvs = []
        for _ in range(iters):
            recvs += [comm.irecv(peer, tag=3, nbytes=nbytes)
                      for peer in peers]
            sends = [comm.isend(peer, tag=3, nbytes=nbytes)
                     for peer in peers]
            yield from waitall(sends)
        yield from waitall(recvs)
        yield from comm.barrier()
    return sum(request.received_bytes for request in recvs)


def _subclasses(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


def _waiter(event) -> str:
    """Who resumes when ``event`` is processed: process names with the
    indices stripped, bound-method owners by type."""
    names = []
    for callback in event.callbacks or ():
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, Process):
            name = re.sub(r"[\[(][^\])]*[\])]", "", owner.name)
            names.append(name.split(":")[-1].rstrip("0123456789"))
        elif owner is not None:
            names.append(f"{type(owner).__name__}.{callback.__name__}")
        else:
            names.append(callback.__qualname__)
    return "+".join(names) or "-"


def _count_processed(monkeypatch, census: Counter) -> None:
    """Wrap every ``_process`` so each processed entry is classified."""
    for cls in set(_subclasses(Event)):
        original = cls.__dict__.get("_process")
        if original is None:
            continue

        def counted(self, _original=original):
            kind = type(self).__name__
            if kind == "_Flow":
                kind += ":join" if self._value is _PENDING else ":done"
            elif kind == "_TxWire":
                kind += ":end" if self.sending else ":take-up"
            census[kind, _waiter(self)] += 1
            _original(self)

        monkeypatch.setattr(cls, "_process", counted)


def _census(monkeypatch):
    census: Counter = Counter()
    with fastpath.force(True):
        cluster = build_mesh(DIMS, wrap=True)
        comms = build_world(cluster)
        sim = cluster.sim
        before = (sim.events_processed, _frames(cluster), _transfers(cluster))
        _count_processed(monkeypatch, census)
        received = run_mpi(cluster, _exchange,
                           args=(cluster.torus, PHASES), comms=comms)
        monkeypatch.undo()
    assert received == [6 * 2 * 4096] * 27
    return (census, sim.events_processed - before[0],
            _frames(cluster) - before[1], _transfers(cluster) - before[2])


def _frames(cluster) -> int:
    return sum(port.stats["rx_frames"] for node in cluster.nodes
               for port in node.ports.values())


def _transfers(cluster) -> int:
    return sum(node.host.membus.stats["transfers"] for node in cluster.nodes)


FRAMES = 8742
_DONE = "BandwidthBus._transfer_done+"
#: The seven entries every frame needs (see the module docstring).
PER_FRAME = {
    ("_Flow:join", _DONE + "GigEPort._tx_fetched"): "fetch join",
    ("_TxWire:end", "-"): "wire end",
    ("Callback", "-"): "arrival",
    ("_RxStage", "-"): "rx_proc",
    ("_Flow:join", _DONE + "GigEPort._rx_dma_done"): "rx join",
    ("TrainCallback", "-"): "irq timer",
    ("_Flow:join", _DONE + "irq"): "copy join",
}
#: The checked table: (entry type, waiter) -> entries processed in the
#: run phase.  ``sum`` = 113 899 = the ledger's ``sim.events`` for
#: ``mesh_aggregate`` at the default seed.
EXPECTED = {
    **dict.fromkeys(PER_FRAME, FRAMES),
    # Completions of the 26 874 joins (41 157 before the wake skip; the
    # floor is one per transfer, stale re-arms under churn are the rest).
    ("_Wake", "-"): 34394,
    # An idle transmit pipeline starts: the ring hands the parked
    # fetch stage a burst, and the parked wire stage takes up its first
    # frame behind whatever the put's instant still has queued.
    ("StoreGet", "GigEPort._tx_ring_got"): 966,
    ("_TxWire:take-up", "-"): 966,
    # The train planner's quiescence spins (all 486 trains fall back).
    ("Timeout", "GigEPort._tx_plan.<locals>.<lambda>"): 1518,
    # Interrupt dispatch: one kick and one entry cost per interrupt.
    ("Event", "irq"): 1367,
    ("Timeout", "irq"): 1367,
    ("Request", "irq"): 647,
    # Messaging core and MPI layer above the NIC.
    ("Timeout", "engine"): 1446,
    ("StoreGet", "engine"): 966,
    ("Request", "engine"): 467,
    ("_Flow:join", _DONE + "engine"): 324,
    ("_Flow:join", _DONE + "send"): 324,
    # Lock grants (one ``Mutex`` class): 861 are the CPU's, 642 the
    # channel send lock's.
    ("Request", "send"): 1503,
    ("StorePut", "send"): 642,
    ("Timeout", "send"): 642,
    ("_Initialize", "send"): 642,
    ("Timeout", "recv"): 804,
    ("Request", "recv"): 650,
    ("_Initialize", "recv"): 642,
    ("StorePut", "recv"): 162,
    # 162 are the send lock's, 144 the CPU's.
    ("Request", "rma"): 306,
    ("StorePut", "rma"): 162,
    ("Timeout", "rma"): 162,
    ("_Initialize", "rma"): 162,
    ("SendRequest", "AllOf._check"): 564,
    ("RecvRequest", "AllOf._check"): 486,
    ("AllOf", "rank"): 162,
    ("RecvRequest", "rank"): 152,
    ("SendRequest", "rank"): 78,
    ("_Initialize", "rank"): 27,
    ("RecvRequest", "-"): 4,
    ("Event", "-"): 1,
}


def test_mesh_aggregate_event_census(benchmark, monkeypatch):
    census, events, frames, transfers = run_once(
        benchmark, lambda: _census(monkeypatch))

    print()
    print(f"{events} entries for {frames} frames "
          f"({events / frames:.2f} per frame)")
    for key, count in sorted(census.items(),
                             key=lambda item: (-item[1], item[0])):
        print(f"{count:8d} {count / frames:5.2f}/frame  {key[0]:16s}"
              f"{key[1]}  {PER_FRAME.get(key, '')}")

    assert frames == FRAMES and events == sum(census.values()) == 113899
    assert dict(census) == EXPECTED
    # Seven entries per frame mark its seven instants; the joins among
    # them are every transfer but the 648 copies above the interrupt.
    joins = sum(count for (kind, _), count in census.items()
                if kind == "_Flow:join")
    assert joins == transfers == 3 * FRAMES + 648
    # Fast scheduler: a flow completes inline in the wake that settles
    # it, never as an entry of its own — and a wake is not armed when a
    # queued join settles first.
    assert not any(kind == "_Flow:done" for kind, _ in census)
    assert transfers <= census["_Wake", "-"] <= 34394
    # Nothing is queued for a process nobody waits on, no process is
    # started per interrupt or per port, no Store hop feeds the rx stage
    # and none hands a FIFO slot from the wire to the fetch stage (all
    # 162 ports are on plain links, so none runs a transmit process).
    assert not any(kind == "Process" for kind, _ in census)
    assert not any(kind == "_Initialize" and waiter in ("irq", "rx")
                   for kind, waiter in census)
    assert ("StoreGet", "rx") not in census
    assert not any(kind == "StorePut" and "tx" in waiter
                   for kind, waiter in census)
    assert not any(waiter in ("txfetch", "txwire") for _, waiter in census)
