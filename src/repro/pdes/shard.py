"""One PDES shard: a slab of the mesh under its own event loop.

A :class:`ShardRuntime` owns one :class:`~repro.sim.Simulator` holding
the hosts, NICs and intra-shard links of the ranks its
:class:`~repro.topology.partition.ShardPlan` slab assigns to it.  Cut
links are :class:`~repro.hw.link.BoundaryLink` proxies that commit
departing frames into an egress outbox at serialization *start*, which
is what makes the conservative window sound: a frame committed at
``t`` arrives no earlier than ``t + min_wire_latency``, so everything
committed inside a window lands at or after the window's end barrier.

The same class backs both execution styles — in-process shards (the
``nshards=1`` case *is* the sequential reference engine) and
subprocess workers driven over a pipe (:mod:`repro.pdes.worker`) — so
bit-identity between them is identity of one code path, not a
maintained invariant between two.

Window protocol (driven by :mod:`repro.pdes.runner`):

* ``peek()`` — next local event time (inf when drained);
* ``run_window(until, ingress, notifies)`` — apply deferred channel
  notifies, inject cross-shard frame arrivals, run to ``until``; returns
  ``(egress, notifies_out, peek)``;
* ``finish()`` — after global quiescence: per-rank results, event
  counts and the shard's flight recorder.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro import fastpath
from repro.cluster.builder import MeshCluster
from repro.cluster.process_api import WORLD_CONTEXT
from repro.core.engine import ConnectionManager, MessagingEngine
from repro.errors import DeadlockError
from repro.mpi.communicator import Communicator
from repro.mpi.group import Group
from repro.pdes.workloads import get_workload, tree_edges
from repro.sim import Simulator
from repro.sim.events import Callback
from repro.topology.partition import make_shard_plan
from repro.topology.torus import Torus


class ShardConnectionManager(ConnectionManager):
    """Connection manager that defers cross-shard notifies.

    Notifies to local ranks stay synchronous (reference semantics);
    notifies to remote ranks queue in ``notify_outbox`` and cross at
    the next window barrier.  That delay is timing-neutral because
    every declared edge is pre-opened from both sides at t=0 (see
    :meth:`ShardRuntime._driver`), so by the time any notify is
    delivered the target channel already exists and
    ``open_channel_from`` does nothing.  A notify that *did* trigger an
    active connect on arrival would be zero-lookahead cross-shard
    influence — unschedulable under a conservative window — which is
    why the pre-open is a hard requirement, not an optimization.
    """

    def __init__(self, local_ranks, notify_outbox: list) -> None:
        super().__init__()
        self._local = frozenset(local_ranks)
        self.notify_outbox = notify_outbox

    def notify(self, from_rank: int, to_rank: int) -> None:
        if to_rank in self._local:
            super().notify(from_rank, to_rank)
        else:
            self.notify_outbox.append((from_rank, to_rank))


class ShardRuntime:
    """Build and drive one shard from a picklable spec dict.

    Spec keys: ``dims``, ``wrap``, ``nshards``, ``shard_id``,
    ``workload``, ``kwargs``, ``fast``, ``observe``; any other key is
    ignored.
    """

    def __init__(self, spec: dict) -> None:
        # Workers inherit nothing under the spawn start method; pin the
        # scheduler mode before the Simulator samples it so every shard
        # (and the sequential reference) runs the same mode.
        fastpath.set_enabled(bool(spec["fast"]))
        torus = Torus(tuple(spec["dims"]), wrap=spec["wrap"])
        self.torus = torus
        self.plan = make_shard_plan(torus, spec["nshards"])
        self.shard_id = int(spec["shard_id"])
        self.workload = get_workload(spec["workload"])
        self.kwargs = dict(spec.get("kwargs") or {})
        self.sim = Simulator()
        self.cluster = MeshCluster(torus, sim=self.sim,
                                   shard_plan=self.plan,
                                   shard_id=self.shard_id)
        self.cluster.attach_via()
        if spec.get("observe"):
            self.cluster.observability()
        self.local_ranks = list(self.plan.local_ranks(self.shard_id))
        self.notify_outbox: List[tuple] = []
        self.manager = ShardConnectionManager(self.local_ranks,
                                              self.notify_outbox)
        self.engines: Dict[int, MessagingEngine] = {}
        self.comms: Dict[int, Communicator] = {}
        world = Group(range(torus.size))
        for rank in self.local_ranks:
            node = self.cluster.nodes[rank]
            engine = MessagingEngine(node.via, self.manager)
            self.engines[rank] = engine
            self.comms[rank] = Communicator(engine, world, WORLD_CONTEXT,
                                            torus=torus)
        if self.workload.setup is not None:
            self.workload.setup(self.cluster, self.comms)
        edges = set(self.workload.edges(torus))
        edges.update(tree_edges(torus))
        self._edges = sorted(edges)
        self.results: Dict[int, object] = {}
        self._drivers = [
            self.sim.spawn(self._driver(rank), name=f"pdes-rank{rank}")
            for rank in self.local_ranks
        ]

    def _driver(self, rank: int):
        """Per-rank SPMD shell: pre-open every edge, sync, run.

        Both endpoints of every declared edge create their channel side
        concurrently at t=0 — the lower rank dials, the higher waits
        passively.  After this instant every channel the program will
        ever use already exists (at least as a pending handshake), so
        ``open_channel_from`` is a no-op for the rest of the run and a
        channel-open notify can never again cause timed work.  That is
        what makes deferring cross-shard notifies to a window barrier
        sound: the deferred notify arrives, finds the channel already
        created, and does nothing.
        """
        engine = self.engines[rank]
        comm = self.comms[rank]
        for lo, hi in self._edges:
            if rank in (lo, hi):
                peer = hi if rank == lo else lo
                self.sim.spawn(engine.ensure_channel(peer),
                               name=f"preopen[{rank}-{peer}]")
        yield from comm.barrier()
        self.results[rank] = yield from self.workload.program(
            comm, self.torus, **self.kwargs)

    # -- window protocol ------------------------------------------------

    def peek(self) -> float:
        return self.sim.peek()

    def run_window(self, until: Optional[float], ingress: List[tuple],
                   notifies: List[tuple]):
        """One conservative window; ``until=None`` runs to the end.

        ``ingress`` entries are BoundaryLink egress tuples
        ``(arrival, link, seq, dst_rank, dst_port, frame)`` already in
        canonical order; each is injected as a plain delivery callback
        at its precomputed arrival instant — the same event the
        reference link would have scheduled.  ``notifies`` are
        ``(from_rank, to_rank)`` channel-open requests, applied before
        any ingress so a same-instant accept always precedes frame
        processing, as it does sequentially.
        """
        for from_rank, to_rank in notifies:
            self.manager.engines[to_rank].open_channel_from(from_rank)
        for arrival, _link, _seq, dst_rank, dst_port, frame in ingress:
            port = self.cluster.nodes[dst_rank].ports[dst_port]
            Callback(self.sim, _delivery(port, frame), at=arrival)
        self.sim.run(until=until)
        outbox = self.cluster.pdes_outbox
        egress = list(outbox)
        del outbox[:]
        notifies_out = list(self.notify_outbox)
        del self.notify_outbox[:]
        return egress, notifies_out, self.sim.peek()

    # -- checkpoint/restore ---------------------------------------------

    def state_digest(self) -> str:
        """Bit-exact digest of this shard at a window barrier.

        Covers the event heap/deques, clock, sequence counter, link and
        port counters, fault-RNG streams, reliability sequence numbers,
        communicator epochs and the recorder span set — see
        :func:`repro.ckpt.state.shard_digest`.
        """
        from repro.ckpt.state import shard_digest

        return shard_digest(self)

    def replay(self, calls: List[tuple],
               verify: Optional[tuple] = None):
        """Re-apply a logged window history to a freshly built shard.

        ``calls`` is the coordinator's per-shard log of
        ``(until, ingress, notifies)`` tuples; replaying them through
        :meth:`run_window` reconstructs the exact pre-crash state
        because every input the shard ever consumed is in the log (the
        message-logging recovery argument).  ``verify=(ncalls, digest)``
        checks the state digest after ``ncalls`` replayed windows
        against the digest captured when the checkpoint was written and
        raises :class:`~repro.errors.CheckpointMismatchError` on any
        divergence.  Returns the last window's reply (``None`` when the
        log is empty), which serves the in-flight window of a shard
        that died between send and receive.
        """
        from repro.errors import CheckpointMismatchError

        def check(done: int) -> None:
            if verify is not None and done == verify[0]:
                actual = self.state_digest()
                if actual != verify[1]:
                    raise CheckpointMismatchError(
                        f"shard {self.shard_id} replay diverged after "
                        f"{done} windows: state digest "
                        f"{actual[:16]} != checkpointed {verify[1][:16]}"
                    )

        check(0)
        last = None
        for done, (until, ingress, notifies) in enumerate(calls, start=1):
            last = self.run_window(until, ingress, notifies)
            check(done)
        return last

    # -- completion -----------------------------------------------------

    def finish(self) -> dict:
        """Collect results after the coordinator declares quiescence."""
        stuck = [proc.name for proc in self._drivers
                 if not proc.triggered]
        if stuck:
            raise DeadlockError(
                f"shard {self.shard_id} quiescent with unfinished "
                f"drivers: {', '.join(stuck)} at t={self.sim.now:.3f}us "
                f"(undeclared channel edge or lost cross-shard frame)"
            )
        return {
            "results": dict(self.results),
            "events": self.sim.events_processed,
            "now": self.sim.now,
            "reliability": self.cluster.reliability_stats(),
            "recorder": self.sim.recorder,
        }


def _delivery(port, frame):
    """Delivery closure matching the reference link's arrival event."""
    def fire() -> None:
        port.frame_arrived(frame)
    return fire
