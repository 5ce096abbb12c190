"""Workloads the sharded (PDES) engine can run.

A :class:`Workload` bundles three pure functions:

* ``edges(torus)`` — every unordered rank pair the program will ever
  open a channel to, as ``(lo, hi)`` tuples.  The shard runtime
  pre-opens these from *both* sides at t=0 (lower rank dialing, higher
  rank waiting passively), so every channel exists before any program
  traffic and a channel-open notify can never cause timed work
  mid-run.  This is a hard requirement, not an optimization: a channel
  first requested mid-program across a shard boundary would make the
  notified rank dial actively at barrier-deferred time — zero-lookahead
  influence the conservative window cannot schedule (see
  :class:`repro.pdes.shard.ShardConnectionManager`).  The
  dimension-order tree edges used by collectives and the runtime's own
  start barrier are added by the runtime; ``edges`` only declares the
  workload's point-to-point pairs.
* ``program(comm, torus, **kwargs)`` — the per-rank SPMD generator,
  returning that rank's result.  Results must be picklable and derived
  only from simulation state (no wall clock), so shard counts and
  process boundaries cannot change them.
* ``reduce(torus, per_rank)`` — fold the per-rank results into the
  experiment table (a plain dict).  Identity tests compare the
  ``repr`` of this table across shard counts.

The three built-ins mirror the paper's figures: ``pingpong`` is the
fig. 2 latency microbenchmark stretched across the mesh's longest axis
(so it always crosses shard boundaries), ``collective`` is the fig. 5
global-combine pattern, and ``aggregate`` is the fig. 4/5 all-neighbor
exchange the ledger's ``pdes_shards`` workload runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.collectives.tree import dimension_order_tree
from repro.errors import ConfigurationError
from repro.mpi.request import waitall
from repro.topology.torus import Torus

Edge = Tuple[int, int]


def tree_edges(torus: Torus, root: int = 0) -> List[Edge]:
    """Channel pairs of the dimension-order collective tree."""
    parents = dimension_order_tree(torus, root)[0]
    return sorted({(min(rank, parent), max(rank, parent))
                   for rank, parent in enumerate(parents)
                   if parent is not None})


def neighbor_edges(torus: Torus) -> List[Edge]:
    """All nearest-neighbor pairs (the paper's wired channels)."""
    edges = set()
    for rank in torus.ranks():
        for _direction, neighbor in torus.neighbors(rank):
            if neighbor != rank:
                edges.add((min(rank, neighbor), max(rank, neighbor)))
    return sorted(edges)


def far_peer(torus: Torus) -> int:
    """The rank farthest from 0 along the longest axis.

    Uses the same longest-axis rule as the shard partition, so for any
    shard count > 1 ranks 0 and ``far_peer`` land on different shards
    and the pingpong exercises the boundary machinery.
    """
    dims = torus.dims
    axis = max(range(len(dims)), key=lambda a: dims[a])
    coords = [0] * len(dims)
    coords[axis] = dims[axis] - 1
    return torus.rank(coords)


@dataclass(frozen=True)
class Workload:
    """One named PDES workload (see module docstring)."""

    name: str
    edges: Callable[[Torus], Iterable[Edge]]
    program: Callable
    reduce: Callable[[Torus, Dict[int, object]], dict]
    #: Optional ``setup(cluster, comms)`` hook the shard runtime calls
    #: after building engines/communicators but before spawning the
    #: per-rank drivers — for workloads that need device-level
    #: enablement (e.g. the NIC collective engine).  It runs once per
    #: shard with that shard's local comms only, so it must key off the
    #: cluster's non-``None`` nodes.
    setup: Optional[Callable] = None


# -- pingpong (fig. 2 style latency) ------------------------------------

def _pingpong_edges(torus: Torus) -> List[Edge]:
    peer = far_peer(torus)
    return [(0, peer)] if peer != 0 else []


def _pingpong_program(comm, torus: Torus, nbytes: int = 1024,
                      repeats: int = 4):
    peer = far_peer(torus)
    sim = comm.engine.sim
    if peer == 0:
        return None
    if comm.rank == 0:
        start = sim.now
        for _ in range(repeats):
            yield from comm.send(peer, tag=1, nbytes=nbytes)
            yield from comm.recv(source=peer, tag=2,
                                 nbytes=max(nbytes, 4096))
        return round((sim.now - start) / repeats / 2, 6)
    if comm.rank == peer:
        for _ in range(repeats):
            yield from comm.recv(source=0, tag=1,
                                 nbytes=max(nbytes, 4096))
            yield from comm.send(0, tag=2, nbytes=nbytes)
        return round(sim.now, 6)
    return None


def _pingpong_reduce(torus: Torus, per_rank: Dict[int, object]) -> dict:
    peer = far_peer(torus)
    return {
        "workload": "pingpong",
        "peer": peer,
        "latency_us": per_rank.get(0),
        "peer_done_us": per_rank.get(peer),
    }


# -- collective (fig. 5 style global combine) ---------------------------

def _collective_edges(torus: Torus) -> List[Edge]:
    return []  # the tree edges the runtime adds are the whole pattern


def _collective_program(comm, torus: Torus, nbytes: int = 256,
                        repeats: int = 3):
    sim = comm.engine.sim
    start = sim.now
    total = 0.0
    for _ in range(repeats):
        value = yield from comm.allreduce(nbytes=nbytes,
                                          data=float(comm.rank + 1))
        total += value
    return (round(total, 6), round(sim.now - start, 6))


def _collective_reduce(torus: Torus, per_rank: Dict[int, object]) -> dict:
    return {
        "workload": "collective",
        "sums": [per_rank[rank][0] for rank in sorted(per_rank)],
        "elapsed_us": [per_rank[rank][1] for rank in sorted(per_rank)],
    }


# -- nic-collective (NIC-resident global combine) -----------------------

def _nic_collective_setup(cluster, comms) -> None:
    for node in cluster.nodes:
        if node is not None:
            node.via.enable_nic_collectives()
    for comm in comms.values():
        comm.set_collective_tier("nic")


def _nic_collective_program(comm, torus: Torus, nbytes: int = 256,
                            repeats: int = 3):
    sim = comm.engine.sim
    start = sim.now
    total = 0.0
    for _ in range(repeats):
        value = yield from comm.allreduce(nbytes=nbytes,
                                          data=float(comm.rank + 1))
        total += value
    return (round(total, 6), round(sim.now - start, 6))


def _nic_collective_reduce(torus: Torus,
                           per_rank: Dict[int, object]) -> dict:
    return {
        "workload": "nic-collective",
        "sums": [per_rank[rank][0] for rank in sorted(per_rank)],
        "elapsed_us": [per_rank[rank][1] for rank in sorted(per_rank)],
    }


# -- aggregate (fig. 4/5 style all-neighbor exchange) -------------------

def _aggregate_program(comm, torus: Torus, nbytes: int = 4096,
                       iters: int = 4):
    sim = comm.engine.sim
    neighbors = [n for _d, n in torus.neighbors(comm.rank) if n != comm.rank]
    yield from comm.barrier()
    start = sim.now
    recvs = []
    for _ in range(iters):
        for peer in neighbors:
            recvs.append(comm.irecv(peer, tag=3, nbytes=nbytes))
        sends = [comm.isend(peer, tag=3, nbytes=nbytes)
                 for peer in neighbors]
        yield from waitall(sends)
    send_done = sim.now - start
    yield from waitall(recvs)
    return (round(send_done, 6), round(sim.now - start, 6))


def _aggregate_reduce(torus: Torus, per_rank: Dict[int, object]) -> dict:
    send_done = {rank: per_rank[rank][0] for rank in sorted(per_rank)}
    elapsed = {rank: per_rank[rank][1] for rank in sorted(per_rank)}
    return {
        "workload": "aggregate",
        "rank0_send_done_us": send_done[0],
        "max_elapsed_us": max(elapsed.values()),
        "elapsed_us": [elapsed[rank] for rank in sorted(elapsed)],
    }


WORKLOADS: Dict[str, Workload] = {
    "pingpong": Workload("pingpong", _pingpong_edges,
                         _pingpong_program, _pingpong_reduce),
    "collective": Workload("collective", _collective_edges,
                           _collective_program, _collective_reduce),
    "aggregate": Workload("aggregate", neighbor_edges,
                          _aggregate_program, _aggregate_reduce),
    "nic-collective": Workload("nic-collective", _collective_edges,
                               _nic_collective_program,
                               _nic_collective_reduce,
                               setup=_nic_collective_setup),
}


def get_workload(name: str) -> Workload:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown PDES workload {name!r} "
            f"(have: {', '.join(sorted(WORKLOADS))})"
        ) from None
