"""Crossover study: host vs kernel vs NIC-resident collectives.

``python -m repro.bench nic-collectives`` measures barrier, broadcast
and global-combine latency on every tier across a sweep of mesh sizes
and prints the comparison table.  Its notes carry:

* the **crossover verdict** — at every mesh of 8+ nodes the NIC tier
  must beat the kernel tier on barrier and broadcast strictly (the
  firmware state machine pays no per-hop interrupt or coalescing
  delay, so its advantage *grows* with node count),
* the **host-overhead comparison** — per-operation time the host CPU
  spends in ``api-call``/``irq-wait`` spans for the kernel vs NIC
  tiers on the paper's 2x2x2 mesh.  The NIC tier must cut the
  per-operation mean by at least half: a doorbell write replaces the
  deposit syscall and the completion IRQ replaces one interrupt *per
  collective* instead of one per tree hop.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

from repro.bench.harness import ExperimentResult
from repro.cluster.builder import build_mesh
from repro.cluster.process_api import build_world, run_mpi
from repro.obs import API_CALL, IRQ_WAIT

TIERS = ("host", "kernel", "nic")
COLLECTIVES = ("barrier", "bcast", "combine")
MESHES_FULL = ((2, 2), (2, 2, 2), (3, 3), (2, 2, 4))
MESHES_QUICK = ((2, 2), (2, 2, 2), (3, 3))
REPEATS = 4
NBYTES = 256
#: Meshes with at least this many nodes must show the NIC tier
#: strictly beating the kernel tier on barrier and broadcast.
CROSSOVER_SIZE = 8


def _enable_tier(cluster, comms, tier: str) -> None:
    if tier == "kernel":
        for node in cluster.nodes:
            node.via.enable_kernel_collectives()
    elif tier == "nic":
        for node in cluster.nodes:
            node.via.enable_nic_collectives()
    for comm in comms:
        comm.set_collective_tier(tier)


def _program(comm, times, repeats, nbytes):
    """Per-rank measurement shell: sync, then time each collective."""
    sim = comm.engine.sim
    for kind in COLLECTIVES:
        yield from comm.barrier()
        start = sim.now
        for _ in range(repeats):
            if kind == "barrier":
                yield from comm.barrier()
            elif kind == "bcast":
                yield from comm.bcast(
                    root=0, nbytes=nbytes,
                    data=1.0 if comm.rank == 0 else None)
            else:
                yield from comm.allreduce(
                    nbytes=nbytes, data=float(comm.rank + 1))
        times.setdefault(kind, {})[comm.rank] = (start, sim.now)
    return None


def _measure(dims: Tuple[int, ...], tier: str, observe: bool = False):
    """One world, one tier; returns ({collective: us/op}, cluster)."""
    cluster = build_mesh(dims, stack="via")
    if observe:
        cluster.observability()
    comms = build_world(cluster)
    _enable_tier(cluster, comms, tier)
    times: Dict[str, Dict[int, Tuple[float, float]]] = {}
    run_mpi(cluster, _program, args=(times, REPEATS, NBYTES),
            comms=comms)
    latency = {}
    for kind, per_rank in times.items():
        start = min(t0 for t0, _t1 in per_rank.values())
        end = max(t1 for _t0, t1 in per_rank.values())
        latency[kind] = round((end - start) / REPEATS, 4)
    return latency, cluster


def _host_overhead(recorder, prefix: str) -> float:
    """Mean api-call + irq-wait us per collective trace."""
    ids = {trace for trace, info in recorder.traces.items()
           if info.name.startswith(prefix)}
    total = sum(span.duration for span in recorder.spans
                if span.trace in ids
                and span.kind in (API_CALL, IRQ_WAIT))
    return round(total / max(len(ids), 1), 4)


def run_study(quick: bool = False) -> ExperimentResult:
    """The ``nic-collectives`` experiment."""
    rows = []
    crossover_failures = []
    for dims in (MESHES_QUICK if quick else MESHES_FULL):
        size = math.prod(dims)
        label = "x".join(str(d) for d in dims)
        latencies = {}
        for tier in TIERS:
            latency, _cluster = _measure(dims, tier)
            latencies[tier] = latency
            rows.append([label, size, tier, latency["barrier"],
                         latency["bcast"], latency["combine"]])
        if size < CROSSOVER_SIZE:
            continue
        for kind in ("barrier", "bcast"):
            nic = latencies["nic"][kind]
            kernel = latencies["kernel"][kind]
            if not nic < kernel:
                crossover_failures.append(
                    f"{kind}@{label}: nic {nic} !< kernel {kernel}")

    # Host-overhead comparison on the paper's 2x2x2 mesh, recorder on.
    _lat_k, cluster_k = _measure((2, 2, 2), "kernel", observe=True)
    _lat_n, cluster_n = _measure((2, 2, 2), "nic", observe=True)
    kernel_oh = _host_overhead(cluster_k.sim.recorder, "kcoll-")
    nic_oh = _host_overhead(cluster_n.sim.recorder, "nicoll-")
    reduction_pct = (round((1.0 - nic_oh / kernel_oh) * 100.0, 1)
                     if kernel_oh > 0 else 0.0)

    return ExperimentResult(
        experiment="nic-collectives",
        title="Collective tier crossover: host vs kernel vs "
              "NIC-resident",
        columns=["mesh", "nodes", "tier", "barrier_us", "bcast_us",
                 "combine_us"],
        rows=rows,
        notes=[
            f"{REPEATS} repeats per point, {NBYTES}B payloads; "
            f"latency = span of the slowest rank / repeats.",
            f"crossover (nic < kernel on barrier+bcast at >= "
            f"{CROSSOVER_SIZE} nodes): "
            + ("; ".join(crossover_failures) or "holds everywhere"),
            f"host overhead per op on 2x2x2 (api-call + irq-wait): "
            f"kernel {kernel_oh}us -> nic {nic_oh}us "
            f"({reduction_pct}% lower)",
        ],
    )
