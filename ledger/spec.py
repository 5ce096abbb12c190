"""The benchmark's declared surface: workloads, metrics, bounds.

``BENCHMARK.json`` at the repo root is ``benchmark_json()`` written
out (``python3 ledger/spec.py`` prints it); ``test_ledger_e2e.py``
checks the two agree, so a metric is declared exactly once, here.

"Time" is host wall-clock unless a name says ``sim``.  A metric marked
``exact`` is a deterministic count or simulated quantity: for a given
``--seed`` it must repeat bit-for-bit, and ``compare.py`` treats any
change in it as a behaviour change, not as noise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional

#: Seconds one run measures (``--seconds``); the driver passes it.
RUN_SECONDS = 12

#: The seed the baseline in ``baseline.json`` was taken with.
DEFAULT_SEED = 20050404

#: name -> why it exists (the layer that works, the layer that idles).
WORKLOADS: Dict[str, str] = {
    "pt2pt_sweep": (
        "uncontended 2- and 4-node lines: VIA/TCP/MPI ping-pong, "
        "simultaneous, streaming; frame trains engage; only tcpip "
        "user; bypass case for contended-link work"),
    "mesh_aggregate": (
        "3x3x3 torus, every rank to all 6 neighbours, eager then RMA: "
        "PCI-X sharing, NIC rings and link serialization dominate; "
        "where trains fall back"),
    "torus_collectives": (
        "4x4x8 torus rebuilt per iteration, barrier/bcast/allreduce/"
        "scatter from a seeded root: core matching, collectives, "
        "routing, kernel switching; hw contention idle; large setup"),
    "lossy_mesh": (
        "3x3 torus all-neighbour exchange at 1% frame loss: trains "
        "refused, every frame event by event, via go-back-N "
        "retransmits; the reference path's cost"),
    "pdes_shards": (
        "run_sharded 4x4x4 aggregate on 2 in-process shards: the "
        "conservative-window barrier is the work; program equals the "
        "1-shard run"),
    "service_closed_loop": (
        "2 closed-loop clients, Router, Fleet(1): 1 distinct point job "
        "(miss, runs the engine) then 5 repeats (hits); only workload "
        "with router/cache/pipe/fleet on the path"),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Deterministic for a given seed (counts, simulated quantities).
    exact: bool = False
    #: End-to-end only: share of the parent's median by which the
    #: metric may worsen before a change counts as a regression.
    bound: Optional[float] = None


#: What a user of the system sees.  Every workload emits every one;
#: none can be zero.  The service's "iteration" is one round (one miss
#: plus its five hits), so its ``wall_s`` is miss-dominated latency and
#: its ``msgs_per_s`` is jobs per second.  The three timings are
#: corrected for host slowness (``harness.host_probe``): seconds at
#: the reference host's quiet speed, not at whatever speed a shared
#: host happened to run during those 12 s.
END_TO_END: List[Metric] = [
    Metric("wall_s", "s", "lower", bound=0.25),
    Metric("msgs_per_s", "1/s", "higher", bound=0.25),
    Metric("setup_s", "s", "lower", bound=0.25),
    Metric("peak_rss_mb", "MB", "lower", bound=0.10),
]

#: Buckets of the cProfile pass, by ``src/repro/<package>/`` path.
#: ``other`` is the rest of ``repro`` (obs, telemetry, ckpt, bench,
#: top-level modules); ``builtins`` is C calls (heapq, deque, ...);
#: ``idle`` is blocking waits (epoll, sleep); ``harness`` is stdlib
#: Python plus this benchmark's own files.  Their shares sum to 1.
LAYERS = ("sim", "hw", "via", "tcpip", "core", "mpi", "collectives",
          "topology", "cluster", "pdes", "service", "other", "builtins",
          "idle", "harness")


def _count(name: str, better: str = "lower") -> Metric:
    return Metric(name, "count", better, exact=True)


PER_LAYER: List[Metric] = [
    # sim: the event kernel.
    _count("sim.events"),
    Metric("sim.host_us_per_event", "us", "lower"),
    Metric("sim.sim_time_us", "us", "lower", exact=True),
    Metric("sim.bare_ns_per_event", "ns", "lower"),
    # hw: NIC ports and links (run-phase deltas, summed over the mesh).
    _count("hw.tx_frames"),
    _count("hw.train_frames", "higher"),
    Metric("hw.train_frame_share", "share", "higher", exact=True),
    _count("hw.train_fallbacks"),
    _count("hw.interrupts"),
    _count("hw.rx_stalls"),
    _count("hw.frames_dropped"),
    # via: kernel agent switching and reliable delivery.
    _count("via.frames_forwarded"),
    _count("via.retransmits"),
    _count("via.timeouts"),
    _count("via.acks_sent"),
    _count("via.dup_frames"),
    # core: the messaging engine.
    _count("core.eager_sent"),
    _count("core.rma_sent"),
    _count("core.unexpected"),
    _count("collectives.ops"),
    Metric("topology.route_cache_hit_ratio", "share", "higher",
           exact=True),
    # cluster: what setup_s is made of.
    Metric("cluster.build_mesh_s", "s", "lower"),
    Metric("cluster.build_world_s", "s", "lower"),
    _count("cluster.setup_events"),
    # pdes: the window barrier (pdes_shards only).
    _count("pdes.windows"),
    Metric("pdes.shard_ratio", "ratio", "higher"),
    Metric("pdes.coord_ms_per_window", "ms", "lower"),
    _count("pdes.extra_events"),
    # ckpt: one extra profiled pdes pass with CheckpointPolicy(256).
    Metric("ckpt.self_s", "s", "lower"),
    _count("ckpt.windows_written"),
    Metric("ckpt.bytes_written", "B", "lower"),
    # service (service_closed_loop only).
    Metric("service.miss_p50_ms", "ms", "lower"),
    Metric("service.miss_p90_ms", "ms", "lower"),
    Metric("service.hit_p50_us", "us", "lower"),
    Metric("service.hit_p99_us", "us", "lower"),
    Metric("service.pipe_overhead_ms", "ms", "lower"),
    Metric("service.engine_dispatches", "count", "lower"),
    Metric("service.cache_hit_ratio", "share", "higher", exact=True),
    _count("service.shed"),
    _count("service.retries"),
    # calibration against the paper's anchors (pt2pt_sweep only).
    Metric("calib.err_pct", "%", "lower", exact=True),
    Metric("calib.via_rtt2_us", "us", "lower", exact=True),
    Metric("calib.hop_us", "us", "lower", exact=True),
    Metric("calib.simul_mb_per_s", "MB/s", "higher", exact=True),
    Metric("calib.mpi_rtt2_us", "us", "lower", exact=True),
    Metric("bench.trace_overhead_ratio", "ratio", "lower"),
]
for _layer in LAYERS:
    PER_LAYER.append(Metric(f"{_layer}.self_s", "s", "lower"))
    PER_LAYER.append(Metric(f"{_layer}.self_share", "share", "lower"))

BY_NAME: Dict[str, Metric] = {m.name: m for m in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    """The exact content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "ledger/run.py"],
        "paths": ["ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit,
                        "better": m.better, "bound": m.bound}
                       for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
