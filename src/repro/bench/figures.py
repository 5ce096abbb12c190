"""Figure experiments: one function per figure in the paper."""

from __future__ import annotations

from typing import Dict, Sequence

from repro.bench import microbench as mb
from repro.bench.harness import ExperimentResult
from repro.cluster.builder import build_mesh
from repro.cluster.process_api import build_world, run_mpi
from repro.collectives.schedule import opt_bound, opt_schedule, sdf_schedule
from repro.topology.torus import Torus

#: Message-size axes (bytes).
FULL_SIZES = [4, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576]
QUICK_SIZES = [4, 1024, 16384, 262144]
FULL_AGG_SIZES = [2048, 8192, 32768, 131072, 524288, 2097152]
QUICK_AGG_SIZES = [4096, 65536, 524288]


def fig2(quick: bool = False) -> ExperimentResult:
    """M-VIA vs TCP point-to-point latency and bandwidth."""
    sizes = QUICK_SIZES if quick else FULL_SIZES
    rows = []
    for nbytes in sizes:
        via_lat = mb.via_latency(nbytes) if nbytes <= 16384 else float("nan")
        tcp_lat = mb.tcp_latency(nbytes) if nbytes <= 16384 else float("nan")
        rows.append([
            nbytes,
            via_lat,
            tcp_lat,
            mb.via_pingpong_bandwidth(nbytes) if nbytes >= 1024 else 0.0,
            mb.tcp_pingpong_bandwidth(nbytes) if nbytes >= 1024 else 0.0,
            mb.via_simultaneous_bandwidth(max(nbytes, 4096)),
            mb.tcp_simultaneous_bandwidth(max(nbytes, 4096)),
        ])
    return ExperimentResult(
        experiment="fig2",
        title="Figure 2: M-VIA vs TCP point-to-point latency/bandwidth",
        columns=["bytes", "via RTT/2 us", "tcp RTT/2 us",
                 "via pp MB/s", "tcp pp MB/s",
                 "via simul MB/s", "tcp simul MB/s"],
        rows=rows,
        notes=[
            "paper: M-VIA ~18.5us small-message RTT/2; TCP at least 30% higher",
            "paper: M-VIA simultaneous ~110 MB/s, 37% over TCP; pingpong "
            "only marginally better",
        ],
    )


def fig3(quick: bool = False) -> ExperimentResult:
    """Aggregated multi-link bandwidth: M-VIA and TCP, 2-D and 3-D."""
    sizes = QUICK_AGG_SIZES if quick else FULL_AGG_SIZES
    via_total = 2_000_000 if quick else 6_000_000
    tcp_total = 1_000_000 if quick else 4_000_000
    dims2, dims3 = (3, 3), (3, 3, 3)
    rows = []
    for nbytes in sizes:
        rows.append([
            nbytes,
            mb.via_aggregate_bandwidth(dims2, nbytes,
                                       total_bytes=via_total),
            mb.via_aggregate_bandwidth(dims3, nbytes,
                                       total_bytes=via_total),
            mb.tcp_aggregate_bandwidth(dims2, nbytes,
                                       total_bytes=tcp_total),
            mb.tcp_aggregate_bandwidth(dims3, nbytes,
                                       total_bytes=tcp_total),
        ])
    return ExperimentResult(
        experiment="fig3",
        title="Figure 3: aggregated send bandwidth per node (MB/s)",
        columns=["bytes", "via 2-D", "via 3-D", "tcp 2-D", "tcp 3-D"],
        rows=rows,
        notes=[
            "paper: M-VIA 2-D flattens ~400 MB/s; 3-D peaks ~550 then "
            "falls toward ~400; TCP well below both",
        ],
    )


def fig4(quick: bool = False) -> ExperimentResult:
    """MPI/QMP point-to-point latency and aggregated bandwidth."""
    lat_sizes = [4, 64, 1024] if quick else [4, 16, 64, 256, 1024,
                                             4096, 8192]
    agg_sizes = [4096, 16384, 524288] if quick else [
        2048, 8192, 15000, 16384, 32768, 131072, 524288, 1048576,
    ]
    total = 2_000_000 if quick else 6_000_000
    lat_rows = [[n, mb.mpi_latency(n)] for n in lat_sizes]
    agg_rows = [
        [n,
         mb.mpi_aggregate_bandwidth((3, 3), n, total_bytes=total),
         mb.mpi_aggregate_bandwidth((3, 3, 3), n, total_bytes=total)]
        for n in agg_sizes
    ]
    rows = [
        [n, lat, float("nan"), float("nan")] for n, lat in lat_rows
    ] + [
        [n, float("nan"), b2, b3] for n, b2, b3 in agg_rows
    ]
    return ExperimentResult(
        experiment="fig4",
        title="Figure 4: MPI/QMP point-to-point performance",
        columns=["bytes", "RTT/2 us", "2-D agg MB/s", "3-D agg MB/s"],
        rows=rows,
        notes=[
            "paper: ~18.5us RTT/2 (small implementation overhead); ~400 "
            "MB/s 3-D total; bandwidth jump at 16K (eager -> RMA switch)",
        ],
    )


def fig5(quick: bool = False) -> ExperimentResult:
    """Broadcast and global sum on the (4,8,8) torus."""
    dims = (2, 4, 4) if quick else (4, 8, 8)
    sizes = [4, 4096] if quick else [4, 256, 1024, 4096, 16384, 65536]
    cluster = build_mesh(dims, wrap=True)
    comms = build_world(cluster)
    rows = []
    for nbytes in sizes:
        times: Dict[str, float] = {}

        def program(comm, nbytes=nbytes, times=times):
            sim = comm.engine.sim
            yield from comm.barrier()
            start = sim.now
            yield from comm.bcast(root=0, nbytes=nbytes)
            times.setdefault("bcast_start", start)
            times["bcast_end"] = max(times.get("bcast_end", 0.0), sim.now)
            yield from comm.barrier()
            start = sim.now
            yield from comm.allreduce(nbytes=max(nbytes, 8), data=1.0)
            times.setdefault("sum_start", start)
            times["sum_end"] = max(times.get("sum_end", 0.0), sim.now)

        run_mpi(cluster, program, comms=comms)
        rows.append([
            nbytes,
            times["bcast_end"] - times["bcast_start"],
            times["sum_end"] - times["sum_start"],
        ])
    return ExperimentResult(
        experiment="fig5",
        title=f"Figure 5: broadcast and global sum on {dims} (us)",
        columns=["bytes", "broadcast us", "global sum us"],
        rows=rows,
        notes=[
            "paper (4x8x8): ~200us small-message broadcast (10 steps x "
            "~20us); global sum ~2x broadcast; linear growth with size",
        ],
    )


def fig6(quick: bool = False) -> ExperimentResult:
    """Scatter: SDF vs OPT on the 8x8 and 4x8x8 tori."""
    configs: Sequence = [(8, 8)] if quick else [(8, 8), (4, 8, 8)]
    sizes = [64, 4096] if quick else [64, 256, 1024, 4096, 16384]
    rows = []
    for dims in configs:
        torus = Torus(dims)
        sdf_steps = sdf_schedule(torus, 0).steps
        opt_steps = opt_schedule(torus, 0).steps
        cluster = build_mesh(dims, wrap=True)
        comms = build_world(cluster)
        for nbytes in sizes:
            measured = {}
            for algorithm in ("sdf", "opt"):
                times: Dict[str, float] = {}

                def program(comm, nbytes=nbytes, algorithm=algorithm,
                            times=times):
                    sim = comm.engine.sim
                    yield from comm.barrier()
                    start = sim.now
                    data = None
                    if comm.rank == 0:
                        data = [b"x"] * comm.size
                    yield from comm.scatter(root=0, nbytes=nbytes,
                                            data=data,
                                            algorithm=algorithm)
                    times.setdefault("start", start)
                    times["end"] = max(times.get("end", 0.0), sim.now)

                run_mpi(cluster, program, comms=comms)
                measured[algorithm] = times["end"] - times["start"]
            rows.append([
                "x".join(map(str, dims)), nbytes,
                measured["sdf"], measured["opt"],
                measured["sdf"] / measured["opt"],
                sdf_steps, opt_steps, opt_bound(torus, 0),
            ])
    return ExperimentResult(
        experiment="fig6",
        title="Figure 6: one-to-all personalized communication (scatter)",
        columns=["mesh", "bytes", "SDF us", "OPT us", "SDF/OPT",
                 "SDF steps", "OPT steps", "OPT bound"],
        rows=rows,
        notes=[
            "paper: OPT ~4x faster than SDF on average for both meshes; "
            "OPT steps == max(T1, T2) (verified exactly by the step model)",
        ],
    )


def routing(quick: bool = False) -> ExperimentResult:
    """Non-nearest-neighbor latency: 18.5 + 12.5 (n-1) us (section 5.1)."""
    hop_counts = [1, 2, 3] if quick else [1, 2, 3, 4, 5, 6]
    rows = []
    for hops in hop_counts:
        measured = mb.via_latency(4, hops=hops)
        predicted = 18.5 + 12.5 * (hops - 1)
        rows.append([hops, measured, predicted])
    return ExperimentResult(
        experiment="routing",
        title="Routing latency vs hop count (us)",
        columns=["hops", "measured RTT/2", "paper model"],
        rows=rows,
        notes=["paper: 12.5us node-to-node routing latency per extra hop"],
    )
