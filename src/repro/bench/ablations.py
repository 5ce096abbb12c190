"""Ablation experiments for the design choices DESIGN.md calls out.

Each ablation flips one of the paper's design decisions and shows the
consequence the decision was made to avoid:

* ``eager_threshold`` — move the 16 KB eager/RMA switch and watch the
  Figure 4 bandwidth jump move with it;
* ``interrupt_coalescing`` — trade latency against aggregated
  bandwidth via the Intel driver's interrupt-delay tuning (section 3);
* ``token_count`` — too few flow-control tokens stall the eager
  pipeline;
* ``host_overhead`` — remove the M-VIA receive copy (the paper's
  stated future-work direction: interrupt-level/zero-copy receives);
* ``checksum_offload`` — software vs hardware per-packet checksum
  (the Jlab driver change, section 4).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

from repro.bench import microbench as mb
from repro.bench.harness import ExperimentResult
from repro.cluster.builder import build_mesh
from repro.cluster.process_api import run_mpi
from repro.core.message import CoreParams
from repro.hw.params import GigEParams, ViaParams
from repro.mpi.request import waitall


def _mpi_stream_bandwidth(nbytes: int, params: CoreParams,
                          repeats: int = 8) -> float:
    """Unidirectional MPI bandwidth at one size, given core params."""
    cluster = build_mesh((2,), wrap=False)
    result: Dict[str, float] = {}

    def program(comm):
        sim = comm.engine.sim
        if comm.rank == 0:
            yield from comm.barrier()
            start = sim.now
            sends = [
                comm.isend(1, tag=1, nbytes=nbytes)
                for _ in range(repeats)
            ]
            yield from waitall(sends)
            # Completion of the final receive bounds the stream.
            yield from comm.recv(source=1, tag=2, nbytes=64)
            result["elapsed"] = sim.now - start
        else:
            recvs = [
                comm.irecv(0, tag=1, nbytes=nbytes)
                for _ in range(repeats)
            ]
            yield from comm.barrier()
            yield from waitall(recvs)
            yield from comm.send(0, tag=2, nbytes=4)

    run_mpi(cluster, program, params=params)
    return repeats * nbytes / result["elapsed"]


def eager_threshold(quick: bool = False) -> ExperimentResult:
    """Sweep the eager/rendezvous switch point."""
    thresholds = [4096, 16384] if quick else [4096, 16384, 65536]
    sizes = [2048, 8192, 32768] if quick else [
        2048, 8192, 15000, 20000, 32768, 65536,
    ]
    rows = []
    for nbytes in sizes:
        row: List = [nbytes]
        for threshold in thresholds:
            params = CoreParams(
                eager_threshold=threshold,
                eager_slot_bytes=max(threshold + 64, 16448),
            )
            row.append(_mpi_stream_bandwidth(nbytes, params))
        rows.append(row)
    return ExperimentResult(
        experiment="ablation-threshold",
        title="Ablation: eager/RMA switch point (MPI stream MB/s)",
        columns=["bytes"] + [f"thr={t}" for t in thresholds],
        rows=rows,
        notes=["the Figure 4 bandwidth jump follows the threshold"],
    )


def interrupt_coalescing(quick: bool = False) -> ExperimentResult:
    """Interrupt-delay tuning: latency vs bandwidth."""
    delays = [0.5, 6.9] if quick else [0.5, 2.0, 6.9, 15.0, 30.0]
    rows = []
    for delay in delays:
        gige = GigEParams(coalesce_delay=delay)
        rows.append([
            delay,
            mb.via_latency(4, gige_params=gige),
            mb.via_simultaneous_bandwidth(2_000_000, gige_params=gige),
        ])
    return ExperimentResult(
        experiment="ablation-coalescing",
        title="Ablation: interrupt coalescing delay",
        columns=["delay us", "RTT/2 us", "simul MB/s"],
        rows=rows,
        notes=[
            "section 3: the driver was tuned 'to utilize interrupt "
            "coalescing ... by selecting appropriate values'",
        ],
    )


def token_count(quick: bool = False) -> ExperimentResult:
    """Flow-control token pool size vs small-message stream rate."""
    token_counts = [2, 32] if quick else [1, 2, 4, 8, 32]
    rows = []
    for tokens in token_counts:
        params = CoreParams(data_tokens=tokens,
                            token_return_threshold=max(1, tokens // 4))
        rows.append([
            tokens,
            _mpi_stream_bandwidth(8192, params, repeats=16),
        ])
    return ExperimentResult(
        experiment="ablation-tokens",
        title="Ablation: flow-control tokens (8KB stream MB/s)",
        columns=["tokens", "stream MB/s"],
        rows=rows,
        notes=["few tokens stall the eager pipeline on credit returns"],
    )


def host_overhead(quick: bool = False) -> ExperimentResult:
    """Remove the receive copy (paper section 7 future work).

    On a single link the copy hides behind the wire; its real cost is
    the CPU/memory pressure under 6-link aggregation, so that is the
    metric that moves.
    """
    total = 1_000_000 if quick else 3_000_000
    variants = [
        ("baseline", ViaParams()),
        ("no recv copy", replace(ViaParams(), recv_copy=False)),
    ]
    rows = []
    for label, via in variants:
        rows.append([
            label,
            mb.via_latency(4, via_params=via),
            mb.via_simultaneous_bandwidth(2_000_000, via_params=via),
            mb.via_aggregate_bandwidth((3, 3, 3), 524288,
                                       total_bytes=total,
                                       via_params=via),
        ])
    return ExperimentResult(
        experiment="ablation-overhead",
        title="Ablation: M-VIA receive copy removal",
        columns=["variant", "RTT/2 us", "simul MB/s", "3-D agg MB/s"],
        rows=rows,
        notes=[
            "section 7: interrupt-level collectives / zero-copy receive "
            "were the planned follow-up to cut this copy; the win is in "
            "multi-link aggregation, not single-link numbers",
        ],
    )


def napi(quick: bool = False) -> ExperimentResult:
    """NAPI-style interrupt mitigation (paper section 7 second item)."""
    from repro.hw.params import HostParams

    windows = [0.0, 6.0] if quick else [0.0, 3.0, 6.0, 12.0]
    total = 1_000_000 if quick else 3_000_000
    rows = []
    for window in windows:
        host = HostParams(napi_poll_window=window)
        rows.append([
            window,
            mb.via_latency(4, host_params=host),
            mb.via_simultaneous_bandwidth(2_000_000, host_params=host),
            mb.via_aggregate_bandwidth((3, 3, 3), 524288,
                                       total_bytes=total,
                                       host_params=host),
        ])
    return ExperimentResult(
        experiment="ablation-napi",
        title="Ablation: NAPI-style polling window",
        columns=["poll window us", "RTT/2 us", "simul MB/s",
                 "3-D agg MB/s"],
        rows=rows,
        notes=[
            "section 7: 'a possible new M-VIA feature, similar to the "
            "NAPI ... to reduce the cost of OS-interrupts'",
        ],
    )


def cluster_b(quick: bool = False) -> ExperimentResult:
    """Collectives on the second production machine (6x8x8, 384
    nodes) vs the first (4x8x8): section 3's cluster B."""
    from repro.cluster.process_api import build_world

    configs = [(2, 4, 4), (3, 4, 4)] if quick else [(4, 8, 8), (6, 8, 8)]
    rows = []
    for dims in configs:
        cluster = build_mesh(dims, wrap=True)
        comms = build_world(cluster)
        times: Dict[str, float] = {}

        def program(comm, times=times):
            sim = comm.engine.sim
            yield from comm.barrier()
            start = sim.now
            yield from comm.bcast(root=0, nbytes=4)
            times.setdefault("b0", start)
            times["b1"] = max(times.get("b1", 0.0), sim.now)
            yield from comm.barrier()
            start = sim.now
            yield from comm.allreduce(nbytes=8, data=1.0)
            times.setdefault("s0", start)
            times["s1"] = max(times.get("s1", 0.0), sim.now)
            return None

        run_mpi(cluster, program, comms=comms)
        steps = sum(-(-d // 2) for d in dims)
        rows.append([
            "x".join(map(str, dims)), cluster.size, steps,
            times["b1"] - times["b0"], times["s1"] - times["s0"],
        ])
    return ExperimentResult(
        experiment="cluster-b",
        title="Cluster A vs cluster B: small-message collectives",
        columns=["mesh", "nodes", "tree steps", "broadcast us",
                 "global sum us"],
        rows=rows,
        notes=[
            "section 3: the 384-node 6x8x8 torus deployed alongside "
            "the measured 256-node 4x8x8; collective times scale with "
            "the dimension-order step count",
        ],
    )


def kernel_collectives(quick: bool = False) -> ExperimentResult:
    """Interrupt-level global reduction (paper section 7 future work)."""
    from repro.cluster.process_api import build_world
    from repro.mpi.op import SUM

    dims = (2, 4, 4) if quick else (4, 8, 8)
    cluster = build_mesh(dims, wrap=True)
    comms = build_world(cluster)
    for node in cluster.nodes:
        node.via.enable_kernel_collectives(root=0)
    times: Dict[str, float] = {}

    def program(comm):
        sim = comm.engine.sim
        yield from comm.barrier()
        start = sim.now
        user = yield from comm.allreduce(nbytes=8, data=1.0)
        times.setdefault("u0", start)
        times["u1"] = max(times.get("u1", 0.0), sim.now)
        yield from comm.barrier()
        start = sim.now
        kernel = yield from comm.engine.device.kernel_collective.global_sum(
            1.0, SUM, nbytes=8)
        times.setdefault("k0", start)
        times["k1"] = max(times.get("k1", 0.0), sim.now)
        assert user == kernel == cluster.size
        return None

    run_mpi(cluster, program, comms=comms)
    user_us = times["u1"] - times["u0"]
    kernel_us = times["k1"] - times["k0"]
    return ExperimentResult(
        experiment="ablation-kernel-reduce",
        title=f"Ablation: interrupt-level global sum on {dims}",
        columns=["variant", "global sum us"],
        rows=[["user-level (reduce+bcast)", user_us],
              ["interrupt-level (section 7)", kernel_us]],
        notes=[
            "section 7: kernel-space intermediate combining 'eliminates "
            "the overhead of copying data to user space for the "
            "intermediate steps, therefore reduces the overall latency'",
        ],
    )


def checksum_offload(quick: bool = False) -> ExperimentResult:
    """Hardware vs software per-packet checksum (the Jlab change)."""
    variants = [
        ("hardware", GigEParams(hw_checksum=True)),
        ("software", GigEParams(hw_checksum=False)),
    ]
    rows = []
    for label, gige in variants:
        rows.append([
            label,
            mb.via_latency(4, gige_params=gige),
            mb.via_simultaneous_bandwidth(2_000_000, gige_params=gige),
        ])
    return ExperimentResult(
        experiment="ablation-checksum",
        title="Ablation: per-packet checksum offload",
        columns=["checksum", "RTT/2 us", "simul MB/s"],
        rows=rows,
        notes=[
            "section 4: the Jlab driver change checksums each packet in "
            "hardware 'without degrading performance'",
        ],
    )
