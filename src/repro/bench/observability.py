"""The ``explain`` study: where the time went, in both clock domains.

``python -m repro.bench explain [--quick] [--out DIR]`` is one run with
the flight recorder and the wall-clock telemetry plane on:

1. the fig2 point workload (4-byte VIA ping-pong) and its per-span-kind
   latency table, whose api-call component is the paper's ~6 us host
   overhead (send 2.68 + receive 3.68), then the per-collective-tier
   host-overhead rows;
2. an 8-node fig5-style collective (barrier + broadcast + global sum
   on a (2,2,2) wrap torus) with the recorder attached;
3. a small concurrent-client load test (router + worker fleet; the
   workers ship their registry snapshots back over the duplex pipes)
   and a 2-shard PDES run with window checkpoints into a throwaway
   store, observed, and the merged registry: top counters, histogram
   percentiles and the event-log tail.

With ``--out DIR`` it writes one file, ``DIR/explain-trace.json``: the
unified Chrome/Perfetto trace of the telemetry plane's wall spans next
to the collective's and the PDES run's sim-time tracks, validated
before the study returns.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import tempfile
from typing import List, Optional, Tuple

from repro.obs import FlightRecorder
from repro.obs.export import breakdown_table

#: The one file ``explain --out DIR`` writes into ``DIR``.
TRACE_FILE = "explain-trace.json"


def traced_collective(dims: Tuple[int, ...] = (2, 2, 2),
                      nbytes: int = 4096,
                      recorder: Optional[FlightRecorder] = None):
    """Run the fig5-style collective with the recorder on; returns it."""
    from repro.cluster.builder import build_mesh
    from repro.cluster.process_api import build_world, run_mpi

    cluster = build_mesh(dims, wrap=True)
    if recorder is not None:
        cluster.sim.recorder = recorder
    recorder = cluster.observability()
    comms = build_world(cluster)

    def program(comm, nbytes=nbytes):
        yield from comm.barrier()
        yield from comm.bcast(root=0, nbytes=nbytes)
        yield from comm.allreduce(nbytes=max(nbytes, 8))

    run_mpi(cluster, program, comms=comms)
    return recorder


def trace_stats(quick: bool = False) -> dict:
    """The traced collective's summary as a plain result object (no
    file, no stdout): what a service ``trace`` job returns.

    ``span_key_hash`` is the content hash of the recorder's sorted
    span identities, so two runs of the same configuration can be
    compared for bit-identical observability output by string
    equality alone.
    """
    from repro.canonical import content_hash

    recorder = traced_collective(nbytes=1024 if quick else 4096)
    span_keys = [list(key) for key in recorder.span_keys()]
    return {
        "messages": len(recorder.traces),
        "spans": len(recorder.spans),
        "events": len(recorder.events),
        "kinds": sorted(recorder.kinds()),
        "span_key_hash": content_hash(span_keys),
    }


def tier_breakdown(quick: bool = False) -> str:
    """Host-CPU overhead per collective, tier by tier.

    Runs the collective suite (barrier + bcast + combine) on the
    paper's 2x2x2 mesh once per tier with the recorder on, and totals
    the ``api-call`` / ``irq-wait`` spans — the host-side cost the
    NIC-resident tier exists to remove.
    """
    from repro.bench.nic_collectives import (
        COLLECTIVES,
        REPEATS,
        TIERS,
        _measure,
    )
    from repro.obs import API_CALL, IRQ_WAIT

    ops = REPEATS * len(COLLECTIVES)
    lines = [
        f"per-collective-tier host overhead (2x2x2 mesh, "
        f"{'+'.join(COLLECTIVES)} x{REPEATS}):",
        f"{'tier':<8} {'api-call n':>10} {'api us':>10} "
        f"{'irq-wait n':>10} {'irq us':>10} {'host us/op':>11}",
    ]
    per_tier = {}
    for tier in TIERS:
        _latency, cluster = _measure((2, 2, 2), tier, observe=True)
        recorder = cluster.sim.recorder
        api = [s for s in recorder.spans if s.kind == API_CALL]
        irq = [s for s in recorder.spans if s.kind == IRQ_WAIT]
        api_us = sum(s.duration for s in api)
        irq_us = sum(s.duration for s in irq)
        per_op = (api_us + irq_us) / ops
        per_tier[tier] = per_op
        lines.append(
            f"{tier:<8} {len(api):>10} {api_us:>10.3f} "
            f"{len(irq):>10} {irq_us:>10.3f} {per_op:>11.3f}"
        )
    if per_tier.get("host"):
        reduction = (1.0 - per_tier["nic"] / per_tier["host"]) * 100.0
        lines.append(
            f"nic tier cuts host time per op by {reduction:.1f}% vs "
            f"the host tier (NIC-tier crossover claim: >90%)"
        )
    return "\n".join(lines) + "\n"


def breakdown_report(quick: bool = False) -> str:
    """The fig2 point workload's breakdown table, then the
    per-collective-tier host-overhead rows (a service ``breakdown``
    job's report)."""
    from repro.bench.microbench import via_latency
    from repro.sim import Simulator

    sim = Simulator()
    recorder = FlightRecorder()
    sim.recorder = recorder
    latency = via_latency(nbytes=4, repeats=10 if quick else 20, sim=sim)
    return (
        "per-message latency breakdown "
        f"(fig2 point: 4-byte VIA ping-pong, one-way {latency:.2f} us)\n"
        + breakdown_table(recorder)
        + "\n" + tier_breakdown(quick=quick)
    )


def _wall_report(tel, quick: bool, lines: List[str]):
    """Drive the load test and the checkpointed PDES run; append the
    merged registry to ``lines`` and return the PDES run's recorder."""
    from repro.ckpt import CheckpointStore
    from repro.pdes import CheckpointPolicy, run_sharded
    from repro.service import loadtest
    from repro.telemetry.registry import histogram_percentile, top_counters

    clients = 80 if quick else 240
    report = asyncio.run(loadtest.run_load_test(
        clients=clients, workers=1 if quick else 2,
        distinct=8 if quick else 24, max_pending=8))
    loadtest.check_report(report)
    lines.append(
        f"  load test: {clients} clients -> "
        f"{report['engine_dispatches']} engine runs, "
        f"{report['router']['cache_hits']} cache hits, "
        f"{report['router']['shed']} shed")

    # Shard 1 is killed at window 100 and recovered by replay, so the
    # run also shows what a recovery costs (and logs one event).
    ckpt_root = tempfile.mkdtemp(prefix="repro-bench-explain-")
    try:
        result = run_sharded(
            (2, 2, 2) if quick else (2, 4, 4), workload="aggregate",
            nshards=2, observe=True,
            checkpoint=CheckpointPolicy(every=8,
                                        store=CheckpointStore(ckpt_root),
                                        chaos_kill=(1, 100)))
    finally:
        shutil.rmtree(ckpt_root, ignore_errors=True)
    lines.append(
        f"  pdes: {result.windows} windows, "
        f"{result.events_processed} events, "
        f"{result.checkpoints} checkpoints captured, "
        f"{result.recoveries} shard recovered by replay")

    snapshot = tel.merged_snapshot()
    lines.append("  top counters:")
    for name, value in top_counters(snapshot, limit=15):
        lines.append(f"    {name:<44} {value}")
    lines.append("  histograms (count / mean / p50 / p99, seconds "
                 "unless the name says otherwise):")
    for name in sorted(snapshot.get("histograms", {})):
        for key, state in sorted(snapshot["histograms"][name].items()):
            label = f"{name}{{{key}}}" if key else name
            lines.append(
                f"    {label:<44} {state['count']:>6} "
                f"{state['mean']:.6f} "
                f"{histogram_percentile(state, 50.0):.6f} "
                f"{histogram_percentile(state, 99.0):.6f}")
    records = tel.events.tail(5)
    lines.append(f"  last {len(records)} of {len(tel.events)} events:")
    for record in records:
        lines.append(
            f"    [{record['level']}] {record['schema']} "
            f"t={record['t']} {record['msg']}")
    return result.recorder


def explain(quick: bool = False, out: Optional[str] = None):
    """The ``explain`` study (see the module docstring); writes
    ``out/explain-trace.json`` when ``out`` is given.  The telemetry
    plane is left on or off, as it was found."""
    from repro import telemetry
    from repro.bench.harness import ExperimentResult
    from repro.telemetry.export import (
        validate_unified_trace,
        write_unified_trace,
    )

    was_on = telemetry.enabled()
    tel = telemetry.enable("bench-explain")
    try:
        sections = [breakdown_report(quick=quick)]
        nbytes = 1024 if quick else 4096
        collective = traced_collective(nbytes=nbytes)
        kinds = sorted(collective.kinds())
        sections.append(
            f"traced collective (2x2x2 wrap torus, barrier + bcast + "
            f"allreduce of {nbytes} B): {len(collective.traces)} "
            f"messages, {len(collective.spans)} spans, "
            f"{len(collective.events)} events, {len(kinds)} kinds "
            f"({', '.join(kinds)})\n")
        lines = ["wall-clock telemetry"]
        pdes = _wall_report(tel, quick, lines)
        if out is not None:
            os.makedirs(out, exist_ok=True)
            path = os.path.join(out, TRACE_FILE)
            trace = write_unified_trace(
                tel, path, [("collective", collective), ("pdes", pdes)])
            problems = validate_unified_trace(trace)
            if problems:
                raise RuntimeError(
                    "unified trace failed validation: "
                    + "; ".join(problems[:5]))
            lines.append(
                f"  unified trace: {path} — "
                f"{len(trace['traceEvents'])} events, clock domains "
                f"wall+sim; open at https://ui.perfetto.dev")
        sections.append("\n".join(lines) + "\n")
    finally:
        if not was_on:
            telemetry.disable()
    return ExperimentResult(
        experiment="explain", title="explain", columns=[], rows=[],
        text="\n".join(sections) + "\n")


__all__ = [
    "TRACE_FILE",
    "breakdown_report",
    "explain",
    "trace_stats",
    "traced_collective",
]
