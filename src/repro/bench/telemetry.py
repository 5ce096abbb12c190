"""``python -m repro.bench --telemetry`` — the wall-clock telemetry
report.

Enables the telemetry plane, then drives the three instrumented
subsystems end to end in one process tree:

1. a small concurrent-client load test (router + worker fleet — the
   workers ship their registry snapshots back over the duplex pipes);
2. a sharded PDES run with window checkpoints into a throwaway store
   (window loop + checkpoint capture/write instrumentation), with the
   flight recorder on so the run also yields a *sim-time* track;
3. renders the merged registry (counters — the router's and fleet's
   read live from their own dicts — and histogram percentiles) and the
   event-log tail — and, with a trace path, writes the unified
   wall+sim Chrome/Perfetto trace and schema-validates it.
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
from typing import List, Optional

from repro import telemetry
from repro.telemetry.registry import histogram_percentile, top_counters


def telemetry_report(trace_path: Optional[str] = None,
                     quick: bool = False) -> str:
    """Run the instrumented workloads and render the report."""
    from repro.ckpt import CheckpointStore
    from repro.pdes import CheckpointPolicy, run_sharded
    from repro.service import loadtest

    tel = telemetry.enable("bench-telemetry")
    lines: List[str] = ["wall-clock telemetry report"]

    clients = 80 if quick else 240
    distinct = 8 if quick else 24
    report = asyncio.run(loadtest.run_load_test(
        clients=clients, workers=1 if quick else 2, distinct=distinct,
        max_pending=8))
    loadtest.check_report(report)
    lines.append(
        f"  load test: {clients} clients -> "
        f"{report['engine_dispatches']} engine runs, "
        f"{report['router']['cache_hits']} cache hits, "
        f"{report['router']['shed']} shed")

    ckpt_root = tempfile.mkdtemp(prefix="repro-bench-tel-")
    try:
        result = run_sharded(
            (2, 2, 2) if quick else (2, 4, 4), workload="aggregate",
            nshards=2, observe=True,
            checkpoint=CheckpointPolicy(every=8,
                                        store=CheckpointStore(ckpt_root)))
        lines.append(
            f"  pdes: {result.windows} windows, "
            f"{result.events_processed} events, "
            f"{result.checkpoints} checkpoints captured")

        snapshot = tel.merged_snapshot()
        lines.append("  top counters:")
        for name, value in top_counters(snapshot, limit=15):
            lines.append(f"    {name:<44} {value}")
        lines.append("  histograms (count / mean / p50 / p99, seconds "
                     "unless the name says otherwise):")
        for name in sorted(snapshot.get("histograms", {})):
            for key, state in sorted(
                    snapshot["histograms"][name].items()):
                label = f"{name}{{{key}}}" if key else name
                lines.append(
                    f"    {label:<44} {state['count']:>6} "
                    f"{state['mean']:.6f} "
                    f"{histogram_percentile(state, 50.0):.6f} "
                    f"{histogram_percentile(state, 99.0):.6f}")
        records = tel.events.tail(5)
        if records:
            lines.append(f"  last {len(records)} events:")
            for record in records:
                lines.append(
                    f"    [{record['level']}] {record['schema']} "
                    f"t={record['t']} {record['msg']}")

        if trace_path:
            from repro.telemetry.export import (
                validate_unified_trace,
                write_unified_trace,
            )

            trace = write_unified_trace(
                tel, trace_path, [("pdes", result.recorder)])
            problems = validate_unified_trace(trace)
            if problems:
                raise RuntimeError(
                    "unified trace failed validation: "
                    + "; ".join(problems[:5]))
            lines.append(
                f"  unified trace: {trace_path} — "
                f"{len(trace['traceEvents'])} events, clock domains "
                f"wall+sim; open at https://ui.perfetto.dev")
    finally:
        shutil.rmtree(ckpt_root, ignore_errors=True)
    return "\n".join(lines) + "\n"


__all__ = ["telemetry_report"]
