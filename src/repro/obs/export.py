"""Exporters for the flight recorder.

Two output shapes:

* :func:`render_trace_events` — the Chrome trace-event JSON format
  (the ``{"traceEvents": [...]}`` wrapper with ``X``/``i``/``M``
  phases), which Perfetto's trace viewer loads directly.  One *process*
  per track (node or link); within a track, slices are grouped into
  named lanes (threads) so concurrent stages stack legibly.  The one
  file writer is :func:`repro.telemetry.export.write_unified_trace`,
  which puts recorders' sim-time tracks next to wall-clock spans.
* :func:`breakdown_table` — a per-span-kind latency table
  (count / mean / p50 / p99) plus the per-message host API overhead,
  the quantity the paper reports as ~6 us for Fig. 2.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.obs.recorder import API_CALL, MESSAGE, FlightRecorder
from repro.sim.monitor import Probe

_PHASES = {"X", "i", "M"}


def recorder_items(recorder: FlightRecorder):
    """Yield a :func:`render_trace_events` item for every root, span
    and instant of a recorder (a root still open when the recorder was
    read ends where it starts)."""
    for info in sorted(recorder.traces.values(), key=lambda i: i.trace):
        yield (info.track, "messages", "X", info.name, MESSAGE,
               info.start, max(info.end, info.start), {"trace": info.trace})
    for span in recorder.spans:
        yield (span.track, span.kind, "X", f"{span.kind}:{span.name}",
               span.kind, span.start, span.end, {"trace": span.trace})
    for span in recorder.events:
        yield (span.track, "events", "i", f"{span.kind}:{span.name}",
               span.kind, span.start, span.start, {"trace": span.trace})


def render_trace_events(items, other=None) -> Dict[str, Any]:
    """The Chrome trace-event object for ``items``.

    Each item is ``(track, lane, phase, name, cat, start, end, args)``
    with phase ``"X"`` (slice) or ``"i"`` (instant).  Tracks become
    processes (pids in sorted track order), lanes become threads (tids
    in first-use order within their track); ``other``, if given, is
    attached as ``otherData``.
    """
    items = list(items)
    pid_of = {track: index + 1 for index, track
              in enumerate(sorted({item[0] for item in items}))}
    lanes: Dict[tuple, int] = {}
    lane_count: Dict[str, int] = {}
    events: List[Dict[str, Any]] = []
    for track, lane, phase, name, cat, start, end, args in items:
        tid = lanes.get((track, lane))
        if tid is None:
            tid = lanes[(track, lane)] = lane_count.get(track, 0)
            lane_count[track] = tid + 1
        event = {"name": name, "cat": cat, "ph": phase, "ts": start}
        if phase == "X":
            event["dur"] = end - start
        else:
            event["s"] = "t"
        event.update(pid=pid_of[track], tid=tid, args=args)
        events.append(event)
    meta: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
         "args": {"name": track}}
        for track, pid in pid_of.items()
    ]
    for (track, lane), tid in sorted(lanes.items(),
                                     key=lambda kv: (pid_of[kv[0][0]], kv[1])):
        meta.append({"name": "thread_name", "ph": "M", "pid": pid_of[track],
                     "tid": tid, "args": {"name": lane}})
    trace = {"traceEvents": meta + events, "displayTimeUnit": "ms"}
    if other is not None:
        trace["otherData"] = other
    return trace


def validate_chrome_trace(trace: Dict[str, Any]) -> List[str]:
    """Check ``trace`` against the trace-event schema; returns problems
    (empty list means valid)."""
    problems: List[str] = []
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        return ["missing top-level 'traceEvents' array"]
    events = trace["traceEvents"]
    if not isinstance(events, list):
        return ["'traceEvents' is not a list"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in _PHASES:
            problems.append(f"{where}: unsupported phase {phase!r}")
            continue
        for field in ("name", "pid", "tid"):
            if field not in event:
                problems.append(f"{where}: missing {field!r}")
        if not isinstance(event.get("pid"), int):
            problems.append(f"{where}: pid is not an int")
        if not isinstance(event.get("tid"), int):
            problems.append(f"{where}: tid is not an int")
        if phase == "M":
            if not isinstance(event.get("args", {}).get("name"), str):
                problems.append(f"{where}: metadata without args.name")
            continue
        if not isinstance(event.get("ts"), (int, float)):
            problems.append(f"{where}: ts is not a number")
        if phase == "X":
            duration = event.get("dur")
            if not isinstance(duration, (int, float)):
                problems.append(f"{where}: complete event without dur")
            elif duration < 0:
                problems.append(f"{where}: negative dur {duration}")
    return problems


def breakdown_probe(recorder: FlightRecorder) -> Probe:
    """A :class:`Probe` with one kept-sample series per span kind."""
    probe = Probe()
    for span in recorder.spans:
        probe.observe(span.kind, span.end - span.start, keep=True)
    for info in recorder.traces.values():
        probe.observe(MESSAGE, info.end - info.start, keep=True)
    return probe


def api_overhead_per_message(recorder: FlightRecorder) -> float:
    """Mean host API (CPU) microseconds spent per message trace."""
    total = 0.0
    for span in recorder.spans:
        if span.kind == API_CALL:
            total += span.end - span.start
    count = len(recorder.traces)
    return total / count if count else 0.0


def breakdown_table(recorder: FlightRecorder) -> str:
    """Render the per-span-kind latency breakdown as a text table."""
    probe = breakdown_probe(recorder)
    lines = [
        f"{'span kind':<18} {'count':>7} {'mean us':>10} "
        f"{'p50 us':>10} {'p99 us':>10}",
    ]
    for name in probe.names():
        stats = probe.stats(name)
        lines.append(
            f"{name:<18} {stats.count:>7} {stats.mean:>10.3f} "
            f"{probe.percentile(name, 50.0):>10.3f} "
            f"{probe.percentile(name, 99.0):>10.3f}"
        )
    lines.append(
        f"api overhead per message: "
        f"{api_overhead_per_message(recorder):.3f} us "
        f"(paper Fig. 2 host overhead ~6 us)"
    )
    return "\n".join(lines) + "\n"
