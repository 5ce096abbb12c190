"""Unified wall-clock + sim-time trace export.

Merges two clock domains into one Chrome trace-event file that
Perfetto loads directly:

* **wall** — the telemetry plane's wall spans, recorded against
  wall-clock seconds (router requests and attempts on ``service``,
  fleet dispatches, PDES windows, checkpoint captures).  Tracks are
  prefixed ``wall:``; seconds are scaled to microseconds for the
  ``ts``/``dur`` fields.
* **sim** — ordinary sim-time FlightRecorders (microsecond
  timestamps, PR 5).  Tracks are prefixed ``sim:``.

The two domains share nothing except the file: track names are
namespaced by their prefix and *process ids are allocated by a single
enumeration over all tracks*, so no pid collides across domains.
Every non-metadata event carries ``args.clock`` (``"wall"`` or
``"sim"``) so a consumer can separate them again.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Tuple

from repro.obs.export import (
    recorder_items,
    render_trace_events,
    validate_chrome_trace,
)
from repro.obs.recorder import FlightRecorder
from repro.telemetry import Telemetry

#: Wall seconds -> trace-event microseconds.
_WALL_SCALE = 1e6

WALL_PREFIX = "wall:"
SIM_PREFIX = "sim:"


def unified_trace(tel: Telemetry,
                  sim_recorders: Iterable[Tuple[str, FlightRecorder]] = (),
                  ) -> Dict[str, Any]:
    """Build the two-clock-domain Chrome trace object.

    ``sim_recorders`` is ``(label, FlightRecorder)`` pairs; each
    recorder's tracks are exported under ``sim:<label>/<track>``.
    """
    items: List[tuple] = [
        (WALL_PREFIX + span.track, span.kind, "X",
         f"{span.kind}:{span.name}", span.kind, span.start * _WALL_SCALE,
         span.end * _WALL_SCALE, {"trace": span.trace, "clock": "wall"})
        for span in tel.wall_spans
    ]
    for label, recorder in sim_recorders:
        items.extend(
            (f"{SIM_PREFIX}{label}/{track}", lane, phase, name, cat, start,
             end, {**args, "clock": "sim"})
            for (track, lane, phase, name, cat, start, end,
                 args) in recorder_items(recorder))
    return render_trace_events(
        items, other={"run": tel.run_id, "clockDomains": ["wall", "sim"]})


def write_unified_trace(tel: Telemetry, path: str,
                        sim_recorders: Iterable[
                            Tuple[str, FlightRecorder]] = (),
                        ) -> Dict[str, Any]:
    """Write the unified trace JSON to ``path``; returns the object."""
    trace = unified_trace(tel, sim_recorders)
    with open(path, "w") as handle:
        json.dump(trace, handle, indent=1)
        handle.write("\n")
    return trace


def validate_unified_trace(trace: Dict[str, Any]) -> List[str]:
    """Schema-check a unified trace: the base trace-event checks plus
    the two-domain invariants (both clock domains present, every track
    namespaced, no pid shared between tracks).  Returns problems; an
    empty list means valid."""
    problems = validate_chrome_trace(trace)
    if problems:
        return problems
    events = trace["traceEvents"]
    track_of_pid: Dict[int, str] = {}
    for event in events:
        if event.get("ph") != "M" or event.get("name") != "process_name":
            continue
        pid = event["pid"]
        name = event["args"]["name"]
        if pid in track_of_pid and track_of_pid[pid] != name:
            problems.append(
                f"pid {pid} names two tracks: "
                f"{track_of_pid[pid]!r} and {name!r}")
        track_of_pid[pid] = name
    clocks = set()
    for event in events:
        if event.get("ph") == "M":
            continue
        clock = event.get("args", {}).get("clock")
        if clock not in ("wall", "sim"):
            problems.append(
                f"event {event.get('name')!r} lacks a clock domain")
            continue
        clocks.add(clock)
        track = track_of_pid.get(event["pid"])
        if track is None:
            problems.append(
                f"event {event.get('name')!r} on unnamed pid "
                f"{event['pid']}")
            continue
        expected = WALL_PREFIX if clock == "wall" else SIM_PREFIX
        if not track.startswith(expected):
            problems.append(
                f"{clock} event {event.get('name')!r} on track "
                f"{track!r} (expected prefix {expected!r})")
    for clock in ("wall", "sim"):
        if clock not in clocks:
            problems.append(f"no events in the {clock!r} clock domain")
    names = [track_of_pid[pid] for pid in track_of_pid]
    if len(names) != len(set(names)):
        problems.append("two pids share one track name")
    return problems


__all__ = [
    "SIM_PREFIX",
    "WALL_PREFIX",
    "unified_trace",
    "validate_unified_trace",
    "write_unified_trace",
]
