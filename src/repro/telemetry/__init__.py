"""Wall-clock telemetry plane.

``repro.obs`` (PR 5) answers "what happened in *simulated* time"; this
package answers "what is the *process* doing in wall-clock time" — the
operator's view of the router, the worker fleet, the PDES window loop
and the checkpoint store.

The plane is a process-global singleton gated exactly like the flight
recorder: ``telemetry.ACTIVE`` is ``None`` until :func:`enable` is
called, and every instrumentation site is::

    tel = telemetry.ACTIVE
    if tel is not None:
        tel.registry.counter("pdes_windows_total").inc()

so a disabled plane costs one module-attribute load per site and
records nothing.  A subsystem that already keeps a counters dict (the
service router, the fleet) is not counted twice: it registers the dict
once with :meth:`Telemetry.register_counters` and every snapshot reads
it live.  Nothing in here ever touches simulation state:
telemetry rides out-of-band (worker registry snapshots travel in the
result ``meta`` dict next to ``LAST_RUN_META``, never inside cached
payloads or cache keys), which is what keeps every differential
harness bit-identical with telemetry on or off.

Pieces:

* :class:`~repro.telemetry.registry.MetricsRegistry` — counters /
  gauges / histograms, labeled, associatively mergeable across
  processes (:mod:`repro.telemetry.registry`).
* :class:`~repro.telemetry.events.EventLog` — bounded structured
  JSONL event buffer (:mod:`repro.telemetry.events`).
* Wall spans — reuses :class:`repro.obs.recorder.Span` with wall
  *seconds* for start/end, in one bounded deque (``WALL_SPAN_LIMIT``);
  :mod:`repro.telemetry.export` merges them with sim-time
  FlightRecorder tracks into one Chrome/Perfetto file with two clock
  domains.
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import Dict, List, Optional

from repro.obs.recorder import Span
from repro.telemetry.events import EventLog
from repro.telemetry.registry import (
    MetricsRegistry,
    merge_snapshots,
    top_counters,
)

#: Trace id used for wall spans that are not tied to a message trace.
WALL_TRACE = 0

#: Upper bound on retained wall spans (bounded post-mortem buffer,
#: like the event log).
WALL_SPAN_LIMIT = 32768


class Telemetry:
    """One process's telemetry state (registry + events + wall spans)."""

    def __init__(self, run_id: str = "") -> None:
        self.run_id = run_id
        self.t0 = time.monotonic()
        self.registry = MetricsRegistry()
        self.events = EventLog(t0=self.t0)
        #: Wall-clock spans; ``Span`` with start/end in *seconds since
        #: t0* (the exporter scales to microseconds).
        self.wall_spans: deque = deque(maxlen=WALL_SPAN_LIMIT)
        #: Counters dicts owned by subsystems, by export prefix (the
        #: router's "service", the fleet's "fleet"); read live.
        self.counter_books: Dict[str, Dict[str, int]] = {}
        #: Latest cumulative registry snapshot per worker process,
        #: keyed by a stable worker key (fleet worker index).  Workers
        #: ship *cumulative* snapshots, so keeping only the newest per
        #: key never double-counts.
        self.worker_snapshots: Dict[str, Dict[str, dict]] = {}

    # -- clocks ----------------------------------------------------------

    def now(self) -> float:
        """Seconds since the plane was enabled (monotonic)."""
        return time.monotonic() - self.t0

    # -- wall spans ------------------------------------------------------

    def wall_span(self, kind: str, name: str, track: str,
                  start: float, end: float) -> None:
        """Record one wall-clock span (start/end in seconds since t0)."""
        self.wall_spans.append(
            Span(WALL_TRACE, kind, name, track, start, end))

    def register_counters(self, prefix: str,
                          counters: Dict[str, int]) -> None:
        """Export a subsystem's own counters dict: every snapshot reads
        ``counters[key]`` live as the ``<prefix>_<key>_total`` series.
        A later registration under ``prefix`` replaces the earlier."""
        self.counter_books[prefix] = counters

    # -- cross-process merge ---------------------------------------------

    def absorb_worker(self, key: str,
                      snapshot: Dict[str, dict]) -> None:
        """Keep the newest cumulative snapshot from worker ``key``."""
        self.worker_snapshots[key] = snapshot

    def merged_snapshot(self) -> Dict[str, dict]:
        """This process's registry and registered counters dicts merged
        with all worker snapshots."""
        books = {"counters": {
            f"{prefix}_{key}_total": {"": value}
            for prefix, counters in self.counter_books.items()
            for key, value in counters.items()}}
        return merge_snapshots([self.registry.snapshot(), books,
                                *self.worker_snapshots.values()])


#: The process-global plane; ``None`` means telemetry is disabled and
#: every instrumentation site is a single attribute test.
ACTIVE: Optional[Telemetry] = None


def enable(run_id: str = "") -> Telemetry:
    """Turn the plane on (idempotent; returns the active plane)."""
    global ACTIVE
    if ACTIVE is None:
        ACTIVE = Telemetry(run_id=run_id)
    elif run_id and not ACTIVE.run_id:
        ACTIVE.run_id = run_id
    return ACTIVE


def disable() -> None:
    """Turn the plane off and drop all collected state."""
    global ACTIVE
    ACTIVE = None


def enabled() -> bool:
    return ACTIVE is not None


def hang_summary(top: int = 10, tail: int = 20) -> Optional[str]:
    """Telemetry section for hang reports: the ``top`` largest
    counters plus the last ``tail`` event-log records, or ``None``
    when the plane is disabled (hang reports then omit the section).
    """
    tel = ACTIVE
    if tel is None:
        return None
    lines: List[str] = ["telemetry:"]
    counters = top_counters(tel.merged_snapshot(), limit=top)
    if counters:
        lines.append(f"  top {len(counters)} counters:")
        for name, value in counters:
            lines.append(f"    {name} = {value}")
    else:
        lines.append("  no counters recorded")
    records = tel.events.tail(tail)
    if records:
        lines.append(f"  last {len(records)} events:")
        for record in records:
            lines.append("    " + json.dumps(record, sort_keys=True))
    else:
        lines.append("  no events recorded")
    return "\n".join(lines)


__all__ = [
    "ACTIVE",
    "Telemetry",
    "WALL_TRACE",
    "disable",
    "enable",
    "enabled",
    "hang_summary",
]
