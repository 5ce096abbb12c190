"""Message-lifecycle flight recorder.

A :class:`FlightRecorder` hangs off ``Simulator.recorder`` (``None`` by
default, so every instrumentation site is a single attribute load plus
an ``is not None`` test when disabled).  The VIA/MPI entry points
allocate a *trace id* per message; the id rides on the descriptor, the
envelope, and every :class:`~repro.via.packet.ViaPacket` fragment, so
each layer can attach spans to the message that caused the work.

Spans carry no identity beyond their content: a span is the frozen
tuple ``(trace, kind, name, track, start, end)``.  This is deliberate —
the frame-train fast path synthesizes spans in bulk out of event order,
and content-identity is what lets recorder output stay *scheduler-mode
identical* (the same set of spans whether or not trains engage).
Parent/child causality is trace-id membership: every span with trace id
``t`` is a child of trace ``t``'s root, whose extent is maintained as
the running min/max of everything recorded against it.

Times are simulator microseconds throughout.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.obs import MESSAGE

#: Trace ids are namespaced per track: ``(base << TRACK_SHIFT) + seq``
#: where ``base`` is the rank for per-node tracks ("n<rank>") and a
#: CRC-derived constant above any plausible rank otherwise.  Allocation
#: is then a pure function of (track, messages-so-far-on-track), so a
#: sharded simulation — one recorder per shard, each seeing only its
#: own ranks — assigns every message the *same* id the sequential
#: reference does, and per-shard span sets merge without renumbering.
TRACK_SHIFT = 32
_NON_RANK_BASE = 1 << 33


def track_base(track: str) -> int:
    """The trace-id namespace of ``track`` (stable across processes)."""
    if track[:1] == "n" and track[1:].isdigit():
        return int(track[1:])
    return _NON_RANK_BASE + zlib.crc32(track.encode("utf-8", "replace"))



@dataclass(frozen=True)
class Span:
    """One recorded lifecycle stage (``start == end`` for instants)."""

    trace: int
    kind: str
    name: str
    track: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    def key(self) -> tuple:
        """Content identity, used for cross-scheduler-mode comparison."""
        return (self.trace, self.kind, self.name, self.track,
                self.start, self.end)

    def describe(self) -> str:
        return (f"span {self.kind}:{self.name} trace={self.trace} "
                f"[{self.start:.3f}..{self.end:.3f}]us")


class TraceInfo:
    """Root record for one message trace."""

    __slots__ = ("trace", "name", "track", "start", "end")

    def __init__(self, trace: int, name: str, track: str, start: float):
        self.trace = trace
        self.name = name
        self.track = track
        self.start = start
        self.end = start

    def describe(self) -> str:
        return (f"trace {self.trace} {self.name!r} on {self.track} "
                f"[{self.start:.3f}..{self.end:.3f}]us")


class FlightRecorder:
    """Collects trace roots, spans and instant events for one
    simulator."""

    def __init__(self):
        self.traces: Dict[int, TraceInfo] = {}
        self.spans: List[Span] = []
        self.events: List[Span] = []
        #: Per-namespace allocation counters (see :func:`track_base`).
        self._base_sequences: Dict[int, int] = {}

    # -- trace lifecycle ------------------------------------------------

    def start_trace(self, name: str, track: str, start: float) -> int:
        """Allocate a trace id for a new message; returns the id.

        Ids are namespaced per track so allocation does not depend on
        cross-track interleaving — the property that keeps sharded and
        sequential runs id-identical (see :data:`TRACK_SHIFT`).
        """
        base = track_base(track)
        seq = self._base_sequences.get(base, 0)
        self._base_sequences[base] = seq + 1
        trace = (base << TRACK_SHIFT) + seq
        self.traces[trace] = TraceInfo(trace, name, track, start)
        return trace

    def _touch(self, trace: int, end: float) -> None:
        info = self.traces.get(trace)
        if info is not None and end > info.end:
            info.end = end

    # -- recording ------------------------------------------------------

    def span(self, trace: int, kind: str, name: str, track: str,
             start: float, end: float) -> None:
        self.spans.append(Span(trace, kind, name, track, start, end))
        self._touch(trace, end)

    def event(self, trace: int, kind: str, name: str, track: str,
              when: float) -> None:
        self.events.append(Span(trace, kind, name, track, when, when))
        self._touch(trace, when)

    # -- queries --------------------------------------------------------

    def kinds(self) -> set:
        found = {span.kind for span in self.spans}
        found.update(span.kind for span in self.events)
        if self.traces:
            found.add(MESSAGE)
        return found

    def tail(self, track: Optional[str] = None, limit: int = 20) -> List[Span]:
        """The last ``limit`` spans recorded, newest last, optionally
        restricted to one track (used by hang diagnostics)."""
        out: List[Span] = []
        for span in reversed(self.spans):
            if track is None or span.track == track:
                out.append(span)
                if len(out) >= limit:
                    break
        out.reverse()
        return out

    def span_keys(self) -> List[tuple]:
        """Sorted content-identity of every span + event + root.

        Two runs of the same workload — fast path on or off — must
        produce exactly the same list.
        """
        keys = [span.key() for span in self.spans]
        keys.extend(span.key() for span in self.events)
        keys.extend((info.trace, MESSAGE, info.name, info.track,
                     info.start, info.end)
                    for info in self.traces.values())
        keys.sort()
        return keys
