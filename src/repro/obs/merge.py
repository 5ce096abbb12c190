"""Merge per-shard flight recorders into one whole-run recorder.

A sharded (PDES) run gives every shard its own
:class:`~repro.obs.recorder.FlightRecorder`.  Trace ids are namespaced
per track (:func:`~repro.obs.recorder.track_base`), so the shards'
records are disjoint by construction except for one cross-shard
subtlety: a message *born* on shard A (which owns the root
:class:`~repro.obs.recorder.TraceInfo`) accumulates spans on shard B as
its frames cross the boundary — B's ``_touch`` is a no-op because B
never saw the root.  The merge therefore recomputes every root's
extent from the union of spans, which restores exactly the running
max the sequential reference maintained incrementally.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.obs.recorder import FlightRecorder, TraceInfo


def merge_recorders(recorders: Iterable[FlightRecorder]) -> FlightRecorder:
    """One recorder holding every shard's roots, spans and events.

    The result's ``span_keys()`` equals the sequential engine's for a
    bit-identical workload; span/event lists are key-sorted (shard
    interleaving is not meaningful, content identity is).
    """
    merged = FlightRecorder()
    for recorder in recorders:
        for trace, info in recorder.traces.items():
            if trace in merged.traces:
                raise ValueError(
                    f"trace id {trace} allocated by two shards "
                    f"({merged.traces[trace].track} vs {info.track})"
                )
            merged.traces[trace] = TraceInfo(
                info.trace, info.name, info.track, info.start
            )
            merged.traces[trace].end = info.end
        merged.spans.extend(recorder.spans)
        merged.events.extend(recorder.events)
        for base, seq in recorder._base_sequences.items():
            if seq > merged._base_sequences.get(base, 0):
                merged._base_sequences[base] = seq
    merged.spans.sort(key=lambda span: span.key())
    merged.events.sort(key=lambda span: span.key())
    # Cross-shard extent repair (see module docstring).
    for span in merged.spans:
        merged._touch(span.trace, span.end)
    for span in merged.events:
        merged._touch(span.trace, span.end)
    return merged


__all__: List[str] = ["merge_recorders"]
