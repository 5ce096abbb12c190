"""Tracing and measurement instrumentation for simulations.

A :class:`Trace` attached to a simulator records every processed event;
:class:`Probe` accumulates named samples (latency observations,
bandwidth points) with summary statistics.  Both are deliberately
allocation-light so they can stay attached during benchmarks.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional


@dataclass(frozen=True)
class TraceRecord:
    """One processed event: (timestamp, event name, event type)."""

    time: float
    name: str
    kind: str


class Trace:
    """Ring-buffer event trace.

    Parameters
    ----------
    limit:
        Keep only the last ``limit`` records (None = unbounded).
    """

    def __init__(self, limit: Optional[int] = None) -> None:
        self.limit = limit
        # deque(maxlen=...) trims in O(1) per append; a plain list needs
        # an O(n) slice-delete once the buffer is full.
        self.records: Deque[TraceRecord] = deque(maxlen=limit)

    def record(self, time: float, event: Any) -> None:
        self.records.append(
            TraceRecord(time, getattr(event, "name", ""), type(event).__name__)
        )

    def filter(self, substring: str) -> List[TraceRecord]:
        """Records whose name contains ``substring``."""
        return [r for r in self.records if substring in r.name]

    def to_dicts(self) -> List[Dict[str, Any]]:
        """Records as plain dicts (JSON/export friendly)."""
        return [
            {"time": r.time, "name": r.name, "kind": r.kind}
            for r in self.records
        ]

    def __len__(self) -> int:
        return len(self.records)


@dataclass
class SampleStats:
    """Streaming summary statistics over float samples (Welford)."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def merge(self, other: "SampleStats") -> "SampleStats":
        """Fold ``other`` into this accumulator (parallel Welford
        combine, Chan et al.); returns ``self``."""
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self.m2 = other.m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            return self
        total = self.count + other.count
        delta = other.mean - self.mean
        self.m2 = (self.m2 + other.m2
                   + delta * delta * self.count * other.count / total)
        self.mean += delta * other.count / total
        self.count = total
        if other.minimum < self.minimum:
            self.minimum = other.minimum
        if other.maximum > self.maximum:
            self.maximum = other.maximum
        return self

    @property
    def variance(self) -> float:
        if self.count < 2:
            return 0.0
        return self.m2 / (self.count - 1)

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)


#: Kernel-agent counters that describe reliable-delivery/fault-recovery
#: activity (summed mesh-wide by ``MeshCluster.reliability_stats``).
RELIABILITY_COUNTERS = (
    "dropped_bad_checksum",
    "acks_sent",
    "acks_received",
    "retransmits",
    "timeouts",
    "dup_frames",
    "ooo_dropped",
    "rel_failures",
    "connect_retries",
    "dup_connects",
    "dup_accepts",
    # Failure-detector activity (node faults only).
    "keepalives_sent",
    "keepalives_received",
    "dead_notices_sent",
    "dead_notices_received",
    "peers_declared_dead",
    "recv_drained",
)


def reliability_summary(totals: Dict[str, int]) -> str:
    """One-line human summary of aggregated reliability counters.

    Only nonzero counters are shown; returns ``"no fault activity"``
    when nothing fired (the lossless case).
    """
    parts = [
        f"{key}={totals[key]}"
        for key in (*RELIABILITY_COUNTERS, "frames_dropped",
                    "frames_corrupted", "hangs_detected", "retry_storms")
        if totals.get(key)
    ]
    return " ".join(parts) if parts else "no fault activity"


class Watchdog:
    """Hang and retry-storm monitor for node-fault campaigns.

    Periodic timers (keepalives, retransmission timers) keep the event
    queue busy forever, so the kernel's :class:`DeadlockError` can
    never fire during a *distributed* hang — the queue never drains.
    The watchdog bounds those instead: it samples the simulator's
    application-progress counter (bumped on descriptor/request/
    collective completions) and raises
    :class:`~repro.errors.HangError` with a diagnostic naming the
    stuck VIs/requests/ranks when no progress lands within
    ``hang_after`` us while the simulation is still being driven.

    ``hang_after`` defaults comfortably above the longest legitimate
    quiet stretch (a full connect/retransmission retry budget, ~40 ms
    of simulated time at the default RTO schedule).

    Retry storms — more than ``storm_retransmits`` retransmissions in
    one ``interval`` — are counted in ``counters["retry_storms"]``
    (surfaced through ``reliability_summary``), not fatal.

    Installed automatically by ``MeshCluster.attach_via`` when node
    faults are configured; instantiable manually for other setups.
    """

    def __init__(self, cluster, interval: float = 500.0,
                 hang_after: float = 60_000.0,
                 storm_retransmits: int = 200) -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.interval = interval
        self.hang_after = hang_after
        self.storm_retransmits = storm_retransmits
        self.counters = {"hangs_detected": 0, "retry_storms": 0,
                         "checks": 0}
        self._last_progress = self.sim.progress
        self._stalled_since = self.sim.now
        self._last_retransmits = 0
        self.sim.spawn(self._loop(), name="watchdog")

    def _retransmit_total(self) -> int:
        return sum(
            node.via.agent.stats["retransmits"]
            for node in self.cluster.nodes if node.via is not None
        )

    def _loop(self):
        from repro.errors import HangError

        sim = self.sim
        while True:
            yield sim.timeout(self.interval)
            self.counters["checks"] += 1
            progress = sim.progress
            if progress != self._last_progress:
                self._last_progress = progress
                self._stalled_since = sim.now
            elif sim.now - self._stalled_since > self.hang_after:
                from repro.ckpt import context as ckpt_context

                self.counters["hangs_detected"] += 1
                note = ckpt_context.current()
                raise HangError(
                    f"no application progress for "
                    f"{sim.now - self._stalled_since:.0f}us "
                    f"(hang watchdog, t={sim.now:.1f}us)\n"
                    + self.cluster.hang_report(),
                    config_hash=self.cluster.config_hash(),
                    fault_seed=self.cluster.fault_seed,
                    checkpoint_id=note.ckpt_id if note else None,
                    checkpoint_index=note.index if note else None,
                )
            retransmits = self._retransmit_total()
            if retransmits - self._last_retransmits >= \
                    self.storm_retransmits:
                self.counters["retry_storms"] += 1
            self._last_retransmits = retransmits


class Probe:
    """Named sample accumulator for simulation measurements."""

    def __init__(self) -> None:
        self._stats: Dict[str, SampleStats] = {}
        self._samples: Dict[str, List[float]] = {}

    def observe(self, name: str, value: float, keep: bool = False) -> None:
        """Record one sample under ``name``.

        ``keep=True`` retains the raw sample (for percentiles); summary
        statistics are always maintained.
        """
        stats = self._stats.get(name)
        if stats is None:
            stats = self._stats[name] = SampleStats()
        stats.add(value)
        if keep:
            self._samples.setdefault(name, []).append(value)

    def stats(self, name: str) -> SampleStats:
        return self._stats[name]

    def samples(self, name: str) -> List[float]:
        return self._samples.get(name, [])

    def names(self) -> List[str]:
        return sorted(self._stats)

    def mean(self, name: str) -> float:
        return self._stats[name].mean

    def percentile(self, name: str, q: float) -> float:
        """The ``q``-th percentile of the kept samples under ``name``
        (linear interpolation between closest ranks).

        Requires the samples to have been observed with ``keep=True``;
        raises :class:`ValueError` otherwise or when ``q`` is outside
        ``[0, 100]``.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        samples = self._samples.get(name)
        if not samples:
            raise ValueError(f"no kept samples under {name!r}")
        ordered = sorted(samples)
        position = (len(ordered) - 1) * (q / 100.0)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        fraction = position - low
        return ordered[low] + (ordered[high] - ordered[low]) * fraction

    def merge(self, other: "Probe") -> "Probe":
        """Fold another probe's series into this one (mesh-wide
        aggregation of per-node probes); returns ``self``."""
        for name, stats in other._stats.items():
            mine = self._stats.get(name)
            if mine is None:
                mine = self._stats[name] = SampleStats()
            mine.merge(stats)
        for name, samples in other._samples.items():
            self._samples.setdefault(name, []).extend(samples)
        return self
