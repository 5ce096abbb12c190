"""Process-wide metrics registry: counters, gauges, histograms.

Where the simulator's counters and flight recorder describe
*simulated* quantities against simulated time, the registry aggregates
*operational* quantities (requests routed, windows run, checkpoint
bytes written) against wall time, across every process that makes up a
run.

Design constraints, in order:

* **Mergeable.**  A fleet worker keeps its own registry and ships
  snapshots to the supervisor over the existing duplex pipes; the
  supervisor merges them on read.  Every merge is associative and
  commutative — counters add, gauges take the max, histograms combine
  bucket counts plus Welford moments (Chan et al., computed by
  :meth:`repro.obs.monitor.SampleStats.merge`) — so it does not matter
  how many processes contributed or in what grouping the snapshots
  were folded.
* **Cheap.**  Instruments are plain attribute bumps; a snapshot is a
  walk over small dicts.  Nothing here ever touches simulation state,
  which is what keeps telemetry-on runs bit-identical to telemetry-off
  runs.
* **Snapshot = wire format.**  ``snapshot()`` returns plain JSON-able
  dicts; :func:`merge_snapshots` and :func:`to_prometheus` operate on
  snapshots, not live registries, so the same code path serves live
  introspection, cross-process merge, and the ``metrics`` service op.

Series are labeled: ``registry.counter("ckpt_bytes_total",
kind="window")`` names the ``kind="window"`` series of the
``ckpt_bytes_total`` family, rendered Prometheus-style as
``ckpt_bytes_total{kind="window"}``.
"""

from __future__ import annotations

import math
import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.monitor import SampleStats

#: Default histogram bucket upper bounds, in seconds: a latency ladder
#: from 0.1 ms to 2 minutes (an implicit +Inf bucket catches the rest).
DEFAULT_BOUNDS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def geometric_bounds(low: float, high: float,
                     per_decade: int = 3) -> Tuple[float, ...]:
    """A geometric bucket ladder from ``low`` to at least ``high``
    (``per_decade`` buckets per power of ten) — for series whose
    natural unit is not seconds (microseconds, frame counts, bytes)."""
    if low <= 0 or high <= low or per_decade < 1:
        raise ValueError("need 0 < low < high and per_decade >= 1")
    step = 10.0 ** (1.0 / per_decade)
    bounds: List[float] = []
    value = low
    while value < high * (1.0 + 1e-12):
        bounds.append(round(value, 12))
        value *= step
    return tuple(bounds)


def _label_key(labels: Dict[str, object]) -> str:
    """Canonical inner label string (``k="v"`` pairs, sorted)."""
    if not labels:
        return ""
    parts = []
    for key in sorted(labels):
        if not _LABEL_NAME_RE.match(key):
            raise ValueError(f"invalid label name {key!r}")
        value = str(labels[key]).replace("\\", r"\\").replace(
            '"', r"\"").replace("\n", r"\n")
        parts.append(f'{key}="{value}"')
    return ",".join(parts)


class Counter:
    """Monotonically increasing count (merge: sum)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount


class Gauge:
    """Last-set instantaneous value (merge: max across processes)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram plus streaming Welford moments.

    Percentiles come from the buckets (linear interpolation inside the
    containing bucket, clamped to the observed min/max), so accuracy is
    bounded by bucket resolution — the price of mergeability without
    keeping raw samples.
    """

    __slots__ = ("bounds", "buckets", "moments", "sum")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BOUNDS) -> None:
        self.bounds = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("histogram bounds must be strictly increasing")
        #: One count per bound, plus the trailing +Inf bucket.
        self.buckets = [0] * (len(self.bounds) + 1)
        self.moments = SampleStats()
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.moments.add(value)
        self.sum += value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.buckets[index] += 1
                return
        self.buckets[-1] += 1

    def state(self) -> Dict[str, object]:
        return _histogram_state(self.moments, self.sum, self.bounds,
                                self.buckets)


def _histogram_state(moments: SampleStats, total: float,
                     bounds: Iterable[float],
                     buckets: Iterable[int]) -> Dict[str, object]:
    """The snapshot (wire) form of a histogram."""
    return {
        "count": moments.count, "mean": moments.mean, "m2": moments.m2,
        "min": moments.minimum, "max": moments.maximum, "sum": total,
        "bounds": list(bounds), "buckets": list(buckets),
    }


def _state_moments(state: Dict[str, object]) -> SampleStats:
    return SampleStats(int(state["count"]), float(state["mean"]),
                       float(state["m2"]), float(state["min"]),
                       float(state["max"]))


def histogram_percentile(state: Dict[str, object], q: float) -> float:
    """The ``q``-th percentile of a histogram *state* dict.

    Interpolates linearly inside the bucket containing the target rank;
    the first bucket's lower edge is the observed minimum and the +Inf
    bucket is clamped to the observed maximum, so the estimate always
    lies within the sample range.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    count = int(state["count"])
    if count == 0:
        raise ValueError("no observations in histogram")
    bounds = list(state["bounds"])
    buckets = list(state["buckets"])
    target = q / 100.0 * count
    cumulative = 0
    for index, bucket_count in enumerate(buckets):
        if bucket_count == 0:
            cumulative += bucket_count
            continue
        if cumulative + bucket_count >= target:
            lower = (float(state["min"]) if index == 0
                     else bounds[index - 1])
            upper = (float(state["max"]) if index >= len(bounds)
                     else bounds[index])
            lower = max(lower, float(state["min"]))
            upper = min(upper, float(state["max"]))
            if upper < lower:
                upper = lower
            fraction = (target - cumulative) / bucket_count
            return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
        cumulative += bucket_count
    return float(state["max"])


class MetricsRegistry:
    """Named, labeled instrument families for one process."""

    def __init__(self) -> None:
        self._counters: Dict[str, Dict[str, Counter]] = {}
        self._gauges: Dict[str, Dict[str, Gauge]] = {}
        self._histograms: Dict[str, Dict[str, Histogram]] = {}

    @staticmethod
    def _series(table: dict, name: str, labels: dict, factory):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        family = table.get(name)
        if family is None:
            family = table[name] = {}
        key = _label_key(labels)
        instrument = family.get(key)
        if instrument is None:
            instrument = family[key] = factory()
        return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._series(self._counters, name, labels, Counter)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._series(self._gauges, name, labels, Gauge)

    def histogram(self, name: str,
                  bounds: Sequence[float] = DEFAULT_BOUNDS,
                  **labels) -> Histogram:
        return self._series(self._histograms, name, labels,
                            lambda: Histogram(bounds))

    # -- snapshots -------------------------------------------------------

    def snapshot(self) -> Dict[str, dict]:
        """The registry as plain JSON-able dicts (the wire format)."""
        return {
            "counters": {
                name: {key: c.value for key, c in family.items()}
                for name, family in self._counters.items()
            },
            "gauges": {
                name: {key: g.value for key, g in family.items()}
                for name, family in self._gauges.items()
            },
            "histograms": {
                name: {key: h.state() for key, h in family.items()}
                for name, family in self._histograms.items()
            },
        }


def _merge_histogram_states(a: Dict[str, object],
                            b: Dict[str, object]) -> Dict[str, object]:
    if list(a["bounds"]) != list(b["bounds"]):
        raise ValueError("cannot merge histograms with different bounds")
    return _histogram_state(
        _state_moments(a).merge(_state_moments(b)),
        float(a["sum"]) + float(b["sum"]),
        a["bounds"],
        [x + y for x, y in zip(a["buckets"], b["buckets"])],
    )


def merge_snapshots(snapshots: Iterable[Dict[str, dict]]) -> Dict[str, dict]:
    """Fold any number of registry snapshots into one.

    Associative and commutative by construction (counters sum, gauges
    take the max, histograms combine moments and bucket counts), so
    the fleet can merge per-worker snapshots in any grouping and get
    the same fleet-wide view.
    """
    merged: Dict[str, dict] = {"counters": {}, "gauges": {},
                               "histograms": {}}
    for snapshot in snapshots:
        for name, family in snapshot.get("counters", {}).items():
            target = merged["counters"].setdefault(name, {})
            for key, value in family.items():
                target[key] = target.get(key, 0) + value
        for name, family in snapshot.get("gauges", {}).items():
            target = merged["gauges"].setdefault(name, {})
            for key, value in family.items():
                target[key] = (value if key not in target
                               else max(target[key], value))
        for name, family in snapshot.get("histograms", {}).items():
            target = merged["histograms"].setdefault(name, {})
            for key, state in family.items():
                if key in target:
                    target[key] = _merge_histogram_states(
                        target[key], state)
                else:
                    target[key] = {
                        k: (list(v) if isinstance(v, list) else v)
                        for k, v in state.items()
                    }
    return merged


def top_counters(snapshot: Dict[str, dict],
                 limit: int = 10) -> List[Tuple[str, int]]:
    """The ``limit`` largest counter series, ``(rendered_name, value)``
    pairs sorted by value descending then name (hang-report food)."""
    flat: List[Tuple[str, int]] = []
    for name, family in snapshot.get("counters", {}).items():
        for key, value in family.items():
            flat.append((f"{name}{{{key}}}" if key else name, value))
    flat.sort(key=lambda pair: (-pair[1], pair[0]))
    return flat[:limit]


def _format_value(value: float) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    return repr(float(value))


def _series_name(name: str, key: str, extra: str = "") -> str:
    inner = ",".join(part for part in (key, extra) if part)
    return f"{name}{{{inner}}}" if inner else name


def to_prometheus(snapshot: Dict[str, dict]) -> str:
    """Render a snapshot in the Prometheus text exposition format."""
    lines: List[str] = []
    for name in sorted(snapshot.get("counters", {})):
        lines.append(f"# TYPE {name} counter")
        family = snapshot["counters"][name]
        for key in sorted(family):
            lines.append(
                f"{_series_name(name, key)} {_format_value(family[key])}")
    for name in sorted(snapshot.get("gauges", {})):
        lines.append(f"# TYPE {name} gauge")
        family = snapshot["gauges"][name]
        for key in sorted(family):
            lines.append(
                f"{_series_name(name, key)} {_format_value(family[key])}")
    for name in sorted(snapshot.get("histograms", {})):
        lines.append(f"# TYPE {name} histogram")
        family = snapshot["histograms"][name]
        for key in sorted(family):
            state = family[key]
            cumulative = 0
            for bound, bucket in zip(state["bounds"], state["buckets"]):
                cumulative += bucket
                le = 'le="%s"' % _format_value(float(bound))
                lines.append(
                    f"{_series_name(name + '_bucket', key, le)} "
                    f"{cumulative}")
            le_inf = 'le="+Inf"'
            lines.append(
                f"{_series_name(name + '_bucket', key, le_inf)} "
                f"{int(state['count'])}")
            lines.append(
                f"{_series_name(name + '_sum', key)} "
                f"{_format_value(float(state['sum']))}")
            lines.append(
                f"{_series_name(name + '_count', key)} "
                f"{int(state['count'])}")
    return "\n".join(lines) + ("\n" if lines else "")


__all__ = [
    "Counter",
    "DEFAULT_BOUNDS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "geometric_bounds",
    "histogram_percentile",
    "merge_snapshots",
    "to_prometheus",
    "top_counters",
]
