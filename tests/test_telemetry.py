"""Wall-clock telemetry plane: registry, merge, exposition, export.

Covers the PR's correctness claims:

- snapshot merge is associative across >= 3 worker snapshots (exact
  for counts/buckets, float moments to rounding — Welford's parallel
  merge is only associative up to the last ulp);
- histogram percentiles track a sorted-sample reference within bucket
  resolution;
- the Prometheus text exposition parses (TYPE lines, label grammar,
  cumulative ``_bucket`` series ending at ``+Inf`` == ``_count``);
- with the plane *disabled*, the seed fig2/fig5 tables and the
  differential-harness span sets are bit-identical (telemetry is
  out-of-band wall-clock: enabling it must not perturb sim results);
- the unified wall+sim trace passes schema validation with both clock
  domains present.
"""

from __future__ import annotations

import json
import math
import random
import re

import pytest

from repro import telemetry
from repro.telemetry.events import EventLog
from repro.telemetry.registry import (
    MetricsRegistry,
    geometric_bounds,
    histogram_percentile,
    merge_snapshots,
    snapshot_counter,
    to_prometheus,
    top_counters,
)


# ---------------------------------------------------------------------------
# Registry basics
# ---------------------------------------------------------------------------

def test_counter_gauge_histogram_roundtrip():
    reg = MetricsRegistry()
    reg.counter("jobs_total").inc()
    reg.counter("jobs_total").inc(4)
    reg.counter("jobs_total", outcome="failed").inc()
    reg.gauge("queue_depth").set(7)
    reg.histogram("latency_seconds").observe(0.25)
    snap = reg.snapshot()
    assert snap["counters"]["jobs_total"][""] == 5
    assert snapshot_counter(snap, "jobs_total") == 5
    assert snapshot_counter(snap, "jobs_total", outcome="failed") == 1
    assert snap["gauges"]["queue_depth"][""] == 7
    state = snap["histograms"]["latency_seconds"][""]
    assert state["count"] == 1 and state["min"] == 0.25


def test_counter_rejects_negative_and_bad_names():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.counter("jobs_total").inc(-1)
    with pytest.raises(ValueError):
        reg.counter("bad name!")


def test_histogram_bounds_must_increase():
    from repro.telemetry.registry import Histogram

    with pytest.raises(ValueError):
        Histogram(bounds=(1.0, 1.0, 2.0))
    with pytest.raises(ValueError):
        Histogram(bounds=(2.0, 1.0))


def test_geometric_bounds_ladder():
    bounds = geometric_bounds(0.01, 100.0, per_decade=2)
    assert bounds[0] == pytest.approx(0.01)
    assert bounds[-1] == pytest.approx(100.0)
    assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))


def test_top_counters_ordering():
    reg = MetricsRegistry()
    reg.counter("a_total").inc(3)
    reg.counter("b_total").inc(9)
    reg.counter("b_total", kind="x").inc(9)
    ranked = top_counters(reg.snapshot(), limit=2)
    assert ranked[0][1] == 9 and ranked[1][1] == 9
    # Ties break by rendered series name.
    assert ranked[0][0] < ranked[1][0]


# ---------------------------------------------------------------------------
# Percentile accuracy vs a sorted reference
# ---------------------------------------------------------------------------

def _sorted_percentile(samples, q):
    ordered = sorted(samples)
    rank = q / 100.0 * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def test_histogram_percentiles_track_sorted_reference():
    from repro.telemetry.registry import Histogram

    rng = random.Random(1234)
    # Fine ladder: 9 buckets/decade => neighbouring bounds are a factor
    # of 10**(1/9) ~ 1.29 apart, which bounds the estimate error.
    hist = Histogram(bounds=geometric_bounds(1e-4, 10.0, per_decade=9))
    samples = [rng.lognormvariate(-3.0, 1.0) for _ in range(5000)]
    for value in samples:
        hist.observe(value)
    state = hist.state()
    ratio_bound = 10 ** (1 / 9)
    for q in (10.0, 50.0, 90.0, 99.0):
        estimate = histogram_percentile(state, q)
        reference = _sorted_percentile(samples, q)
        assert reference / ratio_bound <= estimate <= reference * ratio_bound
    # Clamped to the sample range at the extremes.
    assert histogram_percentile(state, 0.0) >= min(samples)
    assert histogram_percentile(state, 100.0) <= max(samples)


def test_histogram_percentile_edge_cases():
    from repro.telemetry.registry import Histogram

    hist = Histogram(bounds=(1.0, 2.0))
    with pytest.raises(ValueError):
        histogram_percentile(hist.state(), 50.0)  # empty
    hist.observe(1.5)
    assert histogram_percentile(hist.state(), 50.0) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        histogram_percentile(hist.state(), 101.0)


# ---------------------------------------------------------------------------
# Merge: associative across >= 3 worker snapshots
# ---------------------------------------------------------------------------

def _worker_snapshot(seed):
    rng = random.Random(seed)
    reg = MetricsRegistry()
    for _ in range(rng.randint(5, 20)):
        reg.counter("jobs_total", outcome=rng.choice(("ok", "failed"))).inc()
    reg.gauge("queue_depth").set(rng.randint(0, 50))
    hist = reg.histogram("latency_seconds")
    for _ in range(200):
        hist.observe(rng.lognormvariate(-5.0, 1.5))
    return reg.snapshot()


def _assert_snapshots_equivalent(left, right):
    """Counters/gauges/bucket counts exact; float moments to rounding."""
    assert left["counters"] == right["counters"]
    assert left["gauges"] == right["gauges"]
    assert set(left["histograms"]) == set(right["histograms"])
    for name in left["histograms"]:
        assert set(left["histograms"][name]) == set(right["histograms"][name])
        for key in left["histograms"][name]:
            a = left["histograms"][name][key]
            b = right["histograms"][name][key]
            assert a["count"] == b["count"]
            assert a["buckets"] == b["buckets"]
            assert a["min"] == b["min"] and a["max"] == b["max"]
            for field in ("mean", "m2", "sum"):
                assert math.isclose(a[field], b[field], rel_tol=1e-9)


def test_merge_associative_three_workers():
    a, b, c = (_worker_snapshot(seed) for seed in (1, 2, 3))
    left = merge_snapshots([merge_snapshots([a, b]), c])
    right = merge_snapshots([a, merge_snapshots([b, c])])
    _assert_snapshots_equivalent(left, right)


def test_merge_matches_single_stream():
    # Merging per-worker histograms must agree with one histogram that
    # saw every sample (counts exactly, moments to rounding).
    from repro.telemetry.registry import Histogram

    rng = random.Random(99)
    samples = [rng.uniform(0.001, 5.0) for _ in range(900)]
    whole = Histogram()
    for value in samples:
        whole.observe(value)
    parts = []
    for chunk in (samples[:300], samples[300:600], samples[600:]):
        reg = MetricsRegistry()
        hist = reg.histogram("latency_seconds")
        for value in chunk:
            hist.observe(value)
        parts.append(reg.snapshot())
    merged = merge_snapshots(parts)["histograms"]["latency_seconds"][""]
    reference = whole.state()
    assert merged["count"] == reference["count"]
    assert merged["buckets"] == reference["buckets"]
    assert math.isclose(merged["mean"], reference["mean"], rel_tol=1e-9)
    assert math.isclose(merged["sum"], reference["sum"], rel_tol=1e-9)


def test_absorb_worker_keeps_newest_snapshot_per_key():
    tel = telemetry.enable("test-absorb")
    first = MetricsRegistry()
    first.counter("worker_jobs_total").inc(3)
    tel.absorb_worker("w0", first.snapshot())
    second = MetricsRegistry()
    second.counter("worker_jobs_total").inc(5)
    # Cumulative re-ship from the same worker replaces, never adds.
    tel.absorb_worker("w0", second.snapshot())
    merged = tel.merged_snapshot()
    assert snapshot_counter(merged, "worker_jobs_total") == 5


# ---------------------------------------------------------------------------
# Prometheus text exposition grammar
# ---------------------------------------------------------------------------

_METRIC_LINE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*'
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
    r' \S+$')
_TYPE_LINE = re.compile(
    r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$")


def test_prometheus_exposition_grammar():
    reg = MetricsRegistry()
    reg.counter("jobs_total", outcome="ok").inc(3)
    reg.gauge("queue_depth").set(2)
    hist = reg.histogram("latency_seconds", bounds=(0.1, 1.0))
    for value in (0.05, 0.5, 5.0):
        hist.observe(value)
    text = to_prometheus(reg.snapshot())
    assert text.endswith("\n")
    for line in text.splitlines():
        assert _METRIC_LINE.match(line) or _TYPE_LINE.match(line), line


def test_prometheus_histogram_series_cumulative():
    reg = MetricsRegistry()
    hist = reg.histogram("latency_seconds", bounds=(0.1, 1.0))
    for value in (0.05, 0.5, 5.0):
        hist.observe(value)
    text = to_prometheus(reg.snapshot())
    buckets = [float(line.rsplit(" ", 1)[1])
               for line in text.splitlines()
               if line.startswith("latency_seconds_bucket")]
    assert buckets == sorted(buckets)  # cumulative
    assert 'le="+Inf"' in text
    assert buckets[-1] == 3.0
    count = [line for line in text.splitlines()
             if line.startswith("latency_seconds_count")]
    assert count and float(count[0].rsplit(" ", 1)[1]) == 3.0
    total = [line for line in text.splitlines()
             if line.startswith("latency_seconds_sum")]
    assert total and float(total[0].rsplit(" ", 1)[1]) == pytest.approx(5.55)


# ---------------------------------------------------------------------------
# Event log
# ---------------------------------------------------------------------------

def test_event_log_levels_and_tail(tmp_path):
    log = EventLog(t0=0.0, maxlen=4)
    log.info("svc.start", "starting", run="r1", port=7)
    log.warn("svc.shed", "shed one")
    log.error("svc.crash", "boom")
    with pytest.raises(ValueError):
        log.log("loud", "x", "bad level")
    records = log.records()
    assert [r["level"] for r in records] == ["info", "warn", "error"]
    assert records[0]["fields"] == {"port": 7}
    assert [r["seq"] for r in records] == [0, 1, 2]
    assert len(log.tail(2)) == 2
    # Ring buffer: a fourth+fifth event evict the oldest.
    log.debug("a", "x")
    log.debug("a", "y")
    assert len(log) == 4
    assert log.records()[0]["level"] == "warn"
    path = tmp_path / "events.jsonl"
    log.write_jsonl(str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 4
    assert all(json.loads(line)["schema"] for line in lines)


# ---------------------------------------------------------------------------
# Plane gating, hang summary
# ---------------------------------------------------------------------------

def test_plane_disabled_by_default_and_idempotent_enable():
    assert telemetry.ACTIVE is None and not telemetry.enabled()
    first = telemetry.enable()
    assert telemetry.enable("named-later") is first
    assert first.run_id == "named-later"  # back-filled, not replaced
    telemetry.disable()
    assert telemetry.ACTIVE is None


def test_hang_summary_disabled_is_none():
    assert telemetry.hang_summary() is None


def test_hang_summary_lists_counters_and_events():
    tel = telemetry.enable("hang-test")
    tel.registry.counter("service_shed_total").inc(12)
    tel.events.warn("fleet.crash", "worker 3 died")
    summary = telemetry.hang_summary(top=5, tail=5)
    assert "service_shed_total" in summary
    assert "fleet.crash" in summary


def test_hang_report_embeds_telemetry_section():
    from repro.cluster.builder import build_mesh

    tel = telemetry.enable("hang-report")
    tel.registry.counter("service_shed_total").inc(2)
    cluster = build_mesh((2,), wrap=False)
    report = cluster.hang_report()
    assert "service_shed_total" in report


# ---------------------------------------------------------------------------
# Disabled plane: seed tables and span sets bit-identical
# ---------------------------------------------------------------------------

def _fig_table(name):
    from repro.bench.harness import run_experiment

    return run_experiment(name, quick=True).render()


@pytest.mark.parametrize("name", ["fig2", "fig5"])
def test_tables_identical_with_plane_on_and_off(name):
    baseline = _fig_table(name)
    telemetry.enable("perturbation-probe")
    assert _fig_table(name) == baseline
    telemetry.disable()
    assert _fig_table(name) == baseline


def test_pdes_table_identical_with_plane_on_and_off():
    from repro.pdes import run_sharded

    baseline = run_sharded((2, 2), workload="pingpong", nshards=2)
    telemetry.enable("pdes-probe")
    instrumented = run_sharded((2, 2), workload="pingpong", nshards=2)
    telemetry.disable()
    assert instrumented.table == baseline.table
    assert instrumented.events_processed == baseline.events_processed


def test_observed_span_sets_identical_with_plane_on_and_off():
    from repro.bench.observability import traced_collective

    baseline = traced_collective(dims=(2, 2), nbytes=256)
    telemetry.enable("span-probe")
    instrumented = traced_collective(dims=(2, 2), nbytes=256)
    telemetry.disable()
    assert instrumented.span_keys() == baseline.span_keys()


# ---------------------------------------------------------------------------
# Unified wall+sim trace export
# ---------------------------------------------------------------------------

def _unified_trace(tmp_path):
    from repro.bench.observability import traced_collective
    from repro.telemetry.export import write_unified_trace

    tel = telemetry.enable("trace-test")
    start = tel.now()
    tel.wall_span("dispatch", "job-1", "fleet", start, start + 0.25)
    tel.registry.counter("fleet_dispatch_total").inc()
    recorder = traced_collective(dims=(2, 2), nbytes=256)
    path = tmp_path / "unified.json"
    trace = write_unified_trace(tel, str(path), [("collective", recorder)])
    return trace, path


def test_unified_trace_validates_with_both_domains(tmp_path):
    from repro.telemetry.export import validate_unified_trace

    trace, path = _unified_trace(tmp_path)
    assert validate_unified_trace(trace) == []
    on_disk = json.loads(path.read_text())
    assert validate_unified_trace(on_disk) == []
    clocks = {event["args"]["clock"]
              for event in trace["traceEvents"]
              if event.get("ph") in ("X", "i")}
    assert clocks == {"wall", "sim"}
    assert trace["otherData"]["clockDomains"] == ["wall", "sim"]


def test_unified_trace_tracks_prefixed_by_domain(tmp_path):
    trace, _path = _unified_trace(tmp_path)
    names = {event["args"]["name"]
             for event in trace["traceEvents"]
             if event.get("ph") == "M" and event["name"] == "process_name"}
    assert any(name.startswith("wall:") for name in names)
    assert any(name.startswith("sim:") for name in names)
    # One pid per track: no collisions between the clock domains.
    pid_names = {}
    for event in trace["traceEvents"]:
        if event.get("ph") == "M" and event["name"] == "process_name":
            pid_names.setdefault(event["pid"], set()).add(
                event["args"]["name"])
    assert all(len(names) == 1 for names in pid_names.values())


def test_unified_trace_validation_catches_tampering(tmp_path):
    from repro.telemetry.export import validate_unified_trace

    trace, _path = _unified_trace(tmp_path)
    broken = json.loads(json.dumps(trace))
    for event in broken["traceEvents"]:
        if event.get("ph") == "X":
            event["args"].pop("clock", None)
            break
    assert validate_unified_trace(broken)


# ---------------------------------------------------------------------------
# Service metrics op (module-level response builder; no fleet needed)
# ---------------------------------------------------------------------------

def test_metrics_response_disabled_and_enabled():
    from repro.service.server import metrics_response

    off = metrics_response(request_id="r1")
    assert off["status"] == "ok" and off["enabled"] is False
    tel = telemetry.enable("metrics-op")
    tel.registry.counter("service_requests_total").inc(2)
    tel.events.info("svc.probe", "hello")
    on = metrics_response(request_id="r2")
    assert on["enabled"] is True and on["run"] == "metrics-op"
    assert snapshot_counter(on["snapshot"], "service_requests_total") == 2
    assert "service_requests_total 2" in on["prometheus"]
    assert on["events"][-1]["schema"] == "svc.probe"
