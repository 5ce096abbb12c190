"""Flight recorder: span causality, scheduler-mode identity,
exporters, and the monitor satellites (deque trace, percentile/merge).
"""

import json

import pytest

from repro import fastpath
from repro.bench.microbench import via_latency, via_pingpong_bandwidth
from repro.obs import (
    ACK,
    API_CALL,
    COMPLETION,
    DESC_QUEUED,
    DMA,
    IRQ_WAIT,
    MESSAGE,
    RETRANSMIT,
    SWITCH_FORWARD,
    WIRE_HOP,
    FlightRecorder,
    MetricsTimeline,
)
from repro.obs.export import (
    api_overhead_per_message,
    breakdown_table,
    recorder_items,
    render_trace_events,
    validate_chrome_trace,
)
from repro.sim import Simulator
from repro.sim.monitor import Probe, SampleStats, Trace


# ---------------------------------------------------------------------------
# Satellites: Trace ring buffer, SampleStats.merge, Probe percentile/merge.
# ---------------------------------------------------------------------------

class _Evt:
    def __init__(self, name):
        self.name = name


def test_trace_ring_buffer_is_bounded_deque():
    trace = Trace(limit=5)
    for i in range(20):
        trace.record(float(i), _Evt(f"e{i}"))
    assert len(trace) == 5
    assert trace.records.maxlen == 5
    assert [r.name for r in trace.records] == [f"e{i}" for i in range(15, 20)]
    assert trace.records[-1].time == 19.0


def test_trace_unbounded_and_to_dicts():
    trace = Trace()
    trace.record(1.5, _Evt("a"))
    trace.record(2.5, _Evt("b"))
    assert trace.to_dicts() == [
        {"time": 1.5, "name": "a", "kind": "_Evt"},
        {"time": 2.5, "name": "b", "kind": "_Evt"},
    ]
    assert [r.name for r in trace.filter("a")] == ["a"]


def test_sample_stats_merge_matches_sequential():
    import random

    rng = random.Random(7)
    values = [rng.uniform(-5, 20) for _ in range(200)]
    combined = SampleStats()
    for v in values:
        combined.add(v)
    a, b = SampleStats(), SampleStats()
    for v in values[:70]:
        a.add(v)
    for v in values[70:]:
        b.add(v)
    a.merge(b)
    assert a.count == combined.count
    assert a.mean == pytest.approx(combined.mean)
    assert a.variance == pytest.approx(combined.variance)
    assert a.minimum == combined.minimum
    assert a.maximum == combined.maximum
    # Merging an empty side is the identity in both directions.
    empty = SampleStats()
    empty.merge(a)
    assert empty.count == a.count and empty.mean == a.mean


def test_probe_percentile_interpolates():
    probe = Probe()
    for v in [10.0, 20.0, 30.0, 40.0]:
        probe.observe("lat", v, keep=True)
    assert probe.percentile("lat", 0.0) == 10.0
    assert probe.percentile("lat", 100.0) == 40.0
    assert probe.percentile("lat", 50.0) == pytest.approx(25.0)
    assert probe.percentile("lat", 25.0) == pytest.approx(17.5)


def test_probe_percentile_errors():
    probe = Probe()
    probe.observe("unkept", 1.0)
    with pytest.raises(ValueError):
        probe.percentile("unkept", 50.0)
    with pytest.raises(ValueError):
        probe.percentile("missing", 50.0)
    probe.observe("kept", 1.0, keep=True)
    with pytest.raises(ValueError):
        probe.percentile("kept", 101.0)


def test_probe_merge_aggregates_mesh_wide():
    a, b = Probe(), Probe()
    for v in (1.0, 2.0):
        a.observe("x", v, keep=True)
    for v in (3.0, 4.0):
        b.observe("x", v, keep=True)
    b.observe("only_b", 9.0)
    a.merge(b)
    assert a.stats("x").count == 4
    assert a.stats("x").mean == pytest.approx(2.5)
    assert sorted(a.samples("x")) == [1.0, 2.0, 3.0, 4.0]
    assert a.stats("only_b").count == 1


def test_metrics_timeline_buckets():
    timeline = MetricsTimeline(interval=10.0)
    timeline.observe("s", 1.0, 2.0)
    timeline.observe("s", 9.0, 4.0)
    timeline.observe("s", 11.0, 6.0)
    points = timeline.timeline("s")
    assert [t for t, _ in points] == [0.0, 10.0]
    assert points[0][1].count == 2 and points[0][1].mean == pytest.approx(3.0)
    assert timeline.totals("s").count == 3
    with pytest.raises(ValueError):
        MetricsTimeline(interval=0.0)


# ---------------------------------------------------------------------------
# Recorder: span kinds, causality, and zero perturbation of results.
# ---------------------------------------------------------------------------

def _recorded_latency(nbytes=4, repeats=6, hops=1, fast=True):
    with fastpath.force(fast):
        sim = Simulator()
        recorder = FlightRecorder()
        sim.recorder = recorder
        latency = via_latency(nbytes=nbytes, repeats=repeats, hops=hops,
                              sim=sim)
    return latency, recorder


def test_span_kinds_cover_the_lifecycle():
    _, recorder = _recorded_latency()
    kinds = recorder.kinds()
    assert {MESSAGE, API_CALL, DESC_QUEUED, DMA, WIRE_HOP, IRQ_WAIT,
            COMPLETION} <= kinds
    assert len(kinds) >= 6


def test_wire_hop_spans_nest_inside_root_spans():
    _, recorder = _recorded_latency(nbytes=65536, repeats=3)
    hops = [s for s in recorder.spans if s.kind == WIRE_HOP]
    assert hops
    for span in recorder.spans:
        info = recorder.traces[span.trace]
        assert info.start <= span.start <= span.end <= info.end, (
            f"{span} escapes its root {info.describe()}"
        )
    for event in recorder.events:
        info = recorder.traces[event.trace]
        assert info.start <= event.start <= info.end


def test_multi_hop_emits_switch_forward_spans():
    _, recorder = _recorded_latency(hops=3)
    forwards = [s for s in recorder.spans if s.kind == SWITCH_FORWARD]
    # 2 intermediate nodes per direction, both directions, each repeat.
    assert forwards
    for span in forwards:
        assert span.end > span.start
        info = recorder.traces[span.trace]
        assert info.start <= span.start <= span.end <= info.end


def test_recorder_does_not_perturb_results():
    plain = via_latency(nbytes=4, repeats=6)
    recorded, _ = _recorded_latency()
    assert recorded == plain


def test_disabled_recorder_keeps_seed_tables_identical():
    # The recorder is opt-in: a fresh simulator has recorder=None and
    # the fig2 quick table must render exactly as before this feature.
    from repro.bench.harness import run_experiment

    table = run_experiment("fig2", quick=True).render()
    assert run_experiment("fig2", quick=True).render() == table
    assert Simulator().recorder is None


# ---------------------------------------------------------------------------
# Scheduler-mode identity: fastpath on/off emit identical span sets.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("nbytes,repeats,hops", [
    (4, 6, 1),        # fig2 point: latency workload
    (65536, 3, 1),    # fig3 point: trains engage
    (4096, 3, 2),     # multi-hop: switch-forward path
])
def test_span_sets_identical_across_scheduler_modes(nbytes, repeats, hops):
    lat_on, rec_on = _recorded_latency(nbytes, repeats, hops, fast=True)
    lat_off, rec_off = _recorded_latency(nbytes, repeats, hops, fast=False)
    assert lat_on == lat_off
    assert rec_on.span_keys() == rec_off.span_keys()


def test_bandwidth_span_sets_identical_across_modes():
    def run(fast):
        with fastpath.force(fast):
            sim = Simulator()
            recorder = FlightRecorder()
            sim.recorder = recorder
            bw = via_pingpong_bandwidth(nbytes=262144, repeats=3, sim=sim)
        return bw, recorder

    bw_on, rec_on = run(True)
    bw_off, rec_off = run(False)
    assert bw_on == bw_off
    assert rec_on.span_keys() == rec_off.span_keys()
    # The fast run must actually have used trains for the comparison to
    # exercise span synthesis.
    assert any(s.kind == DMA for s in rec_on.spans)


def test_collective_span_sets_identical_across_modes():
    from repro.bench.observability import traced_collective

    def run(fast):
        with fastpath.force(fast):
            return traced_collective(dims=(2, 2), nbytes=2048)

    assert run(True).span_keys() == run(False).span_keys()


# ---------------------------------------------------------------------------
# Reliability events under loss.
# ---------------------------------------------------------------------------

def test_reliability_events_recorded_under_loss():
    from repro.hw import faults

    faults.clear_registry()
    faults.set_ambient(faults.FaultParams(seed=11, loss_rate=0.05))
    try:
        sim = Simulator()
        recorder = FlightRecorder()
        sim.recorder = recorder
        via_latency(nbytes=16384, repeats=8, sim=sim)
    finally:
        faults.set_ambient(None)
        faults.clear_registry()
    kinds = {e.kind for e in recorder.events}
    assert ACK in kinds
    # Window-depth timeline was fed by the reliable channel.
    assert any(name.startswith("window:")
               for name in recorder.metrics.names())
    # With 5% loss the reliable channel queued (and for this seed
    # retransmitted) sequenced fragments.
    assert RETRANSMIT in kinds or DESC_QUEUED in kinds


# ---------------------------------------------------------------------------
# Metrics timelines from real traffic.
# ---------------------------------------------------------------------------

def test_metrics_series_populated():
    _, recorder = _recorded_latency(nbytes=65536, repeats=3)
    names = recorder.metrics.names()
    assert any(name.startswith("link-util:") for name in names)
    assert any(name.startswith("ring:") for name in names)
    assert any(name.startswith("bus:") for name in names)
    assert any(name.startswith("pci") for name in names)
    link = next(name for name in names if name.startswith("link-util:"))
    assert recorder.metrics.totals(link).count > 0


# ---------------------------------------------------------------------------
# Exporters.
# ---------------------------------------------------------------------------

def test_chrome_trace_schema_and_roundtrip():
    _, recorder = _recorded_latency(hops=2)
    trace = render_trace_events(recorder_items(recorder))
    assert validate_chrome_trace(trace) == []
    loaded = json.loads(json.dumps(trace))
    assert validate_chrome_trace(loaded) == []
    events = loaded["traceEvents"]
    phases = {e["ph"] for e in events}
    assert phases == {"M", "X", "i"}
    named = {e["args"]["name"] for e in events if e["ph"] == "M"
             and e["name"] == "process_name"}
    # One track per node plus per link on the 3-node line.
    assert {"n0", "n1", "n2"} <= named
    assert any(name.startswith("link[") for name in named)
    pids = {e["pid"] for e in events}
    meta_pids = {e["pid"] for e in events if e["ph"] == "M"}
    assert pids <= meta_pids


def test_validate_chrome_trace_flags_problems():
    assert validate_chrome_trace({}) != []
    bad = {"traceEvents": [{"ph": "X", "name": "x", "pid": 1, "tid": 0,
                            "ts": 0.0, "dur": -1.0}]}
    assert any("negative dur" in p for p in validate_chrome_trace(bad))
    assert any("unsupported phase" in p for p in validate_chrome_trace(
        {"traceEvents": [{"ph": "Q"}]}))


def test_breakdown_matches_paper_host_overhead():
    _, recorder = _recorded_latency(nbytes=4, repeats=20)
    overhead = api_overhead_per_message(recorder)
    # ViaParams: send_overhead 2.68 + recv_overhead 3.68 = 6.36 us; the
    # acceptance bound is the paper's ~6 us within 10%.
    assert overhead == pytest.approx(6.36, rel=0.02)
    assert abs(overhead - 6.0) / 6.0 < 0.10
    table = breakdown_table(recorder)
    assert "api-call" in table and "p99 us" in table
    assert "6.360" in table


def test_export_handles_empty_recorder():
    recorder = FlightRecorder()
    trace = render_trace_events(recorder_items(recorder))
    assert validate_chrome_trace(trace) == []
    assert trace["traceEvents"] == []
    assert api_overhead_per_message(recorder) == 0.0


# ---------------------------------------------------------------------------
# Cluster API, hang diagnostics, CLI.
# ---------------------------------------------------------------------------

def test_mesh_cluster_observability_is_idempotent():
    from repro.cluster.builder import build_mesh

    cluster = build_mesh((2,), wrap=False)
    recorder = cluster.observability()
    assert cluster.observability() is recorder
    assert cluster.sim.recorder is recorder


def test_hang_report_includes_recent_spans():
    from repro.via.descriptors import RecvDescriptor
    from repro.bench.microbench import _via_pair

    cluster, (vi0, r0), (vi1, r1) = _via_pair(4096)
    recorder = cluster.observability()
    sim = cluster.sim

    from repro.via.descriptors import SendDescriptor

    def ping():
        vi1.post_recv(RecvDescriptor(r1, 0, 4096))
        yield from vi0.post_send(SendDescriptor(r0, 0, 128))
        yield from vi0.send_wait()

    def pong():
        yield from vi1.recv_wait()

    a = sim.spawn(ping())
    b = sim.spawn(pong())
    sim.run_until_complete(a)
    sim.run_until_complete(b)
    # Leave a stuck receive posted so the VI shows up in the report.
    vi1.post_recv(RecvDescriptor(r1, 0, 4096))
    report = cluster.hang_report()
    assert "posted recvs" in report
    assert "span " in report
    assert recorder.tail(track="n1", limit=20)


def test_cli_trace_and_breakdown(tmp_path, capsys):
    from repro.bench.__main__ import main

    assert main(["explain", "--out", str(tmp_path), "--quick"]) == 0
    out = tmp_path / "explain-trace.json"
    assert validate_chrome_trace(json.loads(out.read_text())) == []
    captured = capsys.readouterr().out
    assert "kinds" in captured and "perfetto" in captured.lower()
    assert "api overhead per message" in captured


def test_cli_still_requires_an_action(capsys):
    from repro.bench.__main__ import main

    with pytest.raises(SystemExit):
        main([])
    capsys.readouterr()
