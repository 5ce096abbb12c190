"""Tests for tracing and probes."""

import numpy as np

from repro.obs.monitor import Probe, SampleStats, Trace
from repro.sim import Simulator


def test_trace_records_events():
    trace = Trace()
    sim = Simulator(trace=trace)

    def proc():
        yield sim.timeout(1)
        yield sim.timeout(2)

    sim.spawn(proc())
    sim.run()
    assert len(trace) >= 2
    times = [record.time for record in trace.records]
    assert times == sorted(times)


def test_trace_limit_keeps_tail():
    trace = Trace(limit=3)
    sim = Simulator(trace=trace)

    def proc():
        for _ in range(10):
            yield sim.timeout(1)

    sim.spawn(proc())
    sim.run()
    assert len(trace) == 3
    assert trace.records[-1].time == 10


def test_sample_stats_matches_numpy():
    rng = np.random.default_rng(42)
    samples = rng.normal(10, 3, size=500)
    stats = SampleStats()
    for value in samples:
        stats.add(float(value))
    assert stats.count == 500
    assert abs(stats.mean - samples.mean()) < 1e-9
    assert abs(stats.stdev - samples.std(ddof=1)) < 1e-9
    assert stats.minimum == samples.min()
    assert stats.maximum == samples.max()


def test_sample_stats_single_value():
    stats = SampleStats()
    stats.add(5.0)
    assert stats.variance == 0.0
    assert stats.stdev == 0.0


def test_probe_accumulates_named_series():
    probe = Probe()
    for value in (1.0, 2.0, 3.0):
        probe.observe("latency", value, keep=True)
    probe.observe("bandwidth", 100.0)
    assert probe.names() == ["bandwidth", "latency"]
    assert probe.mean("latency") == 2.0
    assert probe.samples("latency") == [1.0, 2.0, 3.0]
    assert probe.samples("bandwidth") == []
