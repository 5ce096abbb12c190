"""1000 concurrent clients against the in-process transport.

Asserts the headline service contract at scale — zero dropped accepted
requests, exactly one engine run per distinct configuration, a pure
cache-hit second wave — and round-trips the report (throughput and
p50/p99/max latency) through ``write_report`` into ``tmp_path``.
"""

import asyncio
import json

import pytest

from repro.service import loadtest


@pytest.mark.slow
def test_thousand_clients_zero_drops_exactly_once(tmp_path):
    report = asyncio.run(loadtest.run_load_test(
        clients=1000, workers=2, distinct=48, max_pending=16))
    loadtest.check_report(report)  # raises LoadTestFailed on violation

    assert report["clients"] == 1000
    assert report["ok"] == 1000 and report["failed"] == 0
    assert report["dropped_accepted"] == 0
    assert report["engine_dispatches"] == 48
    assert report["hit_wave"] == {"requests": 48, "hits": 48,
                                  "dispatches": 0}
    # Admission control really engaged: far more arrivals than slots.
    assert report["router"]["shed"] > 0
    assert report["router"]["coalesced"] > 0
    assert report["throughput_rps"] > 0
    latency = report["latency_ms"]
    assert 0 < latency["p50"] <= latency["p99"] <= latency["max"]

    out = tmp_path / "report.json"
    loadtest.write_report(str(out), report)
    written = json.loads(out.read_text())
    assert written["latency_ms"]["p99"] == latency["p99"]
    assert written["dropped_accepted"] == 0


def test_check_report_rejects_contract_violations():
    good = {
        "clients": 2, "ok": 2, "failed": 0, "dropped_accepted": 0,
        "distinct_jobs": 1, "engine_dispatches": 1,
        "hit_wave": {"requests": 1, "hits": 1, "dispatches": 0},
        "failures": [],
    }
    loadtest.check_report(good)

    for corrupt in (
        {"ok": 1, "failed": 1},
        {"dropped_accepted": 1},
        {"engine_dispatches": 2},
        {"hit_wave": {"requests": 1, "hits": 0, "dispatches": 0}},
        {"hit_wave": {"requests": 1, "hits": 1, "dispatches": 1}},
    ):
        with pytest.raises(loadtest.LoadTestFailed):
            loadtest.check_report({**good, **corrupt})
