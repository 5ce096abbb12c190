"""Concurrent-client load test over the in-process transport.

Simulates ``clients`` concurrent clients (asyncio tasks calling
``Router.submit`` directly — no socket overhead, so the numbers
measure the service layer itself) against a small worker fleet.  The
request mix cycles over ``distinct`` point-workload configurations, so
the test exercises all three fast paths at scale: engine runs
(misses), single-flight coalescing, and cache hits — plus admission
control, because ``max_pending`` is far below the client count and
shed clients retry with backoff until accepted.

The contract asserted by ``tests/test_service_load.py`` and the CI
smoke: **zero dropped accepted requests** — every client ends with an
``ok`` response (sheds are pre-acceptance and retriable by design) —
and exactly one engine dispatch per distinct configuration.  The
report (throughput, p50/p99/max latency, counter totals) is printed;
``write_report`` saves it where the caller names a path.  The numbers
that are compared across commits are the ledger's ``service.*`` metrics
(``service_closed_loop``), not this one shot.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Dict, List

from repro import telemetry
from repro.service.cache import ResultCache
from repro.service.fleet import Fleet
from repro.service.protocol import JobSpec, ServiceError
from repro.service.router import Router, RouterConfig
from repro.sim.monitor import Probe
from repro.telemetry.registry import snapshot_counter

#: Telemetry counter -> load-report field, the exact-reconciliation
#: contract: after a load test, each telemetry counter's *delta* must
#: equal the corresponding router/fleet total in the report.
_RECONCILE = (
    ("service_requests_total", {}, ("router", "requests")),
    ("service_cache_total", {"result": "hit"}, ("router", "cache_hits")),
    ("service_retries_total", {}, ("router", "retries")),
    ("service_shed_total", {}, ("router", "shed")),
    ("service_coalesced_total", {}, ("router", "coalesced")),
    ("service_completed_total", {}, ("router", "completed")),
    ("fleet_dispatch_total", {}, ("engine_dispatches",)),
)


def _series_label(name: str, labels: Dict[str, str]) -> str:
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


def _reconcile_counters(snapshot: Dict[str, Any]) -> Dict[str, int]:
    return {_series_label(name, labels):
            snapshot_counter(snapshot, name, **labels)
            for name, labels, _path in _RECONCILE}


class LoadTestFailed(ServiceError):
    """A client finished without an ``ok`` response."""


def _spec_pool(distinct: int) -> List[JobSpec]:
    """``distinct`` deterministic point workloads (varying message
    sizes and repeat counts => distinct cache keys and run lengths)."""
    sizes = (4, 64, 256, 1024, 4096, 16384)
    pool = []
    for i in range(distinct):
        pool.append(JobSpec.make(
            "point", "via_latency",
            nbytes=sizes[i % len(sizes)],
            repeats=20 + i // len(sizes),
        ))
    return pool


async def run_load_test(clients: int = 1000, workers: int = 2,
                        distinct: int = 48, max_pending: int = 16,
                        max_client_retries: int = 400) -> Dict[str, Any]:
    """Run the load test; returns the report dict (pure: no files, no
    stdout — callers decide where the report goes)."""
    # Fewer clients than configurations would leave some never run,
    # so the hit wave (one request per configuration) could not hit.
    pool = _spec_pool(min(distinct, clients))
    fleet = Fleet(workers, heartbeat_interval=0.1, hang_timeout=30.0)
    router = Router(fleet, ResultCache(), RouterConfig(
        max_pending=max_pending, max_attempts=3, deadline_s=120.0,
        retry_after_s=0.02))
    probe = Probe()
    outcomes = {"ok": 0, "failed": 0, "gave_up": 0}
    tel = telemetry.ACTIVE
    # Counter *baselines*, so the report reconciles even when earlier
    # runs in this process already advanced the plane's counters.
    tel_before = (_reconcile_counters(tel.merged_snapshot())
                  if tel is not None else None)

    async def client(index: int) -> Dict[str, Any]:
        spec = pool[index % len(pool)]
        wire = spec.to_wire()
        started = time.monotonic()
        for attempt in range(1, max_client_retries + 1):
            response = await router.submit(
                {"id": f"c{index}", "job": wire})
            status = response["status"]
            if status == "ok":
                latency_ms = (time.monotonic() - started) * 1e3
                probe.observe("latency_ms", latency_ms, keep=True)
                probe.observe(f"latency_ms:{response['cache']}",
                              latency_ms)
                outcomes["ok"] += 1
                return response
            if status == "overloaded" or (status == "error"
                                          and response.get("retriable")):
                # Deterministic client-side jitter: spread retries so
                # the shed herd doesn't stampede back in lockstep.
                base = response.get("retry_after_s", 0.02)
                await asyncio.sleep(base * (1.0 + (index % 10) / 10.0))
                continue
            outcomes["failed"] += 1
            return response
        outcomes["gave_up"] += 1
        return response

    await fleet.start()
    wall_start = time.monotonic()
    try:
        responses = await asyncio.gather(
            *(client(i) for i in range(clients)))
        # Second wave: with every job resolved, one request per
        # distinct spec must be a pure cache hit — and must not
        # dispatch any engine run.
        dispatches_before_wave = fleet.dispatches
        hit_wave = await asyncio.gather(
            *(router.submit({"id": f"hit{i}", "job": s.to_wire()})
              for i, s in enumerate(pool)))
        hit_wave_hits = sum(1 for r in hit_wave
                            if r["status"] == "ok" and r["cache"] == "hit")
        hit_wave_dispatches = fleet.dispatches - dispatches_before_wave
    finally:
        wall_s = time.monotonic() - wall_start
        await fleet.stop()

    bad = [r for r in responses if r["status"] != "ok"]
    stats = probe.stats("latency_ms")
    report = {
        "clients": clients,
        "workers": workers,
        "distinct_jobs": len(pool),
        "max_pending": max_pending,
        "ok": outcomes["ok"],
        "failed": outcomes["failed"] + outcomes["gave_up"],
        "dropped_accepted": (router.counters["accepted"]
                             - router.counters["completed"]
                             - router.counters["job_failures"]
                             - router.counters["retriable_errors"]),
        "engine_dispatches": fleet.dispatches,
        "hit_wave": {"requests": len(pool), "hits": hit_wave_hits,
                     "dispatches": hit_wave_dispatches},
        "router": dict(router.counters),
        "cache": router.cache.snapshot(),
        "fleet_counters": dict(fleet.counters),
        "wall_s": round(wall_s, 3),
        "throughput_rps": round(outcomes["ok"] / wall_s, 1),
        "latency_ms": {
            "mean": round(stats.mean, 3),
            "p50": round(probe.percentile("latency_ms", 50), 3),
            "p99": round(probe.percentile("latency_ms", 99), 3),
            "max": round(stats.maximum, 3),
        },
        "failures": bad[:5],
    }
    if tel is not None:
        tel_after = _reconcile_counters(tel.merged_snapshot())
        deltas = {label: tel_after[label] - tel_before[label]
                  for label in tel_after}
        expected = {}
        for name, labels, path in _RECONCILE:
            value: Any = report
            for step in path:
                value = value[step]
            expected[_series_label(name, labels)] = value
        report["telemetry"] = {
            "enabled": True,
            "run": tel.run_id,
            "counters": deltas,
            "expected": expected,
            "reconciled": deltas == expected,
        }
    return report


def check_report(report: Dict[str, Any]) -> None:
    """Raise :class:`LoadTestFailed` unless the contract held."""
    if report["failed"] or report["ok"] != report["clients"]:
        raise LoadTestFailed(
            f"{report['failed']} of {report['clients']} clients did "
            f"not complete: {report['failures']!r}"
        )
    if report["dropped_accepted"]:
        raise LoadTestFailed(
            f"{report['dropped_accepted']} accepted requests never "
            f"resolved"
        )
    if report["engine_dispatches"] != report["distinct_jobs"]:
        raise LoadTestFailed(
            f"expected exactly one engine run per distinct job "
            f"({report['distinct_jobs']}), saw "
            f"{report['engine_dispatches']} dispatches"
        )
    wave = report["hit_wave"]
    if wave["hits"] != wave["requests"] or wave["dispatches"]:
        raise LoadTestFailed(
            f"cache-hit wave expected {wave['requests']} hits and no "
            f"engine runs, saw {wave['hits']} hits and "
            f"{wave['dispatches']} dispatches"
        )
    section = report.get("telemetry")
    if section is not None and not section["reconciled"]:
        mismatches = {
            label: (section["counters"][label],
                    section["expected"][label])
            for label in section["expected"]
            if section["counters"].get(label) != section["expected"][label]
        }
        raise LoadTestFailed(
            f"telemetry counters do not reconcile with the load report "
            f"(telemetry, expected): {mismatches!r}"
        )


def write_report(path: str, report: Dict[str, Any]) -> None:
    """Write the report as pretty sorted JSON."""
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def render_report(report: Dict[str, Any]) -> str:
    latency = report["latency_ms"]
    lines = (
        f"service load test: {report['clients']} clients, "
        f"{report['workers']} workers, {report['distinct_jobs']} "
        f"distinct jobs, max_pending={report['max_pending']}\n"
        f"  ok={report['ok']} failed={report['failed']} "
        f"dropped_accepted={report['dropped_accepted']}\n"
        f"  engine runs={report['engine_dispatches']} "
        f"cache_hits={report['router']['cache_hits']} "
        f"coalesced={report['router']['coalesced']} "
        f"shed={report['router']['shed']} "
        f"hit_wave={report['hit_wave']['hits']}/"
        f"{report['hit_wave']['requests']}\n"
        f"  wall={report['wall_s']}s "
        f"throughput={report['throughput_rps']} req/s  latency "
        f"p50={latency['p50']}ms p99={latency['p99']}ms "
        f"max={latency['max']}ms\n"
    )
    section = report.get("telemetry")
    if section is not None:
        verdict = "reconciled" if section["reconciled"] else "MISMATCH"
        lines += (f"  telemetry: {verdict} "
                  f"({len(section['counters'])} counters checked)\n")
    return lines


__all__ = [
    "LoadTestFailed",
    "check_report",
    "render_report",
    "run_load_test",
    "write_report",
]
