"""``service_closed_loop``: two closed-loop clients -> Router -> Fleet(1).

Closed loop: each asyncio client sends its next request only after the
previous reply, so a slower service receives less load.  A *round* is
one distinct ``point/via_latency`` job — a miss, which runs the engine
in the worker process — followed by five repeats of it, which are
cache hits.  Rounds are the workload's iterations: ``wall_s`` is the
median round time (miss-dominated) and ``msgs_per_s`` is jobs per
second.  Every job costs the same (same size and repeats; the job's
``seed`` field alone makes it distinct), so however many rounds fit in
``--seconds``, per-job numbers are comparable between runs.

Set-up is worker boot plus one ping job; it is done several times and
the last fleet is kept for the loop.  The load generator is this one
process; the only other process is the one fleet worker (plus
multiprocessing's resource tracker, which ``reap_children`` stops).
"""

from __future__ import annotations

import asyncio
import cProfile
import multiprocessing
import os
import random
import shutil
import statistics
import tempfile
import time
from multiprocessing import resource_tracker
from typing import Dict, List, Optional

from repro.service import Fleet, JobSpec, ResultCache, Router
from repro.service.jobs import execute

from ledger.harness import (DEFAULT_OUT, Measurement, Spans,
                            bare_kernel_ns_per_event, bucket_profile,
                            host_probe, layer_metrics, peak_rss_mb,
                            percentile, slowness)

NAME = "service_closed_loop"
CLIENTS = 2
HITS_PER_MISS = 5
#: The loop runs in this many slices with a host probe between them
#: (clients idle, so the probe blocks nobody), and each round time is
#: corrected by its slice's host slowness — see ``harness``.
SLICES = 4


def _job(seed: int, smoke: bool) -> JobSpec:
    return JobSpec.make("point", "via_latency", seed=seed, nbytes=1024,
                        repeats=20 if smoke else 160)


class _Loop:
    """State the clients share while the closed loop runs."""

    def __init__(self, router: Router, seeds, smoke: bool,
                 spans: Spans) -> None:
        self.router = router
        self.seeds = seeds
        self.smoke = smoke
        self.spans = spans
        self.rounds: List[float] = []
        self.misses: List[float] = []
        self.hits: List[float] = []
        self.specs: List[JobSpec] = []
        self.requests = 0
        self.bad: List[str] = []
        #: Per-request spans are taken only while tracing.
        self.parent: Optional[int] = None

    async def _submit(self, rid: str, wire: dict, expect: str,
                      iteration: int) -> tuple:
        start = time.perf_counter()
        response = await self.router.submit({"id": rid, "job": wire})
        end = time.perf_counter()
        self.requests += 1
        if self.parent is not None:
            self.spans.add("submit", start, end, self.parent, iteration)
        if response.get("status") != "ok":
            self.bad.append(f"{rid}: {response.get('status')} "
                            f"{response.get('error', '')}")
        elif response["cache"] != expect:
            self.bad.append(f"{rid}: cache {response['cache']!r}, "
                            f"expected {expect!r}")
        return end - start, response.get("result")

    async def client(self, index: int, deadline: float) -> None:
        """Rounds until ``deadline``, at least one."""
        while True:
            spec = _job(next(self.seeds), self.smoke)
            wire = spec.to_wire()
            number = len(self.specs)
            self.specs.append(spec)
            start = time.perf_counter()
            latency, payload = await self._submit(
                f"c{index}-{number}", wire, "miss", number)
            self.misses.append(latency)
            for repeat in range(HITS_PER_MISS):
                latency, again = await self._submit(
                    f"c{index}-{number}-{repeat}", wire, "hit", number)
                self.hits.append(latency)
                if again != payload:
                    self.bad.append(f"c{index}-{number}-{repeat}: hit "
                                    f"payload differs from its miss")
            self.rounds.append(time.perf_counter() - start)
            if time.perf_counter() >= deadline:
                return

    async def run(self, seconds: float) -> float:
        """All clients for ``seconds``; returns the wall it took."""
        start = time.perf_counter()
        await asyncio.gather(*(self.client(index, start + seconds)
                               for index in range(CLIENTS)))
        return time.perf_counter() - start


async def _measure(seed: int, seconds: float, trace: bool,
                   smoke: bool) -> Measurement:
    rng = random.Random(seed)
    seeds = iter(rng.sample(range(1, 1 << 30), 20_000))
    spans = Spans(NAME)
    os.makedirs(DEFAULT_OUT, exist_ok=True)
    # Fleet.start() would otherwise put its checkpoint root in /tmp.
    ckpt_dir = tempfile.mkdtemp(prefix="fleet-", dir=DEFAULT_OUT)
    fleet = router = None
    boots = 2 if smoke else 3
    probes = [host_probe()]
    setups = []
    try:
        for boot in range(boots):
            if fleet is not None:
                await fleet.stop()
            with spans.span("setup", boot) as row:
                fleet = Fleet(1, heartbeat_interval=0.1, hang_timeout=30.0,
                              ckpt_dir=ckpt_dir)
                router = Router(fleet, ResultCache())
                await fleet.start()
                ping = await router.submit({
                    "id": f"ping{boot}",
                    "job": _job(next(seeds), True).to_wire()})
            probes.append(host_probe())
            setups.append((row["end"] - row["start"])
                          / slowness(probes[-2], probes[-1]))
        loop = _Loop(router, seeds, smoke, spans)
        if ping.get("status") != "ok":
            loop.bad.append(f"ping: {ping}")
        base = dict(router.counters)
        base_events = fleet.counters["worker_events"]
        slices = SLICES // 2 if trace else SLICES
        wall, plain_rounds = 0.0, []
        with spans.span("run", 0):
            for _ in range(slices):
                first = len(loop.rounds)
                wall += await loop.run(seconds / SLICES)
                probes.append(host_probe())
                slow = slowness(probes[-2], probes[-1])
                plain_rounds += [raw / slow for raw in loop.rounds[first:]]
        raw_plain = list(loop.rounds)
        layers = None
        if trace:
            profiler = cProfile.Profile()
            with spans.span("run", 1) as row:
                loop.parent = row["id"]
                profiler.enable()
                try:
                    await loop.run(seconds / 2)
                finally:
                    profiler.disable()
                loop.parent = None
            layers = bucket_profile(profiler)
        counters = {key: router.counters[key] - base[key]
                    for key in base}
        dispatches = fleet.dispatches - 1  # the kept fleet's ping
        worker_events = fleet.counters["worker_events"] - base_events
    finally:
        if fleet is not None:
            await fleet.stop()
        shutil.rmtree(ckpt_dir, ignore_errors=True)

    with spans.span("verify", 0):
        rounds = len(loop.rounds)
        checks = {
            "every response ok, misses miss, hits hit, payloads equal":
                not loop.bad,
            f"one engine run per distinct job ({dispatches} runs, "
            f"{rounds} jobs)": dispatches == rounds,
            "router completed every accepted request":
                counters["accepted"] == counters["completed"] == rounds
                and counters["cache_hits"] == HITS_PER_MISS * rounds,
        }
    notes = loop.bad[:5] + [what for what, ok in checks.items() if not ok]
    attempted = loop.requests + len(checks)
    failed = len(loop.bad) + sum(1 for ok in checks.values() if not ok)

    samples = {"wall_s": plain_rounds, "setup_s": setups,
               "raw_wall_s": raw_plain, "host_probe_s": probes,
               "miss_s": loop.misses, "hit_s": loop.hits}
    # Closed-loop law: clients x jobs per round / round time.
    jobs_per_s = (CLIENTS * (1 + HITS_PER_MISS)
                  / statistics.median(plain_rounds))
    metrics: Dict[str, float] = {
        "wall_s": statistics.median(plain_rounds),
        "msgs_per_s": jobs_per_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    if trace:
        traced_rounds = loop.rounds[len(raw_plain):]
        samples["traced_wall_s"] = traced_rounds
        # Worker occupancy per miss, less what execute() costs in this
        # process: pickle, pipe, router, fleet, and the five hits.
        execute(loop.specs[0])  # first call imports the job's modules
        inline = []
        for spec in loop.specs[:3 if smoke else 10]:
            start = time.perf_counter()
            execute(spec)
            inline.append(time.perf_counter() - start)
        per_miss = wall / len(raw_plain) * 1e3
        metrics.update(layer_metrics(layers, 1))
        metrics.update({
            "sim.events": worker_events / rounds,
            "sim.host_us_per_event": (
                wall / len(raw_plain) / (worker_events / rounds) * 1e6),
            "sim.bare_ns_per_event": bare_kernel_ns_per_event(
                20_000 if smoke else 200_000),
            "service.miss_p50_ms": statistics.median(loop.misses) * 1e3,
            "service.miss_p90_ms": percentile(loop.misses, 90) * 1e3,
            "service.hit_p50_us": statistics.median(loop.hits) * 1e6,
            "service.hit_p99_us": percentile(loop.hits, 99) * 1e6,
            "service.pipe_overhead_ms": (
                per_miss - statistics.median(inline) * 1e3),
            "service.engine_dispatches": dispatches,
            "service.cache_hit_ratio": (
                counters["cache_hits"] / counters["requests"]),
            "service.shed": counters["shed"],
            "service.retries": counters["retries"],
            "bench.trace_overhead_ratio": (
                statistics.median(traced_rounds)
                / statistics.median(raw_plain)),
        })
    inputs = {"clients": CLIENTS, "hits_per_miss": HITS_PER_MISS,
              "job": _job(0, smoke).to_wire(), "rounds": rounds}
    return Measurement(NAME, inputs, samples, metrics, attempted, failed,
                       notes, spans, rounds, [1] if trace else [], layers)


def reap_children(timeout: float = 10.0) -> None:
    """Leave no process behind: stop and wait for every child.

    ``Fleet.stop()`` joins its workers, but the spawn context also
    starts multiprocessing's resource tracker, which otherwise only
    ends once this process has exited — still there (a zombie under an
    init that does not reap) when the caller looks.  Closing its pipe
    ends it; a worker still alive (an error path) is killed.
    """
    for child in multiprocessing.active_children():
        child.kill()
        child.join(timeout)
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()  # closes the pipe and waits for the tracker's pid
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no children left
        if pid == 0:
            time.sleep(0.01)


def measure(seed: int, seconds: float, trace: bool,
            smoke: bool) -> Measurement:
    try:
        return asyncio.run(_measure(seed, seconds, trace, smoke))
    finally:
        reap_children()
