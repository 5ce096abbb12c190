"""Run protocol, phase spans, profile bucketing, provenance, results.

A *run* of a simulator workload is, in one process::

    warm-up iteration, then iterations until --seconds are measured

and an *iteration* is ``setup -> run -> verify`` of a fixed,
seed-generated program, with ``gc.collect()`` after it and GC left on.
Every iteration rebuilds its clusters, so each starts from the same
state (identical digests and simulated times are part of the
correctness gate) and every iteration yields a ``setup_s`` sample as
well as a ``wall_s`` sample.  Timings are reported as medians over the
timed iterations.

Host-speed correction.  This sandbox shares its host: for minutes at
a time every process here runs 1.4-2x slower, which no median inside
a 12 s run can see through.  So between iterations the harness times
``host_probe()`` — a fixed task that touches nothing under ``src/`` —
and divides each timing by how slow the probes on either side of it
were against ``REF_PROBE_S``.  ``wall_s`` and ``setup_s`` are thus
seconds *at the reference host's quiet speed*; a change to ``src/``
cannot move the probe, so it shows in full.  Raw samples and probe
readings are kept in the result file.

With tracing on, iterations alternate untraced / traced: the traced
one runs ``run`` under ``cProfile`` (enabled here, never in ``src/``)
and its ``tottime`` is bucketed by ``src/repro/<package>/`` path into
per-layer self time.  The untraced ones give the wall the overhead
ratio is taken against; end-to-end metrics always come from
``--trace 0`` runs.
"""

from __future__ import annotations

import cProfile
import datetime
import gc
import heapq
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.sim import Simulator
from repro.sim import core as sim_core

from ledger import spec

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUT = os.path.join(ROOT, "ledger", "out")


# -- spans ----------------------------------------------------------------

class Spans:
    """The runner's own phase spans, kept in memory until the end."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.rows: List[dict] = []
        self._open: List[int] = []

    def add(self, name: str, start: float, end: float,
            parent: Optional[int], iteration: int) -> int:
        self.rows.append({"id": len(self.rows), "name": name,
                          "start": start, "end": end, "parent": parent,
                          "workload": self.workload,
                          "iteration": iteration})
        return len(self.rows) - 1

    @contextmanager
    def span(self, name: str, iteration: int) -> Iterator[dict]:
        """A span whose parent is the innermost open span."""
        parent = self._open[-1] if self._open else None
        index = self.add(name, time.perf_counter(), 0.0, parent, iteration)
        self._open.append(index)
        try:
            yield self.rows[index]
        finally:
            self._open.pop()
            self.rows[index]["end"] = time.perf_counter()

    def durations(self, name: str, iterations) -> List[float]:
        wanted = set(iterations)
        return [row["end"] - row["start"] for row in self.rows
                if row["name"] == name and row["iteration"] in wanted]


# -- what a workload hands back --------------------------------------------

@dataclass
class Outcome:
    """One iteration (or one service run), as checked by its workload."""

    attempted: int
    failed: int
    #: Application messages / collective ops / jobs completed.
    msgs: int
    #: Hash of every simulated result the program produced.
    digest: str
    sim_time_us: float
    #: Exact per-layer counts over the run phase.
    counts: Dict[str, float] = field(default_factory=dict)
    #: One line per failed check.
    notes: List[str] = field(default_factory=list)


@dataclass
class Measurement:
    """Everything one run measured; ``finish`` turns it into output."""

    workload: str
    inputs: dict
    #: metric name -> raw samples, one per timed iteration.
    samples: Dict[str, List[float]]
    #: metric name -> reported value.
    metrics: Dict[str, float]
    attempted: int
    failed: int
    notes: List[str]
    spans: Spans
    iterations: int
    #: Iterations whose ``run`` was profiled (empty without --trace 1).
    traced: List[int]
    layers: Optional[dict] = None


def quartiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4)


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile (no interpolation beyond the data)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def peak_rss_mb() -> float:
    """High-water resident set of this process and reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# -- host-speed probe --------------------------------------------------------

#: ``host_probe()`` on the reference host (2-core Xeon 2.1 GHz VM,
#: CPython 3.11) when nothing else contends for it.
REF_PROBE_S = 0.060


def host_probe(steps: int = 150_000) -> float:
    """Seconds a fixed, stdlib-only task takes right now.

    The task has the simulator's instruction mix — generator resumes,
    a heap of tuples, dict updates — so whatever slows the simulator
    (a contended core, a throttled clock) slows it alike; it imports
    nothing from ``src/``, so no change under test can move it.
    """
    def ticker(step: float):
        now = 0.0
        while True:
            now += step
            yield now

    heap: list = []
    visits: Dict[int, int] = {}
    for index in range(32):
        process = ticker(1.0 + index * 0.01)
        heapq.heappush(heap, (next(process), index, process))
    start = time.perf_counter()
    for _ in range(steps):
        _when, index, process = heapq.heappop(heap)
        visits[index] = visits.get(index, 0) + 1
        heapq.heappush(heap, (next(process), index, process))
    return time.perf_counter() - start


def slowness(before: float, after: float) -> float:
    """How many times slower than the reference host, given the probe
    readings taken just before and just after a timed stretch."""
    return (before + after) / 2.0 / REF_PROBE_S


# -- profile bucketing -----------------------------------------------------

_IDLE_MARKS = ("select.epoll", "select.select", "time.sleep",
               "select.poll")
_SRC_MARK = "/src/repro/"


def layer_of(filename: str, funcname: str) -> str:
    """The ``spec.LAYERS`` bucket a profiled function belongs to."""
    if filename == "~":  # C function
        if any(mark in funcname for mark in _IDLE_MARKS):
            return "idle"
        return "builtins"
    path = filename.replace(os.sep, "/")
    if _SRC_MARK in path:
        package, _, rest = path.split(_SRC_MARK, 1)[1].partition("/")
        if rest and package in spec.LAYERS:
            return package
        return "other"
    return "harness"


def bucket_profile(profiler: cProfile.Profile) -> Dict[str, dict]:
    """``{layer: {"self_s": tottime, "calls": n}}`` over all passes."""
    profiler.create_stats()
    layers = {layer: {"self_s": 0.0, "calls": 0} for layer in spec.LAYERS}
    for (filename, _line, funcname), row in profiler.stats.items():
        bucket = layers[layer_of(filename, funcname)]
        bucket["calls"] += row[1]
        bucket["self_s"] += row[2]
    return layers


def layer_metrics(layers: Dict[str, dict], passes: int) -> Dict[str, float]:
    """Per-pass ``<layer>.self_s`` and ``<layer>.self_share``."""
    total = sum(bucket["self_s"] for bucket in layers.values())
    out = {}
    for layer, bucket in layers.items():
        out[f"{layer}.self_s"] = bucket["self_s"] / passes
        out[f"{layer}.self_share"] = (bucket["self_s"] / total
                                      if total else 0.0)
    return out


def bare_kernel_ns_per_event(events: int = 200_000,
                             processes: int = 64) -> float:
    """Host ns per event of the kernel alone: timeouts, no model."""
    sim = Simulator()
    each = events // processes

    def ticker(step: float):
        for _ in range(each):
            yield sim.timeout(step)

    for index in range(processes):
        sim.spawn(ticker(1.0 + index / processes))
    before = sim_core.TOTAL_EVENTS
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return elapsed / (sim_core.TOTAL_EVENTS - before) * 1e9


# -- the simulator-workload protocol ---------------------------------------

def measure_sim(workload, seed: int, seconds: float, trace: bool,
                smoke: bool) -> Measurement:
    """Drive one simulator workload through the run protocol."""
    inputs = workload.inputs(seed, smoke)
    spans = Spans(workload.name)
    profiler = cProfile.Profile() if trace else None
    outcomes: Dict[int, Outcome] = {}
    slow: Dict[int, float] = {}
    probe = [host_probe()]

    def iteration(index: int, traced: bool) -> float:
        before = sim_core.TOTAL_EVENTS
        with spans.span("setup", index) as setup_row:
            ctx = workload.setup(
                inputs, lambda name: spans.span(name, index))
        setup_events = sim_core.TOTAL_EVENTS - before
        before = sim_core.TOTAL_EVENTS
        with spans.span("run", index) as run_row:
            if traced:
                profiler.enable()
            try:
                out = workload.run(ctx)
            finally:
                if traced:
                    profiler.disable()
        events = sim_core.TOTAL_EVENTS - before
        probe.append(host_probe())
        slow[index] = slowness(probe[-2], probe[-1])
        with spans.span("verify", index):
            outcome = outcomes[index] = workload.verify(ctx, out)
        outcome.counts["sim.events"] = events
        outcome.counts["cluster.setup_events"] = setup_events
        del ctx, out
        gc.collect()
        return (setup_row["end"] - setup_row["start"]
                + run_row["end"] - run_row["start"])

    iteration(0, False)  # warm-up: imports, lazy caches, route tables
    plain: List[int] = []
    traced: List[int] = []
    measured = 0.0
    floor = 2 if smoke else 3
    while measured < seconds or len(plain) < (1 if trace else floor):
        index = len(outcomes)
        measured += iteration(index, False)
        plain.append(index)
        if trace:
            index = len(outcomes)
            measured += iteration(index, True)
            traced.append(index)

    attempted, failed, notes = _gate(outcomes, sorted(plain + traced))
    timed = sorted(plain + traced)
    raw_walls = spans.durations("run", plain)
    raw_setups = spans.durations("setup", timed)
    walls = [raw / slow[i] for raw, i in zip(raw_walls, plain)]
    setups = [raw / slow[i] for raw, i in zip(raw_setups, timed)]
    first = outcomes[plain[0]]
    samples = {"wall_s": walls, "setup_s": setups,
               "raw_wall_s": raw_walls, "raw_setup_s": raw_setups,
               "host_probe_s": probe}
    metrics = {
        "wall_s": statistics.median(walls),
        "msgs_per_s": first.msgs / statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    layers = None
    if trace:
        traced_walls = spans.durations("run", traced)
        samples["traced_wall_s"] = traced_walls
        layers = bucket_profile(profiler)
        metrics.update(layer_metrics(layers, len(traced)))
        metrics.update(first.counts)
        metrics.update({
            "sim.host_us_per_event": (
                statistics.median(raw_walls) / first.counts["sim.events"]
                * 1e6),
            "sim.sim_time_us": first.sim_time_us,
            "sim.bare_ns_per_event": bare_kernel_ns_per_event(
                20_000 if smoke else 200_000),
            "cluster.build_mesh_s": _median_or_zero(
                spans.durations("build_mesh", timed)),
            "cluster.build_world_s": _median_or_zero(
                spans.durations("build_world", timed)),
            "bench.trace_overhead_ratio": (
                statistics.median(traced_walls)
                / statistics.median(raw_walls)),
        })
        metrics.update(workload.extras(inputs, smoke))
    return Measurement(workload.name, inputs, samples, metrics, attempted,
                       failed, notes, spans, len(plain) + len(traced),
                       traced, layers)


def _median_or_zero(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _gate(outcomes: Dict[int, Outcome], timed: List[int]):
    """Fold iteration outcomes and the cross-iteration identity checks.

    Self-consistency only (no pinned digests), so a later PR that
    fixes the model is not scored as a failure: every iteration,
    warm-up included, must produce the same simulated-result digest
    and simulated end time, and every timed iteration the same exact
    counts, event count included (the warm-up fills process-wide
    route caches, so its hit ratio legitimately differs).
    """
    attempted = sum(o.attempted for o in outcomes.values())
    failed = sum(o.failed for o in outcomes.values())
    notes = [note for o in outcomes.values() for note in o.notes]
    reference = outcomes[timed[0]]
    for index, outcome in outcomes.items():
        attempted += 1
        if (outcome.digest, outcome.sim_time_us) != (
                reference.digest, reference.sim_time_us):
            failed += 1
            notes.append(f"iteration {index}: digest/sim time differs "
                         f"from iteration {timed[0]}")
    for index in timed[1:]:
        attempted += 1
        if outcomes[index].counts != reference.counts:
            failed += 1
            notes.append(f"iteration {index}: exact counts differ "
                         f"from iteration {timed[0]}")
    return attempted, failed, notes


# -- provenance and output ---------------------------------------------------

def _git(*args: str) -> Optional[str]:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # a bare checkout: do not let git walk upwards
    try:
        return subprocess.run(
            ("git", "-C", ROOT) + args, capture_output=True, text=True,
            timeout=20, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(seed: int, started: float) -> dict:
    status = _git("status", "--porcelain")
    stamp = datetime.datetime.fromtimestamp
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "seed": seed,
        "argv": sys.argv[1:],
        "started": stamp(started, datetime.timezone.utc).isoformat(),
        "ended": stamp(time.time(), datetime.timezone.utc).isoformat(),
    }


def finish(measurement: Measurement, seed: int, trace: bool,
           out_dir: str, started: float) -> None:
    """Write the result (and trace) file, then print the metric table
    and, last, the driver's JSON line."""
    wanted = spec.PER_LAYER if trace else spec.END_TO_END
    metrics = {}
    for metric in wanted:
        # A layer a workload does not touch reports 0 for its counts.
        value = measurement.metrics.get(metric.name, 0.0)
        metrics[metric.name] = {"value": value, "unit": metric.unit}
    correct = measurement.failed == 0
    result = {
        "workload": measurement.workload,
        "trace": trace,
        "claim": None,
        "correct": correct,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "failed_share": measurement.failed / measurement.attempted,
        "notes": measurement.notes,
        "iterations": measurement.iterations,
        "metrics": metrics,
        "samples": {
            name: {"raw": values,
                   "median": statistics.median(values),
                   "quartiles": quartiles(values)}
            for name, values in measurement.samples.items() if values
        },
        "inputs": measurement.inputs,
        "provenance": provenance(seed, started),
    }
    os.makedirs(out_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime(started))
    base = (f"{measurement.workload}-seed{seed}-trace{int(trace)}-"
            f"{stamp}-{os.getpid()}")
    with open(os.path.join(out_dir, f"result-{base}.json"), "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
    if trace:
        path = os.path.join(out_dir, f"trace-{measurement.workload}.json")
        with open(path, "w") as handle:
            json.dump({"workload": measurement.workload, "seed": seed,
                       "clock": "time.perf_counter seconds",
                       "spans": measurement.spans.rows,
                       "traced_iterations": measurement.traced,
                       "layers": measurement.layers,
                       "provenance": result["provenance"]},
                      handle, indent=1)
            handle.write("\n")
    print(f"# {measurement.workload}  seed={seed} trace={int(trace)} "
          f"iterations={measurement.iterations} "
          f"failed={measurement.failed}/{measurement.attempted}")
    for note in measurement.notes:
        print(f"#   FAILED: {note}")
    for name, entry in metrics.items():
        print(f"{name:34s} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps({"correct": correct,
                      "attempted": measurement.attempted,
                      "failed": measurement.failed, "metrics": metrics}))
