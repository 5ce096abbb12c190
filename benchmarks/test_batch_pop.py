"""Batch event-pop microbenchmark: same-instant heap drains.

The fast scheduler loop pops every heap entry sharing one
``(time, priority)`` key in a single drain before dispatching
(``sim/core.py``).  Bursty workloads — NIC interrupt storms, barrier
fan-ins, the boundary-ingress batches the PDES engine injects — put
many events at identical instants, where batching skips the
re-compare of the three event sources per event.  This benchmark runs
a same-instant-heavy workload both ways and reports the delta; the
assertion only pins that batching never *loses* (the table stays
bit-identical and the batched run is not meaningfully slower), since
single-core CI timing is too noisy to pin a exact speedup.  The cost of
an entry in Python calls is exact, and asserted (see
``tests/test_entry_cost.py``).
"""

import time

from repro import fastpath
from repro.sim import Simulator
from repro.sim.events import Callback
from tests.test_entry_cost import python_calls


def _burst_workload(sim: Simulator, instants: int, per_instant: int,
                    log: list) -> None:
    """Schedule ``per_instant`` same-time callbacks at each instant."""
    for step in range(instants):
        at = float(step + 1)
        for index in range(per_instant):
            Callback(sim, _append(log, (step, index)), at=at)


def _append(log: list, item) -> callable:
    def fire() -> None:
        log.append(item)
    return fire


def _run(enabled: bool, instants: int = 400, per_instant: int = 64):
    with fastpath.force(enabled):
        sim = Simulator()
        log: list = []
        _burst_workload(sim, instants, per_instant, log)
        started = time.perf_counter()
        sim.run()
        wall = time.perf_counter() - started
    return log, wall, sim.events_processed


def test_batch_pop_order_identical_and_not_slower(benchmark):
    reference_log, reference_wall, reference_events = _run(False)
    batched_log, batched_wall, batched_events = (None, None, None)

    def batched():
        nonlocal batched_log, batched_wall, batched_events
        batched_log, batched_wall, batched_events = _run(True)

    benchmark.pedantic(batched, rounds=1, iterations=1)

    assert batched_log == reference_log
    assert batched_events == reference_events
    print()
    print(f"reference (per-event pops): {reference_wall * 1000:.1f}ms, "
          f"batched (same-instant drains): {batched_wall * 1000:.1f}ms "
          f"for {batched_events} events "
          f"(x{reference_wall / batched_wall:.2f})")
    # Generous bound: batching must not regress the burst workload.
    # (Measured ~1.2-1.4x faster on one core; timing noise on shared
    # CI runners makes a tighter floor flaky.)
    assert batched_wall < reference_wall * 1.5
    # The budget, as a count: an entry is born queued in one call
    # (``Callback.__init__`` pushes itself; ``Event.__init__`` and
    # ``schedule_at`` were two more) behind this file's closure factory,
    # and run in two (``Callback._process``, the closure).
    with fastpath.force(True):
        sim = Simulator()
        with python_calls() as calls:
            _burst_workload(sim, 400, 64, [])
            sim.run()
    print(f"{calls.total / sim.events_processed:.3f} Python calls per "
          f"entry, built and run")
    assert sim.events_processed == batched_events
    assert calls.total <= 4 * batched_events + 3
