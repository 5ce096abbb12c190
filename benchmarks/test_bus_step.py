"""Memory-bus step microbenchmark: settle + water-fill under churn.

``mesh_aggregate`` spends most of its ``hw`` time in
:class:`repro.hw.pci.BandwidthBus`: every join, leave and wake settles
the active flows and water-fills the rate over them again.  This
benchmark keeps one bus at twelve flows in the two (cap, weight)
classes a host really has — six NIC DMAs (PCI-X cap, weight 1) and six
CPU copies (copy-rate cap, weight 5) — each lane issuing its next
transfer from the completion of the previous one, and prints the wall
cost per step under the fast and the reference scheduler.

Both schedulers run the same ``_settle`` / ``_reallocate`` and must
agree on every completion, in order, to the bit.  Their step and event
counts are printed, not compared: the reference scheduler wakes the bus
from a spawned process (three queue entries per wake), and when a join
lands on the very instant of a wake the two modes order that pair
differently — two steps there, or one that does both jobs.  No timing
assert: single-core CI is too noisy.  What is asserted instead is the
step's cost in Python calls (exact, see ``tests/test_entry_cost.py``).
"""

import time

from repro import fastpath
from repro.hw.pci import BandwidthBus
from repro.sim import Simulator
from tests.test_entry_cost import python_calls

LANES = [(1064.0, 1.0)] * 6 + [(1200.0, 5.0)] * 6


def _run(enabled: bool, per_lane: int = 400, count_calls: bool = False):
    with fastpath.force(enabled):
        sim = Simulator()
        bus = BandwidthBus(sim, rate=2100.0, setup=0.02)
        log: list = []

        def lane(index: int, cap: float, weight: float):
            left = per_lane

            def issue(_flow=None) -> None:
                nonlocal left
                if _flow is not None:
                    log.append((index, sim.now.hex()))
                if left:
                    left -= 1
                    # Sizes differ per lane and step, so lanes drift
                    # apart and joins land between other lanes' leaves.
                    nbytes = 1024.0 + 96 * index + 8 * (left % 7)
                    bus.transfer_event(
                        nbytes, rate_cap=cap, weight=weight,
                    ).callbacks.append(issue)

            issue()

        for index, (cap, weight) in enumerate(LANES):
            lane(index, cap, weight)
        if count_calls:
            with python_calls() as calls:
                sim.run()
            return calls.total, sim.events_processed
        started = time.perf_counter()
        sim.run()
        wall = time.perf_counter() - started
    assert bus.stats["max_concurrency"] == len(LANES)
    return log, wall, bus._wake_generation, sim.events_processed


def test_bus_step_identical_across_schedulers(benchmark):
    ref_log, ref_wall, ref_steps, ref_events = _run(False)
    fast_log = fast_wall = fast_steps = fast_events = None

    def fast():
        nonlocal fast_log, fast_wall, fast_steps, fast_events
        fast_log, fast_wall, fast_steps, fast_events = _run(True)

    benchmark.pedantic(fast, rounds=1, iterations=1)

    assert fast_log == ref_log
    assert len(fast_log) == len(LANES) * 400
    print()
    print(f"settle + water-fill at <= {len(LANES)} flows: "
          f"fast {fast_wall / fast_steps * 1e9:.0f} ns/step "
          f"({fast_steps} steps, {fast_events} events), "
          f"reference {ref_wall / ref_steps * 1e9:.0f} ns/step "
          f"({ref_steps} steps, {ref_events} events)")
    # The budget, as a count.  Every entry the bus queues — a join or a
    # wake — runs in at most four calls: its ``_process``, ``_settle``,
    # ``_reallocate`` and ``_arm_wake`` (which pushes the wake itself).
    # Every transfer adds the two it is born in (``transfer_event``,
    # ``_Flow.__init__``), its ``_transfer_done`` and this file's own
    # continuation (``issue`` and the ``sim.now`` property): five.
    # ``run`` and ``_drive`` once.  All told 6.49 per entry; 10.48
    # before the constructor chain, ``_enter``, ``_join``,
    # ``_on_wake_fast``, ``schedule`` / ``schedule_at`` and the
    # water-fill's list comprehension went.
    calls, events = _run(True, count_calls=True)
    transfers = len(LANES) * 400
    print(f"{calls} Python calls: {calls / events:.2f} per entry "
          f"({events} entries, {transfers} transfers)")
    assert events == fast_events
    assert calls <= 4 * events + 5 * transfers + 2
