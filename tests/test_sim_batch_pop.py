"""Same-instant batch heap drains must be invisible.

``Simulator._drive``'s fast loop — the one loop behind ``run`` and
``run_until_complete`` — pops every heap entry sharing one
``(time, priority)`` key in a single drain (a step toward the
structured-array queue ROADMAP names).  These tests pin the edge cases
against the per-event reference branch: dispatch order, urgent
preemption mid-batch, crash mid-batch, the ``until`` / ``limit`` bound
between and inside batches, the awaited process finishing mid-batch,
and a Hypothesis walk over random schedules and stop conditions.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import fastpath
from repro.errors import DeadlockError, SimulationError
from repro.sim import Simulator
from repro.sim.events import Callback, NORMAL, URGENT


def _logger(log, item):
    def fire() -> None:
        log.append(item)
    return fire


def _run_both(build):
    """Run ``build(sim, log)`` under both scheduler modes."""
    outcomes = {}
    for mode in (False, True):
        with fastpath.force(mode):
            sim = Simulator()
            log = []
            build(sim, log)
            sim.run()
            outcomes[mode] = (log, sim.events_processed, sim.now)
    return outcomes[False], outcomes[True]


class TestBatchOrder:
    def test_same_instant_callbacks_fire_in_schedule_order(self):
        def build(sim, log):
            for i in range(50):
                Callback(sim, _logger(log, i), at=5.0)

        reference, batched = _run_both(build)
        assert batched == reference
        assert batched[0] == list(range(50))

    def test_batches_at_multiple_instants(self):
        def build(sim, log):
            for step in range(10):
                for i in range(8):
                    Callback(sim, _logger(log, (step, i)),
                             at=float(step + 1))

        reference, batched = _run_both(build)
        assert batched == reference

    def test_callback_scheduling_future_batch_member(self):
        # An event at t=1 adds a new member to the t=2 batch after the
        # t=2 entries already exist; the drain at t=2 must include it
        # in sequence order.
        def build(sim, log):
            for i in range(3):
                Callback(sim, _logger(log, ("first", i)), at=2.0)
            def add_late():
                log.append("adder")
                Callback(sim, _logger(log, "late"), at=2.0)
            Callback(sim, add_late, at=1.0)

        reference, batched = _run_both(build)
        assert batched == reference
        assert batched[0] == ["adder", ("first", 0), ("first", 1),
                              ("first", 2), "late"]


class TestBatchPreemption:
    def test_zero_delay_urgent_preempts_rest_of_batch(self):
        # Batch member 1 schedules an urgent zero-delay event; the
        # reference path runs it before batch members 2..4, so the
        # batched path must break the drain to match.
        def build(sim, log):
            def spawn_urgent():
                log.append("spawner")
                Callback(sim, _logger(log, "urgent"), delay=0.0,
                         priority=0)
            Callback(sim, spawn_urgent, at=3.0)
            for i in range(3):
                Callback(sim, _logger(log, ("tail", i)), at=3.0)

        reference, batched = _run_both(build)
        assert batched == reference
        assert batched[0].index("urgent") < batched[0].index(("tail", 0))


class TestBatchCrash:
    def test_crash_mid_batch_raises_and_keeps_tail(self):
        # Scheduling order puts the crashing process's resume between
        # the two callbacks in the t=1.0 batch (global sequence
        # numbers: the callback scheduled at t=0.5 sorts last).
        def crasher(sim):
            yield sim.timeout(1.0)
            raise ValueError("mid-batch crash")

        for mode in (False, True):
            with fastpath.force(mode):
                sim = Simulator()
                log = []
                Callback(sim, _logger(log, 0), at=1.0)
                sim.spawn(crasher(sim), name="crasher")
                def add_tail():
                    Callback(sim, _logger(log, 2), at=1.0)
                Callback(sim, add_tail, at=0.5)
                with pytest.raises(ValueError, match="mid-batch crash"):
                    sim.run()
                # The event before the crash ran; the one after did not
                # and is still queued at the crash instant.
                assert log == [0]
                assert sim.peek() == 1.0

    def test_two_crashes_on_one_event_surface_together(self):
        # Both waiters die when the gate fires.  The first crash is the
        # one raised, the second is named in its note, and nothing is
        # left behind to surface at the unrelated t=6 event.
        def waiter(gate, tag):
            yield gate
            raise ValueError(tag)

        for mode in (False, True):
            with fastpath.force(mode):
                sim = Simulator()
                gate = sim.event("gate")
                sim.spawn(waiter(gate, "first"), name="first")
                sim.spawn(waiter(gate, "second"), name="second")
                Callback(sim, gate.succeed, at=1.0)
                Callback(sim, lambda: None, at=6.0)
                with pytest.raises(ValueError, match="first") as caught:
                    sim.run()
                note, = caught.value.__notes__
                assert "process 'first' at t=1.000us" in note
                assert "process 'second'" in note
                assert "ValueError('second')" in note
                assert sim.run() == 6.0


class TestWindowBound:
    def test_until_splits_batches_exactly(self):
        with fastpath.force(True):
            sim = Simulator()
            log = []
            for i in range(4):
                Callback(sim, _logger(log, ("a", i)), at=1.0)
            for i in range(4):
                Callback(sim, _logger(log, ("b", i)), at=2.0)
            sim.run(until=1.5)
            assert log == [("a", i) for i in range(4)]
            assert sim.now == 1.5
            sim.run(until=2.0)
            assert log[-4:] == [("b", i) for i in range(4)]
            assert sim.now == 2.0

    def test_until_bound_matches_reference(self):
        def build_and_run(mode):
            with fastpath.force(mode):
                sim = Simulator()
                log = []
                for step in range(6):
                    for i in range(5):
                        Callback(sim, _logger(log, (step, i)),
                                 at=float(step))
                sim.run(until=2.0)
                first = list(log)
                sim.run()
                return first, log, sim.events_processed

        assert build_and_run(True) == build_and_run(False)

    def test_run_until_now_drains_the_current_instant_only(self):
        def build_and_run(mode):
            with fastpath.force(mode):
                sim = Simulator()
                log = []
                def at_now():
                    log.append("heap")
                    Callback(sim, _logger(log, "zero-delay"))
                    Callback(sim, _logger(log, "urgent"), priority=URGENT)
                    Callback(sim, _logger(log, "later"), delay=0.5)
                Callback(sim, at_now, at=1.5)
                sim.run(until=1.0)
                sim.run(until=1.5)
                first = list(log)
                sim.run(until=sim.now)
                return (first, log, sim.now, sim.queue_length,
                        sim.events_processed)

        assert build_and_run(True) == build_and_run(False)
        first, log, now, queued, _events = build_and_run(True)
        assert first == log == ["heap", "urgent", "zero-delay"]
        assert (now, queued) == (1.5, 1)


class TestRunUntilComplete:
    def test_stop_mid_batch_when_process_finishes(self):
        # The watched process finishes as part of a same-instant batch;
        # events after it in the batch must stay runnable and fire on
        # the next run(), exactly as the reference path leaves them.
        def finisher(sim, log):
            yield sim.timeout(1.0)
            log.append("proc")
            return "done"

        results = {}
        for mode in (False, True):
            with fastpath.force(mode):
                sim = Simulator()
                log = []
                Callback(sim, _logger(log, "before"), at=1.0)
                proc = sim.spawn(finisher(sim, log), name="finisher")
                def add_after():
                    Callback(sim, _logger(log, "after"), at=1.0)
                Callback(sim, add_after, at=0.5)
                value = sim.run_until_complete(proc)
                during = list(log)
                sim.run()
                results[mode] = (value, during, log,
                                 sim.events_processed)
        assert results[True] == results[False]
        assert results[True][0] == "done"
        assert results[True][2] == ["before", "proc", "after"]

    def test_stop_mid_batch_with_a_finite_limit(self):
        # Same shape, but a ``limit`` is set: the awaited process ends
        # in the middle of the t=1.0 batch, well inside the limit.
        def finisher(sim, log):
            yield sim.timeout(1.0)
            log.append("proc")
            return "done"

        results = {}
        for mode in (False, True):
            with fastpath.force(mode):
                sim = Simulator()
                log = []
                Callback(sim, _logger(log, "before"), at=1.0)
                proc = sim.spawn(finisher(sim, log), name="finisher")
                def add_after():
                    for i in range(3):
                        Callback(sim, _logger(log, ("after", i)), at=1.0)
                Callback(sim, add_after, at=0.5)
                value = sim.run_until_complete(proc, limit=5.0)
                results[mode] = (value, list(log), sim.now,
                                 sim.queue_length, sim.events_processed)
        assert results[True] == results[False]
        # Left queued: the three "after" callbacks and nothing else —
        # the awaited process ended with no waiter, so it was marked
        # processed in place instead of queueing its own termination
        # (which used to make this 4).
        assert results[True][:4] == ("done", ["before", "proc"], 1.0, 3)


def _ticker(sim, log, period, count):
    for tick in range(count):
        yield sim.timeout(period)
        log.append(("tick", tick))
    return "ticked"


class TestLimit:
    """``run_until_complete(limit=...)`` rides the same loop in both
    modes: same error text, clock, leftovers and event count."""

    @staticmethod
    def _outcomes(build, limit):
        outcomes = {}
        for mode in (False, True):
            with fastpath.force(mode):
                sim = Simulator()
                log = []
                proc = build(sim, log)
                with pytest.raises(SimulationError) as caught:
                    sim.run_until_complete(proc, limit=limit)
                stopped = (str(caught.value), list(log), sim.now,
                           sim.queue_length, sim.events_processed)
                # Nothing was lost: the run can simply be resumed.
                value = sim.run_until_complete(proc)
                outcomes[mode] = (stopped, value, log, sim.now,
                                  sim.events_processed)
        assert outcomes[True] == outcomes[False]
        return outcomes[True]

    def test_limit_between_two_batches(self):
        def build(sim, log):
            for i in range(4):
                Callback(sim, _logger(log, ("a", i)), at=1.0)
            for i in range(4):
                Callback(sim, _logger(log, ("b", i)), at=3.0)
            return sim.spawn(_ticker(sim, log, 5.0, 1), name="ticker")

        (text, log, now, queued, _events), value, *_ = self._outcomes(
            build, limit=2.0)
        assert text == "'ticker' did not finish by t=2.0us"
        assert log == [("a", i) for i in range(4)]
        assert (now, queued) == (1.0, 5)
        assert value == "ticked"

    def test_limit_exceeded_mid_run(self):
        def build(sim, log):
            for step in range(1, 8):
                for i in range(3):
                    Callback(sim, _logger(log, (step, i)), at=float(step))
            return sim.spawn(_ticker(sim, log, 1.0, 6), name="ticker")

        (text, log, now, _queued, _events), value, full_log, end, _ = (
            self._outcomes(build, limit=3.5))
        assert text == "'ticker' did not finish by t=3.5us"
        assert now == 3.0
        assert log[-1] == ("tick", 2)
        assert value == "ticked" and end == 6.0
        assert full_log.count(("tick", 5)) == 1

    def test_event_exactly_at_the_limit_still_runs(self):
        for mode in (False, True):
            with fastpath.force(mode):
                sim = Simulator()
                proc = sim.spawn(_ticker(sim, [], 2.5, 2), name="ticker")
                assert sim.run_until_complete(proc, limit=5.0) == "ticked"
                assert sim.now == 5.0

    def test_limit_already_behind_the_clock(self):
        def build(sim, log):
            Callback(sim, _logger(log, "early"), at=1.0)
            proc = sim.spawn(_ticker(sim, log, 4.0, 1), name="ticker")
            sim.run(until=2.0)
            return proc

        (text, log, now, queued, _events), *_ = self._outcomes(
            build, limit=1.0)
        assert text == "'ticker' did not finish by t=1.0us"
        assert (log, now, queued) == (["early"], 2.0, 1)


# ---------------------------------------------------------------------------
# Differential walk: random schedule x random stop conditions
# ---------------------------------------------------------------------------

_GRID = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
_PRIORITY = st.sampled_from([URGENT, NORMAL])
_ITEMS = st.one_of(
    st.tuples(st.just("callback"), _GRID, _PRIORITY),
    st.tuples(st.just("timeout"), _GRID),
    # A callback that, when it fires, schedules zero-delay events.
    st.tuples(st.just("burst"), _GRID, st.lists(_PRIORITY, max_size=3)),
    # A short process: sleeps, then schedules a zero-delay event, per step.
    st.tuples(st.just("process"), st.lists(st.tuples(_GRID, _PRIORITY),
                                           max_size=4)),
    st.tuples(st.just("stuck")),
)
_DRIVES = st.one_of(
    st.tuples(st.just("run"), st.none() | _GRID),
    st.tuples(st.just("complete"), st.integers(0, 7), st.none() | _GRID),
)


def _walk(mode, items, drives):
    with fastpath.force(mode):
        sim = Simulator()
        log = []
        processes = []

        def note(tag):
            return lambda *_event: log.append((tag, sim.now))

        def body(tag, steps):
            for step, (delay, priority) in enumerate(steps):
                yield sim.timeout(delay)
                Callback(sim, note((tag, step, "zero")), priority=priority)
                log.append((tag, step, sim.now))
            return tag

        def stuck():
            yield sim.event("never")

        for tag, item in enumerate(items):
            if item[0] == "callback":
                Callback(sim, note(tag), at=item[1], priority=item[2])
            elif item[0] == "timeout":
                sim.timeout(item[1]).add_callback(note(tag))
            elif item[0] == "burst":
                def burst(tag=tag, priorities=item[2]):
                    log.append((tag, "burst", sim.now))
                    for index, priority in enumerate(priorities):
                        Callback(sim, note((tag, index)), priority=priority)
                Callback(sim, burst, at=item[1])
            elif item[0] == "process":
                processes.append(
                    sim.spawn(body(tag, item[1]), name=f"p{tag}"))
            else:
                processes.append(sim.spawn(stuck(), name=f"stuck{tag}"))

        states = []
        for drive in drives:
            if drive[0] == "run":
                until = None if drive[1] is None else sim.now + drive[1]
                outcome = sim.run(until)
            elif not processes:
                continue
            else:
                process = processes[drive[1] % len(processes)]
                limit = None if drive[2] is None else sim.now + drive[2]
                try:
                    outcome = sim.run_until_complete(process, limit)
                except (DeadlockError, SimulationError) as exc:
                    outcome = (type(exc).__name__, str(exc))
            states.append((outcome, sim.now, sim.events_processed,
                           sim.queue_length, len(log)))
        return states, log


@settings(max_examples=300, deadline=None)
@given(items=st.lists(_ITEMS, max_size=12),
       drives=st.lists(_DRIVES, min_size=1, max_size=6))
def test_random_schedules_and_stop_conditions_match_reference(items, drives):
    assert _walk(True, items, drives) == _walk(False, items, drives)
