"""What one queue entry costs the host, counted in Python calls.

``sys.setprofile`` reports every Python-level call (``call`` events; C
functions are ``c_call`` and not counted), so the budgets below are
exact counts, not timings: an entry is born queued in one call beyond
its factory and run in one call beyond what it wakes.  Both budgets are
upper bounds — an interpreter that inlines more may read lower.

The second half holds the derivation the kernel relies on since the
``_processed`` slot went (``processed`` *is* ``callbacks is None``) and
the two errors ``Process._resume`` still owes a bad ``yield``.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

from hypothesis import given, settings, strategies as st

from repro import fastpath
from repro.errors import SimulationError
from repro.hw.pci import BandwidthBus
from repro.sim import Simulator
from repro.sim.events import Event


class _Calls:
    """Python-level calls made inside a :func:`python_calls` block."""

    total = 0


@contextmanager
def python_calls():
    """Count ``call`` events of ``sys.setprofile`` (generator resumes
    included, C calls not) until the block ends."""
    calls = _Calls()

    def hook(_frame, event, _arg):
        if event == "call":
            calls.total += 1

    sys.setprofile(hook)
    try:
        yield calls
    finally:
        sys.setprofile(None)
    # The hook saw the context manager's ``__exit__`` begin and this
    # generator resume.
    calls.total -= 2


@contextmanager
def constructed():
    """Type names of the :class:`Event` instances built inside the
    block, in order: one per object however its constructors chain (a
    subclass ``__init__`` that calls up is the same object again, a hot
    one that fills its own slots never reaches ``Event.__init__``)."""
    built = []

    def hook(frame, event, _arg):
        if event != "call" or frame.f_code.co_name != "__init__":
            return
        this = frame.f_locals.get("self")
        if not isinstance(this, Event):
            return
        caller = frame.f_back
        if (caller.f_code.co_name == "__init__"
                and caller.f_locals.get("self") is this):
            return
        built.append(type(this).__name__)

    sys.setprofile(hook)
    try:
        yield built
    finally:
        sys.setprofile(None)


TICKERS, TICKS = 8, 1000


def timeout_calls_per_entry() -> float:
    """Eight processes, a thousand ``yield sim.timeout(step)`` each."""
    with fastpath.force(True):
        sim = Simulator()

        def ticker(step: float):
            for _ in range(TICKS):
                yield sim.timeout(step)

        for index in range(TICKERS):
            sim.spawn(ticker(1.0 + index / TICKERS))
        with python_calls() as calls:
            sim.run()
    assert sim.events_processed == TICKERS * (TICKS + 1)
    return calls.total / sim.events_processed


def test_a_timeout_costs_five_calls():
    # Born: ``sim.timeout`` -> ``Timeout.__init__``, which fills its
    # slots, takes its sequence number and pushes itself (2; the parent
    # went on through ``Event.__init__`` and ``schedule``: 4).  Run:
    # ``Event._process`` -> ``Process._resume`` -> the generator (3).
    # The eight start-up entries cost the same five, each ticker's last
    # timeout only the three, ``run`` and ``_drive`` once: 4.998.
    assert timeout_calls_per_entry() <= 5.0


TRANSFERS = 1000


def transfer_calls_per_transfer() -> float:
    """One process, a thousand back-to-back fused bus transfers."""
    with fastpath.force(True):
        sim = Simulator()
        bus = BandwidthBus(sim, rate=2100.0, setup=0.02)

        def stream():
            for _ in range(TRANSFERS):
                yield bus.transfer_event(1500.0, rate_cap=1064.0)

        sim.spawn(stream())
        with python_calls() as calls:
            sim.run()
    assert bus.stats["transfers"] == TRANSFERS and not bus._entered
    return calls.total / TRANSFERS


def test_a_fused_transfer_costs_twelve_calls():
    # Born: ``transfer_event`` -> ``_Flow.__init__`` (checks, entry
    # accounting, slots, heap push: 2; the parent: ``_enter``,
    # ``_Flow.__init__``, ``Event.__init__``, ``schedule``: 5).  Join:
    # ``_Flow._process`` -> ``_settle``, ``_reallocate`` ->
    # ``_arm_wake``, which pushes the wake (4; the parent: ``_join`` and
    # ``schedule_at`` as well: 6).  Completion: ``_Wake._process`` ->
    # ``_settle`` -> ``_transfer_done``, ``Process._resume`` -> the
    # generator (5; the parent: ``_on_wake_fast`` and a ``_reallocate``
    # of no flows as well: 7).  11 per transfer, 18 at the parent; the
    # twelfth is headroom for one frame, not for a second record.
    assert transfer_calls_per_transfer() <= 12.0


# -- processed is derived ---------------------------------------------------

STEPS = st.lists(
    st.sampled_from(["succeed", "fail", "return", "crash", "transfer",
                     "wait", "step", "step", "step"]),
    min_size=1, max_size=24)


@given(STEPS, st.booleans())
@settings(max_examples=60, deadline=None)
def test_processed_is_callbacks_is_none(steps, fast):
    """After every step of a walk over the ways an event ends — queued
    success, queued failure, a process returning (in place when nobody
    waits, queued when somebody does) or raising, a bus flow completed
    inline by the wake that settles it — ``processed`` says exactly
    that the callback list is gone."""
    with fastpath.force(fast):
        sim = Simulator()
        bus = BandwidthBus(sim, rate=2100.0, setup=0.02)
        events = []

        def body(fail: bool):
            yield sim.timeout(0.5)
            if fail:
                raise KeyError("walked")
            return 7

        def waiter(target):
            try:
                yield target
            except (KeyError, ValueError):
                pass

        def check():
            for event in events:
                assert event.processed is (event.callbacks is None)
                if event.processed:
                    assert event.triggered

        for step in steps:
            if step == "succeed":
                events.append(sim.event().succeed(1))
            elif step == "fail":
                failed = sim.event()
                events.append(sim.spawn(waiter(failed)))
                events.append(failed.fail(ValueError("walked")))
            elif step == "return":
                events.append(sim.spawn(body(False)))
            elif step == "crash":
                crashing = sim.spawn(body(True))
                events += [crashing, sim.spawn(waiter(crashing))]
            elif step == "transfer":
                events.append(bus.transfer_event(1500.0, rate_cap=1064.0))
            elif step == "wait" and events:
                events.append(sim.spawn(waiter(events[-1])))
            elif sim.queue_length:
                sim.step()
            check()
        sim.run()
        check()
        assert all(event.processed for event in events)


# -- what _resume owes a bad yield -----------------------------------------

def _yields(value):
    yield value


def test_resume_rejects_a_non_event():
    sim = Simulator()
    process = sim.spawn(_yields(42), name="bad")
    sim.run()
    assert not process.is_alive and not process.ok
    assert isinstance(process.value, SimulationError)
    assert str(process.value) == "bad yielded non-event 42"


def test_resume_rejects_a_resource_as_a_non_event():
    # Has ``sim`` but is no event: the same error, not a duck-typed wait.
    sim = Simulator()
    process = sim.spawn(_yields(BandwidthBus(sim, rate=1.0)), name="bad")
    sim.run()
    assert str(process.value).startswith("bad yielded non-event <")


def test_resume_rejects_another_simulators_event():
    sim, other = Simulator(), Simulator()
    process = sim.spawn(_yields(other.timeout(1.0)), name="bad")
    sim.run()
    assert not process.is_alive and not process.ok
    assert isinstance(process.value, SimulationError)
    assert str(process.value) == "bad yielded event from another simulator"
