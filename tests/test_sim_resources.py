"""Tests for Mutex, the one simulation lock."""

import random

import pytest

from repro import fastpath
from repro.errors import SimulationError
from repro.sim import Mutex, Simulator
from repro.sim.events import Event, URGENT
from tests.conftest import run


def test_mutex_serializes(sim):
    resource = Mutex(sim)
    log = []

    def worker(tag):
        yield from resource.use(10)
        log.append((tag, sim.now))

    for tag in ("a", "b", "c"):
        sim.spawn(worker(tag))
    sim.run()
    assert log == [("a", 10), ("b", 20), ("c", 30)]


def test_release_requires_holder(sim):
    resource = Mutex(sim)
    request = resource.request()
    sim.run()
    assert resource.count == 1
    resource.release(request)
    assert resource.count == 0
    with pytest.raises(SimulationError):
        resource.release(request)


def test_stats_counts_waits(sim):
    resource = Mutex(sim)

    def worker():
        yield from resource.use(5)

    sim.spawn(worker())
    sim.spawn(worker())
    sim.run()
    assert resource.stats["grants"] == 2
    assert resource.stats["waits"] == 1


def test_priority_resource_orders_waiters(sim):
    resource = Mutex(sim)
    log = []

    def worker(tag, priority):
        yield from resource.use(10, priority)
        log.append(tag)

    def submit():
        # Occupy first, then queue three waiters with priorities.
        req = resource.request(0)
        yield req
        sim.spawn(worker("low", 5))
        sim.spawn(worker("high", 0))
        sim.spawn(worker("mid", 2))
        yield sim.timeout(1)
        resource.release(req)

    run(sim, submit())
    sim.run()
    assert log == ["high", "mid", "low"]


def test_priority_fifo_within_level(sim):
    resource = Mutex(sim)
    log = []

    def worker(tag):
        yield from resource.use(1, priority=3)
        log.append(tag)

    def submit():
        req = resource.request(0)
        yield req
        for tag in ("first", "second", "third"):
            sim.spawn(worker(tag))
        yield sim.timeout(1)
        resource.release(req)

    run(sim, submit())
    sim.run()
    assert log == ["first", "second", "third"]


def test_use_releases_on_exception(sim):
    resource = Mutex(sim)

    def bad():
        request = resource.request()
        yield request
        try:
            raise RuntimeError("while holding")
        finally:
            resource.release(request)

    def watcher():
        process = sim.spawn(bad())
        with pytest.raises(RuntimeError):
            yield process
        # The resource is free again.
        yield from resource.use(1)
        return "acquired"

    assert run(sim, watcher()) == "acquired"


class QueueModel:
    """The lock as specified: one holder; waiters in a list kept sorted
    by ``(priority, arrival)``; a free lock is granted at once, inline
    under the fast scheduler's ``use`` and by an urgent grant event
    otherwise."""

    def __init__(self, sim):
        self.sim = sim
        self.holder = None
        self.queue = []
        self.grants = self.waits = 0

    @property
    def stats(self):
        return {"grants": self.grants, "waits": self.waits}

    def request(self, priority=0):
        event = Event(self.sim)
        if self.holder is None:
            self._grant(event)
        else:
            self.waits += 1
            self.queue.append((priority, self.waits, event))
            self.queue.sort(key=lambda entry: entry[:2])
        return event

    def release(self, event):
        assert event is self.holder
        self.holder = None
        if self.queue:
            self._grant(self.queue.pop(0)[2])

    def _grant(self, event):
        self.holder = event
        self.grants += 1
        event.succeed(None, URGENT)

    def use(self, duration, priority=0):
        if self.sim._fast and self.holder is None:
            self.holder = token = object()
            self.grants += 1
        else:
            token = self.request(priority)
            yield token
        try:
            yield self.sim.timeout(duration)
        finally:
            self.release(token)


def _lock_trace(make, workers):
    """Run ``workers`` — (gap, hold, priority, via_use) each — against
    the lock ``make(sim)`` builds: (worker, granted, released) per hold
    in release order, the lock's stats and the simulator's sequence."""
    sim = Simulator()
    lock = make(sim)
    log = []

    def worker(index, gap, hold, priority, via_use):
        yield sim.timeout(gap)
        if via_use:
            # ``use`` ends ``hold`` after its grant.
            yield from lock.use(hold, priority)
            log.append((index, sim.now - hold, sim.now))
        else:
            request = lock.request(priority)
            yield request
            granted = sim.now
            yield sim.timeout(hold)
            lock.release(request)
            log.append((index, granted, sim.now))

    for index, spec in enumerate(workers):
        sim.spawn(worker(index, *spec))
    sim.run()
    return log, lock.stats, sim._sequence


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "reference"])
@pytest.mark.parametrize("seed", range(5))
def test_mutex_grants_in_priority_arrival_order(seed, fast):
    """Random arrival gaps, hold times and priorities 0-3: the same
    grants, instants, counters and queue entries as the model."""
    rng = random.Random(seed)
    workers = [(rng.choice((0.0, 0.5, 1.0, 2.5)), rng.choice((0.0, 1.0, 3.0)),
                rng.randrange(4), rng.random() < 0.5)
               for _ in range(16)]
    with fastpath.force(fast):
        got = _lock_trace(Mutex, workers)
        want = _lock_trace(QueueModel, workers)
    assert got == want
    log, stats, _sequence = got
    assert stats["grants"] == len(workers) and stats["waits"] > 0
    holds = sorted(log, key=lambda entry: (entry[1], entry[2]))
    assert all(later[1] >= earlier[2]
               for earlier, later in zip(holds, holds[1:]))


def test_mutex_release_requires_holder_and_names_lazily(sim):
    class Owner:
        name = "chan[0->1]"

    lock = Mutex(sim, name="sendlock", owner=Owner())
    held = lock.request()
    waiting = lock.request()
    with pytest.raises(SimulationError, match="chan\\[0->1\\]:sendlock"):
        lock.release(waiting)
    lock.release(held)
    assert lock.stats == {"grants": 2, "waits": 1}
