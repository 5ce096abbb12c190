"""Tests for Resource, PriorityResource and Mutex."""

import random

import pytest

from repro.errors import SimulationError
from repro.sim import Mutex, PriorityResource, Resource, Simulator
from tests.conftest import run


def test_capacity_validation(sim):
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_mutex_serializes(sim):
    resource = Resource(sim, 1)
    log = []

    def worker(tag):
        yield from resource.use(10)
        log.append((tag, sim.now))

    for tag in ("a", "b", "c"):
        sim.spawn(worker(tag))
    sim.run()
    assert log == [("a", 10), ("b", 20), ("c", 30)]


def test_capacity_two_runs_pairs(sim):
    resource = Resource(sim, 2)
    log = []

    def worker(tag):
        yield from resource.use(10)
        log.append((tag, sim.now))

    for tag in "abcd":
        sim.spawn(worker(tag))
    sim.run()
    assert [t for _tag, t in log] == [10, 10, 20, 20]


def test_release_requires_holder(sim):
    resource = Resource(sim, 1)
    request = resource.request()
    sim.run()
    resource.release(request)
    with pytest.raises(SimulationError):
        resource.release(request)


def test_count_tracks_holders(sim):
    resource = Resource(sim, 2)
    r1 = resource.request()
    r2 = resource.request()
    sim.run()
    assert resource.count == 2
    resource.release(r1)
    assert resource.count == 1
    resource.release(r2)
    assert resource.count == 0


def test_stats_counts_waits(sim):
    resource = Resource(sim, 1)

    def worker():
        yield from resource.use(5)

    sim.spawn(worker())
    sim.spawn(worker())
    sim.run()
    assert resource.stats["grants"] == 2
    assert resource.stats["waits"] == 1


def test_priority_resource_orders_waiters(sim):
    resource = PriorityResource(sim, 1)
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
    resource = PriorityResource(sim, 1)
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
    resource = Resource(sim, 1)

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


def _lock_trace(make, holds):
    """Workers that take a capacity-one lock for ``holds`` us each, in
    spawn order, with random arrival gaps: (worker, granted, released)
    per hold, the lock's stats and the simulator's final sequence."""
    sim = Simulator()
    lock = make(sim)
    log = []

    def worker(index, gap, hold):
        yield sim.timeout(gap)
        request = lock.request()
        yield request
        granted = sim.now
        yield sim.timeout(hold)
        lock.release(request)
        log.append((index, granted, sim.now))

    for index, (gap, hold) in enumerate(holds):
        sim.spawn(worker(index, gap, hold))
    sim.run()
    return log, lock.stats, sim._sequence


@pytest.mark.parametrize("seed", range(5))
def test_mutex_grants_as_a_capacity_one_resource(seed):
    """Same grants, instants, counters and queue entries as
    ``Resource(sim, 1)``, with a holder slot instead of a set."""
    rng = random.Random(seed)
    holds = [(rng.choice((0.0, 1.0, 2.5)), rng.choice((0.0, 1.0, 3.0)))
             for _ in range(12)]
    assert (_lock_trace(Mutex, holds)
            == _lock_trace(lambda sim: Resource(sim, 1), holds))


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
