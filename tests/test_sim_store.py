"""Tests for Store and FilterStore."""

import pytest

from repro.errors import SimulationError
from repro.sim import FilterStore, Store
from tests.conftest import run


def test_capacity_validation(sim):
    with pytest.raises(SimulationError):
        Store(sim, capacity=0)


def test_put_get_roundtrip(sim):
    store = Store(sim)

    def proc():
        yield store.put("item")
        value = yield store.get()
        return value

    assert run(sim, proc()) == "item"


def test_get_blocks_until_put(sim):
    store = Store(sim)
    log = []

    def consumer():
        value = yield store.get()
        log.append((value, sim.now))

    def producer():
        yield sim.timeout(5)
        yield store.put("late")

    sim.spawn(consumer())
    sim.spawn(producer())
    sim.run()
    assert log == [("late", 5)]


def test_put_blocks_at_capacity(sim):
    store = Store(sim, capacity=1)
    log = []

    def producer():
        yield store.put(1)
        log.append(("put1", sim.now))
        yield store.put(2)
        log.append(("put2", sim.now))

    def consumer():
        yield sim.timeout(10)
        yield store.get()

    sim.spawn(producer())
    sim.spawn(consumer())
    sim.run()
    assert log == [("put1", 0), ("put2", 10)]


def test_fifo_ordering(sim):
    store = Store(sim)

    def proc():
        for index in range(5):
            yield store.put(index)
        out = []
        for _ in range(5):
            out.append((yield store.get()))
        return out

    assert run(sim, proc()) == [0, 1, 2, 3, 4]


def test_try_get(sim):
    store = Store(sim)
    assert store.try_get() is None
    store.push("x")
    assert store.try_get() == "x"


def test_push_is_an_uncounted_deposit_that_serves_a_waiting_getter(sim):
    store = Store(sim, capacity=1)
    got = []

    def consumer():
        for _ in range(3):
            got.append((yield store.get()))

    sim.spawn(consumer())
    sim.run()
    for item in "abc":
        store.push(item)            # past the capacity of 1, too
    assert len(store) == 2          # "a" went straight to the getter
    sim.run()
    assert got == ["a", "b", "c"]
    assert store.stats == {"puts": 0, "gets": 3, "max_level": 0}


def test_an_untouched_store_holds_no_deque(sim):
    """``items``, ``_putters`` and ``_getters`` are empty tuples until
    used (an empty deque is 760 bytes, and most stores stay empty)."""
    for store in (Store(sim), Store(sim, capacity=4), FilterStore(sim)):
        assert store.items == store._putters == store._getters == ()
        assert len(store) == 0 and store.level == 0 and not store.items
        assert list(store.items) == [] and store.try_get() is None
        assert store.items == ()            # looking allocates nothing
        assert store.try_put("x") and list(store.items) == ["x"]
        assert store.try_get() == "x"
        store.push("y")
        assert len(store) == 1 and store._putters == store._getters == ()


def test_try_get_with_waiters_rejected(sim):
    store = Store(sim)
    store.get()  # a queued getter
    with pytest.raises(SimulationError):
        store.try_get()


def test_level_and_stats(sim):
    store = Store(sim)

    def proc():
        yield store.put("a")
        yield store.put("b")
        yield store.get()
        return store.level

    assert run(sim, proc()) == 1
    assert store.stats["puts"] == 2
    assert store.stats["gets"] == 1
    assert store.stats["max_level"] == 2


def test_filter_store_selects_matching(sim):
    store = FilterStore(sim)

    def proc():
        yield store.put(("b", 2))
        yield store.put(("a", 1))
        value = yield store.get(lambda item: item[0] == "a")
        return value

    assert run(sim, proc()) == ("a", 1)


def test_filter_store_blocked_getter_does_not_stall_others(sim):
    store = FilterStore(sim)
    log = []

    def picky():
        value = yield store.get(lambda item: item == "rare")
        log.append(("picky", value, sim.now))

    def easy():
        value = yield store.get()
        log.append(("easy", value, sim.now))

    def producer():
        yield sim.timeout(1)
        yield store.put("common")
        yield sim.timeout(1)
        yield store.put("rare")

    sim.spawn(picky())
    sim.spawn(easy())
    sim.spawn(producer())
    sim.run()
    assert ("easy", "common", 1) in log
    assert ("picky", "rare", 2) in log


def test_filter_store_plain_get_is_fifo(sim):
    store = FilterStore(sim)

    def proc():
        yield store.put(1)
        yield store.put(2)
        first = yield store.get()
        second = yield store.get()
        return (first, second)

    assert run(sim, proc()) == (1, 2)
