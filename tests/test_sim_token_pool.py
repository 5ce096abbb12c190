"""``TokenPool`` against its definition: a ``Store`` holding that many ones.

A Hypothesis state walk drives the same random ``put`` / ``get`` /
``try_get`` / ``try_put`` / ``add`` / run-the-clock sequence through
both and demands the same return values, the same events firing in the
same order with the same values at the same simulated instants, and
the same ``stats`` — which is what lets ``hw/nic.py`` swap one for the
other without moving a single simulated timestamp.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim import Simulator, Store, TokenPool


class _StoreOfOnes:
    """The parent's ``rx_credits``: a bounded Store pre-filled with 1s."""

    def __init__(self, sim, capacity, level):
        self.store = Store(sim, capacity=capacity, name="ring")
        self.store.items = [1] * level

    put = property(lambda self: self.store.put)
    get = property(lambda self: self.store.get)
    try_get = property(lambda self: self.store.try_get)
    try_put = property(lambda self: self.store.try_put)
    stats = property(lambda self: self.store.stats)
    level = property(lambda self: len(self.store.items))

    def __len__(self):
        return len(self.store)

    def add(self, count=1):
        # What GigEPort.post_rx_descriptors did, made all-or-nothing.
        if count < 0 or len(self.store.items) + count > self.store.capacity:
            raise SimulationError("over-posted")
        self.store.items.extend([1] * count)
        self.store._dispatch()


def _walk(make, capacity, level, ops):
    sim = Simulator()
    ring = make(sim, capacity, level)
    log = []

    def watch(index, event):
        event.callbacks.append(
            lambda ev: log.append(("fired", index, ev._value, sim.now)))

    for index, (op, arg) in enumerate(ops):
        try:
            if op == "put":
                watch(index, ring.put(1))
            elif op == "get":
                watch(index, ring.get())
            elif op == "try_get":
                log.append(("try_get", index, ring.try_get()))
            elif op == "try_put":
                log.append(("try_put", index, ring.try_put(1)))
            elif op == "add":
                ring.add(arg)
            elif op == "run":
                sim.run(until=sim.now + arg)
        except SimulationError:
            log.append(("raised", index))
        log.append(("level", ring.level, len(ring)))
    sim.run(until=sim.now + 1.0)
    return log, dict(ring.stats), ring.level, sim.events_processed


_OPS = st.one_of(
    st.tuples(st.sampled_from(["put", "get", "try_get", "try_put"]),
              st.none()),
    st.tuples(st.just("add"), st.integers(0, 5)),
    st.tuples(st.just("run"), st.sampled_from([0.0, 0.5, 2.0])),
)


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(1, 6), fill=st.floats(0.0, 1.0),
       ops=st.lists(_OPS, max_size=40))
def test_pool_is_indistinguishable_from_a_store_of_ones(capacity, fill, ops):
    level = round(fill * capacity)
    pool = _walk(lambda sim, c, n: TokenPool(sim, c, level=n, name="ring"),
                 capacity, level, ops)
    store = _walk(_StoreOfOnes, capacity, level, ops)
    assert pool == store


def test_get_blocks_on_empty_and_add_wakes_in_fifo_order():
    sim = Simulator()
    pool = TokenPool(sim, 4)
    woken = []
    for name in "abc":
        pool.get().callbacks.append(lambda ev, name=name: woken.append(name))
    sim.run(until=1.0)
    assert woken == [] and pool.level == 0
    pool.add(2)
    sim.run(until=2.0)
    assert woken == ["a", "b"] and pool.level == 0
    assert pool.stats == {"puts": 0, "gets": 2, "max_level": 0}
    with pytest.raises(SimulationError):
        pool.try_get()  # would jump the queue past "c"


def test_add_is_all_or_nothing():
    sim = Simulator()
    pool = TokenPool(sim, 8, level=6)
    with pytest.raises(SimulationError):
        pool.add(3)
    assert pool.level == len(pool) == 6
    pool.add(2)
    assert pool.level == 8
    with pytest.raises(SimulationError):
        pool.add(-1)


@pytest.mark.parametrize("capacity,level", [(0, 0), (4, 5), (4, -1)])
def test_bad_pools_are_rejected(capacity, level):
    with pytest.raises(SimulationError):
        TokenPool(Simulator(), capacity, level=level)
