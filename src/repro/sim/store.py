"""Buffered item stores (bounded queues) for producer/consumer models.

Descriptor rings, socket buffers and switch queues are all Stores: a
``put`` blocks when the store is full (back-pressure) and a ``get``
blocks when it is empty.
"""

from __future__ import annotations

from collections import deque
from typing import Any, TYPE_CHECKING

from repro.errors import SimulationError
from repro.sim.events import Event, URGENT, _PENDING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator


class StorePut(Event):
    """Event returned by :meth:`Store.put`; fires when the item is in."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        self.sim = sim = store.sim
        self.name = f"put:{store.name}" if sim.trace is not None else ""
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self.item = item


class StoreGet(Event):
    """Event returned by :meth:`Store.get`; fires with the item."""

    __slots__ = ()

    def __init__(self, store: "Store") -> None:
        self.sim = sim = store.sim
        self.name = f"get:{store.name}" if sim.trace is not None else ""
        self.callbacks = []
        self._value = _PENDING
        self._ok = None


#: ``items`` of a store nothing has been put into yet and its
#: ``_putters``/``_getters`` while nobody has blocked on it: most stores
#: stay empty and never see a waiter, and an empty deque costs 760
#: bytes.  Length, truth and iteration read like an empty deque's.
_EMPTY = ()


class Store:
    """FIFO store with finite or infinite capacity."""

    __slots__ = ("sim", "capacity", "name", "items", "_putters", "_getters",
                 "stats")

    def __init__(self, sim: "Simulator", capacity: float = float("inf"),
                 name: str = "store") -> None:
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.items = self._putters = self._getters = _EMPTY
        self.stats = {"puts": 0, "gets": 0, "max_level": 0}

    def __len__(self) -> int:
        return len(self.items)

    @property
    def level(self) -> int:
        """Number of items currently stored."""
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Insert ``item``; the event fires once there is room."""
        put_event = StorePut(self, item)
        if self._putters is _EMPTY:
            self._putters = deque()
        self._putters.append(put_event)
        self._dispatch()
        return put_event

    def get(self) -> StoreGet:
        """Remove the oldest item; the event fires with the item."""
        get_event = StoreGet(self)
        if self._getters is _EMPTY:
            self._getters = deque()
        self._getters.append(get_event)
        self._dispatch()
        return get_event

    def push(self, item: Any) -> None:
        """Deposit ``item`` as the store's owner, not as a producer:
        no capacity check, no ``puts`` count, never blocks (a
        completion the device hands up, a frame the kernel backlogs);
        a waiting getter is served at once."""
        if self.items is _EMPTY:
            self.items = deque()
        self.items.append(item)
        self._dispatch()

    def try_get(self) -> Any:
        """Non-blocking get: the item, or None if empty.

        Only safe when no getters are queued (otherwise it would jump
        the line); raises in that case.
        """
        if self._getters:
            raise SimulationError(f"try_get on {self.name!r} with waiters")
        if not self.items:
            return None
        item = self.items.popleft()
        self.stats["gets"] += 1
        self._dispatch()
        return item

    def try_put(self, item: Any) -> bool:
        """Non-blocking put: False when full (or putters are queued,
        which a sync insert would overtake).

        The synchronous fast path for sole-producer loops: the seed
        path's put event only exists to wake the producer again at the
        same instant, so skipping it does not move any timestamp.
        """
        if self._putters or len(self.items) >= self.capacity:
            return False
        self._insert(item)
        self._dispatch()
        return True

    # -- internals ----------------------------------------------------------
    def _insert(self, item: Any) -> None:
        """A counted put, room already checked."""
        items = self.items
        if items is _EMPTY:
            items = self.items = deque()
        items.append(item)
        stats = self.stats
        stats["puts"] += 1
        if len(items) > stats["max_level"]:
            stats["max_level"] = len(items)

    def _do_put(self, event: StorePut) -> bool:
        if len(self.items) < self.capacity:
            self._insert(event.item)
            event.succeed(None, URGENT)
            return True
        return False

    def _do_get(self, event: StoreGet) -> bool:
        if self.items:
            self.stats["gets"] += 1
            event.succeed(self.items.popleft(), URGENT)
            return True
        return False

    def _dispatch(self) -> None:
        if not self._putters and not self._getters:
            return
        progress = True
        while progress:
            progress = False
            while self._putters:
                if self._do_put(self._putters[0]):
                    self._putters.popleft()
                    progress = True
                else:
                    break
            while self._getters:
                if self._do_get(self._getters[0]):
                    self._getters.popleft()
                    progress = True
                else:
                    break


class TokenPool(Store):
    """A bounded :class:`Store` of indistinguishable tokens, as a count.

    A descriptor ring's free slots carry nothing but their number, so
    ``level`` stands where a ``Store`` keeps a deque of that many ones:
    same events in the same order, same values (a ``get`` yields 1),
    same ``stats``.  ``level`` is a plain attribute, so the per-frame
    "ring empty?" test is one slot read.
    """

    __slots__ = ("level",)

    def __init__(self, sim: "Simulator", capacity: int, level: int = 0,
                 name: str = "tokens") -> None:
        super().__init__(sim, capacity, name)
        if not 0 <= level <= capacity:
            raise SimulationError(f"{level} tokens in a pool of {capacity}")
        self.items = None  # the count stands in for the deque
        self.level = level

    def __len__(self) -> int:
        return self.level

    def add(self, count: int = 1) -> None:
        """Refill ``count`` tokens at once, all or nothing: never
        blocks, leaves ``stats`` alone (the ring owner re-posting, not
        a producer), raises rather than exceed ``capacity``."""
        if count < 0 or self.level + count > self.capacity:
            raise SimulationError(
                f"{self.name!r}: {self.level} + {count} tokens exceed "
                f"{self.capacity}")
        self.level += count
        if self._getters:
            self._dispatch()

    def try_get(self) -> Any:
        if self._getters:
            raise SimulationError(f"try_get on {self.name!r} with waiters")
        if not self.level:
            return None
        self.level -= 1
        self.stats["gets"] += 1
        if self._putters:
            self._dispatch()
        return 1

    def try_put(self, item: Any = 1) -> bool:
        if self._putters or not self._put_one():
            return False
        self._dispatch()
        return True

    # -- internals ----------------------------------------------------------
    def _put_one(self) -> bool:
        if self.level >= self.capacity:
            return False
        self.level += 1
        self.stats["puts"] += 1
        if self.level > self.stats["max_level"]:
            self.stats["max_level"] = self.level
        return True

    def _do_put(self, event: StorePut) -> bool:
        if self._put_one():
            event.succeed(None, URGENT)
            return True
        return False

    def _do_get(self, event: StoreGet) -> bool:
        if self.level:
            self.level -= 1
            self.stats["gets"] += 1
            event.succeed(1, URGENT)
            return True
        return False

