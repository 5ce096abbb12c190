"""The simulation lock.

Used to model hardware one user holds at a time: a node's CPU, which
runs one handler at a time in priority order, a Myrinet port, a
channel's send lock.  Semantics follow the usual simulation-resource
contract: ``request()`` returns an event that fires when the lock is
granted; ``release()`` hands it to the waiter first in
``(priority, arrival)`` order, which is FIFO for callers that never
pass a priority.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING

from repro.errors import SimulationError
from repro.sim.events import Event, URGENT, _PENDING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator


class Request(Event):
    """Grant event returned by :meth:`Mutex.request`.

    Usable as a context token: pass it back to ``release``.  It fires
    with ``None``: a request valued by itself would be a reference
    cycle, and every CPU hold would wait for the cyclic collector.
    ``priority`` (lower is served first) and ``order`` (the lock's
    count of waits when this one queued; 0 if it never waited) rank
    it among the waiters.
    """

    __slots__ = ("resource", "priority", "order")

    def __init__(self, resource: "Mutex", priority: int = 0,
                 order: int = 0) -> None:
        self.sim = sim = resource.sim
        self.name = (f"request:{resource.name}" if sim.trace is not None
                     else "")
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self.resource = resource
        self.priority = priority
        self.order = order

    def __lt__(self, other: "Request") -> bool:
        return (self.priority, self.order) < (other.priority, other.order)


class Mutex:
    """A lock with one holder slot and a heap of waiters.

    The heap is made by the first waiter.  Like a
    :class:`~repro.sim.store.Store`, it builds ``name`` from
    ``owner.name`` only when something reads it.
    """

    __slots__ = ("sim", "_name", "_owner", "_holder", "_waiters", "grants",
                 "waits")

    def __init__(self, sim: "Simulator", name: str = "mutex",
                 owner=None) -> None:
        self.sim = sim
        self._name = name
        self._owner = owner
        # Invariant: a waiter exists only while a holder does, so a free
        # lock is one ``_holder is None`` test.
        self._holder = None
        self._waiters = ()
        self.grants = self.waits = 0

    @property
    def name(self) -> str:
        owner = self._owner
        return self._name if owner is None else f"{owner.name}:{self._name}"

    @property
    def stats(self) -> dict:
        """The counters as a new dict: ``grants``, ``waits``."""
        return {"grants": self.grants, "waits": self.waits}

    @property
    def count(self) -> int:
        """Number of current holders (0 or 1)."""
        return 0 if self._holder is None else 1

    def request(self, priority: int = 0) -> Request:
        """Ask for the lock; the returned event fires when granted."""
        if self._holder is None:
            req = Request(self, priority)
            self._grant(req)
            return req
        self.waits = order = self.waits + 1
        req = Request(self, priority, order)
        if self._waiters:
            heappush(self._waiters, req)
        else:
            self._waiters = [req]
        return req

    def release(self, request: Request) -> None:
        """Return the lock; grants it to the first waiter if any."""
        if request is not self._holder:
            raise SimulationError(
                f"release of {request!r} that does not hold {self.name!r}"
            )
        self._holder = None
        if self._waiters:
            self._grant(heappop(self._waiters))

    def try_acquire(self, priority: int = 0) -> "Request | None":
        """Synchronous grant when the lock is free, else None.

        ``request()`` grants a free lock synchronously too; its grant
        event exists only to wake the requester at the same instant.  A
        caller that proceeds inline instead observes and produces
        identical timestamps.
        """
        if self._holder is not None:
            return None
        self._holder = req = Request(self, priority)
        self.grants += 1
        req._ok = True
        req._value = None
        return req

    def _grant(self, req: Request) -> None:
        self._holder = req
        self.grants += 1
        req.succeed(None, URGENT)

    def use(self, duration: float, priority: int = 0):
        """Process helper: hold the lock for ``duration`` us at
        ``priority``.

        Usage: ``yield from port.use(t)``.
        """
        req = self.try_acquire(priority) if self.sim._fast else None
        if req is None:
            req = self.request(priority)
            yield req
        try:
            yield self.sim.timeout(duration)
        finally:
            self.release(req)
