"""Shared-resource primitives (mutexes, counted resources).

Used to model contended hardware: the PCI-X bus, a NIC's DMA engine, a
CPU that can run one interrupt handler at a time.  Semantics follow the
usual simulation-resource contract: ``request()`` returns an event that
fires when the resource is granted; ``release()`` hands it to the next
waiter in FIFO (or priority) order.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

from repro.errors import SimulationError
from repro.sim.events import Event, URGENT, _PENDING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.core import Simulator


class Request(Event):
    """Grant event returned by :meth:`Resource.request`.

    Usable as a context token: pass it back to ``release``.
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        self.sim = sim = resource.sim
        self.name = (f"request:{resource.name}" if sim.trace is not None
                     else "")
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self.resource = resource


class Resource:
    """A counted resource with FIFO waiters.

    Parameters
    ----------
    sim: owning simulator.
    capacity: number of concurrent holders (1 == mutex).
    """

    __slots__ = ("sim", "capacity", "name", "_holders", "_waiters", "stats")

    def __init__(self, sim: "Simulator", capacity: int = 1,
                 name: str = "resource") -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._holders: set = set()
        self._waiters: list = []
        #: Cumulative statistics for utilization analysis.
        self.stats = {"grants": 0, "waits": 0}

    @property
    def count(self) -> int:
        """Number of current holders."""
        return len(self._holders)

    def request(self) -> Request:
        """Ask for the resource; the returned event fires when granted."""
        req = Request(self)
        if len(self._holders) < self.capacity and not self._waiters:
            self._grant(req)
        else:
            self.stats["waits"] += 1
            self._waiters.append(req)
        return req

    def release(self, request: Request) -> None:
        """Return the resource; wakes the next waiter if any."""
        if request not in self._holders:
            raise SimulationError(
                f"release of {request!r} that does not hold {self.name!r}"
            )
        self._holders.discard(request)
        self._dispatch()

    def try_acquire(self) -> "Request | None":
        """Synchronous grant when the resource is free, else None.

        The seed path grants synchronously too (``request()`` adds the
        holder immediately); its grant event exists only to wake the
        requester at the same instant.  A caller that proceeds inline
        instead observes and produces identical timestamps.
        """
        if self._waiters or len(self._holders) >= self.capacity:
            return None
        req = Request(self)
        self._holders.add(req)
        self.stats["grants"] += 1
        req._ok = True
        req._value = req
        return req

    def _grant(self, req: Request) -> None:
        self._holders.add(req)
        self.stats["grants"] += 1
        req.succeed(req, URGENT)

    def _dispatch(self) -> None:
        while self._waiters and len(self._holders) < self.capacity:
            self._grant(self._waiters.pop(0))

    def use(self, duration: float):
        """Process helper: hold the resource for ``duration`` us.

        Usage: ``yield from bus.use(t)``.
        """
        req = self.try_acquire() if self.sim._fast else None
        if req is None:
            req = self.request()
            yield req
        try:
            yield self.sim.timeout(duration)
        finally:
            self.release(req)


class PriorityRequest(Request):
    """Request carrying a priority (lower value served first)."""

    __slots__ = ("priority", "_order")

    def __init__(self, resource: "PriorityResource", priority: int,
                 order: int) -> None:
        self.sim = sim = resource.sim
        self.name = (f"request:{resource.name}" if sim.trace is not None
                     else "")
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self.resource = resource
        self.priority = priority
        self._order = order

    def __lt__(self, other: "PriorityRequest") -> bool:
        return (self.priority, self._order) < (other.priority, other._order)


class PriorityResource(Resource):
    """Resource whose waiters are served in (priority, FIFO) order.

    Models e.g. a NIC transmit path where control packets (flow-control
    token updates) preempt queued bulk data.
    """

    __slots__ = ("_order",)

    def __init__(self, sim: "Simulator", capacity: int = 1,
                 name: str = "priority-resource") -> None:
        super().__init__(sim, capacity=capacity, name=name)
        self._order = 0

    def request(self, priority: int = 0) -> PriorityRequest:  # type: ignore[override]
        self._order += 1
        req = PriorityRequest(self, priority, self._order)
        if len(self._holders) < self.capacity and not self._waiters:
            self._grant(req)
        else:
            self.stats["waits"] += 1
            heapq.heappush(self._waiters, req)
        return req

    def try_acquire(self, priority: int = 0) -> "PriorityRequest | None":  # type: ignore[override]
        """Synchronous grant when free, else None (see Resource)."""
        if self._waiters or len(self._holders) >= self.capacity:
            return None
        self._order += 1
        req = PriorityRequest(self, priority, self._order)
        self._holders.add(req)
        self.stats["grants"] += 1
        req._ok = True
        req._value = req
        return req

    def _dispatch(self) -> None:
        while self._waiters and len(self._holders) < self.capacity:
            self._grant(heapq.heappop(self._waiters))

    def use(self, duration: float, priority: int = 0):
        """Hold the resource for ``duration`` at ``priority``."""
        req = self.try_acquire(priority) if self.sim._fast else None
        if req is None:
            req = self.request(priority)
            yield req
        try:
            yield self.sim.timeout(duration)
        finally:
            self.release(req)
