"""Deterministic discrete-event simulation kernel.

This is the substrate on which every hardware and protocol model in the
package runs.  The design follows the classic process-interaction style
(generator-based coroutines yield :class:`Event` objects), with a
strictly deterministic event ordering: events scheduled for the same
simulated time are processed FIFO in scheduling order (with an optional
integer priority tier), so repeated runs with the same seed reproduce
byte-identical traces.

Public surface::

    sim = Simulator()
    def producer(sim, store):
        yield sim.timeout(2.0)
        yield store.put("item")
    store = Store(sim, capacity=4)
    sim.spawn(producer(sim, store))
    sim.run()

Hardware one user holds at a time — a node's CPU, a Myrinet port, a
channel's send lock — is one :class:`Mutex`, granted in
``(priority, arrival)`` order.

The clock unit is the microsecond (see :mod:`repro.units`).  What
watches a run from outside — the per-event trace, sample statistics,
the hang watchdog — lives in :mod:`repro.obs`.
"""

from repro.sim.core import Simulator
from repro.sim.events import (
    AllOf,
    AnyOf,
    Event,
    Timeout,
    URGENT,
    NORMAL,
)
from repro.sim.process import Process
from repro.sim.resources import Mutex
from repro.sim.store import Store, TokenPool

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "AnyOf",
    "AllOf",
    "Mutex",
    "Store",
    "TokenPool",
    "URGENT",
    "NORMAL",
]
