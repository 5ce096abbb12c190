"""Myrinet comparator model (LaNai9 adapters + Myrinet 2000 switch).

The paper uses a 128-node Myrinet cluster only as the Table 1
comparator, so the model here is message-level rather than frame-level:
a :class:`MyrinetFabric` carries whole messages between hosts with the
latency/bandwidth/host-overhead constants of GM on LaNai9 through a
full-bisection Clos switch (no internal contention; only injection and
ejection ports serialize).  Its analytic LogGP form is
:func:`repro.model.myrinet_loggp`.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.errors import ConfigurationError
from repro.hw.params import MyrinetParams
from repro.sim import Mutex, Simulator
from repro.topology.switched import ClosFabric


class MyrinetFabric:
    """Simulated message-level Myrinet network.

    Hosts are integers ``0..n-1``.  ``send`` is a process; delivery
    invokes the registered receiver callback.
    """

    def __init__(self, sim: Simulator, num_hosts: int,
                 params: Optional[MyrinetParams] = None) -> None:
        if num_hosts < 1:
            raise ConfigurationError("need at least one host")
        self.sim = sim
        self.params = params or MyrinetParams()
        self.topology = ClosFabric(num_hosts)
        self._inject = [
            Mutex(sim, name=f"myri-in[{h}]") for h in range(num_hosts)
        ]
        self._eject = [
            Mutex(sim, name=f"myri-out[{h}]") for h in range(num_hosts)
        ]
        self._receivers: Dict[int, Callable] = {}
        self.stats = {"messages": 0, "bytes": 0}

    def set_receiver(self, host: int, callback: Callable) -> None:
        """Register ``callback(src, payload, nbytes)`` for ``host``."""
        self._receivers[host] = callback

    def send(self, src: int, dst: int, nbytes: float, payload=None):
        """Process: transmit a message; returns after injection.

        Injection holds the source port for the serialization time
        (sender is free afterwards); the message lands at the
        destination after the switch latency, where it serializes
        through the ejection port before the receiver callback runs.
        """
        if src == dst:
            raise ConfigurationError("myrinet loopback send")
        params = self.params
        serial = nbytes / params.bandwidth
        yield from self._inject[src].use(serial + params.host_overhead / 2)
        self.stats["messages"] += 1
        self.stats["bytes"] += nbytes
        hops = self.topology.switch_hops(src, dst)
        delay = params.latency + max(0, hops - 1) * params.per_switch_hop
        self.sim.spawn(
            self._deliver(src, dst, nbytes, payload, delay),
            name=f"myri:{src}->{dst}",
        )

    def _deliver(self, src: int, dst: int, nbytes: float, payload,
                 delay: float):
        yield self.sim.timeout(delay)
        yield from self._eject[dst].use(nbytes / self.params.bandwidth)
        receiver = self._receivers.get(dst)
        if receiver is not None:
            receiver(src, payload, nbytes)
