"""A message-level communicator over the Myrinet comparator fabric.

The Table 1 benchmark runs the same LQCD iteration on both machines;
this class gives the Myrinet cluster just enough of the
Communicator interface for that: ``isend``/``irecv`` with tag
matching, ``allreduce`` and ``barrier`` via binomial trees, plus a
``compute`` hook (GM offloads protocol to the LaNai, so host compute
simply takes wall time without a contended-CPU model).
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.collectives.tree import binomial_children, binomial_parent
from repro.core.message import ANY_SOURCE, ANY_TAG, RecvRequest, SendRequest
from repro.hw.myrinet import MyrinetFabric
from repro.mpi.op import SUM, Op
from repro.mpi.request import waitall
from repro.sim import Simulator


class MyriWorld:
    """Shared state: the fabric plus per-rank endpoints."""

    def __init__(self, sim: Simulator, num_hosts: int,
                 params=None) -> None:
        self.sim = sim
        self.fabric = MyrinetFabric(sim, num_hosts, params=params)
        self.comms = [MyriComm(self, rank) for rank in range(num_hosts)]
        for comm in self.comms:
            self.fabric.set_receiver(comm.rank, comm._deliver)


class MyriComm:
    """One rank's endpoint on the Myrinet fabric."""

    def __init__(self, world: MyriWorld, rank: int) -> None:
        self.world = world
        self.sim = world.sim
        self.rank = rank
        #: (src, tag) -> queues of arrived / posted.
        self._unexpected: deque = deque()
        self._posted: deque = deque()

    @property
    def size(self) -> int:
        return self.world.fabric.topology.num_hosts

    # -- point-to-point ------------------------------------------------------
    def isend(self, dest: int, tag: int = 0, nbytes: int = 0,
              data: Any = None) -> SendRequest:
        request = SendRequest(self.sim, dest, tag, 0, nbytes, data)

        def run():
            yield from self.world.fabric.send(
                self.rank, dest, nbytes, payload=(tag, nbytes, data)
            )
            request.succeed()

        self.sim.spawn(run(), name=f"myri-send[{self.rank}->{dest}]")
        return request

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
              nbytes: int = 0) -> RecvRequest:
        request = RecvRequest(self.sim, source, tag, 0, nbytes)
        for index, (src, msg_tag, msg_bytes, data) in enumerate(
                self._unexpected):
            if self._matches(request, src, msg_tag):
                del self._unexpected[index]
                self._complete(request, src, msg_tag, msg_bytes, data)
                return request
        self._posted.append(request)
        return request

    @staticmethod
    def _matches(request: RecvRequest, src: int, tag: int) -> bool:
        if request.src != ANY_SOURCE and request.src != src:
            return False
        if request.tag != ANY_TAG and request.tag != tag:
            return False
        return True

    def _complete(self, request: RecvRequest, src: int, tag: int,
                  nbytes: int, data: Any) -> None:
        request.received_bytes = nbytes
        request.received_data = data
        request.received_src = src
        request.received_tag = tag
        request.succeed()

    def _deliver(self, src: int, payload, nbytes) -> None:
        tag, msg_bytes, data = payload
        for index, request in enumerate(self._posted):
            if self._matches(request, src, tag):
                del self._posted[index]
                self._complete(request, src, tag, msg_bytes, data)
                return
        self._unexpected.append((src, tag, msg_bytes, data))

    # -- collectives (binomial trees through the switch) ---------------------
    _TAG_REDUCE = 9001
    _TAG_BCAST = 9002

    def allreduce(self, nbytes: int = 8, op: Op = SUM, data: Any = None):
        """Process: reduce to rank 0 then broadcast."""
        parent = binomial_parent(self.size, 0, self.rank)
        children = binomial_children(self.size, 0, self.rank)
        value = data
        for child in children:
            request = self.irecv(child, self._TAG_REDUCE, nbytes)
            yield from request.wait()
            value = op(value, request.received_data)
        if parent is not None:
            yield from self.isend(parent, self._TAG_REDUCE, nbytes,
                                  data=value).wait()
            request = self.irecv(parent, self._TAG_BCAST, nbytes)
            yield from request.wait()
            value = request.received_data
        sends = [
            self.isend(child, self._TAG_BCAST, nbytes, data=value)
            for child in children
        ]
        yield from waitall(sends)
        return value

    def barrier(self):
        """Process: zero-byte allreduce."""
        yield from self.allreduce(nbytes=0, data=None)

    def compute(self, duration: float):
        """Process: host computation (uncontended on this machine)."""
        yield self.sim.timeout(duration)
