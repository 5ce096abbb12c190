"""VIA completion queues.

A CQ aggregates completions from any number of VI work queues; the
consumer blocks on :meth:`wait` (VipCQWait) or polls with
:meth:`poll` (VipCQDone).  Entries are ``(vi, queue_kind, descriptor)``
tuples, matching VIPL's (VI handle, queue selector) return.
"""

from __future__ import annotations

from typing import Optional, Tuple, TYPE_CHECKING

from repro.sim import Simulator, Store

if TYPE_CHECKING:  # pragma: no cover
    from repro.via.descriptors import Descriptor
    from repro.via.vi import VI

Completion = Tuple["VI", str, "Descriptor"]

SEND_QUEUE = "send"
RECV_QUEUE = "recv"


class CompletionQueue:
    """FIFO of completed descriptors across attached VIs."""

    def __init__(self, sim: Simulator, name: str = "cq") -> None:
        self.sim = sim
        self.name = name
        self._store = Store(sim, name=name)

    def push(self, vi: "VI", queue: str, descriptor: "Descriptor") -> None:
        """Device-side: enqueue a completion."""
        self._store.push((vi, queue, descriptor))

    def wait(self):
        """Process: block until a completion is available; returns it."""
        completion = yield self._store.get()
        return completion

    def poll(self) -> Optional[Completion]:
        """Non-blocking: a completion or None."""
        return self._store.try_get()

    def __len__(self) -> int:
        return len(self._store)
