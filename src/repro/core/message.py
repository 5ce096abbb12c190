"""Message envelopes, request handles, and core tuning parameters."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.sim import Event

#: MPI-style wildcards.
ANY_SOURCE = -1
ANY_TAG = -1

_req_ids = itertools.count()


class MsgType(enum.Enum):
    """Core protocol message types carried over the channel VIs."""

    EAGER = "eager"          # small message, data inline
    RTS = "rts"              # request-to-send for a large message
    ADVERT = "advert"        # receiver buffer advertisement (CTS)
    TOKENS = "tokens"        # explicit flow-control credit return
    RMA_DATA = "rma-data"    # the zero-copy payload (notify completes it)


@dataclass
class Envelope:
    """The core's message header (rides as the VIA payload object).

    ``data_tokens``/``ctrl_tokens`` are the piggybacked credit returns
    the paper describes ("this number is constantly updated to the
    sender by either a piggybacked application message or an explicit
    control message").
    """

    msg_type: MsgType
    src_rank: int
    tag: int
    context: int
    nbytes: int
    #: Application payload object (eager) or None.
    data: Any = field(default=None, repr=False)
    #: Rendezvous bookkeeping.
    send_id: int = -1
    recv_id: int = -1
    remote_addr: int = 0
    #: Piggybacked credit returns.
    data_tokens: int = 0
    ctrl_tokens: int = 0
    #: Flight-recorder trace id (observability only; not part of the
    #: wire header).
    trace: Any = field(default=None, repr=False)

    #: Wire size of the core header inside the VIA payload.
    HEADER_BYTES = 32


@dataclass(frozen=True)
class CoreParams:
    """Tuning constants of the messaging core (paper section 5.1)."""

    #: Eager/rendezvous switch point ("messages of small sizes
    #: (<16K bytes)").
    eager_threshold: int = 16384
    #: Flow-control tokens per channel == pre-posted eager buffers.
    data_tokens: int = 32
    #: Credits for control messages (adverts, RTS, token updates).
    ctrl_tokens: int = 64
    #: Return credits explicitly once this many are owed and no
    #: application traffic has piggybacked them.
    token_return_threshold: int = 8
    #: Library matching cost per message (us, user level).
    match_cost: float = 0.3
    #: Library cost of handling a control message (us).
    ctrl_cost: float = 0.4
    #: Eager bounce-buffer slot size (must cover threshold + header).
    eager_slot_bytes: int = 16384 + 64
    #: Sender-side matching (proactive buffer adverts on posted
    #: receives).  On: a large send finding an advert starts its RMA
    #: immediately (saves half a round trip); adverted receives become
    #: *bound* and only complete via their RMA, which can reorder
    #: matches when small and large sends mix on one (src, tag).  Off:
    #: pure in-band RTS rendezvous with strict MPI arrival-order
    #: matching.
    proactive_adverts: bool = True


class Request(Event):
    """Base class for nonblocking-operation handles.

    A Request *is* a simulation event: programs ``yield request`` (or
    call :meth:`wait`) to block until completion.
    """

    def __init__(self, sim, kind: str) -> None:
        super().__init__(sim, name=f"{kind}-req")
        # Ids come from the simulator's own stream (falling back to the
        # process-global counter for bare Events in unit tests) so that
        # a checkpoint replay reproduces the exact rendezvous ids the
        # original run put on the wire.
        if hasattr(sim, "_req_ids"):
            self.req_id = sim._req_ids
            sim._req_ids += 1
        else:  # pragma: no cover - hand-built test doubles
            self.req_id = next(_req_ids)
        self.kind = kind

    def wait(self):
        """Process: block until this request completes; returns the
        request.

        A failed request raises its exception — including when the
        failure already landed before ``wait`` was called (the yield
        path throws; the already-processed path must match it).
        """
        if not self.processed:
            yield self
        if self._ok is False:
            raise self.value
        return self

    @property
    def complete(self) -> bool:
        return self.triggered


class SendRequest(Request):
    """Handle for a send in progress."""

    def __init__(self, sim, dst: int, tag: int, context: int,
                 nbytes: int, data: Any = None) -> None:
        super().__init__(sim, "send")
        self.dst = dst
        self.tag = tag
        self.context = context
        self.nbytes = nbytes
        self.data = data
        #: Optional explicit source route (egress ports per hop).
        self.route = None
        #: MPI_Ssend semantics: complete only once matched (forces the
        #: rendezvous protocol regardless of size).
        self.synchronous = False
        #: Derived-datatype packing bytes (0 = contiguous buffer).
        self.pack_bytes = 0


class RecvRequest(Request):
    """Handle for a receive in progress.

    Completes with ``None`` (a request valued by itself would be a
    reference cycle); :meth:`wait` returns the request, so inspect its
    ``received_*``.
    """

    def __init__(self, sim, src: int, tag: int, context: int,
                 nbytes: int) -> None:
        super().__init__(sim, "recv")
        self.src = src
        self.tag = tag
        self.context = context
        self.nbytes = nbytes
        self.received_bytes = 0
        self.received_data: Any = None
        self.received_src: Optional[int] = None
        self.received_tag: Optional[int] = None
        #: Set once an advert has been issued for this request.
        self.adverted = False
        #: Pinned landing region while a rendezvous is outstanding.
        self.rma_region = None
        #: Derived-datatype unpacking bytes (0 = contiguous buffer).
        self.unpack_bytes = 0
