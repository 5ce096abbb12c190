"""A messaging channel: the core's view of one VIA connection pair.

Each channel owns two VIA VIs to its peer — a *data* VI carrying eager
payloads and RMA traffic, and a *control* VI carrying adverts, RTS and
token updates — plus the flow-control state for both:

* ``data_tokens``: how many pre-posted eager buffers remain at the peer
  (one consumed per eager message or RMA-notify);
* ``ctrl_tokens``: same for the peer's control-message buffers;
* ``owed_*``: buffers this side has recycled and must credit back,
  returned by piggyback on any outgoing message or by an explicit
  TOKENS control message once enough accumulate.

The paper: "each connection maintains a list of tokens to regulate
data flow on the connection, since M-VIA has no built-in flow control
mechanism" (section 5.1).
"""

from __future__ import annotations

from typing import List, TYPE_CHECKING

from repro.core.matching import MatchQueue
from repro.core.message import CoreParams, Envelope
from repro.errors import FlowControlError
from repro.sim import Resource
from repro.via.vi import VI

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import MessagingEngine

#: Control credits held in reserve so an explicit TOKENS message can
#: always be sent (prevents credit-return deadlock).
CTRL_RESERVE = 2


class Channel:
    """Core state for one peer connection."""

    def __init__(self, engine: "MessagingEngine", peer_rank: int) -> None:
        self.engine = engine
        self.peer_rank = peer_rank
        params: CoreParams = engine.params
        device = engine.device
        self.data_vi: VI = device.create_vi(engine.ptag,
                                            recv_cq=engine.recv_cq)
        self.ctrl_vi: VI = device.create_vi(engine.ptag,
                                            recv_cq=engine.recv_cq)
        # Eager receive buffers (one registered slab, sliced per slot).
        slab = params.eager_slot_bytes * params.data_tokens
        self.eager_region = device.register_memory_now(slab, engine.ptag)
        ctrl_slab = Envelope.HEADER_BYTES * 4 * params.ctrl_tokens
        self.ctrl_region = device.register_memory_now(ctrl_slab, engine.ptag)
        # Send-side bounce buffer for eager copies.
        self.bounce_region = device.register_memory_now(
            params.eager_slot_bytes * 4, engine.ptag
        )
        # Flow-control state (sender's view of peer buffers).
        self.data_tokens = params.data_tokens
        self.ctrl_tokens = params.ctrl_tokens
        self.owed_data = 0
        self.owed_ctrl = 0
        self._data_waiters: List = []
        self._ctrl_waiters: List = []
        # Rendezvous state.
        self.pending_sends = MatchQueue()   # large sends awaiting advert
        self.advert_queue = MatchQueue()    # adverts awaiting a send
        #: Adverts issued but not yet consumed by an RMA arrival; an
        #: incoming RTS that crossed one of these on the wire is
        #: absorbed against it (FIFO pairing on both sides keeps the
        #: assignment consistent).
        self.outstanding_adverts = MatchQueue()
        #: Serializes the send path onto the wire.  A single-threaded
        #: MPI process posts sends sequentially; without this, a later
        #: zero-copy send could overtake an earlier send still staging
        #: its bounce copy — breaking MPI's non-overtaking rule and
        #: interleaving fragments on the data VI.
        self.send_lock = Resource(engine.sim, 1,
                                  name=f"sendlock[{engine.rank}->"
                                       f"{peer_rank}]")
        self.stats = {"eager": 0, "rma": 0, "ctrl": 0,
                      "token_msgs": 0, "token_stalls": 0}
        #: True while an explicit TOKENS return is in flight.
        self.token_msg_pending = False
        self._prepost()

    def _prepost(self) -> None:
        params = self.engine.params
        slot = params.eager_slot_bytes
        self.data_vi.post_recv_slots(self.eager_region, slot, slot,
                                     params.data_tokens)
        slot = Envelope.HEADER_BYTES * 4
        self.ctrl_vi.post_recv_slots(self.ctrl_region, slot, slot,
                                     params.ctrl_tokens)

    # -- connection -------------------------------------------------------
    def connect(self, active: bool):
        """Process: handshake both VIs with the peer."""
        agent = self.engine.device.agent
        me, peer = self.engine.rank, self.peer_rank
        for vi, kind in ((self.data_vi, "data"), (self.ctrl_vi, "ctrl")):
            disc = ("core", min(me, peer), max(me, peer), kind)
            if active:
                yield from agent.connect_request(vi, peer, disc)
            else:
                yield from agent.connect_wait(vi, disc)

    # -- token accounting ---------------------------------------------------
    def take_data_token(self):
        """Process: block until a data token is available; consume it."""
        while self.data_tokens <= 0:
            self.stats["token_stalls"] += 1
            wake = self.engine.sim.event(name="data-token")
            self._data_waiters.append(wake)
            yield wake
        self.data_tokens -= 1

    def take_ctrl_token(self, for_token_msg: bool = False):
        """Process: consume a control credit (reserve kept for TOKENS)."""
        floor = 0 if for_token_msg else CTRL_RESERVE
        while self.ctrl_tokens <= floor:
            self.stats["token_stalls"] += 1
            wake = self.engine.sim.event(name="ctrl-token")
            self._ctrl_waiters.append(wake)
            yield wake
        self.ctrl_tokens -= 1

    def credit(self, data: int, ctrl: int) -> None:
        """Peer returned credits (piggybacked or explicit)."""
        if data < 0 or ctrl < 0:
            raise FlowControlError(f"negative credit return ({data}, {ctrl})")
        if data:
            self.data_tokens += data
            if self.data_tokens > self.engine.params.data_tokens:
                raise FlowControlError(
                    f"channel {self.engine.rank}->{self.peer_rank}: "
                    f"data tokens over capacity"
                )
            waiters, self._data_waiters = self._data_waiters, []
            for wake in waiters:
                wake.succeed()
        if ctrl:
            self.ctrl_tokens += ctrl
            if self.ctrl_tokens > self.engine.params.ctrl_tokens:
                raise FlowControlError(
                    f"channel {self.engine.rank}->{self.peer_rank}: "
                    f"ctrl tokens over capacity"
                )
            waiters, self._ctrl_waiters = self._ctrl_waiters, []
            for wake in waiters:
                wake.succeed()

    def piggyback(self, envelope: Envelope) -> None:
        """Attach owed credits to an outgoing envelope."""
        envelope.data_tokens = self.owed_data
        envelope.ctrl_tokens = self.owed_ctrl
        self.owed_data = 0
        self.owed_ctrl = 0

    def owe_data(self) -> None:
        self.owed_data += 1

    def owe_ctrl(self) -> None:
        self.owed_ctrl += 1

    def needs_explicit_return(self) -> bool:
        threshold = self.engine.params.token_return_threshold
        return self.owed_data >= threshold or self.owed_ctrl >= threshold

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Channel({self.engine.rank}->{self.peer_rank}, "
            f"dtok={self.data_tokens}, ctok={self.ctrl_tokens})"
        )
