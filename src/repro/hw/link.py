"""Full-duplex point-to-point GigE link model.

A :class:`Link` joins two NIC ports with independent directional
channels.  A frame occupies the direction's line for the
serialization time of its full wire footprint (payload + protocol
header + Ethernet overhead), then reaches the remote port after the
propagation delay.  Because each direction serves one sending port
alone, full-duplex traffic never self-interferes — which is exactly
the property that makes the mesh's aggregated-bandwidth numbers
possible.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.hw.faults import CORRUPT, DROP, FaultInjector
from repro.sim import Simulator
from repro.sim.events import Callback
from repro.obs import DROP as _DROP, WIRE_HOP as _WIRE_HOP

if TYPE_CHECKING:  # pragma: no cover
    from repro.hw.nic import GigEPort

_frame_ids = itertools.count()


def padded_bytes(payload_bytes: int, header_bytes: int) -> int:
    """A frame's body as serialized: Ethernet pads short frames to the
    64-byte minimum (header 14 + body + FCS 4 >= 64)."""
    return max(payload_bytes + header_bytes, 64 - 18)


@dataclass(slots=True)
class Frame:
    """One Ethernet frame's worth of protocol traffic.

    ``payload`` is an arbitrary protocol object (a VIA packet, a TCP
    segment); the byte counts drive the timing model.

    Attributes
    ----------
    payload_bytes:
        User-data bytes carried in this frame.
    header_bytes:
        Protocol header bytes inside the Ethernet payload (VIA or
        TCP/IP headers), excluded from user-payload accounting but
        serialized on the wire.
    payload:
        The protocol object.
    kind:
        Debug label ("via", "tcp", "ack", ...).
    """

    payload_bytes: int
    header_bytes: int
    payload: Any = None
    kind: str = "data"
    #: Invoked by the NIC once the frame has been DMA'd out of host
    #: memory (VIA send-completion semantics: buffer reusable).
    on_fetched: Optional[Callable[[], None]] = None
    #: Set by fault injection: the frame was damaged on the wire.
    corrupted: bool = False
    frame_id: int = field(default_factory=_frame_ids.__next__)
    #: :func:`padded_bytes` of this frame.  The byte counts never
    #: change after construction, so every DMA and wire stage a frame
    #: crosses adds its own framing overhead to this one number.
    padded_bytes: int = field(init=False, repr=False, compare=False)
    #: When the receiving port's DMA of the frame to host memory ended
    #: (set with the flight recorder on, for the interrupt-wait span).
    rx_ready: Optional[float] = field(default=None, init=False,
                                      repr=False, compare=False)

    def __post_init__(self) -> None:
        self.padded_bytes = padded_bytes(self.payload_bytes,
                                         self.header_bytes)

    def __setstate__(self, state) -> None:
        # A pickled slotted frame's state is ``(None, slots)``; window
        # logs checkpointed by earlier builds hold a plain attribute
        # dict, some without ``padded_bytes``.
        if isinstance(state, tuple):
            state = state[1]
        self.rx_ready = None
        for name, value in state.items():
            setattr(self, name, value)
        self.__post_init__()

    def wire_bytes(self, frame_overhead: int, min_frame: int = 64) -> int:
        """Total serialized bytes including Ethernet framing."""
        body = self.payload_bytes + self.header_bytes
        return max(body, min_frame - 18) + frame_overhead


class Link:
    """A cable between two ports.

    Ports attach with :meth:`attach`; side 0 and side 1 are symmetric.
    The sending port's wire stage times a frame's serialization (it is
    the direction's only user, so the line needs no arbitration); the
    link applies what happens at its end, :meth:`complete_tx`.
    """

    #: Whether this is a PDES shard-boundary proxy (see
    #: :class:`BoundaryLink`).  A port on one gives its wire stage an
    #: entry at serialization start, where :meth:`begin_tx` commits the
    #: frame's egress; the frame-train planner, which commits whole
    #: bursts at once, refuses it.
    is_boundary = False

    def __init__(self, sim: Simulator, wire_rate: float,
                 frame_overhead: int, propagation: float,
                 name: str = "link",
                 corrupt_every: Optional[int] = None,
                 faults: Optional[FaultInjector] = None) -> None:
        if wire_rate <= 0:
            raise ConfigurationError(f"wire rate must be > 0, got {wire_rate}")
        if corrupt_every is not None and corrupt_every < 1:
            raise ConfigurationError(
                f"corrupt_every must be >= 1, got {corrupt_every}"
            )
        self.sim = sim
        self.wire_rate = wire_rate
        self.frame_overhead = frame_overhead
        self.propagation = propagation
        self.name = name
        #: Fault injection: damage every Nth frame per direction
        #: (deterministic, so tests and reruns reproduce exactly).
        self.corrupt_every = corrupt_every
        #: Generalized fault engine (loss/flap/death; see hw.faults).
        self.faults = faults
        self._ports: list = [None, None]
        self.stats = {"frames": [0, 0], "bytes": [0, 0],
                      "corrupted": [0, 0], "dropped": [0, 0]}

    def attach(self, side: int, port: "GigEPort") -> None:
        """Connect ``port`` at ``side`` (0 or 1)."""
        if side not in (0, 1):
            raise ConfigurationError(f"link side must be 0 or 1, got {side}")
        if self._ports[side] is not None:
            raise ConfigurationError(f"{self.name} side {side} already attached")
        self._ports[side] = port

    def peer(self, side: int) -> "GigEPort":
        port = self._ports[1 - side]
        if port is None:
            raise ConfigurationError(f"{self.name} side {1 - side} unattached")
        return port

    def serialization_time(self, frame: Frame) -> float:
        return (frame.padded_bytes + self.frame_overhead) / self.wire_rate

    @property
    def fault_capable(self) -> bool:
        """Any fault knob present (legacy or generalized)?  The
        frame-train fast path refuses to engage on such links."""
        return self.corrupt_every is not None or self.faults is not None

    @property
    def lossy(self) -> bool:
        """Frames can be lost end-to-end (drives auto-reliability)."""
        return self.faults is not None and self.faults.params.lossy()

    def is_dead(self, now: float) -> bool:
        """Permanently dead at ``now`` (the packet switch reroutes)."""
        return self.faults is not None and self.faults.dead(now)

    def _judge(self, side: int, frame: Frame) -> bool:
        """Post-serialization fault verdict; returns whether to
        deliver."""
        if (self.corrupt_every is not None
                and self.stats["frames"][side]
                % self.corrupt_every == 0):
            frame.corrupted = True
            self.stats["corrupted"][side] += 1
        if self.faults is not None:
            verdict = self.faults.judge(
                side, self.stats["frames"][side], self.sim._now
            )
            if verdict is DROP:
                self.stats["dropped"][side] += 1
                return False
            if verdict is CORRUPT:
                if not frame.corrupted:
                    frame.corrupted = True
                    self.stats["corrupted"][side] += 1
        return True

    def begin_tx(self, side: int, frame: Frame) -> None:
        """Serialization of ``frame`` out of ``side`` starts now.  A
        plain link has nothing to do then."""

    def complete_tx(self, side: int, frame: Frame, started: float) -> None:
        """Serialization of ``frame`` out of ``side``, begun at
        ``started``, ends now: count the frame, apply the fault verdict
        and, unless it is lost, deliver it to the peer port
        ``propagation`` later — a boundary link committed it at
        serialization start (:meth:`BoundaryLink.begin_tx`)."""
        self.stats["frames"][side] += 1
        self.stats["bytes"][side] += frame.payload_bytes
        deliver = self._judge(side, frame)
        rec = self.sim.recorder
        if rec is not None:
            ctx = getattr(frame.payload, "trace", None)
            if ctx is not None:
                if deliver:
                    rec.span(ctx, _WIRE_HOP, self.name, self.name,
                             started, self.sim._now + self.propagation)
                else:
                    rec.event(ctx, _DROP, self.name, self.name,
                              self.sim._now)
        if deliver and not self.is_boundary:
            Callback(self.sim, partial(self.peer(side).frame_arrived, frame),
                     self.propagation)


class BoundaryLink(Link):
    """Local half of a cut link in a sharded (PDES) simulation.

    Exactly one side is attached — the port that lives in this shard.
    Serialization is timed and counted as on a plain link, but instead
    of delivering to an attached peer the frame is *committed* to the
    shard's egress outbox at serialization **start**
    (:meth:`begin_tx`), with the arrival instant a plain link would
    deliver at: ``fl(fl(start + serialization) + propagation)``.
    Committing at start is what makes the conservative window sound:
    the frame's arrival is then at least one full lookahead (min-frame
    serialization + propagation) after the commit, so a frame committed
    inside window ``(B_prev, B]`` always arrives at or after the next
    barrier and can be exchanged at barrier ``B`` without ever landing
    in the receiving shard's past.

    Ingress (frames committed by the remote half) is injected by the
    shard runtime straight into the attached port's ``frame_arrived``
    at the precomputed arrival instant — the same callback a plain link
    schedules, at the bit-identical time.

    Fault injection is refused: the PDES engine is fault-free in v1
    (loss/death verdicts depend on cross-shard state the conservative
    exchange does not carry).
    """

    is_boundary = True

    def __init__(self, sim: Simulator, wire_rate: float,
                 frame_overhead: int, propagation: float,
                 name: str, outbox: list,
                 remote_rank: int, remote_port: int) -> None:
        super().__init__(sim, wire_rate, frame_overhead, propagation,
                         name=name)
        #: Shard-wide egress buffer, drained at window barriers.
        self.outbox = outbox
        #: Destination of frames sent from the locally attached side.
        self.remote_rank = remote_rank
        self.remote_port = remote_port
        #: Per-link egress sequence, part of the canonical merge key.
        self._egress_seq = 0

    def peer(self, side: int) -> "GigEPort":
        raise ConfigurationError(
            f"{self.name} is a shard boundary; the remote port lives in "
            f"another process"
        )

    def begin_tx(self, side: int, frame: Frame) -> None:
        """Commit ``frame`` to the outbox; it ships to the coordinator
        at the next barrier."""
        if self.fault_capable:
            raise ConfigurationError(
                f"{self.name}: fault injection unsupported on shard "
                f"boundaries"
            )
        # The serialization end a plain link would deliver at, plus
        # propagation: the identical chained roundings.
        arrival = (self.sim._now + self.serialization_time(frame)
                   ) + self.propagation
        self._egress_seq += 1
        # The send-completion hook has already run (the NIC fetch stage
        # invokes it before the frame reaches the wire); drop it so the
        # frame pickles cleanly across the process boundary.
        frame.on_fetched = None
        self.outbox.append(
            (arrival, self.name, self._egress_seq,
             self.remote_rank, self.remote_port, frame)
        )
