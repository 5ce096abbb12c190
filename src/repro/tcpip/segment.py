"""TCP segment representation (the model's sk_buff)."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any


class SegmentKind(enum.Enum):
    SYN = "syn"
    SYN_ACK = "syn-ack"
    DATA = "data"
    ACK = "ack"
    FIN = "fin"


@dataclass(slots=True)
class TcpSegment:
    """One TCP segment on the wire.

    ``conn_id`` stands in for the (addr, port) 4-tuple; ``seq`` counts
    bytes like real TCP; ``psh`` marks the final segment of an
    application message (triggers an immediate ACK and carries the
    payload object).
    """

    kind: SegmentKind
    src_node: int
    dst_node: int
    conn_id: int
    seq: int = 0
    nbytes: int = 0
    psh: bool = False
    ack_bytes: int = 0
    payload: Any = field(default=None, repr=False)
    #: Total application-message bytes (on the psh segment).
    msg_bytes: int = 0
