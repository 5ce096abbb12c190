"""Hypersurface (halo) exchange over the message-passing layer.

Each iteration every node swaps its six boundary planes with its mesh
neighbors — the nearest-neighbor communication pattern that motivates
the whole cluster design.  The exchange is written against the small
transport interface both :class:`repro.mpi.Communicator` and the
Myrinet comparator world implement (``isend``/``irecv`` with
tags + ``torus``-style neighbor ranks supplied by the caller), so the
same application code runs on either interconnect.

Table 1 runs it in timing mode (``planes=None``): only byte counts
travel, since per-iteration data content is irrelevant to its timing.
Given planes, they travel as the messages' data; the test oracle
(``tests/lqcd_oracle.py``) fills halos that way and checks the result
against the periodic single-node operator.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.lqcd.lattice import HALF_SPINOR_BYTES, LocalLattice
from repro.mpi.request import waitall

#: Tag base for halo traffic; encodes (axis, direction).
_TAG_HALO = 300


def halo_tag(axis: int, sign: int) -> int:
    return _TAG_HALO + 2 * axis + (0 if sign > 0 else 1)


class HaloExchanger:
    """Persistent halo-exchange plan for one node.

    Parameters
    ----------
    comm:
        Transport (Communicator-compatible).
    neighbors:
        Mapping (axis, sign) -> neighbor rank.
    local:
        The node's sub-lattice (for message sizes).
    site_bytes:
        Wire bytes per boundary site.
    """

    def __init__(self, comm, neighbors: Dict[Tuple[int, int], int],
                 local: LocalLattice,
                 site_bytes: int = HALF_SPINOR_BYTES) -> None:
        self.comm = comm
        self.neighbors = dict(neighbors)
        self.local = local
        self.site_bytes = site_bytes
        self.stats = {"exchanges": 0, "bytes": 0}

    def start(self, planes: Optional[Dict[Tuple[int, int], Any]] = None):
        """Begin the 6-face exchange; returns (recv_reqs, send_reqs).

        ``planes`` maps (axis, sign) -> the boundary plane to send in
        that direction (None for timing mode).  Receives are posted
        first (pre-posted receives keep the eager path fast).
        """
        face = self.local.halo_bytes
        recvs = {}
        sends = []
        for (axis, sign), peer in self.neighbors.items():
            recvs[(axis, sign)] = self.comm.irecv(
                peer, halo_tag(axis, -sign),
                nbytes=face(axis, self.site_bytes),
            )
        for (axis, sign), peer in self.neighbors.items():
            plane = None if planes is None else planes.get((axis, sign))
            nbytes = face(axis, self.site_bytes)
            sends.append(self.comm.isend(
                peer, halo_tag(axis, sign), nbytes=nbytes, data=plane,
            ))
            self.stats["bytes"] += nbytes
        self.stats["exchanges"] += 1
        return recvs, sends

    def finish(self, recvs, sends):
        """Process: wait for the whole exchange; returns received
        planes keyed by (axis, sign) of the face they fill."""
        yield from waitall(sends)
        yield from waitall(list(recvs.values()))
        return {
            key: request.received_data for key, request in recvs.items()
        }

    def exchange(self, planes: Optional[Dict[Tuple[int, int], Any]] = None):
        """Process: blocking 6-face exchange."""
        recvs, sends = self.start(planes)
        received = yield from self.finish(recvs, sends)
        return received

