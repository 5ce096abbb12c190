"""The QMP machine interface.

One :class:`QMPMachine` per rank wraps the node's communicator (and
through it the shared messaging core).  Nearest-neighbor traffic uses a
dedicated tag space; reductions use the paper's mesh algorithms.
"""

from __future__ import annotations

from typing import Any, Sequence, Tuple

from repro.errors import QmpError
from repro.mpi.communicator import Communicator
from repro.mpi.op import MAX, MIN, SUM
from repro.qmp.msgmem import MsgHandle, MsgMem, MultiHandle
from repro.topology.torus import Direction

#: Tag base for declared relative channels: tag encodes (axis, sign)
#: so simultaneous exchanges on all axes never cross-match.
_TAG_RELATIVE = 200
#: Tag for declared point-to-point channels (declare_send_to).
_TAG_DIRECT = 240


class QMPMachine:
    """Per-rank QMP state (mirrors libqmp's global machine)."""

    def __init__(self, comm: Communicator) -> None:
        if comm.torus is None:
            raise QmpError("QMP requires a mesh communicator")
        self.comm = comm
        self.torus = comm.torus

    # -- topology queries (QMP_get_*) ---------------------------------------
    @property
    def rank(self) -> int:
        """QMP_get_node_number."""
        return self.comm.rank

    @property
    def size(self) -> int:
        """QMP_get_number_of_nodes."""
        return self.comm.size

    def logical_dimensions(self) -> Tuple[int, ...]:
        """QMP_get_logical_dimensions."""
        return self.torus.dims

    def logical_coordinates(self) -> Tuple[int, ...]:
        """QMP_get_logical_coordinates_from(this node)."""
        return self.torus.coords(self.comm.group.world_rank(self.comm.rank))

    def neighbor_rank(self, axis: int, sign: int) -> int:
        """Rank one hop along (axis, sign)."""
        world = self.comm.group.world_rank(self.comm.rank)
        neighbor = self.torus.neighbor(world, Direction(axis, sign))
        return self.comm.group.local_rank(neighbor)

    # -- declared message channels -----------------------------------------
    def declare_msgmem(self, nbytes: int, data: Any = None) -> MsgMem:
        """QMP_declare_msgmem."""
        return MsgMem(nbytes, data)

    def declare_send_relative(self, msgmem: MsgMem, axis: int,
                              sign: int) -> MsgHandle:
        """QMP_declare_send_relative."""
        self._check_axis(axis, sign)
        return MsgHandle(self, msgmem, axis, sign, is_send=True)

    def declare_receive_relative(self, msgmem: MsgMem, axis: int,
                                 sign: int) -> MsgHandle:
        """QMP_declare_receive_relative."""
        self._check_axis(axis, sign)
        return MsgHandle(self, msgmem, axis, sign, is_send=False)

    def declare_multiple(self, handles: Sequence[MsgHandle]) -> MultiHandle:
        """QMP_declare_multiple."""
        return MultiHandle(list(handles))

    def declare_send_to(self, msgmem: MsgMem, rank: int) -> MsgHandle:
        """QMP_declare_send_to: a declared channel to an arbitrary
        rank (routed through the mesh by the kernel switch)."""
        handle = MsgHandle(self, msgmem, axis=-1, sign=+1, is_send=True)
        handle.peer_rank = rank
        return handle

    def declare_receive_from(self, msgmem: MsgMem, rank: int) -> MsgHandle:
        """QMP_declare_receive_from."""
        handle = MsgHandle(self, msgmem, axis=-1, sign=-1,
                           is_send=False)
        handle.peer_rank = rank
        return handle

    def _check_axis(self, axis: int, sign: int) -> None:
        if not 0 <= axis < self.torus.ndim:
            raise QmpError(f"axis {axis} out of range for {self.torus!r}")
        if sign not in (-1, 1):
            raise QmpError(f"sign must be +-1, got {sign}")

    def _start_handle(self, handle: MsgHandle):
        """Launch a declared operation; returns the core request."""
        if handle.axis < 0:
            # Point-to-point declared channel (declare_send_to /
            # declare_receive_from): a fixed tag pairs the endpoints.
            peer = handle.peer_rank
            if handle.is_send:
                return self.comm.isend(peer, _TAG_DIRECT,
                                       nbytes=handle.msgmem.nbytes,
                                       data=handle.msgmem.data)
            return self.comm.irecv(peer, _TAG_DIRECT,
                                   nbytes=handle.msgmem.nbytes)
        tag = _TAG_RELATIVE + 4 * handle.axis + (0 if handle.sign > 0 else 2)
        if handle.is_send:
            peer = self.neighbor_rank(handle.axis, handle.sign)
            return self.comm.isend(peer, tag, nbytes=handle.msgmem.nbytes,
                                   data=handle.msgmem.data)
        # A receive from direction (axis, sign) matches the peer's send
        # in direction (axis, -sign): same tag from the peer's side.
        peer = self.neighbor_rank(handle.axis, handle.sign)
        peer_tag = _TAG_RELATIVE + 4 * handle.axis + (0 if handle.sign < 0 else 2)
        return self.comm.irecv(peer, peer_tag,
                               nbytes=handle.msgmem.nbytes)

    # -- collectives -------------------------------------------------------
    def sum_double(self, value: float):
        """Process: QMP_sum_double."""
        result = yield from self.comm.allreduce(
            nbytes=8, op=SUM, data=float(value)
        )
        return result

    def sum_double_array(self, values: "np.ndarray"):
        """Process: QMP_sum_double_array."""
        import numpy as np

        arr = np.asarray(values, dtype=np.float64)
        result = yield from self.comm.allreduce(
            nbytes=arr.nbytes, op=SUM, data=arr
        )
        return result

    def max_double(self, value: float):
        """Process: QMP_max_double."""
        result = yield from self.comm.allreduce(
            nbytes=8, op=MAX, data=float(value)
        )
        return result

    def min_double(self, value: float):
        """Process: QMP_min_double."""
        result = yield from self.comm.allreduce(
            nbytes=8, op=MIN, data=float(value)
        )
        return result

    def broadcast(self, nbytes: int, data: Any = None, root: int = 0):
        """Process: QMP_broadcast."""
        result = yield from self.comm.bcast(root, nbytes=nbytes, data=data)
        return result

    def barrier(self):
        """Process: QMP_barrier."""
        yield from self.comm.barrier()

    def __repr__(self) -> str:  # pragma: no cover
        return f"QMPMachine(rank={self.rank}/{self.size})"
