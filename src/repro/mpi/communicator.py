"""The MPI communicator.

A :class:`Communicator` binds a process group to a context (so traffic
in different communicators never matches) and exposes point-to-point
and collective operations.  Collective algorithms dispatch to the
torus-aware implementations in :mod:`repro.collectives` when the
communicator spans the whole mesh in rank order (the paper's case);
sub-communicators fall back to generic binomial trees.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional, Sequence

from repro.core.engine import MessagingEngine
from repro.core.message import (
    ANY_SOURCE,
    ANY_TAG,
    RecvRequest,
    SendRequest,
)
from repro.errors import (
    MessagingError,
    MpiError,
    MpiProcFailed,
    MpiRevoked,
    TopologyError,
    ViaError,
)
from repro.mpi.datatypes import BYTE, Datatype
from repro.mpi.group import Group
from repro.mpi.op import NULL, Op, SUM
from repro.mpi.request import waitall
from repro.topology.torus import Torus


def _resolve_bytes(nbytes: Optional[int], count: Optional[int],
                   datatype: Datatype) -> int:
    if nbytes is None and count is None:
        raise MpiError("specify nbytes or count")
    if nbytes is not None and count is not None:
        raise MpiError("specify nbytes or count, not both")
    if nbytes is not None:
        if nbytes < 0:
            raise MpiError(f"negative message size {nbytes}")
        return int(nbytes)
    return datatype.bytes_for(count)


class Communicator:
    """One rank's handle on a communication context."""

    def __init__(self, engine: MessagingEngine, group: Group,
                 context: int, torus: Optional[Torus] = None) -> None:
        if not group.contains(engine.rank):
            raise MpiError(
                f"engine rank {engine.rank} not in group {group.ranks()}"
            )
        self.engine = engine
        self.group = group
        self.context = context
        self.rank = group.local_rank(engine.rank)
        self.size = group.size
        #: Mesh geometry, when the communicator maps 1:1 onto the torus.
        self.torus = torus
        self._derived = itertools.count(1)
        #: ULFM recovery epoch: 0 at creation, bumped by each
        #: :meth:`shrink` so post-recovery communicators are
        #: distinguishable in diagnostics.
        self.epoch = 0
        #: Agreement round counter (every rank calls agree/shrink in
        #: the same order — the usual MPI collective-call discipline —
        #: so counters stay synchronized without negotiation).
        self._agree_seq = 0
        #: The offload engine barrier/bcast/reduce/allreduce run on
        #: (the device's kernel or NIC site), None = the host tier.
        #: See :meth:`set_collective_tier`.
        self._offload = None

    # -- contexts ----------------------------------------------------------
    @property
    def _pt2pt_context(self) -> int:
        return 2 * self.context

    @property
    def _coll_context(self) -> int:
        return 2 * self.context + 1

    def _world(self, rank: int) -> int:
        if rank == ANY_SOURCE:
            return ANY_SOURCE
        return self.group.world_rank(rank)

    # -- ULFM entry checks -------------------------------------------------
    def _check_ft(self, peer_world: Optional[int] = None) -> None:
        """Raise instead of hanging when known failure state dooms the
        operation (no-op unless node faults are configured)."""
        engine = self.engine
        live = engine.liveness
        if live is None:
            return
        if self.context in engine.revoked:
            raise MpiRevoked(
                f"rank {self.rank}: communicator context {self.context} "
                f"revoked"
            )
        if live.crashed:
            raise MpiProcFailed(
                f"rank {self.rank}: this node has crashed",
                dead_rank=engine.rank,
            )
        if peer_world is not None and peer_world in live.dead:
            raise MpiProcFailed(
                f"rank {self.rank}: operation names failed rank "
                f"{self.group.local_rank(peer_world)} "
                f"(world {peer_world})",
                dead_rank=peer_world,
            )

    def _check_ft_collective(self) -> None:
        """Collective entry check: every group member must be alive."""
        live = self.engine.liveness
        if live is None:
            return
        self._check_ft()
        dead = [r for r in self.group.ranks() if r in live.dead]
        if dead:
            raise MpiProcFailed(
                f"rank {self.rank}: collective on communicator with "
                f"failed world rank(s) {dead}",
                dead_rank=dead[0],
            )

    @property
    def is_whole_torus(self) -> bool:
        """True when ranks are the identity map onto the mesh."""
        return (
            self.torus is not None
            and self.size == self.torus.size
            and self.group.ranks() == tuple(range(self.size))
        )

    # -- point-to-point ----------------------------------------------------
    def isend(self, dest: int, tag: int = 0, nbytes: Optional[int] = None,
              count: Optional[int] = None, datatype: Datatype = BYTE,
              data: Any = None) -> SendRequest:
        """MPI_Isend (returns immediately with a request handle).

        Non-contiguous (derived) datatypes pay a packing copy before
        the data hits the wire.
        """
        size = _resolve_bytes(nbytes, count, datatype)
        pack = datatype.pack_bytes_for(count) if count is not None else 0
        self._check_ft(self._world(dest))
        return self.engine.isend(self._world(dest), tag,
                                 self._pt2pt_context, size, data=data,
                                 pack_bytes=pack)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
              nbytes: Optional[int] = None, count: Optional[int] = None,
              datatype: Datatype = BYTE) -> RecvRequest:
        """MPI_Irecv (derived datatypes pay an unpacking copy)."""
        size = _resolve_bytes(nbytes, count, datatype)
        pack = datatype.pack_bytes_for(count) if count is not None else 0
        self._check_ft(
            self._world(source) if source != ANY_SOURCE else None
        )
        return self.engine.irecv(self._world(source), tag,
                                 self._pt2pt_context, size,
                                 unpack_bytes=pack)

    def issend(self, dest: int, tag: int = 0,
               nbytes: Optional[int] = None,
               count: Optional[int] = None, datatype: Datatype = BYTE,
               data: Any = None) -> SendRequest:
        """MPI_Issend: completes only once the receiver has matched."""
        size = _resolve_bytes(nbytes, count, datatype)
        self._check_ft(self._world(dest))
        return self.engine.isend(self._world(dest), tag,
                                 self._pt2pt_context, size, data=data,
                                 synchronous=True)

    def ssend(self, dest: int, tag: int = 0, nbytes: Optional[int] = None,
              count: Optional[int] = None, datatype: Datatype = BYTE,
              data: Any = None):
        """Process: MPI_Ssend (blocking synchronous send)."""
        request = self.issend(dest, tag, nbytes, count, datatype, data)
        yield from request.wait()
        return request

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """MPI_Iprobe: (source, tag, nbytes) of the first matching
        queued message, or None."""
        envelope = self.engine.iprobe(self._world(source), tag,
                                      self._pt2pt_context)
        if envelope is None:
            return None
        return (self.group.local_rank(envelope.src_rank),
                envelope.tag, envelope.nbytes)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Process: MPI_Probe — block until a matching message is
        queued; returns (source, tag, nbytes) without consuming it."""
        envelope = yield from self.engine.probe(
            self._world(source), tag, self._pt2pt_context
        )
        return (self.group.local_rank(envelope.src_rank),
                envelope.tag, envelope.nbytes)

    def send(self, dest: int, tag: int = 0, nbytes: Optional[int] = None,
             count: Optional[int] = None, datatype: Datatype = BYTE,
             data: Any = None):
        """Process: MPI_Send (blocking)."""
        request = self.isend(dest, tag, nbytes, count, datatype, data)
        yield from request.wait()
        return request

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
             nbytes: Optional[int] = None, count: Optional[int] = None,
             datatype: Datatype = BYTE):
        """Process: MPI_Recv; returns the completed RecvRequest."""
        request = self.irecv(source, tag, nbytes, count, datatype)
        yield from request.wait()
        return request

    def sendrecv(self, dest: int, source: int,
                 send_nbytes: Optional[int] = None,
                 recv_nbytes: Optional[int] = None,
                 send_tag: int = 0, recv_tag: int = ANY_TAG,
                 data: Any = None):
        """Process: MPI_Sendrecv — concurrent send and receive."""
        send_req = self.isend(dest, send_tag, send_nbytes, data=data)
        recv_req = self.irecv(source, recv_tag, recv_nbytes)
        yield from waitall([send_req, recv_req])
        return recv_req

    def send_init(self, dest: int, tag: int = 0,
                  nbytes: Optional[int] = None,
                  count: Optional[int] = None,
                  datatype: Datatype = BYTE, data: Any = None):
        """MPI_Send_init: a restartable persistent send."""
        from repro.mpi.request import PersistentRequest

        return PersistentRequest(
            lambda: self.isend(dest, tag, nbytes, count, datatype, data)
        )

    def recv_init(self, source: int = ANY_SOURCE, tag: int = ANY_TAG,
                  nbytes: Optional[int] = None,
                  count: Optional[int] = None,
                  datatype: Datatype = BYTE):
        """MPI_Recv_init: a restartable persistent receive."""
        from repro.mpi.request import PersistentRequest

        return PersistentRequest(
            lambda: self.irecv(source, tag, nbytes, count, datatype)
        )

    # -- internal pt2pt on the collective context -----------------------------
    def coll_isend(self, dest: int, tag: int, nbytes: int,
                   data: Any = None, route=None) -> SendRequest:
        # Schedule-time alive check: every collective step funnels
        # through here, so an algorithm aborts cleanly mid-operation
        # (MpiProcFailed) as soon as any group member is declared dead.
        self._check_ft_collective()
        request = self.engine.isend(self._world(dest), tag,
                                    self._coll_context, nbytes, data=data,
                                    route=route)
        self._tag_collective(request)
        return request

    def coll_irecv(self, source: int, tag: int, nbytes: int) -> RecvRequest:
        self._check_ft_collective()
        request = self.engine.irecv(self._world(source), tag,
                                    self._coll_context, nbytes)
        self._tag_collective(request)
        return request

    def _tag_collective(self, request) -> None:
        """Mark a collective-context request with the group membership.

        The engine's death-notice handler fails every tagged request
        whose group contains the dead rank — a collective is doomed by
        *any* member death (the dead rank may be an interior relay of
        the algorithm), even when this particular request's direct
        partner is alive.
        """
        if self.engine.liveness is not None:
            members = self.__dict__.get("_ft_members")
            if members is None:
                members = frozenset(self.group.ranks())
                self._ft_members = members
            request.ft_members = members

    # -- collective tier selection ---------------------------------------------
    COLLECTIVE_TIERS = ("host", "kernel", "nic")

    def set_collective_tier(self, tier: str) -> str:
        """Route barrier/bcast/reduce/allreduce through ``tier``.

        ``"host"`` is the default user-level tree implementation.
        ``"kernel"`` and ``"nic"`` require the whole-torus communicator
        and the matching engine enabled on this rank's device
        (:meth:`~repro.via.device.ViaDevice.enable_kernel_collectives`
        / :meth:`~repro.via.device.ViaDevice.enable_nic_collectives`).
        Collectives without an offloaded equivalent (scatter, gather,
        allgather) always run on the host tier.
        """
        if tier not in self.COLLECTIVE_TIERS:
            raise MpiError(
                f"unknown collective tier {tier!r} "
                f"(have: {', '.join(self.COLLECTIVE_TIERS)})"
            )
        engine = None
        if tier != "host":
            if not self.is_whole_torus:
                raise MpiError(
                    f"rank {self.rank}: {tier} collectives need the "
                    f"whole-torus communicator (offload trees are mesh "
                    f"geometry)"
                )
            device = getattr(self.engine, "device", None)
            engine = getattr(device, "collective", None)
            if engine is None or engine.label.lower() != tier:
                raise MpiError(
                    f"rank {self.rank}: {tier} collectives not enabled "
                    f"on this node's device (call enable_{tier}"
                    f"_collectives first)"
                )
        self._offload = engine
        return tier

    def _offload_collective(self, mode: str, root: int, nbytes: int,
                            op: Optional[Op], data: Any):
        """Process: one collective on the kernel or NIC engine.

        A mid-collective death surfaces from the offload engines as
        :class:`~repro.errors.ViaError`; re-checking the failure state
        translates it to the ULFM ``MpiProcFailed`` contract whenever a
        group member is known dead (the death callbacks run before the
        waiter resumes, so the engine's dead set is already updated).
        """
        self._check_ft_collective()
        if not 0 <= root < self.size:
            raise TopologyError(f"rank {root} out of range [0, {self.size})")
        try:
            result = yield from self._offload.collective(
                mode, root, data, op, nbytes)
        except ViaError:
            self._check_ft_collective()
            raise
        return result

    # -- collectives ----------------------------------------------------------
    def bcast(self, root: int = 0, nbytes: Optional[int] = None,
              count: Optional[int] = None, datatype: Datatype = BYTE,
              data: Any = None):
        """Process: MPI_Bcast; returns the broadcast data."""
        from repro.collectives import broadcast

        size = _resolve_bytes(nbytes, count, datatype)
        if self._offload is not None:
            result = yield from self._offload_collective(
                "bcast", root, size, None, data)
            return result
        result = yield from broadcast.bcast(self, root, size, data)
        return result

    def reduce(self, root: int = 0, nbytes: Optional[int] = None,
               count: Optional[int] = None, datatype: Datatype = BYTE,
               op: Op = SUM, data: Any = None):
        """Process: MPI_Reduce; root gets the combined value."""
        from repro.collectives import reduce as reduce_mod

        size = _resolve_bytes(nbytes, count, datatype)
        if self._offload is not None:
            result = yield from self._offload_collective(
                "reduce", root, size, op, data)
            return result
        result = yield from reduce_mod.reduce(self, root, size, op, data)
        return result

    def allreduce(self, nbytes: Optional[int] = None,
                  count: Optional[int] = None, datatype: Datatype = BYTE,
                  op: Op = SUM, data: Any = None):
        """Process: MPI_Allreduce (the paper's global combining)."""
        from repro.collectives import combine

        size = _resolve_bytes(nbytes, count, datatype)
        if self._offload is not None:
            result = yield from self._offload_collective(
                "combine", 0, size, op, data)
            return result
        result = yield from combine.allreduce(self, size, op, data)
        return result

    def barrier(self):
        """Process: MPI_Barrier = global combine with a null reduction
        (paper section 5.2)."""
        from repro.collectives import combine

        if self._offload is not None:
            yield from self._offload_collective("combine", 0, 0, NULL,
                                                None)
            return
        yield from combine.allreduce(self, 0, NULL, None)

    def scatter(self, root: int = 0, nbytes: Optional[int] = None,
                count: Optional[int] = None, datatype: Datatype = BYTE,
                data: Optional[Sequence[Any]] = None,
                algorithm: str = "opt"):
        """Process: one-to-all personalized communication.

        ``algorithm`` selects the paper's ``"sdf"`` or ``"opt"``
        scheduler (section 5.2).  Returns this rank's slice.
        """
        from repro.collectives import scatter as scatter_mod

        size = _resolve_bytes(nbytes, count, datatype)
        result = yield from scatter_mod.scatter(self, root, size, data,
                                                algorithm=algorithm)
        return result

    def gather(self, root: int = 0, nbytes: Optional[int] = None,
               count: Optional[int] = None, datatype: Datatype = BYTE,
               data: Any = None, algorithm: str = "opt"):
        """Process: all-to-one personalized (reverse of scatter)."""
        from repro.collectives import gather as gather_mod

        size = _resolve_bytes(nbytes, count, datatype)
        result = yield from gather_mod.gather(self, root, size, data,
                                              algorithm=algorithm)
        return result

    def allgather(self, nbytes: Optional[int] = None,
                  count: Optional[int] = None, datatype: Datatype = BYTE,
                  data: Any = None):
        """Process: MPI_Allgather; returns the per-rank list."""
        from repro.collectives import allgather as allgather_mod

        size = _resolve_bytes(nbytes, count, datatype)
        result = yield from allgather_mod.allgather(self, size, data)
        return result

    def scatterv(self, root: int = 0, sizes: Optional[Sequence[int]] = None,
                 data: Optional[Sequence[Any]] = None,
                 algorithm: str = "opt"):
        """Process: MPI_Scatterv — per-destination byte counts."""
        from repro.collectives import scatter as scatter_mod

        if sizes is None:
            raise MpiError("scatterv requires per-rank sizes")
        result = yield from scatter_mod.scatter(self, root, list(sizes),
                                                data,
                                                algorithm=algorithm)
        return result

    def gatherv(self, root: int = 0, sizes: Optional[Sequence[int]] = None,
                data: Any = None, algorithm: str = "opt"):
        """Process: MPI_Gatherv — per-source byte counts."""
        from repro.collectives import gather as gather_mod

        if sizes is None:
            raise MpiError("gatherv requires per-rank sizes")
        result = yield from gather_mod.gather(self, root, list(sizes),
                                              data, algorithm=algorithm)
        return result

    def scan(self, nbytes: Optional[int] = None,
             count: Optional[int] = None, datatype: Datatype = BYTE,
             op: Op = SUM, data: Any = None):
        """Process: MPI_Scan (inclusive prefix reduction)."""
        from repro.collectives import scan as scan_mod

        size = _resolve_bytes(nbytes, count, datatype)
        result = yield from scan_mod.scan(self, size, op, data)
        return result

    def reduce_scatter(self, nbytes: Optional[int] = None,
                       count: Optional[int] = None,
                       datatype: Datatype = BYTE, op: Op = SUM,
                       data: Optional[Sequence[Any]] = None):
        """Process: MPI_Reduce_scatter (equal block sizes)."""
        from repro.collectives import scan as scan_mod

        size = _resolve_bytes(nbytes, count, datatype)
        result = yield from scan_mod.reduce_scatter(self, size, op,
                                                    data)
        return result

    def alltoall(self, nbytes: Optional[int] = None,
                 count: Optional[int] = None, datatype: Datatype = BYTE,
                 data: Optional[Sequence[Any]] = None):
        """Process: all-to-all personalized = parallel one-to-all from
        every node (paper section 5.2)."""
        from repro.collectives import alltoall as alltoall_mod

        size = _resolve_bytes(nbytes, count, datatype)
        result = yield from alltoall_mod.alltoall(self, size, data)
        return result

    # -- ULFM fault tolerance --------------------------------------------------
    @property
    def _ft_context(self) -> int:
        """Wire context for fault-tolerant agreement traffic.

        Negative, so it can never collide with the non-negative
        ``2*context`` / ``2*context + 1`` point-to-point and collective
        contexts; the engine blanket-fails negative-context requests on
        every death notice (agreement trees reshuffle, so a pending
        receive may wait on a rank that will never send) and exempts
        them from revocation (ULFM: agree works on a revoked
        communicator).
        """
        return -2 * self.context - 2

    def revoke(self) -> None:
        """ULFM MPI_Comm_revoke: mark this communicator unusable.

        Propagates out-of-band through the connection manager (the
        moral equivalent of the real system's TCP bootstrap plane, and
        the only channel guaranteed to work when the fabric is down):
        every engine fails its pending requests on this context with
        :class:`MpiRevoked`, and all future operations on any rank's
        handle raise at entry.  Idempotent; survivors typically call
        this after catching :class:`MpiProcFailed`, then
        :meth:`agree` / :meth:`shrink` to recover.
        """
        self.engine.manager.revoke(self.context, self.epoch)

    @property
    def revoked(self) -> bool:
        return self.context in self.engine.revoked

    def agree(self, flag: bool = True):
        """Process: ULFM MPI_Comm_agree.

        Returns the logical AND of every surviving caller's ``flag``;
        all callers that return (rather than dying) return the same
        value, even across failures during the agreement itself.
        Works on a revoked communicator.
        """
        result, _survivors = yield from self._agree(flag)
        return result

    def _agree(self, flag: bool):
        """Process: agreement protocol; returns (flag, survivors).

        A binary tree over the current alive members reduces the flags
        up and broadcasts the decision down.  The first root to decide
        deposits ``(flag, survivors)`` in the connection manager's
        write-once registry — the deposit, not the messages, is the
        authoritative decision, which is what makes the protocol safe
        to retry with a reshuffled tree after mid-agreement deaths:

        * every death notice blanket-fails pending agreement traffic
          (negative context), so no participant waits on a tree peer
          that no longer exists — it re-enters the loop and rebuilds
          the tree from the new alive-set;
        * a fresh deposit "kicks" all still-blocked participants the
          same way, and each retry starts by consulting the registry;
        * result messages only ever carry the deposited value (the
          root sends what it deposited; inner nodes forward verbatim),
          so whichever path a caller completes by, the value agrees.

        Contributions and results use distinct tags (``2*seq`` /
        ``2*seq + 1``) so a stale contribution from an earlier attempt
        can never be mistaken for a decision.
        """
        engine = self.engine
        manager = engine.manager
        live = engine.liveness
        dead = () if live is None else live.dead
        self._agree_seq += 1
        seq = self._agree_seq
        key = (self.context, seq)
        context = self._ft_context
        value = bool(flag)
        while True:
            decided = manager.agreements.get(key)
            if decided is not None:
                return decided
            if live is not None and live.crashed:
                raise MpiProcFailed(
                    f"rank {self.rank}: this node has crashed",
                    dead_rank=engine.rank,
                )
            alive = tuple(r for r in self.group.ranks() if r not in dead)
            index = alive.index(engine.rank)
            parent = alive[(index - 1) // 2] if index > 0 else None
            children = [alive[c] for c in (2 * index + 1, 2 * index + 2)
                        if c < len(alive)]
            try:
                subtree = value
                for child in children:
                    request = engine.irecv(child, 2 * seq, context, 64)
                    yield from request.wait()
                    subtree = subtree and bool(request.received_data)
                if parent is None:
                    decided = manager.deposit_agreement(key, subtree,
                                                        alive)
                    result = decided[0]
                else:
                    up = engine.isend(parent, 2 * seq, context, 64,
                                      data=subtree)
                    yield from up.wait()
                    down = engine.irecv(parent, 2 * seq + 1, context, 64)
                    yield from down.wait()
                    result = bool(down.received_data)
                for child in children:
                    engine.isend(child, 2 * seq + 1, context, 64,
                                 data=result)
                decided = manager.agreements.get(key)
                if decided is not None:
                    return decided
                return (result, alive)
            except (MpiError, ViaError, MessagingError):
                continue

    def shrink(self) -> Any:
        """Process: ULFM MPI_Comm_shrink.

        Agrees on the survivor set and returns a new communicator over
        it (derived context, ``epoch + 1``).  The survivor set comes
        from the agreement deposit, so every live caller builds the
        identical group even when their local alive views briefly
        disagree.  The torus geometry is dropped — collectives on the
        shrunken communicator fall back to the generic binomial
        algorithms, exactly like any sub-communicator.
        """
        _flag, survivors = yield from self._agree(True)
        members = [r for r in self.group.ranks() if r in survivors]
        context = self.context * 64 + next(self._derived)
        new_group = self.group.subset(
            self.group.local_rank(world) for world in members
        )
        shrunk = Communicator(self.engine, new_group, context,
                              torus=None)
        shrunk.epoch = self.epoch + 1
        return shrunk

    # -- communicator management ---------------------------------------------
    def dup(self) -> "Communicator":
        """MPI_Comm_dup (same group, fresh context).

        Deterministic context derivation keeps ranks consistent as long
        as every rank performs communicator operations in the same
        order — which MPI requires anyway.
        """
        return Communicator(self.engine, self.group,
                            self.context * 64 + next(self._derived),
                            torus=self.torus)

    def create(self, ranks: Sequence[int]) -> Optional["Communicator"]:
        """MPI_Comm_create over a subset of *this* communicator's ranks.

        Returns None on ranks outside the new group.
        """
        new_group = self.group.subset(ranks)
        context = self.context * 64 + next(self._derived)
        if not new_group.contains(self.engine.rank):
            return None
        return Communicator(self.engine, new_group, context, torus=None)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Communicator(rank={self.rank}/{self.size}, "
            f"context={self.context})"
        )
