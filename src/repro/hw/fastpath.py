"""Steady-state frame-train fast path for the transmit pipeline.

When a sender queues a burst of back-to-back frames on an otherwise
idle NIC pipeline (the steady state of every bandwidth experiment), the
reference simulation pays ~6 queue events per frame: the DMA join and
bus wake, the FIFO put/get pair, the wire-stage sleep, and the delivery
callback.  None of those intermediate events are observable — only the
per-frame DMA-completion instants (send-completion semantics) and the
arrival instants at the peer port matter.  This module collapses the
whole train into an analytic plan computed with *exactly* the float
operations the per-frame path would execute, then commits the plan as
one bulk update: statistics are added in O(1) batches and only the
observable instants are scheduled (one delivery callback per frame,
plus any ``on_fetched`` completion hooks).

Pipeline recurrences (each a single IEEE-754 double op, in the same
order the live code performs them):

* ``join_i = fl(P_{i-1} + setup)`` — the DMA's bus-join instant;
* ``d_i`` — DMA completion, from a single-flow replay of
  :class:`~repro.hw.pci.BandwidthBus` (water-fill horizon, wake at
  ``fl(t + horizon)``, settle with ``fl(rem - fl(elapsed * rate))``);
* ``P_i = max(d_i, slot_i)`` — the FIFO put, where ``slot_i`` is the
  wire-pop instant that frees the i-th slot of the 4-deep FIFO;
* ``W_i = max(S_{i-1}, P_i)`` — the wire stage pops frame *i*;
* ``S_i = fl(fl(W_i + tx_proc) + fl(wire_bytes / wire_rate))`` — the
  serialization epilogue of the wire loop's folded wait;
* ``A_i = fl(S_i + propagation)`` — arrival at the peer port.

Engagement guard
----------------
The plan is valid only if nothing can perturb the sender's resources
(memory bus, transmit FIFO, wire) before the fetch stage drains at
``P_{n-1}``.  The guard requires the memory bus idle, the wire stage
parked on an empty FIFO, the zero-delay queues drained, and every
pending heap entry to either fire at/after the train's last DMA or be
provably harmless: a preempted interrupt-coalescing timer (fires as a
no-op), or a mid-message train delivery terminating at a *different*
host (mid-message receive processing never generates return traffic).
Any contention — aggregated-bandwidth runs, cross traffic, software
checksums, fault injection — fails the guard and the caller falls back
to the exact per-frame path.

A committed train leaves a :class:`VirtualResidue` on the port: the
wire stage is virtually busy until ``S_{n-1}`` and FIFO slots are
virtually occupied until their planned pop instants, so frames (or
further trains, which seed their plan from the residue) that follow
immediately still observe the exact reference timing.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional

from repro.hw.node import PCIX_RATE
from repro.hw.pci import _EPS, _MIN_HORIZON
from repro.obs.recorder import DMA, WIRE_HOP
from repro.sim.events import Callback

#: Minimum burst size worth planning; shorter bursts go per-frame.
TRAIN_MIN_FRAMES = 3

#: ``guard_scope`` value marking a callback harmless to every host.
HARMLESS = object()


class FrameTrain:
    """A burst of frames enqueued as one transmit-ring item."""

    __slots__ = ("frames",)

    def __init__(self, frames: list) -> None:
        self.frames = frames


class TrainCallback(Callback):
    """A Callback the engagement guard can classify.

    ``guard_scope`` is ``None`` while the callback may affect any host
    (blocks every train), a :class:`~repro.hw.node.Host` when its
    effects are confined to that host (blocks only that host's
    trains), or :data:`HARMLESS` once it is known to fire as a no-op.
    """

    __slots__ = ("guard_scope",)

    def __init__(self, sim, fn, guard_scope=None, delay: float = 0.0,
                 at: Optional[float] = None) -> None:
        self.guard_scope = guard_scope
        super().__init__(sim, fn, delay, at)


class VirtualResidue:
    """Post-train pipeline state the live loops must respect.

    ``wire_ready`` is when the (virtual) wire stage frees; ``free_at``
    holds the future pop instants of virtually occupied FIFO slots, in
    nondecreasing order.
    """

    __slots__ = ("wire_ready", "free_at")

    def __init__(self, wire_ready: float, free_at: List[float]) -> None:
        self.wire_ready = wire_ready
        self.free_at = free_at

    def occupancy(self, now: float) -> int:
        """Virtually occupied FIFO slots; drops expired entries."""
        free_at = self.free_at
        while free_at and free_at[0] <= now:
            free_at.pop(0)
        return len(free_at)


class _Plan:
    __slots__ = ("dma_done", "arrivals", "d_last", "fetch_free",
                 "wire_ready", "slot_release", "seed_count", "reallocs",
                 "dma_bytes", "payload_bytes")


def _bus_replay(join: float, nbytes: float, bus_rate: float,
                cap: float):
    """Completion instant of an uncontended DMA joining at ``join``.

    Replays :meth:`BandwidthBus._reallocate` (single-flow shortcut) and
    :meth:`BandwidthBus._settle` op-for-op: identical divisions,
    additions, and the 1e-6 horizon clamp, so the result is the bit
    pattern the live path would produce.  Returns
    ``(instant, reallocations)``.
    """
    remaining = float(nbytes)
    unit = bus_rate / 1.0          # weight is 1.0 for NIC DMA
    share = 1.0 * unit
    rate = cap if cap < share else share
    now = join
    reallocs = 0
    while True:
        reallocs += 1
        horizon = remaining / rate
        if horizon < _MIN_HORIZON:
            horizon = _MIN_HORIZON
        target = now + horizon
        elapsed = target - now
        remaining = remaining - elapsed * rate
        now = target
        if remaining <= _EPS:
            return now, reallocs


def plan_train(port, frames) -> Optional[_Plan]:
    """Try to plan ``frames`` as one analytic train on ``port``.

    Returns None when the engagement guard fails; the caller must then
    run the exact per-frame path.
    """
    sim = port.sim
    if not sim._fast or sim.trace is not None:
        return None
    if sim._urgent or sim._normal:
        return None
    link = port.link
    params = port.params
    if (link is None or not params.hw_checksum or link.fault_capable
            or link.is_boundary):
        # Any fault knob (legacy corrupt_every or the generalized
        # loss/flap/death model) disengages the train: the plan
        # schedules arrivals unconditionally, which a dropped frame
        # would falsify.  Shard-boundary links disengage too — their
        # egress must be committed frame by frame at serialization
        # start for the PDES lookahead bound to hold.  The caller runs
        # the exact per-frame path.
        return None
    host = port.host
    membus = host.membus
    if membus._flows or membus._entered or membus.setup <= 0:
        return None
    # The wire stage must be parked — which says the FIFO is empty and
    # no producer blocked, too: it parks only on an empty FIFO and takes
    # up whatever is put there next.  (A port that runs its transmit
    # pipeline as processes never gets here: see the link test above.)
    if port._tx_wire_frame is not None:
        return None
    line = link._lines[port.side]
    if line._holders or line._waiters:
        return None
    # Send completion mid-train would wake the application while the
    # plan assumes exclusive host resources; only the final frame may
    # carry a completion hook (its effects start at the train's end).
    for frame in frames[:-1]:
        if frame.on_fetched is not None:
            return None

    now = sim._now
    virt = port._virt
    seed_slots: List[float] = []
    s_prev = None
    if virt is not None:
        if now >= virt.wire_ready:
            port._virt = None
        else:
            virt.occupancy(now)
            seed_slots = virt.free_at
            s_prev = virt.wire_ready

    setup = membus.setup
    bus_rate = membus.rate
    tx_proc = params.tx_proc
    dma_overhead = params.frame_overhead
    wire_overhead = link.frame_overhead
    wire_rate = link.wire_rate
    propagation = link.propagation
    fifo_cap = int(port._tx_fifo.capacity)

    dma_done: List[float] = []
    arrivals: List[float] = []
    slot_release = list(seed_slots)
    seed_count = len(seed_slots)
    p_prev = now
    reallocs = 0
    dma_bytes = 0
    payload_bytes = 0
    for i, frame in enumerate(frames):
        wire = frame.padded_bytes + dma_overhead
        dma_bytes += wire
        payload_bytes += frame.payload_bytes
        join = p_prev + setup
        d_i, r = _bus_replay(join, wire, bus_rate, PCIX_RATE)
        reallocs += r
        dma_done.append(d_i)
        slot_index = seed_count + i - fifo_cap
        if slot_index >= 0 and slot_release[slot_index] > d_i:
            p_i = slot_release[slot_index]
        else:
            p_i = d_i
        w_i = p_i if (s_prev is None or s_prev < p_i) else s_prev
        slot_release.append(w_i)
        ser = (frame.padded_bytes + wire_overhead) / wire_rate
        s_prev = (w_i + tx_proc) + ser
        arrivals.append(s_prev + propagation)
        p_prev = p_i

    d_last = dma_done[-1]
    # Nothing else may touch this host before the last DMA completes.
    for entry in sim._queue:
        if entry[0] >= d_last:
            continue
        scope = getattr(entry[3], "guard_scope", None)
        if scope is HARMLESS or (scope is not None and scope is not host):
            continue
        return None

    plan = _Plan()
    plan.dma_done = dma_done
    plan.arrivals = arrivals
    plan.d_last = d_last
    plan.fetch_free = p_prev
    plan.wire_ready = s_prev
    plan.slot_release = slot_release
    plan.seed_count = seed_count
    plan.reallocs = reallocs
    plan.dma_bytes = dma_bytes
    plan.payload_bytes = payload_bytes
    return plan


def commit_train(port, frames, plan: _Plan) -> VirtualResidue:
    """Apply ``plan``: bulk statistics plus the observable callbacks."""
    sim = port.sim
    host = port.host
    link = port.link
    side = port.side
    n = len(frames)

    membus = host.membus
    membus.stats["transfers"] += n
    membus.stats["bytes"] += plan.dma_bytes
    if membus.stats["max_concurrency"] < 1:
        membus.stats["max_concurrency"] = 1
    membus._last_update = plan.d_last
    membus._wake_time = plan.d_last
    membus._wake_generation += plan.reallocs

    host.stats["dmas"] += n
    host.stats["dma_bytes"] += plan.dma_bytes
    host.pci_bytes[port.pci_index] += plan.dma_bytes

    port.stats["tx_frames"] += n
    port.stats["tx_bytes"] += plan.payload_bytes
    link._lines[side].stats["grants"] += n
    link.stats["frames"][side] += n
    link.stats["bytes"][side] += plan.payload_bytes

    fifo = port._tx_fifo
    fifo.stats["puts"] += n
    fifo.stats["gets"] += n
    level = n if n < fifo.capacity else int(fifo.capacity)
    if fifo.stats["max_level"] < level:
        fifo.stats["max_level"] = level

    # Only the observable instants are scheduled.  Mid-message arrivals
    # that terminate at the peer are scoped to the peer's host for the
    # guard (receive processing of a non-final fragment cannot generate
    # return traffic); forwarded or final fragments stay unscoped.
    peer = link.peer(side)
    peer_node = peer.host.node_id
    last = n - 1
    pending = []
    for i, frame in enumerate(frames):
        if frame.on_fetched is not None:
            pending.append((plan.dma_done[i], None, frame.on_fetched))
        dst = getattr(frame.payload, "dst_node", None)
        scope = (peer.host if (i < last and dst == peer_node) else None)
        pending.append((plan.arrivals[i], scope, frame))
    pending.sort(key=lambda item: item[0])
    for when, scope, target in pending:
        if callable(target):
            Callback(sim, target, at=when)
        else:
            TrainCallback(sim, partial(peer.frame_arrived, target), scope,
                          at=when)

    rec = sim.recorder
    if rec is not None:
        _record_train_spans(port, frames, plan, rec)

    free_at = [t for t in plan.slot_release if t > plan.fetch_free]
    port._virt = VirtualResidue(plan.wire_ready, free_at)
    return port._virt


def _record_train_spans(port, frames, plan: _Plan, rec) -> None:
    """Synthesize the spans/metrics the reference per-frame path would
    have recorded for this train (recorder-on runs only).

    The fetch-start chain is recomputed with the same recurrence
    ``plan_train`` used, so every instant is the identical IEEE-754
    float the slow path's instrumentation would capture — recorder
    output stays scheduler-mode identical.
    """
    sim = port.sim
    link = port.link
    host = port.host
    node = f"n{host.node_id}"
    tx_proc = port.params.tx_proc
    fifo_cap = int(port._tx_fifo.capacity)
    dma_overhead = port.params.frame_overhead
    bus_series = "bus:" + host.membus.name
    pci_series = f"pci{port.pci_index}:{node}"
    p_prev = sim._now
    for i, frame in enumerate(frames):
        wire = frame.padded_bytes + dma_overhead
        rec.metrics.observe(bus_series, p_prev, float(wire))
        rec.metrics.observe(pci_series, p_prev, float(wire))
        ctx = getattr(frame.payload, "trace", None)
        if ctx is not None:
            rec.span(ctx, DMA, port.name, node, p_prev, plan.dma_done[i])
            w_i = plan.slot_release[plan.seed_count + i]
            rec.span(ctx, WIRE_HOP, link.name, link.name,
                     w_i + tx_proc, plan.arrivals[i])
        slot_index = plan.seed_count + i - fifo_cap
        if (slot_index >= 0
                and plan.slot_release[slot_index] > plan.dma_done[i]):
            p_prev = plan.slot_release[slot_index]
        else:
            p_prev = plan.dma_done[i]
