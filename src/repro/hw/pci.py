"""Bandwidth-shared buses: the host memory bus (and PCI-X accounting).

:class:`BandwidthBus` is a *fluid* (generalized-processor-sharing) bus:
concurrent transfers share the byte rate max-min fairly, with optional
per-transfer rate caps (a memory copy cannot stream at full bus speed;
a DMA cannot exceed its PCI-X segment rate).  Under the fast scheduler
the fluid model costs one queue entry per transfer (its join; the
completion runs inline in the wake that settles it) plus the bus's wake
entry once per instant at which a flow may finish and no join already
queued gets there first — far cheaper and far more accurate at
microsecond scale than chunked FIFO arbitration, which would make a
1.5 KB copy wait multi-microsecond turns behind queued DMA bursts.

Allocation is water-filling: every active transfer gets an equal share
of the remaining rate; transfers capped below their share release the
surplus to the rest.
"""

from __future__ import annotations

from heapq import heappush
from operator import attrgetter
from typing import List, Optional

from repro.errors import ConfigurationError, SimulationError
from repro.sim import Simulator
from repro.sim.events import Event, NORMAL, _PENDING

#: Residual bytes below this complete immediately (a millionth of a
#: byte).  Must be comfortably above accumulated float error so a
#: shrinking horizon can never fall under the ulp of ``sim.now`` —
#: that would stop time advancing and live-lock the event loop.
_EPS = 1e-6
#: Smallest scheduled horizon (us). 1e-6 us stays above float ulp for
#: simulated times up to ~10^9 us.
_MIN_HORIZON = 1e-6
_INF = float("inf")
_weight = attrgetter("weight")


class _Flow(Event):
    """One transfer on a fluid bus: flow record, join entry, completion.

    Building the record is entering the bus — argument checks and entry
    accounting, the same for both transfer shapes.  The caller waits on
    the flow itself.  :meth:`transfer_event` also has it queued
    *pending* (``join_at``) for the end of the setup window, so the
    kernel processes a fused flow twice at most: while pending
    ``_process`` admits it to the bus; once the bus has triggered it
    (reference scheduler only — the fast one completes flows inline in
    ``_settle``) ``_process`` is the ordinary callback run.
    """

    __slots__ = ("bus", "remaining", "cap", "weight", "rate")

    def __init__(self, bus: "BandwidthBus", nbytes: float,
                 cap: Optional[float], weight: float,
                 join_at: Optional[float] = None) -> None:
        if cap is not None and cap <= 0:
            raise ConfigurationError(f"rate cap must be > 0, got {cap}")
        if weight <= 0:
            raise ConfigurationError(f"weight must be > 0, got {weight}")
        self.sim = sim = bus.sim
        now = sim._now
        if join_at is not None and join_at < now:
            raise SimulationError(
                f"cannot schedule at {join_at} before now={now}")
        stats = bus.stats
        stats["transfers"] += 1
        stats["bytes"] += nbytes
        rec = sim.recorder
        if rec is not None:
            rec.metrics.observe("bus:" + bus.name, now, float(nbytes))
        bus._entered += 1
        self.name = f"{bus.name}:xfer" if sim.trace is not None else ""
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self.bus = bus
        self.remaining = float(nbytes)
        self.cap = cap
        self.weight = weight
        self.rate = 0.0
        if join_at is not None:
            sim._sequence = sequence = sim._sequence + 1
            if join_at == now and sim._fast:
                sim._normal.append((join_at, sequence, self))
            else:
                heappush(sim._queue, (join_at, NORMAL, sequence, self))

    def _process(self) -> None:
        if self._value is _PENDING:
            # The post-setup half of a transfer: admit the flow.
            bus = self.bus
            bus._join_times.remove(bus.sim._now)
            bus._settle()
            flows = bus._flows
            flows.append(self)
            if len(flows) > bus.stats["max_concurrency"]:
                bus.stats["max_concurrency"] = len(flows)
            bus._reallocate()
        else:
            super()._process()


class _Wake(Event):
    """A bus's one wake entry (fast scheduler), queued again for every
    wake instant."""

    __slots__ = ("bus",)

    def __init__(self, bus: "BandwidthBus") -> None:
        super().__init__(bus.sim)
        self.bus = bus
        self._ok = True
        self._value = None

    def _process(self) -> None:
        bus = self.bus
        now = bus.sim._now
        try:
            bus._wake_times.remove(now)
        except ValueError:  # pragma: no cover - defensive
            pass
        if not bus._flows:
            return
        target = bus._wake_time
        if now >= target:
            bus._settle()
            if bus._flows:
                bus._reallocate()
        else:
            # Stale fire ahead of the valid target: re-arm.
            bus._arm_wake(target)


class BandwidthBus:
    """A fluid-shared bus with a fixed aggregate byte rate."""

    def __init__(self, sim: Simulator, rate: float, setup: float = 0.0,
                 name: str = "bus") -> None:
        if rate <= 0:
            raise ConfigurationError(f"bus rate must be > 0, got {rate}")
        self.sim = sim
        self.rate = rate
        self.setup = setup
        self.name = name
        self._flows: List[_Flow] = []
        self._last_update = 0.0
        self._wake_generation = 0
        #: Fast-path wake bookkeeping: the currently valid wake target
        #: and the fire times of the outstanding entries of the one
        #: reusable wake event.  Invariant while flows are active: some
        #: outstanding time <= the target.
        self._wake_time = 0.0
        self._wake_times: List[float] = []
        self._wake_event = _Wake(self)
        #: Instants of the fused joins still queued.  A join settles and
        #: reallocates itself, so one landing strictly before a wake
        #: target makes that wake redundant (see _arm_wake).
        self._join_times: List[float] = []
        #: Transfers past the entry checks but not yet completed; covers
        #: the setup window before the flow is appended, so the frame
        #: train planner can prove the bus fully idle.
        self._entered = 0
        self.stats = {"transfers": 0, "bytes": 0.0, "max_concurrency": 0}

    # -- public API ------------------------------------------------------------
    @property
    def concurrency(self) -> int:
        """Number of active transfers."""
        return len(self._flows)

    def busy(self) -> bool:
        return bool(self._flows)

    def utilization_rate(self) -> float:
        """Currently allocated bytes/us across all flows."""
        return sum(flow.rate for flow in self._flows)

    def transfer(self, nbytes: float, rate_cap: Optional[float] = None,
                 weight: float = 1.0):
        """Process: move ``nbytes``; completes when the fluid share
        delivered them.

        ``rate_cap`` bounds this transfer's rate; ``weight`` scales its
        share of a contended bus (memory controllers service CPU loads
        ahead of device DMA, so copies carry a high weight).
        """
        if nbytes < 0:
            raise ConfigurationError(f"negative transfer size {nbytes}")
        flow = _Flow(self, nbytes, rate_cap, weight)
        try:
            if self.setup:
                yield self.sim.timeout(self.setup)
            if nbytes == 0:
                return 0.0
            # A join is the pending flow's own step and takes its
            # instant off ``_join_times``; this one was never queued,
            # so it is listed only to run at once.
            self._join_times.append(self.sim._now)
            flow._process()
            yield flow
        finally:
            self._entered -= 1
        return nbytes

    def transfer_event(self, nbytes: float,
                       rate_cap: Optional[float] = None,
                       weight: float = 1.0,
                       at: Optional[float] = None) -> Event:
        """Fast-path transfer: returns the completion event directly.

        Same validation, stats, and timing as :meth:`transfer`, but the
        setup wait and the flow join are fused into one queue entry —
        the returned flow itself, which joins at the instant the
        reference path's setup timeout would resume — so the caller
        suspends once instead of twice.  Requires ``setup > 0`` and
        ``nbytes > 0``: a zero-delay join would queue behind entries
        that :meth:`transfer`'s inline join runs ahead of, so those
        cases keep the generator path.  ``at`` overrides the join
        instant for callers that fold a preceding fixed delay into the
        transfer (it must equal the reference path's float-rounded
        instant).
        """
        if nbytes <= 0:
            raise ConfigurationError(f"non-positive transfer size {nbytes}")
        if self.setup <= 0:
            raise ConfigurationError(
                f"transfer_event needs a setup window, bus setup is "
                f"{self.setup}")
        if at is None:
            at = self.sim._now + self.setup
        flow = _Flow(self, nbytes, rate_cap, weight, at)
        flow.callbacks.append(self._transfer_done)
        self._join_times.append(at)
        return flow

    def _transfer_done(self, _flow: _Flow) -> None:
        self._entered -= 1

    # -- fluid mechanics ---------------------------------------------------
    def _settle(self) -> None:
        """Advance every flow's progress to the current instant.

        Flows at (or within float error of) zero remaining complete
        even when no time has elapsed — see the _EPS note above.
        """
        sim = self.sim
        now = sim._now
        elapsed = now - self._last_update
        self._last_update = now
        flows = self._flows
        finished = None
        for flow in flows:
            if elapsed > 0:
                flow.remaining -= elapsed * flow.rate
            if flow.remaining <= _EPS:
                flow.remaining = 0.0
                if finished is None:
                    finished = [flow]
                else:
                    finished.append(flow)
        if finished is None:
            return
        for flow in finished:
            flows.remove(flow)
        if sim._fast:
            # Completion runs the flow's callbacks inline instead of
            # round-tripping through the zero-delay queue.  The queue
            # position is identical: a completion instant drains the
            # urgent queue before this (NORMAL) wake fires, so the flow
            # would be at the queue head anyway, and callbacks of
            # multiple finished flows run in the same FIFO order.  All
            # flows are unlinked above before any callback runs, so a
            # re-entrant _settle from a continuation sees a consistent
            # flow list (and elapsed == 0 makes it a no-op).
            for flow in finished:
                flow._ok = True
                flow._value = None
                callbacks, flow.callbacks = flow.callbacks, None
                for callback in callbacks:
                    callback(flow)
        else:
            for flow in finished:
                flow.succeed()

    def _reallocate(self) -> None:
        """Water-fill the rate over active flows; schedule next wake."""
        flows = self._flows
        if not flows:
            return
        if len(flows) == 1:
            # Same arithmetic as the general loop specialized to one
            # flow (sum of one weight and min over one flow are exact).
            f = flows[0]
            unit = self.rate / f.weight
            share = f.weight * unit
            cap = f.cap
            f.rate = cap if (cap is not None and cap < share) else share
            horizon = f.remaining / f.rate
        else:
            budget = self.rate
            pending = flows
            while pending:
                # sum(), not a += loop: CPython 3.12 compensates float
                # sums, so a hand loop would move the last ulp there for
                # weights that do not add exactly (0.1 + 0.3).
                unit = budget / sum(map(_weight, pending))
                # Flows still uncapped after this round; stays None (and
                # the shares just assigned are final) if none is capped.
                rest = None
                for index, f in enumerate(pending):
                    share = f.weight * unit
                    cap = f.cap
                    if cap is not None and cap < share:
                        if rest is None:
                            rest = pending[:index]
                        f.rate = cap
                        budget -= cap
                    else:
                        f.rate = share
                        if rest is not None:
                            rest.append(f)
                if rest is None:
                    break
                pending = rest
            horizon = _INF
            for f in flows:
                ahead = f.remaining / f.rate
                if ahead < horizon:
                    horizon = ahead
        if horizon < _MIN_HORIZON:
            horizon = _MIN_HORIZON
        self._wake_generation += 1
        sim = self.sim
        if sim._fast:
            self._wake_time = target = sim._now + horizon
            self._arm_wake(target)
        else:
            sim.spawn(
                self._wake(self._wake_generation, horizon),
                name=f"{self.name}:wake",
            )

    def _on_wake(self, generation: int) -> None:
        if generation != self._wake_generation:
            return  # superseded by a membership change
        self._settle()
        self._reallocate()

    def _arm_wake(self, target: float) -> None:
        """Queue the wake entry for ``target`` unless an entry already
        queued will do its work.

        An outstanding wake at or before the target re-arms itself on a
        stale fire (see _Wake._process), so settle/reallocate still run
        at exactly the valid instant and membership churn strands no
        dead entry per reallocation.  A queued join *strictly* before
        the target settles and reallocates itself, which supersedes
        this target; one *at* the target does not count — the wake was
        sequenced first and must settle before the join does.
        """
        times = self._wake_times
        for t in times:
            if t <= target:
                return
        for t in self._join_times:
            if t < target:
                return
        times.append(target)
        sim = self.sim
        sim._sequence = sequence = sim._sequence + 1
        if target == sim._now:
            sim._normal.append((target, sequence, self._wake_event))
        else:
            heappush(sim._queue, (target, NORMAL, sequence, self._wake_event))

    def _wake(self, generation: int, delay: float):
        yield self.sim.timeout(delay)
        self._on_wake(generation)
