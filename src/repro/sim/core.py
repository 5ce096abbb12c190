"""The simulator event loop.

The scheduler is a binary heap of ``(time, priority, sequence, event)``
tuples.  The monotone ``sequence`` counter makes same-time same-priority
ordering FIFO, so the whole simulation is deterministic — a hard
requirement for reproducing the paper's tables bit-for-bit across runs.

When the fast path is enabled (see :mod:`repro.fastpath`), zero-delay
events — the bulk of all traffic: store dispatches, resource grants,
process wakeups — bypass the heap into two FIFO deques (one per
priority tier).  Entries appended to a deque carry the current clock
and a monotone sequence number, so each deque is sorted by
``(time, priority, sequence)`` by construction and a three-way merge
against the heap preserves the exact reference processing order.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Generator, Optional

from repro import fastpath
from repro.errors import DeadlockError, SimulationError
from repro.sim.events import Event, NORMAL, Timeout, URGENT, _PENDING
from repro.sim.process import Process

#: Events processed across every simulator in this interpreter; read by
#: the ledger, the service worker and ``python -m repro.bench``'s closing
#: line to report events per run.
TOTAL_EVENTS = 0

_INF = float("inf")


class _Never:
    """What :meth:`Simulator.run` awaits: an event that never triggers."""

    _value = _PENDING


_NEVER = _Never()


def record_external_events(count: int) -> None:
    """Fold events processed by simulators in *other* processes into
    :data:`TOTAL_EVENTS`.

    Worker processes (the service fleet, PDES shard workers) each run
    their own interpreter, so their simulators bump their own module
    global; callers that collect per-simulator ``events_processed``
    deltas over the wire report them here so profile output counts the
    whole experiment, not just the parent's share.
    """
    if count < 0:
        raise SimulationError(
            f"external event count must be non-negative ({count})"
        )
    global TOTAL_EVENTS
    TOTAL_EVENTS += count


class Simulator:
    """Owns the clock and the event queue.

    Parameters
    ----------
    trace:
        Optional :class:`repro.sim.monitor.Trace` receiving a record per
        processed event (cheap to leave off; benchmarks run untraced).
    """

    def __init__(self, trace: Optional["Trace"] = None) -> None:
        self._now = 0.0
        self._queue: list = []
        #: Zero-delay events, (time, sequence, event); sorted by
        #: construction since time and sequence are monotone.
        self._urgent: deque = deque()
        self._normal: deque = deque()
        self._sequence = 0
        self._active_process: Optional[Process] = None
        self.trace = trace
        #: Optional message-lifecycle flight recorder
        #: (:class:`repro.obs.recorder.FlightRecorder`).  ``None`` keeps
        #: every instrumentation site to one attribute test and leaves
        #: the hot scheduler loop untouched.
        self.recorder = None
        self._crashed: list = []
        #: Events processed by this simulator.
        self.events_processed = 0
        #: Request-handle id stream (messaging core).  Per-simulator,
        #: not process-global, because rendezvous ids cross the wire:
        #: a checkpoint replay rebuilding this simulator mid-process
        #: must hand out the same ids as the original run.
        self._req_ids = 0
        #: Application-progress counter: completion surfaces (VI
        #: descriptor completions, messaging-core request completions,
        #: kernel-collective results) bump this so the hang watchdog
        #: can distinguish real progress from timer churn — keepalive
        #: and retransmission timers keep the event queue busy forever,
        #: so queue activity alone cannot witness liveness.
        self.progress = 0
        #: Optional zero-argument callable returning extra diagnostics
        #: (stuck VIs/requests/ranks); appended to deadlock and hang
        #: reports.  Installed by ``MeshCluster`` when node faults are
        #: configured.
        self.hang_diagnostics = None
        #: Sampled once at construction; all fast-path branches key off
        #: this so a mid-run flag flip cannot desynchronize a simulation.
        self._fast = fastpath.enabled()

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in microseconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- scheduling ---------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0,
                 priority: int = NORMAL) -> None:
        """Queue ``event`` for processing at ``now + delay``."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past ({delay})")
        self._sequence = sequence = self._sequence + 1
        if delay == 0.0 and self._fast:
            if priority == NORMAL:
                self._normal.append((self._now, sequence, event))
                return
            if priority == URGENT:
                self._urgent.append((self._now, sequence, event))
                return
        heapq.heappush(
            self._queue, (self._now + delay, priority, sequence, event)
        )

    def schedule_at(self, event: Event, when: float,
                    priority: int = NORMAL) -> None:
        """Queue ``event`` for processing at absolute time ``when``.

        Needed by the frame-train fast path: replaying a planned
        timestamp through ``schedule(delay=when - now)`` would round
        differently (``fl(now + fl(when - now)) != when`` in general).
        """
        if when < self._now:
            raise SimulationError(
                f"cannot schedule at {when} before now={self._now}"
            )
        self._sequence = sequence = self._sequence + 1
        if when == self._now and self._fast:
            if priority == NORMAL:
                self._normal.append((when, sequence, event))
                return
            if priority == URGENT:
                self._urgent.append((when, sequence, event))
                return
        heapq.heappush(self._queue, (when, priority, sequence, event))

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` microseconds from now."""
        return Timeout(self, delay, value)

    def sleep_until(self, when: float) -> Event:
        """A pre-triggered event that fires at absolute time ``when``."""
        event = Event(self)
        event._ok = True
        event._value = None
        self.schedule_at(event, when)
        return event

    def event(self, name: str = "") -> Event:
        """A fresh untriggered event."""
        return Event(self, name=name)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    # -- queue selection -----------------------------------------------------
    def _select(self):
        """(time, source) of the next event; source 0 means empty.

        Sources: 1 = urgent deque, 2 = normal deque, 3 = heap.
        """
        best = None
        source = 0
        entries = self._urgent
        if entries:
            head = entries[0]
            best = (head[0], URGENT, head[1])
            source = 1
        entries = self._normal
        if entries:
            head = entries[0]
            key = (head[0], NORMAL, head[1])
            if best is None or key < best:
                best = key
                source = 2
        entries = self._queue
        if entries:
            head = entries[0]
            key = (head[0], head[1], head[2])
            if best is None or key < best:
                best = key
                source = 3
        if source == 0:
            return _INF, 0
        return best[0], source

    def _pop(self, source: int) -> Event:
        if source == 1:
            return self._urgent.popleft()[2]
        if source == 2:
            return self._normal.popleft()[2]
        return heapq.heappop(self._queue)[3]

    # -- execution ----------------------------------------------------------
    def step(self) -> float:
        """Process one event; returns its timestamp."""
        when, source = self._select()
        if source == 0:
            raise DeadlockError("event queue empty")
        event = self._pop(source)
        self._now = when
        self.events_processed += 1
        global TOTAL_EVENTS
        TOTAL_EVENTS += 1
        if self.trace is not None:
            self.trace.record(when, event)
        event._process()
        if self._crashed:
            self._raise_crashed(when)
        return when

    def _drive(self, bound: float, awaited) -> bool:
        """The scheduler loop behind :meth:`run` and
        :meth:`run_until_complete`.

        Processes events in ``(time, priority, sequence)`` order until
        ``awaited`` triggers, the next event lies past ``bound``, or
        nothing is queued.  Returns False only for the last reason; the
        callers tell the other two apart by looking at ``awaited``.
        """
        if not self._fast or self.trace is not None:
            # Reference scheduler, the oracle the fast loop is tested
            # against: one merge, one trace branch, one event at a time.
            while awaited._value is _PENDING:
                when, source = self._select()
                if source == 0:
                    return False
                if when > bound:
                    return True
                self.step()
            return True
        # Hot loop: no trace branch, the three-way merge inlined without
        # key-tuple allocation, a lone heap entry dispatched as popped
        # and same-instant heap runs drained in one batch.
        processed = 0
        crashed = self._crashed
        urgent = self._urgent
        normal = self._normal
        queue = self._queue
        heappop = heapq.heappop
        heappush = heapq.heappush
        try:
            # ``while True`` plus a test, not ``while <test>``: CPython
            # 3.11 warms a code object up for specialization only on
            # calls and unconditional backward jumps (12 % per event).
            while True:
                if awaited._value is not _PENDING:
                    return True
                if urgent:
                    head = urgent[0]
                    when = head[0]
                    if normal and normal[0][0] < when:
                        head = normal[0]
                        when = head[0]
                        priority = NORMAL
                        source = 2
                    else:
                        priority = URGENT
                        source = 1
                elif normal:
                    head = normal[0]
                    when = head[0]
                    priority = NORMAL
                    source = 2
                else:
                    source = 0
                if queue:
                    entry = queue[0]
                    entry_time = entry[0]
                    if source == 0 or entry_time < when or (
                        entry_time == when
                        and (entry[1] < priority
                             or (entry[1] == priority
                                 and entry[2] < head[1]))
                    ):
                        when = entry_time
                        source = 3
                if source == 0:
                    return False
                if when > bound:
                    return True
                self._now = when
                if source == 1:
                    processed += 1
                    urgent.popleft()[2]._process()
                elif source == 2:
                    processed += 1
                    normal.popleft()[2]._process()
                else:
                    first = heappop(queue)
                    priority = first[1]
                    if not (queue and queue[0][0] == when
                            and queue[0][1] == priority):
                        processed += 1
                        first[3]._process()
                    else:
                        # Batch drain: every heap entry at this
                        # (time, priority) is already in final order —
                        # the sequence field settles ties — and in fast
                        # mode no new heap entry can appear at the
                        # current instant (zero-delay scheduling goes to
                        # the deques), so dispatching the run without
                        # re-running the merge per event is order-exact.
                        batch = [first, heappop(queue)]
                        while (queue and queue[0][0] == when
                               and queue[0][1] == priority):
                            batch.append(heappop(queue))
                        index = 0
                        nbatch = len(batch)
                        normal_batch = priority == NORMAL
                        while index < nbatch:
                            if awaited._value is not _PENDING:
                                # Later same-instant events stay queued,
                                # as the reference loop leaves them.
                                break
                            if normal_batch and urgent:
                                # A zero-delay urgent event scheduled
                                # mid-batch outranks the rest of it.
                                break
                            event = batch[index][3]
                            index += 1
                            processed += 1
                            event._process()
                            if crashed:
                                break
                        if index < nbatch:
                            # Requeue the unprocessed tail verbatim: the
                            # original tuples keep their sequence
                            # numbers, so relative order against the
                            # rest holds.
                            for item in batch[index:]:
                                heappush(queue, item)
                if crashed:
                    self._raise_crashed(when)
        finally:
            self.events_processed += processed
            global TOTAL_EVENTS
            TOTAL_EVENTS += processed

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or the clock passes ``until``.

        Returns the final simulated time.  With ``until`` set, the clock
        is advanced exactly to ``until`` even if no event lands there.
        """
        if until is None:
            self._drive(_INF, _NEVER)
        elif until < self._now:
            raise SimulationError(
                f"until={until} is before now={self._now}"
            )
        else:
            self._drive(until, _NEVER)
            self._now = until
        return self._now

    def run_until_complete(self, process: Process,
                           limit: Optional[float] = None) -> Any:
        """Run until ``process`` finishes; return its value.

        Raises :class:`DeadlockError` if the queue drains first and
        :class:`SimulationError` if the next event lies past ``limit``.
        """
        queued = self._drive(_INF if limit is None else limit, process)
        if process._value is _PENDING:
            if not queued:
                raise self._deadlock(process)
            raise SimulationError(
                f"{process.name!r} did not finish by t={limit}us"
            )
        if not process.ok:
            raise process.value
        return process.value

    def _deadlock(self, process: Process) -> DeadlockError:
        """Build a deadlock error, appending hang diagnostics if any."""
        message = (
            f"simulation deadlocked waiting for {process.name!r} "
            f"at t={self._now:.3f}us"
        )
        if self.hang_diagnostics is not None:
            message += "\n" + self.hang_diagnostics()
        return DeadlockError(message)

    def peek(self) -> float:
        """Timestamp of the next event, or +inf if the queue is empty."""
        return self._select()[0]

    @property
    def queue_length(self) -> int:
        """Number of scheduled-but-unprocessed events."""
        return len(self._queue) + len(self._urgent) + len(self._normal)

    # -- crash plumbing -------------------------------------------------------
    def _crash(self, process: Process, exc: BaseException) -> None:
        """Record an unhandled process failure for the scheduler loop."""
        self._crashed.append((process, exc))

    def _raise_crashed(self, when: float) -> None:
        """Re-raise the first process failure of the event processed at
        ``when``; any others that event caused are named in its note,
        so nothing is left to surface at a later, unrelated event."""
        (process, exc), *others = self._crashed
        self._crashed.clear()
        note = f"(unhandled in process {process.name!r} at t={when:.3f}us)"
        for other, other_exc in others:
            note += (f"\n(process {other.name!r} crashed on the same "
                     f"event: {other_exc!r})")
        exc.add_note(note)
        raise exc
