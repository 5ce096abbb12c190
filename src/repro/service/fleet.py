"""Supervised worker fleet: process pool with crash/hang detection.

The fleet owns ``size`` worker *processes* (spawn start method — no
inherited event-loop or lock state) connected by duplex pipes and
integrated with asyncio via ``loop.add_reader``.  Supervision mirrors
the keepalive idiom of the simulated failure detector in
``via/kernel_agent.py``, one layer up and in wall-clock time:

* **crash** — the worker's pipe hits EOF (SIGKILL, abort, exit); the
  in-flight job fails with :class:`WorkerCrashed` and a replacement
  worker is spawned immediately;
* **hang** — a *busy* worker stops heartbeating for ``hang_timeout``
  seconds (SIGSTOP, wedged syscall, livelock); the supervisor SIGKILLs
  it, which folds into the crash path (one death path, like the
  link-death teardown in the engine);
* **deadline** — the router's per-attempt timeout fires; the fleet
  kills the worker mid-job so a runaway simulation can never pin a
  pool slot.

Workers enter the dispatchable pool only after their ``ready``
message, so boot time is never misread as a hang.  Boot is the
interpreter, multiprocessing's spawn bootstrap and the ``worker`` +
``protocol`` modules; the engine is imported by the first job, numpy
by the first job that reduces real data, and the asyncio front-end
(this module, the router, the server) never (EXPERIMENTS.md, "Cold
start").  ``dispatches`` counts real engine runs — the counter the
cache tests assert against.
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
import os
import shutil
import signal
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional

from repro import telemetry
from repro.service.protocol import (
    DeadlineExceeded,
    JobFailed,
    JobSpec,
    ServiceError,
    WorkerCrashed,
)
from repro.service.worker import worker_main
from repro.sim import core as sim_core

_WORKER_IDS = itertools.count()

#: Queue sentinel used to wake idle-waiters when the fleet stops.
_STOP_SENTINEL = object()


def _mark_retrieved(future: "asyncio.Future") -> None:
    """Touch the future's exception so an abandoned attempt (deadline
    kill, cancelled caller) never logs 'exception was never
    retrieved'."""
    if not future.cancelled():
        future.exception()


class FleetStopped(ServiceError):
    """A job was submitted to a fleet that is not running."""


class WorkerHandle:
    """Parent-side view of one worker process."""

    __slots__ = ("index", "process", "conn", "state", "job",
                 "last_heartbeat", "jobs_done", "started_at")

    def __init__(self, index: int, process, conn) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        #: "starting" -> "idle" <-> "busy" -> "dead"
        self.state = "starting"
        #: The in-flight (job_id, JobSpec, Future) triple, if busy.
        self.job: Optional[tuple] = None
        self.last_heartbeat = time.monotonic()
        self.jobs_done = 0
        self.started_at = time.monotonic()

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def __repr__(self) -> str:  # pragma: no cover
        return f"WorkerHandle(#{self.index} pid={self.pid} {self.state})"


class Fleet:
    """A supervised pool of worker processes executing job specs."""

    def __init__(self, size: int = 2, *,
                 heartbeat_interval: float = 0.1,
                 hang_timeout: float = 5.0,
                 on_dispatch: Optional[Callable] = None,
                 ckpt_dir: Optional[str] = None) -> None:
        if size < 1:
            raise ValueError(f"fleet size must be >= 1, got {size}")
        self.size = size
        self.heartbeat_interval = heartbeat_interval
        self.hang_timeout = hang_timeout
        #: Shared checkpoint-store root handed to every worker (jobs
        #: that checkpoint write here; a replacement worker resumes
        #: from here).  ``None`` = allocate a private one at start()
        #: and remove it at stop().
        self.ckpt_dir = ckpt_dir
        self._owns_ckpt_dir = False
        #: Chaos/test hook, called as ``on_dispatch(fleet, handle,
        #: spec)`` right after a job is written to a worker.
        self.on_dispatch = on_dispatch
        #: Engine runs actually dispatched to workers (cache-hit and
        #: coalesced requests never increment this).
        self.dispatches = 0
        self.counters: Dict[str, int] = {
            "jobs_ok": 0, "jobs_failed": 0, "crashes": 0, "hangs": 0,
            "restarts": 0, "deadline_kills": 0, "worker_events": 0,
            "ckpt_loaded": 0, "ckpt_computed": 0, "ckpt_resumes": 0,
        }
        self.workers: List[WorkerHandle] = []
        self._idle: "asyncio.Queue[WorkerHandle]" = None  # set in start
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._supervisor: Optional[asyncio.Task] = None
        self._running = False
        self._next_job_id = itertools.count()
        self._ctx = multiprocessing.get_context("spawn")

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> None:
        """Spawn the initial workers and the supervision task."""
        self._loop = asyncio.get_running_loop()
        self._idle = asyncio.Queue()
        self._running = True
        if self.ckpt_dir is None:
            self.ckpt_dir = tempfile.mkdtemp(prefix="repro-ckpt-")
            self._owns_ckpt_dir = True
        for _ in range(self.size):
            self._spawn_worker()
        self._supervisor = self._loop.create_task(self._supervise(),
                                                  name="fleet-supervisor")

    def _spawn_worker(self) -> WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        # Workers inherit the plane's on/off state (spawn start method:
        # the child enables its own registry and ships cumulative
        # snapshots back in result meta).
        process = self._ctx.Process(
            target=worker_main,
            args=(child_conn, self.heartbeat_interval, self.ckpt_dir,
                  telemetry.enabled()),
            daemon=True,
            name=f"repro-service-worker-{next(_WORKER_IDS)}",
        )
        process.start()
        # The parent must drop its copy of the child's pipe end or the
        # pipe never reports EOF when the child dies.
        child_conn.close()
        handle = WorkerHandle(len(self.workers), process, parent_conn)
        self.workers.append(handle)
        self._loop.add_reader(parent_conn.fileno(),
                              self._on_readable, handle)
        return handle

    async def stop(self) -> None:
        """Stop every worker (politely when idle, by force otherwise)."""
        self._running = False
        if self._idle is not None:
            for _ in range(self.size + 1):
                self._idle.put_nowait(_STOP_SENTINEL)
        if self._supervisor is not None:
            self._supervisor.cancel()
            try:
                await self._supervisor
            except asyncio.CancelledError:
                pass
            self._supervisor = None
        for handle in self.workers:
            if handle.state == "dead":
                continue
            # A SIGSTOPped-but-idle worker would otherwise sit out the
            # polite-stop join; wake it first (harmless when running).
            self._signal(handle, signal.SIGCONT)
            if handle.state in ("idle", "starting"):
                try:
                    handle.conn.send(("stop",))
                except (OSError, ValueError):
                    pass
            else:
                self._signal(handle, signal.SIGKILL)
        deadline = time.monotonic() + 5.0
        for handle in self.workers:
            if handle.state == "dead":
                continue
            remaining = max(0.0, deadline - time.monotonic())
            await self._loop.run_in_executor(
                None, handle.process.join, remaining)
            if handle.process.is_alive():
                self._signal(handle, signal.SIGKILL)
                await self._loop.run_in_executor(
                    None, handle.process.join, 2.0)
            self._retire(handle, fail_job=True)
        if self._owns_ckpt_dir and self.ckpt_dir is not None:
            shutil.rmtree(self.ckpt_dir, ignore_errors=True)
            self.ckpt_dir = None
            self._owns_ckpt_dir = False

    # -- dispatch -----------------------------------------------------------
    async def run_job(self, spec: JobSpec, timeout: float) -> Any:
        """Run ``spec`` on an idle worker; the result payload, or raise.

        Raises :class:`JobFailed` for deterministic worker-side
        failures, :class:`WorkerCrashed` when the worker dies mid-job,
        and :class:`DeadlineExceeded` when ``timeout`` elapses (the
        worker is killed so the slot frees immediately).
        """
        if not self._running:
            raise FleetStopped("fleet is not running")
        handle = await self._acquire_idle()
        job_id = next(self._next_job_id)
        future = self._loop.create_future()
        future.add_done_callback(_mark_retrieved)
        handle.state = "busy"
        handle.job = (job_id, spec, future)
        handle.last_heartbeat = time.monotonic()
        self.dispatches += 1
        tel = telemetry.ACTIVE
        dispatch_start = tel.now() if tel is not None else 0.0
        if tel is not None:
            tel.registry.counter("fleet_dispatch_total").inc()
        try:
            handle.conn.send(("job", job_id, spec.to_wire()))
        except (OSError, ValueError):
            # Lost the worker between acquire and send: fold into the
            # crash path (the reader EOF may race us; _worker_died is
            # idempotent).
            self._worker_died(handle)
            raise WorkerCrashed(
                f"worker #{handle.index} died before accepting the job"
            ) from None
        if self.on_dispatch is not None:
            self.on_dispatch(self, handle, spec)
        try:
            payload = await asyncio.wait_for(
                asyncio.shield(future), timeout)
        except asyncio.TimeoutError:
            self.counters["deadline_kills"] += 1
            if tel is not None:
                tel.registry.counter("fleet_deadline_kills_total").inc()
                tel.events.warn(
                    "fleet.deadline_kill",
                    f"{spec.label()} blew its {timeout:.1f}s deadline",
                    run=tel.run_id, worker=handle.index, job_id=job_id)
            self._signal(handle, signal.SIGKILL)
            raise DeadlineExceeded(
                f"{spec.label()} exceeded its {timeout:.1f}s attempt "
                f"deadline on worker #{handle.index} (killed)"
            ) from None
        if tel is not None:
            tel.wall_span("dispatch", spec.label(), "fleet",
                          dispatch_start, tel.now())
        return payload

    async def _acquire_idle(self) -> WorkerHandle:
        while True:
            if not self._running:
                raise FleetStopped("fleet stopped while waiting for a "
                                   "worker")
            handle = await self._idle.get()
            if handle is not _STOP_SENTINEL and handle.state == "idle":
                return handle
            # Otherwise: a stale entry (the worker died, and was
            # replaced, while queued) or the stop sentinel — loop and
            # re-check the running flag.

    # -- pipe events --------------------------------------------------------
    def _on_readable(self, handle: WorkerHandle) -> None:
        try:
            while handle.conn.poll():
                message = handle.conn.recv()
                self._on_message(handle, message)
                if handle.state == "dead":
                    return
        except (EOFError, OSError):
            self._worker_died(handle)

    def _on_message(self, handle: WorkerHandle, message: tuple) -> None:
        op = message[0]
        if op == "heartbeat":
            handle.last_heartbeat = time.monotonic()
            return
        if op == "ready":
            handle.last_heartbeat = time.monotonic()
            if handle.state == "starting":
                handle.state = "idle"
                self._idle.put_nowait(handle)
            return
        if op in ("result", "error"):
            job = handle.job
            if job is None or job[0] != message[1]:
                return  # response to a job we already abandoned
            _, spec, future = job
            handle.job = None
            handle.jobs_done += 1
            handle.state = "idle"
            handle.last_heartbeat = time.monotonic()
            self._idle.put_nowait(handle)
            tel = telemetry.ACTIVE
            if op == "result":
                self.counters["jobs_ok"] += 1
                if tel is not None:
                    tel.registry.counter("fleet_jobs_total",
                                         outcome="ok").inc()
                if len(message) > 3:
                    # Fold the worker simulator's event count into this
                    # process's global tally; without this, fleet runs
                    # undercount TOTAL_EVENTS by everything simulated in
                    # child processes.
                    meta = message[3]
                    events = int(meta.get("events", 0))
                    if events > 0:
                        sim_core.record_external_events(events)
                        self.counters["worker_events"] += events
                    # Checkpoint/resume telemetry rides in meta (never
                    # the payload — cache bit-identity).
                    loaded = int(meta.get("ckpt_loaded", 0))
                    self.counters["ckpt_loaded"] += loaded
                    self.counters["ckpt_computed"] += int(
                        meta.get("ckpt_computed", 0))
                    if loaded or meta.get("ckpt_resumed_from") is not None:
                        self.counters["ckpt_resumes"] += 1
                    # The worker's cumulative registry snapshot rides
                    # out-of-band in meta; keep the newest per worker
                    # (indices are unique — workers are never reused).
                    worker_snapshot = meta.get("telemetry")
                    if tel is not None and worker_snapshot is not None:
                        tel.absorb_worker(f"w{handle.index}",
                                          worker_snapshot)
                if not future.done():
                    future.set_result(message[2])
            else:
                self.counters["jobs_failed"] += 1
                if tel is not None:
                    tel.registry.counter("fleet_jobs_total",
                                         outcome="failed").inc()
                if not future.done():
                    future.set_exception(JobFailed(message[2], message[3]))

    def _worker_died(self, handle: WorkerHandle) -> None:
        """Crash path: fail the in-flight job, replace the worker."""
        if handle.state == "dead":
            return
        tel = telemetry.ACTIVE
        if self._running:
            self.counters["crashes"] += 1
            if tel is not None:
                tel.registry.counter("fleet_crashes_total").inc()
                tel.events.warn(
                    "fleet.crash",
                    f"worker #{handle.index} (pid {handle.pid}) died",
                    run=tel.run_id, worker=handle.index,
                    state=handle.state)
        self._retire(handle, fail_job=True)
        if self._running:
            self.counters["restarts"] += 1
            if tel is not None:
                tel.registry.counter("fleet_respawns_total").inc()
            self._spawn_worker()

    def _retire(self, handle: WorkerHandle, fail_job: bool) -> None:
        if handle.state == "dead":
            return
        was = handle.state
        handle.state = "dead"
        tel = telemetry.ACTIVE
        if tel is not None:
            tel.registry.histogram("fleet_worker_lifetime_seconds").observe(
                time.monotonic() - handle.started_at)
        try:
            self._loop.remove_reader(handle.conn.fileno())
        except (OSError, ValueError):
            pass
        try:
            handle.conn.close()
        except OSError:
            pass
        job, handle.job = handle.job, None
        if fail_job and job is not None:
            _, spec, future = job
            if not future.done():
                future.set_exception(WorkerCrashed(
                    f"worker #{handle.index} (pid {handle.pid}) died "
                    f"while running {spec.label()} (was {was})"
                ))
        # Reap the process without blocking the loop.
        self._loop.run_in_executor(None, handle.process.join, 5.0)

    # -- supervision --------------------------------------------------------
    async def _supervise(self) -> None:
        """Wall-clock watchdog: kill busy workers that stop beating."""
        while True:
            await asyncio.sleep(self.heartbeat_interval)
            now = time.monotonic()
            for handle in list(self.workers):
                if handle.state != "busy":
                    continue
                if now - handle.last_heartbeat > self.hang_timeout:
                    self.counters["hangs"] += 1
                    tel = telemetry.ACTIVE
                    if tel is not None:
                        tel.registry.counter(
                            "fleet_hang_kills_total").inc()
                        tel.events.error(
                            "fleet.hang",
                            f"worker #{handle.index} silent for "
                            f"{now - handle.last_heartbeat:.1f}s, killing",
                            run=tel.run_id, worker=handle.index)
                    # SIGKILL works on stopped processes too; death
                    # arrives through the pipe-EOF crash path.
                    self._signal(handle, signal.SIGKILL)

    def _signal(self, handle: WorkerHandle, signum: int) -> bool:
        """Send ``signum`` to the worker (False if already gone)."""
        if handle.pid is None:
            return False
        try:
            os.kill(handle.pid, signum)
            return True
        except (ProcessLookupError, PermissionError):
            return False

    # -- introspection ------------------------------------------------------
    def alive_workers(self) -> List[WorkerHandle]:
        return [h for h in self.workers if h.state != "dead"]

    def busy_workers(self) -> List[WorkerHandle]:
        return [h for h in self.workers if h.state == "busy"]

    def status(self) -> Dict[str, Any]:
        return {
            "size": self.size,
            "alive": len(self.alive_workers()),
            "busy": len(self.busy_workers()),
            "dispatches": self.dispatches,
            "ckpt_dir": self.ckpt_dir,
            "counters": dict(self.counters),
            "workers": [
                {"index": h.index, "pid": h.pid, "state": h.state,
                 "jobs_done": h.jobs_done}
                for h in self.workers if h.state != "dead"
            ],
        }


__all__ = ["Fleet", "FleetStopped", "WorkerHandle"]
