"""Request router: admission control, coalescing, deadlines, retries.

The router sits between the transport (socket server or in-process
client) and the fleet.  For each submit request it:

1. validates the job spec (malformed specs get a structured,
   non-retriable ``ProtocolError`` response);
2. consults the content-addressed cache — a hit returns the frozen
   result without touching the fleet;
3. coalesces with an identical in-flight request (single-flight: one
   engine run serves every concurrent requester of the same key);
4. applies admission control — if the accepted-pending set is full the
   request is shed *before* acceptance with a retriable ``overloaded``
   response (bounded queue, no unbounded buffering);
5. runs the job with a per-attempt wall-clock deadline, retrying on a
   fresh worker with exponential backoff when the worker crashes,
   hangs, or blows the deadline — up to ``max_attempts``, then a
   structured retriable error.  Deterministic job failures are never
   retried.

Every accepted request therefore terminates: attempts are bounded,
each attempt is bounded by its deadline (enforced by killing the
worker), and backoffs are finite.  ``Router.counters`` is the one book
of what happened; with the telemetry plane on it is registered under
the ``service`` prefix (exported live as ``service_<key>_total``), and
each request and attempt leaves a wall span on the plane's bounded
``service`` track.  With the plane off a request leaves nothing behind.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

from repro import telemetry
from repro.service.cache import ResultCache
from repro.service.fleet import Fleet, FleetStopped
from repro.service.protocol import (
    DeadlineExceeded,
    JobFailed,
    JobSpec,
    ProtocolError,
    WorkerCrashed,
    error_response,
    ok_response,
    overloaded_response,
)


@dataclass(frozen=True)
class RouterConfig:
    """Robustness knobs (see the failure matrix in docs/SERVICE.md)."""

    #: Accepted-but-unfinished requests admitted before load shedding.
    max_pending: int = 64
    #: Attempt budget per accepted request (first try + retries).
    max_attempts: int = 3
    #: Exponential backoff: ``base * factor**(attempt-1)`` seconds.
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    #: Default per-attempt wall-clock deadline (requests may lower it
    #: with a ``deadline_s`` field; it is clamped to this ceiling).
    deadline_s: float = 120.0
    #: Hint returned with overloaded responses.
    retry_after_s: float = 0.05
    #: Graceful-drain budget before shutdown gives up waiting.
    drain_timeout_s: float = 60.0


def _span(tel: "telemetry.Telemetry", kind: str, spec: JobSpec,
          start: float) -> None:
    """A wall span on the ``service`` track from ``start`` (a
    ``time.monotonic()`` reading) to now."""
    tel.wall_span(kind, spec.label(), "service", start - tel.t0, tel.now())


def _attempt(tel: "telemetry.Telemetry", outcome: str, spec: JobSpec,
             start: float) -> None:
    """One finished attempt: its latency histogram and its span."""
    tel.registry.histogram("service_attempt_seconds", outcome=outcome
                           ).observe(time.monotonic() - start)
    _span(tel, f"attempt-{outcome}", spec, start)


class Router:
    """Dispatches validated requests to the fleet through the cache."""

    def __init__(self, fleet: Fleet, cache: Optional[ResultCache] = None,
                 config: Optional[RouterConfig] = None) -> None:
        self.fleet = fleet
        self.cache = cache if cache is not None else ResultCache()
        self.config = config or RouterConfig()
        #: The router's one book: every count ``status()``, the reports,
        #: the ledger and (with the plane on) the telemetry plane read.
        self.counters: Dict[str, int] = {
            "requests": 0, "accepted": 0, "completed": 0,
            "cache_hits": 0, "coalesced": 0, "shed": 0,
            "bad_requests": 0, "job_failures": 0, "retries": 0,
            "retriable_errors": 0, "drained_rejects": 0,
        }
        self._pending = 0
        self._inflight: Dict[str, asyncio.Future] = {}
        self._draining = False
        self._drained = asyncio.Event()
        self._drained.set()
        self._t0 = time.monotonic()
        tel = telemetry.ACTIVE
        if tel is not None:
            tel.register_counters("service", self.counters)

    def _observe_load(self, tel: "telemetry.Telemetry") -> None:
        tel.registry.gauge("service_queue_depth").set(self._pending)
        tel.registry.gauge("service_busy_workers").set(
            len(self.fleet.busy_workers()))

    # -- the submit path ----------------------------------------------------
    async def submit(self, request: Mapping[str, Any]) -> Dict[str, Any]:
        """Handle one submit request end to end; always returns a
        response dict, never raises, never hangs."""
        self.counters["requests"] += 1
        tel = telemetry.ACTIVE
        rid = request.get("id")
        started = time.monotonic()
        try:
            spec = JobSpec.from_wire(request.get("job"))
        except ProtocolError as exc:
            self.counters["bad_requests"] += 1
            if tel is not None:
                tel.events.warn("service.bad_request", str(exc),
                                run=tel.run_id)
            return error_response(rid, "ProtocolError", str(exc),
                                  retriable=False)
        key = spec.cache_key()

        cached = self.cache.get(key)
        if cached is not None:
            self.counters["cache_hits"] += 1
            if tel is not None:
                _span(tel, "request", spec, started)
            return ok_response(rid, key, cached, "hit", attempts=0,
                               elapsed_s=time.monotonic() - started)

        leader = self._inflight.get(key)
        if leader is not None:
            self.counters["coalesced"] += 1
            response = dict(await leader)
            response["id"] = rid
            if response["status"] == "ok":
                response["cache"] = "coalesced"
            response["elapsed_s"] = round(time.monotonic() - started, 6)
            if tel is not None:
                _span(tel, "request", spec, started)
            return response

        if self._draining:
            self.counters["drained_rejects"] += 1
            return error_response(rid, "ShuttingDown",
                                  "service is draining; resubmit later",
                                  retriable=True)
        if self._pending >= self.config.max_pending:
            self.counters["shed"] += 1
            if tel is not None:
                tel.events.warn("service.shed", spec.label(),
                                run=tel.run_id, pending=self._pending)
            return overloaded_response(rid, self.config.retry_after_s)

        # Accepted: from here the request MUST terminate with a
        # response, and the single-flight future MUST resolve so
        # coalesced waiters can never hang.
        self.counters["accepted"] += 1
        self._pending += 1
        self._drained.clear()
        if tel is not None:
            self._observe_load(tel)
        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        try:
            response = await self._execute(rid, spec, key, started,
                                           request.get("deadline_s"))
        except Exception as exc:  # belt and braces: never leak a raise
            response = error_response(rid, type(exc).__name__, str(exc),
                                      retriable=True)
        finally:
            del self._inflight[key]
            future.set_result(response)
            self._pending -= 1
            if self._pending == 0:
                self._drained.set()
            if tel is not None:
                self._observe_load(tel)
        if tel is not None:
            _span(tel, "request", spec, started)
        return response

    async def _execute(self, rid: Any, spec: JobSpec, key: str,
                       started: float,
                       requested_deadline: Any = None) -> Dict[str, Any]:
        # The deadline is a *request* field, not part of the job spec,
        # so it can never perturb the cache key.
        deadline = self.config.deadline_s
        if isinstance(requested_deadline, (int, float)) \
                and not isinstance(requested_deadline, bool) \
                and requested_deadline > 0:
            deadline = min(float(requested_deadline), deadline)
        last_error: Optional[Exception] = None
        tel = telemetry.ACTIVE
        for attempt in range(1, self.config.max_attempts + 1):
            attempt_start = time.monotonic()
            try:
                payload = await self.fleet.run_job(spec, timeout=deadline)
            except JobFailed as exc:
                # Deterministic failure: retrying re-runs the same
                # engine on the same config — surface it immediately.
                self.counters["job_failures"] += 1
                if tel is not None:
                    _attempt(tel, "failed", spec, attempt_start)
                    tel.events.error("service.job_failure", exc.detail,
                                     run=tel.run_id, job=spec.label(),
                                     error_type=exc.error_type,
                                     attempt=attempt)
                return error_response(rid, exc.error_type, exc.detail,
                                      retriable=False, attempts=attempt,
                                      key=key)
            except (WorkerCrashed, DeadlineExceeded, FleetStopped) as exc:
                last_error = exc
                if tel is not None:
                    _attempt(tel, "lost", spec, attempt_start)
                    tel.events.warn("service.attempt_lost", str(exc),
                                    run=tel.run_id, job=spec.label(),
                                    error_type=type(exc).__name__,
                                    attempt=attempt)
                if attempt >= self.config.max_attempts or isinstance(
                        exc, FleetStopped):
                    break
                self.counters["retries"] += 1
                backoff = (self.config.backoff_base_s *
                           self.config.backoff_factor ** (attempt - 1))
                await asyncio.sleep(backoff)
            else:
                self.cache.put(key, payload)
                self.counters["completed"] += 1
                if tel is not None:
                    _attempt(tel, "ok", spec, attempt_start)
                return ok_response(rid, key, payload, "miss",
                                   attempts=attempt,
                                   elapsed_s=time.monotonic() - started)
        self.counters["retriable_errors"] += 1
        if tel is not None:
            tel.events.error(
                "service.retry_exhausted",
                f"{spec.label()}: {last_error}", run=tel.run_id,
                job=spec.label(), attempts=self.config.max_attempts)
        return error_response(
            rid, type(last_error).__name__,
            f"{spec.label()}: retry budget exhausted after "
            f"{self.config.max_attempts} attempts ({last_error})",
            retriable=True, attempts=self.config.max_attempts, key=key,
            checkpoint=self._latest_checkpoint(key),
        )

    def _latest_checkpoint(self, key: str) -> Optional[Dict[str, Any]]:
        """Newest durable checkpoint for ``key``, as wire-shaped info.

        Attached to retriable errors so the client knows a resubmit
        resumes rather than recomputes (``None`` when the job never
        checkpointed — e.g. it crashed before the first snapshot).
        """
        root = self.fleet.ckpt_dir
        if not root:
            return None
        from repro.ckpt import CheckpointStore

        try:
            ref = CheckpointStore(root).latest(key)
        except OSError:  # pragma: no cover - unreadable store
            return None
        if ref is None:
            return None
        return {"id": ref.ckpt_id, "kind": ref.kind, "index": ref.index}

    # -- drain / status ------------------------------------------------------
    async def drain(self) -> bool:
        """Stop admitting, wait for in-flight requests to finish.

        Returns True when the pending set emptied within the drain
        budget (False means shutdown proceeded with work abandoned).
        """
        self._draining = True
        try:
            await asyncio.wait_for(self._drained.wait(),
                                   self.config.drain_timeout_s)
            return True
        except asyncio.TimeoutError:
            return False

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def pending(self) -> int:
        return self._pending

    def status(self) -> Dict[str, Any]:
        return {
            "status": "ok",
            "pending": self._pending,
            "draining": self._draining,
            "counters": dict(self.counters),
            "cache": self.cache.snapshot(),
            "fleet": self.fleet.status(),
            "uptime_s": round(time.monotonic() - self._t0, 3),
        }


__all__ = ["Router", "RouterConfig"]
