"""Worker-process main loop.

Each fleet worker is a separate OS process: it reads jobs from its
pipe, executes them through the pure :func:`repro.service.jobs.execute`
code path, and writes results back.  A daemon thread heartbeats on the
same pipe (guarded by a lock — ``Connection`` is not thread-safe) so
the parent's supervisor can distinguish *working* from *wedged*: a
SIGSTOPped or livelocked worker stops heartbeating and is killed and
replaced, while a long legitimate run keeps beating.

Message shapes on the pipe (plain tuples, pickled by multiprocessing):

parent -> worker
    ``("job", job_id, spec_wire_dict)`` and ``("stop",)``
worker -> parent
    ``("ready", pid)`` once at startup,
    ``("heartbeat", monotonic_t)`` periodically,
    ``("result", job_id, payload, meta)`` on success, where ``meta``
    carries the worker-side simulator event count for the job so the
    parent can fold it into its own ``TOTAL_EVENTS`` (older
    three-element results are still accepted) plus any
    checkpoint/resume telemetry the job published through
    :data:`repro.service.jobs.LAST_RUN_META` — out-of-band, because
    the payload itself must stay bit-identical across retries,
    ``("error", job_id, error_type, message)`` on a deterministic
    job failure (the worker survives and takes the next job).
"""

from __future__ import annotations

import os
import threading
from typing import Any


def worker_main(conn: Any, heartbeat_interval: float = 0.1,
                ckpt_dir: Any = None, telemetry_on: bool = False) -> None:
    """Run the worker loop over ``conn`` until ``stop`` or pipe EOF.

    ``ckpt_dir`` (from the fleet) becomes this process's default
    checkpoint store root, so every job that checkpoints writes where
    a replacement worker will look after a crash.  When
    ``telemetry_on`` the worker enables its own telemetry plane and
    ships a *cumulative* registry snapshot with every result (in
    ``meta``, never the payload — cache bit-identity); the parent
    keeps the newest snapshot per worker and merges on read.
    """
    if ckpt_dir:
        from repro.ckpt import set_default_root

        set_default_root(ckpt_dir)
    worker_tel = None
    if telemetry_on:
        from repro import telemetry

        worker_tel = telemetry.enable()
    send_lock = threading.Lock()
    stopping = threading.Event()

    def _send(message) -> bool:
        with send_lock:
            try:
                conn.send(message)
                return True
            except (OSError, ValueError):
                return False

    def _beat() -> None:
        import time

        while not stopping.is_set():
            if not _send(("heartbeat", time.monotonic())):
                return
            stopping.wait(heartbeat_interval)

    _send(("ready", os.getpid()))
    threading.Thread(target=_beat, name="heartbeat", daemon=True).start()
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            op = message[0]
            if op == "stop":
                break
            if op != "job":
                continue
            _, job_id, wire = message
            try:
                from repro.service import jobs
                from repro.service.protocol import JobSpec
                from repro.sim import core as sim_core

                before = sim_core.TOTAL_EVENTS
                payload = jobs.execute(JobSpec.from_wire(wire))
                meta = {"events": sim_core.TOTAL_EVENTS - before}
                meta.update(jobs.LAST_RUN_META)
                if worker_tel is not None:
                    meta["telemetry"] = worker_tel.registry.snapshot()
                reply = ("result", job_id, payload, meta)
            except Exception as exc:  # deterministic job failure
                reply = ("error", job_id, type(exc).__name__, str(exc))
            if not _send(reply):
                break
    finally:
        stopping.set()
        try:
            conn.close()
        except OSError:
            pass


__all__ = ["worker_main"]
