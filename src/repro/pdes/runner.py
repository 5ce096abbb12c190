"""Conservative-window coordinator for sharded simulations.

``run_sharded`` partitions the torus into slabs
(:func:`~repro.topology.partition.make_shard_plan`), builds one
:class:`~repro.pdes.shard.ShardRuntime` per shard — in-process or as
subprocess workers — and advances them in lock-step windows:

1. ``base`` = min over all shards' next-event times and all in-flight
   cross-shard arrivals;
2. every shard runs to ``base + lookahead``, where the lookahead is
   the minimum wire latency of any cut link (no cross-shard influence
   can travel faster, because boundary egress is committed at
   serialization start — see :mod:`repro.topology.partition`);
3. at the barrier, committed egress frames and deferred channel
   notifies are exchanged and injected, in canonical order, for the
   next window.

Termination is *global quiescence* — every shard's queue drained and
nothing in flight — rather than any program-completion probe, so the
sharded and sequential engines process exactly the same event set.  A
shard whose drivers are still blocked at quiescence raises
:class:`~repro.errors.DeadlockError`, the distributed analogue of the
sequential engine's drained-queue deadlock.

Determinism contract (pinned by ``tests/test_pdes_identity.py``): for
fault-free runs, the experiment table, the flight-recorder span set
and every per-rank result are bit-identical across shard counts and
across the in-process/subprocess execution styles.  ``nshards=1``
through this same machinery *is* the sequential reference.

Checkpoint/restart (``checkpoint=CheckpointPolicy(...)``): window
barriers are the quiescent points.  The coordinator logs every window
call it issues; every ``every`` windows it captures per-shard state
digests and (with a store) persists the complete set — logs, digests,
pending egress, deferred notifies, peeks — atomically.  A shard that
dies mid-run (:class:`~repro.errors.ShardCrashed`) is respawned and
*replayed* from its log with digest verification, and a whole run can
resume from the newest persisted window set instead of restarting.
The differential harness (``tests/test_ckpt_identity.py``) pins that
crash-at-any-window → recover → completion is bit-identical to an
uninterrupted run.
"""

from __future__ import annotations

import copy
import pickle
import math
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import __version__, fastpath, telemetry
from repro.canonical import content_hash
from repro.telemetry.registry import geometric_bounds
from repro.ckpt import context as ckpt_context
from repro.ckpt.store import CheckpointStore
from repro.errors import ShardCrashed, SimulationError
from repro.hw.params import GigEParams
from repro.obs.merge import merge_recorders
from repro.pdes.shard import ShardRuntime
from repro.pdes.worker import shard_worker_main
from repro.pdes.workloads import get_workload
from repro.sim import core as sim_core
from repro.topology.partition import make_shard_plan, shard_lookahead
from repro.topology.torus import Torus

_INF = float("inf")

#: Telemetry bucket ladders for quantities that are not seconds:
#: window advance in simulated microseconds, merged frames per window.
_US_BOUNDS = geometric_bounds(0.01, 1e6, 3)
_COUNT_BOUNDS = geometric_bounds(1.0, 1e5, 3)


@dataclass
class CheckpointPolicy:
    """How a sharded run checkpoints, recovers, and resumes.

    ``every`` — capture a checkpoint at every Nth window barrier
    (0 disables captures but keeps in-memory window logs, so crashed
    shards are still recoverable by full replay).  ``store`` — persist
    captured sets durably (None keeps them in-memory only).
    ``resume`` — start from the newest persisted window set under this
    run's key, if one exists.  ``verify`` — check replayed state
    digests against the captured ones (refuse divergent restores).
    ``key`` — override the content-addressed run key (service callers
    pass their cache key so router/fleet can find the checkpoints).
    ``chaos_kill=(shard, window)`` — deliberately kill one shard just
    before the numbered window (chaos drills and the differential
    harness).
    """

    every: int = 1
    store: Optional[CheckpointStore] = None
    resume: bool = False
    verify: bool = True
    key: Optional[str] = None
    chaos_kill: Optional[Tuple[int, int]] = None


@dataclass
class PdesResult:
    """Outcome of one sharded run."""

    table: dict
    per_rank: Dict[int, object]
    nshards: int
    windows: int
    events_processed: int
    now: float
    wall_seconds: float
    processes: bool
    reliability: Dict[str, int] = field(default_factory=dict)
    recorder: Optional[object] = None
    #: Checkpoint/restart accounting (zero / None without a policy).
    recoveries: int = 0
    checkpoints: int = 0
    resumed_from: Optional[int] = None
    ckpt_key: str = ""


class InProcessShard:
    """Shard handle running the runtime in the coordinator process."""

    processes = False

    def __init__(self, spec: dict, restore: Optional[tuple] = None) -> None:
        self._shard_id = int(spec["shard_id"])
        self.runtime = ShardRuntime(spec)
        self._reply = None
        self._restored = None
        if restore is not None:
            self._restored = self.runtime.replay(restore[0], restore[1])

    def _alive(self) -> "ShardRuntime":
        if self.runtime is None:
            raise ShardCrashed(
                f"PDES shard {self._shard_id} is dead (in-process kill)",
                shard_id=self._shard_id,
            )
        return self.runtime

    def restored_state(self):
        return self._restored, self._alive().peek()

    def ready(self) -> float:
        return self._alive().peek()

    def window_send(self, until, ingress, notifies) -> None:
        self._reply = self._alive().run_window(until, ingress, notifies)

    def window_recv(self):
        self._alive()
        reply, self._reply = self._reply, None
        return reply

    def digest(self) -> str:
        return self._alive().state_digest()

    def finish_send(self) -> None:
        self._reply = self._alive().finish()

    def finish_recv(self) -> dict:
        self._alive()
        reply, self._reply = self._reply, None
        return reply

    def external_events(self, payload: dict) -> int:
        return 0  # this process's simulators already counted them

    def kill(self) -> None:
        """Chaos hook: drop the runtime as a process death would."""
        self.runtime = None
        self._reply = None

    def close(self) -> None:
        pass


class PipeShard:
    """Shard handle driving a spawn-context subprocess worker."""

    processes = True

    def __init__(self, spec: dict, restore: Optional[tuple] = None) -> None:
        self._shard_id = int(spec["shard_id"])
        ctx = multiprocessing.get_context("spawn")
        self.conn, child = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=shard_worker_main, args=(child,), daemon=True,
            name=f"repro-pdes-shard-{spec['shard_id']}",
        )
        self.process.start()
        # Drop our copy of the child's end so EOF propagates on death.
        child.close()
        if restore is None:
            self._send(("build", spec))
            self._restored = None
        else:
            self._send(("restore", spec, restore[0], restore[1]))
            message = self._recv("restored")
            self._restored = (message[1], message[2])

    def _send(self, message: tuple) -> None:
        try:
            self.conn.send(message)
        except (OSError, ValueError) as exc:
            raise ShardCrashed(
                f"PDES shard worker {self.process.name} died "
                f"(pipe write failed: {exc})",
                shard_id=self._shard_id,
            ) from None

    def _recv(self, expect: str) -> tuple:
        try:
            message = self.conn.recv()
        except (EOFError, OSError) as exc:
            # EOF, or a reset when the worker died with a message unread.
            raise ShardCrashed(
                f"PDES shard worker {self.process.name} died "
                f"(pipe read failed: {type(exc).__name__})",
                shard_id=self._shard_id,
            ) from None
        if message[0] == "error":
            # A *reported* error is a simulation fact, not a crash —
            # replaying it would deterministically fail again.
            raise SimulationError(
                f"PDES shard worker {self.process.name} failed: "
                f"{message[1]}\n{message[2]}"
            )
        if message[0] != expect:
            raise SimulationError(
                f"PDES protocol error: expected {expect!r}, got "
                f"{message[0]!r}"
            )
        return message

    def restored_state(self):
        return self._restored

    def ready(self) -> float:
        return self._recv("ready")[1]

    def window_send(self, until, ingress, notifies) -> None:
        self._send(("window", until, ingress, notifies))

    def window_recv(self):
        message = self._recv("barrier")
        return message[1], message[2], message[3]

    def digest(self) -> str:
        self._send(("digest",))
        return self._recv("digest")[1]

    def finish_send(self) -> None:
        self._send(("finish",))

    def finish_recv(self) -> dict:
        return self._recv("result")[1]

    def external_events(self, payload: dict) -> int:
        return int(payload["events"])

    def kill(self) -> None:
        """Chaos hook: SIGKILL the worker (no cleanup, like a crash)."""
        self.process.kill()
        self.process.join(timeout=10.0)

    def close(self) -> None:
        try:
            self.conn.send(("stop",))
        except (OSError, ValueError):
            pass
        try:
            self.conn.close()
        except OSError:
            pass
        self.process.join(timeout=10.0)
        if self.process.is_alive():  # pragma: no cover - cleanup path
            self.process.terminate()
            self.process.join(timeout=5.0)


class _ShardSet:
    """Shard handles under message-logging supervision.

    With a :class:`CheckpointPolicy` the set logs every window call per
    shard; a :class:`~repro.errors.ShardCrashed` from any handle is
    recovered by respawning the shard and replaying its log (verifying
    the last captured state digest), transparently to the window loop.
    Without a policy it is a zero-overhead pass-through: no logs, and
    crashes propagate as before.
    """

    def __init__(self, handle_cls, specs: List[dict],
                 policy: Optional[CheckpointPolicy], key: str) -> None:
        self.handle_cls = handle_cls
        self.specs = specs
        self.policy = policy
        self.key = key
        n = len(specs)
        self.shards: List[object] = []
        self.logs: List[list] = [[] for _ in range(n)]
        self.got: List[int] = [0] * n
        self.digests: List[tuple] = [(0, None)] * n
        self.recoveries = 0
        self.checkpoints_written = 0
        self._chaos_fired = False
        # Incremental capture state: how much of each log the store
        # already holds, and the window file it holds it under (the
        # ``base`` the next capture chains to).
        self._persisted: List[int] = [0] * n
        self._captured_window: Optional[int] = None

    # -- construction ---------------------------------------------------

    def build(self) -> List[float]:
        for spec in self.specs:
            self.shards.append(self.handle_cls(spec))
        return [shard.ready() for shard in self.shards]

    def restore_all(self, data: dict) -> List[float]:
        """Rebuild every shard from a persisted window set by replay."""
        self.logs = [list(calls) for calls in data["logs"]]
        self.digests = [tuple(entry) for entry in data["digests"]]
        self.got = [len(calls) for calls in self.logs]
        self._persisted = [len(calls) for calls in self.logs]
        self._captured_window = data["window"]
        peeks = []
        for index, spec in enumerate(self.specs):
            handle = self.handle_cls(
                spec,
                restore=(self._replay_calls(index), self._verify(index)))
            self.shards.append(handle)
            _last, peek = handle.restored_state()
            peeks.append(peek)
        return peeks

    def _replay_calls(self, index: int) -> list:
        """The shard's logged calls, isolated for (re-)delivery."""
        if self.handle_cls.processes:
            return list(self.logs[index])  # pickling isolates them
        return [
            pickle.loads(entry) if isinstance(entry, bytes)
            else copy.deepcopy(entry)
            for entry in self.logs[index]
        ]

    def _verify(self, index: int) -> Optional[tuple]:
        ncalls, digest = self.digests[index]
        if digest is None or self.policy is None or not self.policy.verify:
            return None
        return (ncalls, digest)

    # -- window protocol with recovery ----------------------------------

    def send(self, index: int, until, ingress, notifies) -> None:
        if self.policy is not None:
            entry = (until, ingress, notifies)
            if not self.handle_cls.processes:
                # In-process shards consume frame objects by reference
                # and mutate them, so the log must hold pristine
                # copies for replay.  Pickle bytes, not deepcopy:
                # dumps is several times cheaper on frame graphs,
                # decoding is deferred to the (rare) replay path, and
                # bytes are GC-untracked — a thousand-window log of
                # live tuples makes every gen-2 collection scan the
                # whole engine heap, which showed up as wall-clock
                # spikes in checkpointed runs.  Subprocess shards
                # get isolation for free via the pipe's pickling.
                entry = pickle.dumps(entry, protocol=4)
            self.logs[index].append(entry)
        try:
            self.shards[index].window_send(until, ingress, notifies)
        except ShardCrashed:
            if self.policy is None:
                raise
            # Recovery happens at recv; the call is already logged.

    def recv(self, index: int):
        try:
            reply = self.shards[index].window_recv()
        except ShardCrashed as death:
            reply = self._recover(index, death)
        if self.policy is not None:
            self.got[index] = len(self.logs[index])
        return reply

    def digest(self, index: int) -> str:
        try:
            return self.shards[index].digest()
        except ShardCrashed as death:
            self._recover(index, death)
            return self.shards[index].digest()

    def finish_all(self) -> List[dict]:
        for index in range(len(self.shards)):
            try:
                self.shards[index].finish_send()
            except ShardCrashed as death:
                self._recover(index, death)
                self.shards[index].finish_send()
        payloads = []
        for index in range(len(self.shards)):
            try:
                payloads.append(self.shards[index].finish_recv())
            except ShardCrashed as death:
                self._recover(index, death)
                self.shards[index].finish_send()
                payloads.append(self.shards[index].finish_recv())
        return payloads

    def _recover(self, index: int, death: ShardCrashed):
        """Respawn shard ``index`` and replay its logged window calls.

        Returns the replay's final window reply when the shard died
        with a window in flight (logged but unanswered); the fresh
        runtime's replay of that same call produces the identical
        reply, by the determinism contract.
        """
        if self.policy is None:
            raise death
        self.recoveries += 1
        tel = telemetry.ACTIVE
        if tel is not None:
            tel.registry.counter("pdes_recoveries_total").inc()
            tel.events.warn("pdes.recovery", str(death),
                            run=tel.run_id, shard=index)
        try:
            self.shards[index].close()
        except Exception:  # noqa: BLE001 - dead handle cleanup
            pass
        handle = self.handle_cls(
            self.specs[index],
            restore=(self._replay_calls(index), self._verify(index)))
        self.shards[index] = handle
        last, _peek = handle.restored_state()
        if self.got[index] < len(self.logs[index]):
            return last
        return None

    # -- checkpoint capture / chaos -------------------------------------

    def capture(self, window: int, peeks: List[float], pending: list,
                notifies: list) -> None:
        if self.policy is None:
            return
        tel = telemetry.ACTIVE
        capture_start = tel.now() if tel is not None else 0.0
        digest_start = time.perf_counter()
        if self.policy.verify:
            self.digests = [
                (len(self.logs[i]), self.digest(i))
                for i in range(len(self.shards))
            ]
        else:
            self.digests = [(len(self.logs[i]), None)
                            for i in range(len(self.shards))]
        if tel is not None:
            tel.registry.histogram("ckpt_digest_seconds").observe(
                time.perf_counter() - digest_start)
        store = self.policy.store
        if store is not None:
            # Incremental: persist only the log tail since the last
            # capture, chained by ``base`` — the store splices the
            # chain back together on restore.  Keeps per-capture cost
            # proportional to the interval, not the run so far.
            store.put_window(self.key, window, {
                "window": window,
                "peeks": list(peeks),
                "pending": list(pending),
                "notifies": list(notifies),
                "base": self._captured_window,
                "logs_tail": [
                    log[self._persisted[i]:]
                    for i, log in enumerate(self.logs)
                ],
                "digests": list(self.digests),
            })
            self._persisted = [len(log) for log in self.logs]
            self._captured_window = window
            ckpt_context.note(self.key, "window", window)
            self.checkpoints_written += 1
            if tel is not None:
                tel.registry.counter("ckpt_captures_total").inc()
                tel.registry.histogram("ckpt_capture_seconds").observe(
                    tel.now() - capture_start)
                tel.wall_span("ckpt-capture", f"window-{window}",
                              "ckpt", capture_start, tel.now())

    def maybe_chaos_kill(self, window: int) -> None:
        if (self.policy is None or self.policy.chaos_kill is None
                or self._chaos_fired):
            return
        victim, at_window = self.policy.chaos_kill
        if window == at_window:
            self._chaos_fired = True
            self.shards[victim].kill()

    def close_all(self) -> None:
        for shard in self.shards:
            shard.close()


def run_sharded(dims: Sequence[int], wrap: bool = True,
                workload: str = "aggregate", nshards: int = 1, *,
                kwargs: Optional[dict] = None,
                observe: bool = False,
                processes: bool = False,
                max_windows: Optional[int] = None,
                checkpoint: Optional[CheckpointPolicy] = None) -> PdesResult:
    """Run ``workload`` on a ``dims`` torus across ``nshards`` shards.

    ``processes=False`` keeps every shard in this process (fast to
    start, ideal for determinism tests); ``processes=True`` gives each
    shard its own OS process for real parallel speedup.  Results are
    identical either way.

    ``checkpoint`` enables window-boundary checkpointing: shard
    crashes are recovered by replay instead of failing the run, and
    with a store + ``resume=True`` the run continues from the newest
    persisted window set.  Results are bit-identical with or without
    it (pinned by ``tests/test_ckpt_identity.py``).
    """
    start_wall = time.perf_counter()
    torus = Torus(tuple(dims), wrap=wrap)
    plan = make_shard_plan(torus, nshards)
    wl = get_workload(workload)
    lookahead = shard_lookahead(torus, plan, GigEParams())
    base_spec = {
        "dims": list(torus.dims),
        "wrap": torus.wrap,
        "nshards": nshards,
        "workload": wl.name,
        "kwargs": dict(kwargs or {}),
        "fast": fastpath.enabled(),
        "observe": bool(observe),
    }
    config_hash = content_hash(
        {"config": base_spec, "code_version": __version__})
    run_key = config_hash
    if checkpoint is not None and checkpoint.key:
        run_key = checkpoint.key
    handle_cls = PipeShard if processes else InProcessShard
    specs = [{**base_spec, "shard_id": shard_id}
             for shard_id in range(nshards)]
    shardset = _ShardSet(handle_cls, specs, checkpoint, run_key)
    resumed_from: Optional[int] = None
    try:
        restored = None
        if checkpoint is not None and checkpoint.store is not None:
            checkpoint.store.open_key(run_key, "window", config_hash,
                                      __version__)
            if checkpoint.resume:
                restored = checkpoint.store.latest_window(run_key)
        if restored is not None:
            resumed_from, data = restored
            peeks = shardset.restore_all(data)
            pending = list(data["pending"])
            notifies = list(data["notifies"])
        else:
            peeks = shardset.build()
            pending = []   # committed egress awaiting injection
            notifies = []
        windows = 0        # windows executed *this* run (post-resume)
        # Telemetry is hoisted once: the window loop pays one local
        # ``is not None`` test per window when the plane is disabled.
        tel = telemetry.ACTIVE
        if tel is not None:
            tel.registry.gauge("pdes_lookahead_us").set(
                0.0 if lookahead == _INF else lookahead)
            tel.registry.gauge("pdes_shards").set(nshards)
        while True:
            window_wall_start = tel.now() if tel is not None else 0.0
            base = min(peeks)
            for entry in pending:
                if entry[0] < base:
                    base = entry[0]
            if base == _INF and not notifies:
                break
            if max_windows is not None and windows >= max_windows:
                raise SimulationError(
                    f"PDES run exceeded {max_windows} windows at "
                    f"t={base:.3f}us"
                )
            shardset.maybe_chaos_kill(windows)
            # base == inf with notifies still queued (a tail-end
            # channel open) falls through to a full-drain window.
            if lookahead == _INF or base == _INF:
                until = None
            else:
                # A frame committed at exactly ``base`` can round to an
                # arrival a couple of ulps below ``fl(base + lookahead)``
                # (its arrival is fl(fl(start + serialize) + propagate),
                # a different rounding order).  Step the bound down a few
                # ulps so ``until`` never overtakes any possible arrival;
                # the boundary events just slide into the next window.
                until = base + lookahead
                for _ in range(5):
                    until = math.nextafter(until, 0.0)
            if until is None:
                ship, pending = pending, []
            else:
                ship = [e for e in pending if e[0] <= until]
                pending = [e for e in pending if e[0] > until]
            per_shard_ingress: Dict[int, list] = {}
            for entry in ship:
                target = plan.shard_of(entry[3])
                per_shard_ingress.setdefault(target, []).append(entry)
            for batch in per_shard_ingress.values():
                # Canonical injection order: (arrival, dst rank, dst
                # port, link name, per-link sequence).
                batch.sort(key=lambda e: (e[0], e[3], e[4], e[1], e[2]))
            per_shard_notifies: Dict[int, list] = {}
            for from_rank, to_rank in notifies:
                target = plan.shard_of(to_rank)
                per_shard_notifies.setdefault(target, []).append(
                    (from_rank, to_rank))
            for batch in per_shard_notifies.values():
                batch.sort()
            notifies = []
            active = []
            for index in range(nshards):
                ingress_i = per_shard_ingress.get(index, [])
                notifies_i = per_shard_notifies.get(index, [])
                if (not ingress_i and not notifies_i
                        and until is not None and peeks[index] > until):
                    continue  # nothing for this shard this window
                active.append(index)
                shardset.send(index, until, ingress_i, notifies_i)
            for index in active:
                egress, notifies_out, peek = shardset.recv(index)
                pending.extend(egress)
                notifies.extend(notifies_out)
                peeks[index] = peek
            windows += 1
            if tel is not None:
                wall_now = tel.now()
                tel.registry.counter("pdes_windows_total").inc()
                tel.registry.histogram("pdes_window_seconds").observe(
                    wall_now - window_wall_start)
                tel.registry.histogram(
                    "pdes_merge_frames",
                    bounds=_COUNT_BOUNDS).observe(float(len(ship)))
                next_base = min(peeks)
                for entry in pending:
                    if entry[0] < next_base:
                        next_base = entry[0]
                if base != _INF and next_base != _INF:
                    advance = max(next_base - base, 0.0)
                    tel.registry.histogram(
                        "pdes_window_advance_us",
                        bounds=_US_BOUNDS).observe(advance)
                    if lookahead not in (0.0, _INF):
                        # Fraction of the conservative bound the window
                        # actually consumed (1.0 = perfect lookahead).
                        tel.registry.gauge(
                            "pdes_lookahead_utilization").set(
                            min(advance / lookahead, 1.0))
                tel.wall_span("pdes-window", f"w{windows}", "pdes",
                              window_wall_start, wall_now)
            if (checkpoint is not None and checkpoint.every
                    and windows % checkpoint.every == 0):
                shardset.capture((resumed_from or 0) + windows,
                                 peeks, pending, notifies)
        payloads = shardset.finish_all()
        if tel is not None:
            run_wall = time.perf_counter() - start_wall
            for shard_id, payload in enumerate(payloads):
                shard_events = int(payload["events"])
                tel.registry.gauge("pdes_shard_events",
                                   shard=shard_id).set(shard_events)
                if run_wall > 0:
                    tel.registry.gauge(
                        "pdes_shard_event_rate", shard=shard_id,
                    ).set(shard_events / run_wall)
        per_rank: Dict[int, object] = {}
        reliability: Dict[str, int] = {}
        events = 0
        now = 0.0
        for shard, payload in zip(shardset.shards, payloads):
            per_rank.update(payload["results"])
            events += payload["events"]
            sim_core.record_external_events(
                shard.external_events(payload))
            now = max(now, payload["now"])
            for key, value in payload["reliability"].items():
                reliability[key] = reliability.get(key, 0) + value
        recorder = None
        if observe:
            recorder = merge_recorders(
                [p["recorder"] for p in payloads
                 if p["recorder"] is not None])
        table = wl.reduce(torus, per_rank)
        return PdesResult(
            table=table,
            per_rank=per_rank,
            nshards=nshards,
            windows=windows,
            events_processed=events,
            now=now,
            wall_seconds=time.perf_counter() - start_wall,
            processes=processes,
            reliability=reliability,
            recorder=recorder,
            recoveries=shardset.recoveries,
            checkpoints=shardset.checkpoints_written,
            resumed_from=resumed_from,
            ckpt_key=run_key,
        )
    finally:
        shardset.close_all()
