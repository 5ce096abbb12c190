"""Fleet + router integration: real worker processes, full failure
matrix (crash / hang / deadline / deterministic failure / overload /
drain) and the exactly-once cache contract.

Worker processes use the "spawn" start method (about a second of boot
each), so tests share one fleet per scenario group instead of one per
assertion.
"""

import asyncio
import signal

from repro.service.cache import ResultCache
from repro.service.fleet import Fleet, FleetStopped
from repro.service.protocol import JobSpec
from repro.service.router import Router, RouterConfig

FAST = JobSpec.make("point", "via_latency", nbytes=4)
SLOW = JobSpec.make("figure", "fig2", quick=True)


def run(coro):
    return asyncio.run(coro)


# -- happy path: cache, coalescing, exactly-once ------------------------------
def test_cache_hit_serves_without_engine_dispatch():
    async def scenario():
        fleet = Fleet(1)
        router = Router(fleet, ResultCache(), RouterConfig())
        await fleet.start()
        try:
            first = await router.submit({"id": 1, "job": FAST.to_wire()})
            assert first["status"] == "ok" and first["cache"] == "miss"
            assert fleet.dispatches == 1

            second = await router.submit({"id": 2, "job": FAST.to_wire()})
            assert second["status"] == "ok" and second["cache"] == "hit"
            assert second["result"] == first["result"]
            assert second["attempts"] == 0
            # The load-bearing assertion: a cache hit never reaches
            # the fleet.
            assert fleet.dispatches == 1
            assert router.counters["cache_hits"] == 1
        finally:
            await fleet.stop()

    run(scenario())


def test_concurrent_identical_requests_coalesce_to_one_run():
    async def scenario():
        fleet = Fleet(2)
        router = Router(fleet, ResultCache(), RouterConfig())
        await fleet.start()
        try:
            responses = await asyncio.gather(*(
                router.submit({"id": i, "job": FAST.to_wire()})
                for i in range(6)
            ))
            assert all(r["status"] == "ok" for r in responses)
            assert fleet.dispatches == 1
            kinds = sorted(r["cache"] for r in responses)
            assert kinds == ["coalesced"] * 5 + ["miss"]
            # Coalesced responses carry the leader's payload verbatim.
            payloads = {str(r["result"]) for r in responses}
            assert len(payloads) == 1
        finally:
            await fleet.stop()

    run(scenario())


# -- failure matrix -----------------------------------------------------------
def test_worker_crash_is_retried_on_a_fresh_worker():
    killed = []

    def kill_first_dispatch(fleet, handle, spec):
        if not killed:
            killed.append(handle.pid)
            fleet._signal(handle, signal.SIGKILL)

    async def scenario():
        fleet = Fleet(1, on_dispatch=kill_first_dispatch)
        router = Router(fleet, ResultCache(), RouterConfig(
            max_attempts=3, backoff_base_s=0.01))
        await fleet.start()
        try:
            response = await router.submit({"id": 1, "job": FAST.to_wire()})
            assert response["status"] == "ok"
            assert response["attempts"] == 2
            assert fleet.counters["crashes"] >= 1
            assert fleet.counters["restarts"] >= 1
            assert router.counters["retries"] == 1
        finally:
            await fleet.stop()

    run(scenario())


def test_hung_worker_is_detected_and_killed():
    stalled = []

    def stall_first_dispatch(fleet, handle, spec):
        if not stalled:
            stalled.append(handle.pid)
            fleet._signal(handle, signal.SIGSTOP)

    async def scenario():
        fleet = Fleet(1, heartbeat_interval=0.05, hang_timeout=0.5,
                      on_dispatch=stall_first_dispatch)
        router = Router(fleet, ResultCache(), RouterConfig(
            max_attempts=3, backoff_base_s=0.01))
        await fleet.start()
        try:
            response = await router.submit({"id": 1, "job": SLOW.to_wire()})
            assert response["status"] == "ok"
            assert fleet.counters["hangs"] >= 1
            assert fleet.counters["crashes"] >= 1  # kill folds into crash
        finally:
            await fleet.stop()

    run(scenario())


def test_deadline_exceeded_kills_the_attempt():
    async def scenario():
        fleet = Fleet(1)
        router = Router(fleet, ResultCache(), RouterConfig(
            max_attempts=1, deadline_s=120.0))
        await fleet.start()
        try:
            response = await router.submit({
                "id": 1, "job": SLOW.to_wire(), "deadline_s": 0.05})
            assert response["status"] == "error"
            assert response["retriable"] is True
            assert response["error"] == "DeadlineExceeded"
            assert fleet.counters["deadline_kills"] == 1
            # The fleet replaces the killed worker and stays usable.
            ok = await router.submit({"id": 2, "job": FAST.to_wire()})
            assert ok["status"] == "ok"
        finally:
            await fleet.stop()

    run(scenario())


def test_deterministic_job_failure_is_not_retried():
    async def scenario():
        fleet = Fleet(1)
        router = Router(fleet, ResultCache(), RouterConfig(max_attempts=3))
        await fleet.start()
        try:
            bad_op = JobSpec.make("point", "no_such_op")
            response = await router.submit({"id": 1, "job": bad_op.to_wire()})
            assert response["status"] == "error"
            assert response["retriable"] is False
            assert response["attempts"] == 1  # no retry budget spent
            assert router.counters["job_failures"] == 1
            assert fleet.dispatches == 1
        finally:
            await fleet.stop()

    run(scenario())


def test_malformed_request_is_rejected_before_the_fleet():
    async def scenario():
        fleet = Fleet(1)
        router = Router(fleet, ResultCache(), RouterConfig())
        await fleet.start()
        try:
            response = await router.submit({
                "id": 1, "job": {"kind": "warp-drive"}})
            assert response["status"] == "error"
            assert response["error"] == "ProtocolError"
            assert response["retriable"] is False
            assert fleet.dispatches == 0
        finally:
            await fleet.stop()

    run(scenario())


def test_admission_control_sheds_when_pending_is_full():
    async def scenario():
        fleet = Fleet(1)
        router = Router(fleet, ResultCache(), RouterConfig(
            max_pending=1, retry_after_s=0.02))
        await fleet.start()
        try:
            jobs = [JobSpec.make("point", "via_latency",
                                 nbytes=4, repeats=10 + i)
                    for i in range(4)]
            responses = await asyncio.gather(*(
                router.submit({"id": i, "job": spec.to_wire()})
                for i, spec in enumerate(jobs)
            ))
            statuses = sorted(r["status"] for r in responses)
            assert "overloaded" in statuses
            assert "ok" in statuses
            shed = [r for r in responses if r["status"] == "overloaded"]
            assert all(r["retriable"] and r["retry_after_s"] > 0
                       for r in shed)
            assert router.counters["shed"] == len(shed)
        finally:
            await fleet.stop()

    run(scenario())


def test_drain_finishes_inflight_and_rejects_new_work():
    async def scenario():
        fleet = Fleet(1)
        router = Router(fleet, ResultCache(), RouterConfig())
        await fleet.start()
        try:
            inflight = asyncio.ensure_future(
                router.submit({"id": 1, "job": SLOW.to_wire()}))
            await asyncio.sleep(0.3)  # let it reach a worker
            drained = await router.drain()
            assert drained is True
            assert (await inflight)["status"] == "ok"
            rejected = await router.submit({"id": 2, "job": FAST.to_wire()})
            assert rejected["status"] == "error"
            assert rejected["error"] == "ShuttingDown"
            assert rejected["retriable"] is True
        finally:
            await fleet.stop()

    run(scenario())


def test_stopped_fleet_gives_structured_errors_not_hangs():
    async def scenario():
        fleet = Fleet(1)
        router = Router(fleet, ResultCache(), RouterConfig())
        await fleet.start()
        await fleet.stop()
        response = await asyncio.wait_for(
            router.submit({"id": 1, "job": FAST.to_wire()}), 10.0)
        assert response["status"] == "error"
        assert response["error"] == "FleetStopped"
        assert response["retriable"] is True

    run(scenario())


# -- checkpoints: the fleet's dir, across a replacement -----------------------
def test_a_checkpointing_job_writes_under_the_fleets_dir(tmp_path):
    """A worker records the fleet's ``ckpt_dir`` at boot without loading
    the store; the job that checkpoints still writes there, and the
    replacement of a killed worker resumes from it."""
    from repro.ckpt import CheckpointStore

    spec = JobSpec.make("chaos", campaigns=2, seed=3)

    async def scenario():
        fleet = Fleet(1, ckpt_dir=str(tmp_path))
        await fleet.start()
        try:
            first = await fleet.run_job(spec, timeout=120.0)
            assert fleet.counters["ckpt_computed"] == 2
            store = CheckpointStore(str(tmp_path))
            assert store.get_item(spec.cache_key(), 1) is not None
            (worker,) = fleet.alive_workers()
            fleet._signal(worker, signal.SIGKILL)
            while fleet.counters["restarts"] < 1:
                await asyncio.sleep(0.02)
            second = await fleet.run_job(spec, timeout=120.0)
            assert second == first
            assert fleet.alive_workers()[0].pid != worker.pid
            assert fleet.counters["ckpt_loaded"] == 2
            assert fleet.counters["ckpt_computed"] == 2
        finally:
            await fleet.stop()

    run(scenario())
    assert any(tmp_path.iterdir()), "a fleet keeps a ckpt_dir it was given"
