"""Checkpoint/restart wired through the service layer.

Bottom-up: ``jobs.execute`` resumes pdes/chaos jobs from the process
default store with bit-identical payloads (telemetry stays out of
band in ``LAST_RUN_META``); malformed checkpoint knobs are rejected as
``ProtocolError``; a fleet worker SIGKILLed mid-campaign resumes on
retry without recomputing finished items; retry-exhausted router
errors name the newest durable checkpoint; and the hang surfaces
(``HangError``, ``hang_report``) quote it too.
"""

import asyncio
import signal

import pytest

from repro.ckpt import CheckpointStore, context as ckpt_context, \
    set_default_root
from repro.service.jobs import LAST_RUN_META, execute
from repro.service.protocol import JobSpec, ProtocolError

PDES = JobSpec.make("pdes", "aggregate", dims="2x2x2", nshards=2,
                    ckpt_every=8)
CHAOS = JobSpec.make("chaos", campaigns=2, seed=3)


@pytest.fixture
def default_root(tmp_path):
    set_default_root(tmp_path)
    try:
        yield tmp_path
    finally:
        set_default_root(None)


# -- jobs layer: resume with bit-identical payloads ---------------------

class TestJobResume:
    def test_pdes_job_resumes_from_window_store(self, default_root):
        first = execute(PDES)
        meta1 = dict(LAST_RUN_META)
        assert meta1["ckpt_resumed_from"] is None
        assert meta1["ckpt_windows_written"] >= 1

        second = execute(PDES)
        meta2 = dict(LAST_RUN_META)
        assert second == first, "resumed payload must be bit-identical"
        assert meta2["ckpt_resumed_from"] is not None
        # Resume starts at the newest barrier: at most one capture
        # interval of windows is recomputed.
        assert meta2["ckpt_new_windows"] <= 8

    def test_chaos_job_loads_completed_campaigns(self, default_root):
        first = execute(CHAOS)
        meta1 = dict(LAST_RUN_META)
        assert meta1 == {"ckpt_loaded": 0, "ckpt_computed": 2}

        second = execute(CHAOS)
        meta2 = dict(LAST_RUN_META)
        assert second == first
        assert meta2 == {"ckpt_loaded": 2, "ckpt_computed": 0}

    def test_without_store_jobs_run_plain(self):
        payload = execute(CHAOS)
        assert LAST_RUN_META == {"ckpt_loaded": 0, "ckpt_computed": 2}
        assert payload["kind"] == "chaos"


class TestSpecValidation:
    @pytest.mark.parametrize("spec", [
        JobSpec.make("pdes", "aggregate", dims="bogus"),
        JobSpec.make("pdes", "aggregate", dims="4x0x2"),
        JobSpec.make("pdes", "aggregate", nshards=0),
        JobSpec.make("pdes", "aggregate", ckpt_every=-1),
        JobSpec.make("pdes", "aggregate", ckpt_every=True),
        JobSpec.make("chaos", campaigns=0),
        JobSpec.make("chaos", campaigns=1, scenario="nonsense"),
    ])
    def test_malformed_checkpoint_knobs_rejected(self, spec):
        with pytest.raises(ProtocolError):
            execute(spec)


# -- fleet: a killed worker resumes, not recomputes ---------------------

class TestFleetCrashResume:
    def test_sigkilled_worker_resumes_campaign(self):
        from repro.service.cache import ResultCache
        from repro.service.fleet import Fleet
        from repro.service.router import Router, RouterConfig

        spec = JobSpec.make("chaos", campaigns=3, seed=3)

        async def scenario():
            killed = []

            def kill_once_after_first_item(fleet, handle, job):
                # Chaos hook: watch the worker's own store and SIGKILL
                # it the moment campaign item 0 persists — a crash at
                # a known point strictly inside the campaign.
                if killed:
                    return
                killed.append(handle.pid)
                store = CheckpointStore(fleet.ckpt_dir)
                key = job.cache_key()

                async def watch():
                    while True:
                        if store.get_item(key, 0) is not None:
                            fleet._signal(handle, signal.SIGKILL)
                            return
                        await asyncio.sleep(0.05)

                asyncio.get_running_loop().create_task(watch())

            fleet = Fleet(1, on_dispatch=kill_once_after_first_item)
            router = Router(fleet, ResultCache(),
                            RouterConfig(max_attempts=3,
                                         backoff_base_s=0.01))
            await fleet.start()
            try:
                response = await router.submit(
                    {"id": 1, "job": spec.to_wire()})
                assert response["status"] == "ok"
                assert response["attempts"] == 2
                assert fleet.counters["crashes"] >= 1
                # The retry loaded the persisted item instead of
                # recomputing it — crash recovery became resume.
                assert fleet.counters["ckpt_loaded"] >= 1
                assert fleet.counters["ckpt_resumes"] >= 1
                total = (fleet.counters["ckpt_loaded"]
                         + fleet.counters["ckpt_computed"])
                assert total >= 3 + fleet.counters["ckpt_loaded"] - 1
            finally:
                await fleet.stop()

        asyncio.run(scenario())

    def test_retry_exhausted_error_names_latest_checkpoint(self):
        from repro.service.cache import ResultCache
        from repro.service.fleet import Fleet
        from repro.service.router import Router, RouterConfig

        chaos = JobSpec.make("chaos", campaigns=3, seed=5)
        point = JobSpec.make("point", "via_latency", nbytes=4)

        async def scenario():
            def kill_after_first_item(fleet, handle, job):
                store = CheckpointStore(fleet.ckpt_dir)
                key = job.cache_key()

                async def watch():
                    while True:
                        if job.kind != "chaos" \
                                or store.get_item(key, 0) is not None:
                            fleet._signal(handle, signal.SIGKILL)
                            return
                        await asyncio.sleep(0.05)

                asyncio.get_running_loop().create_task(watch())

            fleet = Fleet(1, on_dispatch=kill_after_first_item)
            router = Router(fleet, ResultCache(),
                            RouterConfig(max_attempts=2,
                                         backoff_base_s=0.01))
            await fleet.start()
            try:
                response = await router.submit(
                    {"id": 1, "job": chaos.to_wire()})
                assert response["status"] == "error"
                assert response["retriable"] is True
                # The structured error points the client at the
                # durable progress a resubmit would resume from.
                checkpoint = response["checkpoint"]
                assert checkpoint is not None
                assert checkpoint["kind"] == "item"
                assert checkpoint["index"] >= 0
                assert checkpoint["id"].endswith(
                    f"item-{checkpoint['index']:06d}")

                bare = await router.submit(
                    {"id": 2, "job": point.to_wire()})
                assert bare["status"] == "error"
                # A point op never checkpoints: nothing to advertise
                # (the wire field is omitted entirely).
                assert bare.get("checkpoint") is None
            finally:
                await fleet.stop()

        asyncio.run(scenario())


# -- hang surfaces quote the newest checkpoint --------------------------

class TestHangSurfaces:
    def test_hang_report_names_latest_checkpoint(self):
        from repro.cluster.builder import build_mesh

        cluster = build_mesh((2, 2))
        ckpt_context.note("a" * 64, "window", 12)
        try:
            report = cluster.hang_report()
        finally:
            ckpt_context.clear()
        assert f"latest checkpoint: {'a' * 16}/window-000012" in report
        assert "resume picks up after window 12" in report
        assert "latest checkpoint" not in cluster.hang_report()

    def test_hang_error_carries_checkpoint_fields(self):
        from repro.cluster.builder import build_mesh
        from repro.cluster.process_api import build_world, run_mpi
        from repro.errors import HangError
        from repro.hw.faults import NodeFaultSpec

        cluster = build_mesh(
            (2, 2), stack="via",
            node_faults=[NodeFaultSpec(rank=1, crash_at=10_000_000.0)])
        comms = build_world(cluster)

        def program(comm):
            if comm.rank == 0:
                yield from comm.irecv(1, 99, 64).wait()  # never sent
            return "done"

        ckpt_context.note("b" * 64, "item", 4)
        try:
            with pytest.raises(HangError) as excinfo:
                run_mpi(cluster, program, comms=comms,
                        limit=10_000_000.0)
        finally:
            ckpt_context.clear()
        assert excinfo.value.checkpoint_id == f"{'b' * 16}/item-000004"
        assert excinfo.value.checkpoint_index == 4
        assert "latest checkpoint:" in str(excinfo.value)
