"""JSON-lines socket server: transport framing, ops, graceful drain."""

import asyncio
import json

from repro.service import (
    Fleet,
    ResultCache,
    Router,
    RouterConfig,
    ServiceClient,
    ServiceServer,
)
from repro.service.protocol import JobSpec


def test_server_roundtrip_ops_and_shutdown():
    async def scenario():
        fleet = Fleet(1)
        router = Router(fleet, ResultCache(), RouterConfig())
        server = ServiceServer(router)
        await fleet.start()
        host, port = await server.start()
        client = await ServiceClient(host, port).connect()

        pong = await client.request({"op": "ping", "id": "p"})
        assert pong == {"id": "p", "status": "ok", "pong": True}

        spec = JobSpec.make("point", "via_latency", nbytes=4)
        first = await client.submit(spec.to_wire(), request_id="s1")
        assert first["status"] == "ok" and first["cache"] == "miss"
        second = await client.submit(spec.to_wire(), request_id="s2")
        assert second["status"] == "ok" and second["cache"] == "hit"
        assert second["result"] == first["result"]

        status = await client.request({"op": "status", "id": "st"})
        assert status["id"] == "st"
        assert status["counters"]["cache_hits"] == 1
        assert status["fleet"]["dispatches"] == 1

        bad = await client.request({"op": "no-such-op", "id": "b"})
        assert bad["status"] == "error" and bad["retriable"] is False

        down = await client.request({"op": "shutdown", "id": "d"})
        assert down["status"] == "ok" and down["draining"] is True
        await client.close()
        await asyncio.wait_for(server.serve_until_shutdown(), 30.0)

    asyncio.run(scenario())


def test_server_rejects_garbage_lines_with_structured_errors():
    async def scenario():
        fleet = Fleet(1)
        router = Router(fleet, ResultCache(), RouterConfig())
        server = ServiceServer(router)
        await fleet.start()
        try:
            host, port = await server.start()
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"this is not json\n")
            writer.write(b'["an array, not an object"]\n')
            await writer.drain()
            for _ in range(2):
                response = json.loads(await reader.readline())
                assert response["status"] == "error"
                assert response["error"] == "ProtocolError"
                assert response["retriable"] is False
            writer.close()
            await writer.wait_closed()
        finally:
            await server.shutdown(drain=False)

    asyncio.run(scenario())


def test_documented_server_command_serves_metrics_and_shuts_down():
    """``python -m repro.service --workers 1 --port 0 --telemetry`` as
    docs/OBSERVABILITY.md runs it: the ``metrics`` op over a real socket
    sees the fleet's own counters, and ``shutdown`` ends the process."""
    import os
    import re
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--workers", "1",
         "--port", "0", "--telemetry"],
        stdout=subprocess.PIPE, text=True, env=env)
    try:
        banner = proc.stdout.readline()
        host, port = re.search(r"listening on ([\d.]+):(\d+)",
                               banner).groups()

        async def scenario():
            client = await ServiceClient(host, int(port)).connect()
            metrics = await client.request({"op": "metrics", "id": "m"})
            down = await client.request({"op": "shutdown", "id": "d"})
            await client.close()
            return metrics, down

        metrics, down = asyncio.run(scenario())
        assert metrics["enabled"] is True
        assert "fleet_dispatches_total 0" in metrics["prometheus"].splitlines()
        assert down["draining"] is True
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
