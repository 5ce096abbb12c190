"""CLI: ``python -m repro.service`` — serve, chaos, or load test.

* ``python -m repro.service --workers 4 --port 7115`` starts the
  socket server and serves until a ``shutdown`` request arrives.
* ``python -m repro.service --chaos --seed 1`` runs the seeded
  service-level chaos campaign twice and verifies determinism.
* ``python -m repro.service --load-test 1000`` runs the concurrent
  client load test and prints its report (``--bench-out PATH`` also
  writes it as JSON).
* ``--telemetry`` enables the wall-clock telemetry plane for any of
  the above (adds the ``metrics`` op to the server, and the counter
  reconciliation section + summary to the load test);
  ``--telemetry-trace unified.json`` additionally writes the unified
  wall+sim Chrome/Perfetto trace.
"""

from __future__ import annotations

import argparse
import asyncio
import sys


async def _serve(args) -> int:
    from repro.service.cache import ResultCache
    from repro.service.fleet import Fleet
    from repro.service.router import Router, RouterConfig
    from repro.service.server import ServiceServer

    fleet = Fleet(args.workers)
    router = Router(fleet, ResultCache(capacity=args.cache_capacity),
                    RouterConfig(max_pending=args.max_pending))
    server = ServiceServer(router, host=args.host, port=args.port)
    await fleet.start()
    host, port = await server.start()
    sys.stdout.write(
        f"[repro.service: {args.workers} workers, listening on "
        f"{host}:{port}; JSON lines, ops: submit/status/ping/"
        f"shutdown]\n"
    )
    sys.stdout.flush()
    await server.serve_until_shutdown()
    sys.stdout.write("[repro.service: drained and stopped]\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-service",
        description="Simulation-as-a-service front-end "
                    "(see docs/SERVICE.md).",
    )
    parser.add_argument("--workers", type=int, default=2,
                        help="worker processes in the fleet")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (0 = ephemeral, printed at "
                             "startup)")
    parser.add_argument("--max-pending", type=int, default=64,
                        help="admission-control bound before load "
                             "shedding")
    parser.add_argument("--cache-capacity", type=int, default=4096,
                        help="result-cache entries before LRU "
                             "eviction")
    parser.add_argument("--chaos", action="store_true",
                        help="run the seeded service chaos campaign "
                             "(twice; verifies determinism) and exit")
    parser.add_argument("--seed", type=int, default=0,
                        help="chaos schedule seed")
    parser.add_argument("--requests", type=int, default=12,
                        help="chaos campaign request count")
    parser.add_argument("--load-test", type=int, default=0, metavar="N",
                        help="run the N-client load test and exit")
    parser.add_argument("--bench-out", default=None, metavar="PATH",
                        help="also write the load-test report to PATH "
                             "as JSON")
    parser.add_argument("--telemetry", action="store_true",
                        help="enable the wall-clock telemetry plane "
                             "(metrics registry + event log; adds the "
                             "'metrics' op and the load-test "
                             "reconciliation section)")
    parser.add_argument("--telemetry-trace", default=None, metavar="PATH",
                        help="with --telemetry: write the unified "
                             "wall+sim Chrome/Perfetto trace to PATH "
                             "on exit")
    args = parser.parse_args(argv)

    if args.telemetry_trace and not args.telemetry:
        parser.error("--telemetry-trace requires --telemetry")
    if args.telemetry:
        from repro import telemetry

        telemetry.enable()

    if args.chaos:
        from repro.service.chaos import chaos_campaign, render_report

        report = chaos_campaign(seed=args.seed, requests=args.requests,
                                workers=args.workers)
        sys.stdout.write(render_report(report))
        return 0

    if args.load_test:
        from repro.service import loadtest

        report = asyncio.run(loadtest.run_load_test(
            clients=args.load_test, workers=args.workers))
        loadtest.check_report(report)
        sys.stdout.write(loadtest.render_report(report))
        if args.bench_out:
            loadtest.write_report(args.bench_out, report)
            sys.stdout.write(f"[report written to {args.bench_out}]\n")
        if args.telemetry:
            _telemetry_epilogue(args.telemetry_trace)
        return 0

    return asyncio.run(_serve(args))


def _telemetry_epilogue(trace_path) -> None:
    """Print the live counter totals; optionally write the unified
    wall+sim trace (the sim domain comes from a small in-process
    traced collective — worker-process sim recorders stay worker-side)."""
    from repro import telemetry
    from repro.telemetry.registry import top_counters

    tel = telemetry.ACTIVE
    sys.stdout.write("[telemetry counters]\n")
    for name, value in top_counters(tel.merged_snapshot(), limit=12):
        sys.stdout.write(f"  {name} = {value}\n")
    if trace_path:
        from repro.bench.observability import traced_collective
        from repro.telemetry.export import (
            validate_unified_trace,
            write_unified_trace,
        )

        sim_recorder = traced_collective(nbytes=1024)
        trace = write_unified_trace(tel, trace_path,
                                    [("collective", sim_recorder)])
        problems = validate_unified_trace(trace)
        if problems:
            raise RuntimeError("unified trace failed validation: "
                               + "; ".join(problems[:5]))
        sys.stdout.write(
            f"[unified trace: {trace_path} — "
            f"{len(trace['traceEvents'])} events, clock domains "
            f"wall+sim; open at https://ui.perfetto.dev]\n")


if __name__ == "__main__":
    raise SystemExit(main())
