"""CLI: ``python -m repro.service`` — serve, chaos, or load test.

* ``python -m repro.service --workers 4 --port 7115`` starts the
  socket server and serves until a ``shutdown`` request arrives.
* ``python -m repro.service --chaos --seed 1`` runs the seeded
  service-level chaos campaign twice and verifies determinism.
* ``python -m repro.service --load-test 1000`` runs the concurrent
  client load test and prints its report (``--bench-out PATH`` also
  writes it as JSON).
* ``--telemetry`` enables the wall-clock telemetry plane for any of
  the above: the server answers the ``metrics`` op, and the load test
  ends by listing every counter series the plane exports (the
  router's ``service_*_total`` and the fleet's ``fleet_*_total`` are
  its two counters dicts, so they read what the report reads).  The
  unified wall+sim trace is ``python -m repro.bench explain --out
  DIR``.
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
        f"{host}:{port}; JSON lines, ops: submit/status/metrics/"
        f"ping/shutdown]\n"
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
                             "'metrics' op and the load test's counter "
                             "listing)")
    args = parser.parse_args(argv)

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
            _print_counters()
        return 0

    return asyncio.run(_serve(args))


def _print_counters() -> None:
    """Every counter series the plane exports, by name."""
    from repro import telemetry

    counters = telemetry.ACTIVE.merged_snapshot()["counters"]
    sys.stdout.write("[telemetry counters]\n")
    for name in sorted(counters):
        for key, value in sorted(counters[name].items()):
            label = f"{name}{{{key}}}" if key else name
            sys.stdout.write(f"  {label} = {value}\n")


if __name__ == "__main__":
    raise SystemExit(main())
