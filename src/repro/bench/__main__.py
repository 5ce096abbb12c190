"""CLI: ``python -m repro.bench <experiment ...> [--quick] [--csv]``.

``python -m repro.bench all`` runs every experiment of the paper (the
full set takes a while; add ``--quick`` for the reduced sweeps).  Each
experiment closes with its wall-clock seconds and simulator event
count — ``[fig4: 45.6s wall, 7093563 events]`` — on stdout; nothing is
written to disk unless a path is named (``--trace``,
``--telemetry-trace``).  Host-time numbers that are *compared* live in
``ledger/`` (``python3 ledger/run.py``), not here.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench.harness import EXPERIMENTS, run_experiment


def _run_experiments(args) -> None:
    """The named experiments, under ambient ``--loss`` faults if asked;
    the ambient default and the injector registry are restored even
    when an experiment raises."""
    from repro.hw import faults
    from repro.sim import core as sim_core

    names = args.experiments
    if names == ["all"]:
        names = EXPERIMENTS
    faulty = args.loss > 0.0
    if faulty:
        faults.clear_registry()
        faults.set_ambient(faults.FaultParams(
            seed=args.fault_seed, loss_rate=args.loss,
        ))
    try:
        for name in names:
            events_before = sim_core.TOTAL_EVENTS
            started = time.perf_counter()
            result = run_experiment(name, quick=args.quick)
            wall = time.perf_counter() - started
            sys.stdout.write(result.csv() if args.csv else result.render())
            sys.stdout.write(
                f"[{name}: {wall:.1f}s wall, "
                f"{sim_core.TOTAL_EVENTS - events_before} events]\n\n")
        if faulty:
            totals = faults.injected_totals()
            sys.stdout.write(
                f"[faults: seed={args.fault_seed} loss={args.loss} "
                f"injected={sum(totals.values())} "
                + " ".join(f"{k}={v}" for k, v in sorted(totals.items())
                           if v)
                + "]\n"
            )
    finally:
        if faulty:
            faults.set_ambient(None)
            faults.clear_registry()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the paper's figures and tables.",
    )
    parser.add_argument(
        "experiments", nargs="*",
        help=f"experiment ids ({', '.join(EXPERIMENTS)}), 'all' for "
             f"those, or a study outside the paper's set: "
             f"conformance, nic-collectives",
    )
    parser.add_argument("--chaos", type=int, default=0, metavar="N",
                        help="run N seeded chaos campaigns (node "
                             "crashes under live MPI traffic; seeded "
                             "by --fault-seed)")
    parser.add_argument("--quick", action="store_true",
                        help="reduced sweeps (CI-sized)")
    parser.add_argument("--csv", action="store_true",
                        help="emit CSV instead of tables")
    parser.add_argument("--loss", type=float, default=0.0, metavar="P",
                        help="inject per-frame loss probability P on "
                             "every link (reliable delivery engages "
                             "automatically)")
    parser.add_argument("--fault-seed", type=int, default=0,
                        metavar="SEED",
                        help="seed for the deterministic fault streams "
                             "(same seed => identical fault schedule)")
    parser.add_argument("--chaos-scenario", default=None,
                        metavar="NAME",
                        help="pin every --chaos campaign to one "
                             "scenario (e.g. checkpoint-resume) "
                             "instead of the seeded rotation")
    parser.add_argument("--trace", metavar="OUT.json", default=None,
                        help="run an 8-node fig5-style collective with "
                             "the flight recorder on and write a "
                             "Chrome/Perfetto trace-event JSON file")
    parser.add_argument("--breakdown", action="store_true",
                        help="print the per-span-kind latency "
                             "breakdown of the fig2 point workload")
    parser.add_argument("--shards", type=int, default=0, metavar="N",
                        help="run one sharded (PDES) workload across N "
                             "shard processes and print its table")
    parser.add_argument("--shard-dims", default="4,8,8", metavar="DxDxD",
                        help="torus dims for --shards (comma separated, "
                             "default 4,8,8 = the 256-node fig4 mesh)")
    parser.add_argument("--shard-workload", default="aggregate",
                        choices=("pingpong", "collective", "aggregate"),
                        help="PDES workload for --shards")
    parser.add_argument("--telemetry", action="store_true",
                        help="enable the wall-clock telemetry plane, "
                             "drive the instrumented subsystems "
                             "(load test, sharded PDES, checkpoints) "
                             "and print the metrics report")
    parser.add_argument("--telemetry-trace", metavar="OUT.json",
                        default=None,
                        help="with --telemetry: write the unified "
                             "wall+sim Chrome/Perfetto trace")
    args = parser.parse_args(argv)
    if args.telemetry_trace and not args.telemetry:
        parser.error("--telemetry-trace requires --telemetry")
    if not (args.experiments or args.chaos or args.trace
            or args.breakdown or args.shards or args.telemetry):
        parser.error("name at least one experiment (or use --chaos N, "
                     "--trace OUT.json, --breakdown, --shards N, "
                     "--telemetry)")

    if args.telemetry:
        from repro.bench.telemetry import telemetry_report

        sys.stdout.write(telemetry_report(
            trace_path=args.telemetry_trace, quick=args.quick))
    if args.trace:
        from repro.bench.observability import export_trace

        sys.stdout.write(export_trace(args.trace, quick=args.quick))
    if args.breakdown:
        from repro.bench.observability import breakdown_report

        sys.stdout.write(breakdown_report(quick=args.quick))
    if args.shards:
        from repro.pdes import run_sharded

        dims = tuple(int(d) for d in args.shard_dims.split(","))
        result = run_sharded(dims, workload=args.shard_workload,
                             nshards=args.shards, processes=True)
        sys.stdout.write(
            f"[sharded {args.shard_workload} dims={dims} "
            f"nshards={result.nshards} windows={result.windows} "
            f"events={result.events_processed} "
            f"wall={result.wall_seconds:.2f}s]\n"
            f"{result.table}\n\n"
        )
    if args.chaos:
        from repro.bench.chaos import run_chaos
        from repro.hw import faults

        faults.clear_registry()
        try:
            result = run_chaos(args.chaos, fault_seed=args.fault_seed,
                               scenario=args.chaos_scenario)
        finally:
            faults.clear_registry()
        sys.stdout.write(result.csv() if args.csv else result.render())
    if args.experiments:
        _run_experiments(args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
