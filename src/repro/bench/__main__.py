"""CLI: ``python -m repro.bench <name ...> [--quick] [--csv] [--loss P]
[--fault-seed SEED] [--out DIR]``.

Every name is an experiment or a study of the registry, run through
:func:`~repro.bench.harness.run_experiment`: ``all`` is the paper's
experiments (add ``--quick`` for the reduced sweeps), and the studies
outside that set are ``conformance``, ``nic-collectives``, ``explain``
(where the time went), ``pdes`` (shard scaling) and ``chaos`` (node
crashes under load).  Each closes with its wall-clock seconds and
simulator event count — ``[fig4: 45.6s wall, 7093563 events]`` — on
stdout; the only file written is ``explain``'s trace, and only into an
``--out`` directory.  Host-time numbers that are *compared* live in
``ledger/`` (``python3 ledger/run.py``), not here.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench.harness import EXPERIMENTS, run_experiment


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the paper's figures and tables.",
    )
    parser.add_argument(
        "experiments", nargs="+", metavar="name",
        help=f"experiment ids ({', '.join(EXPERIMENTS)}), 'all' for "
             f"those, or a study outside the paper's set: "
             f"conformance, nic-collectives, explain, pdes, chaos",
    )
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
                             "and the chaos campaigns (same seed => "
                             "identical fault schedule)")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="directory explain writes its unified "
                             "wall+sim trace into")
    args = parser.parse_args(argv)

    from repro.hw import faults
    from repro.sim import core as sim_core

    names = EXPERIMENTS if args.experiments == ["all"] else args.experiments
    faulty = args.loss > 0.0
    # Injectors register process-wide: start and end with none, even
    # when a run raises, and put the ambient default back.
    faults.clear_registry()
    if faulty:
        faults.set_ambient(faults.FaultParams(
            seed=args.fault_seed, loss_rate=args.loss,
        ))
    try:
        for name in names:
            events_before = sim_core.TOTAL_EVENTS
            started = time.perf_counter()
            result = run_experiment(name, quick=args.quick,
                                    fault_seed=args.fault_seed,
                                    out=args.out)
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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
