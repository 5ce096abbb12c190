"""The benchmark's one command.

    python3 ledger/run.py --workload NAME|all [--seed N] [--seconds S]
                          [--trace 0|1] [--out DIR] [--smoke]

Prints every metric by name with its unit and, as the last line of
standard output, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``.  The full
result (raw samples, quartiles, provenance) goes to ``--out``
(default ``ledger/out/``), the spans of a traced run to
``trace-<workload>.json`` beside it.

``--workload all`` runs each workload in a process of its own, so
``peak_rss_mb`` and warm caches never leak from one to the next.
``--smoke`` shrinks every program about twentyfold for the e2e test.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        # Never measure an installed copy in place of this checkout.
        sys.exit("ledger: no src/repro beside ledger/; nothing to measure")
    from ledger import spec

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(spec.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(spec.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if args.workload == "all":
        passthrough = list(argv or sys.argv[1:])
        index = passthrough.index("--workload")
        code = 0
        for name in spec.WORKLOADS:
            passthrough[index + 1] = name
            code |= subprocess.run(
                [sys.executable, os.path.abspath(__file__)] + passthrough
            ).returncode
        return code

    started = time.time()
    from ledger import harness, service, workloads

    def terminated(*_):
        service.reap_children()  # the fleet worker, if one is up
        os._exit(143)

    signal.signal(signal.SIGTERM, terminated)

    if args.workload == service.NAME:
        measurement = service.measure(args.seed, args.seconds,
                                      bool(args.trace), args.smoke)
    else:
        workload = workloads.simulator_workloads()[args.workload]
        measurement = harness.measure_sim(workload, args.seed,
                                          args.seconds, bool(args.trace),
                                          args.smoke)
    harness.finish(measurement, args.seed, bool(args.trace),
                   args.out or harness.DEFAULT_OUT, started)
    return 0


# The fleet spawns its worker with the spawn context, which re-imports
# this file in the child: without the guard it would fork-bomb.
if __name__ == "__main__":
    sys.exit(main())
