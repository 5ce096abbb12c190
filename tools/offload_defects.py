"""The three offload-tier defects of ISSUE 18, counted.

    PYTHONPATH=src python3 tools/offload_defects.py

Run from the root of a checkout.  Drives the programs of
``tests/test_collective_tiers.py`` (seeded entry skew, ordinary
float64), ``tests/test_collectives_under_loss.py`` (60 allreduces at 1 %
frame loss) and ``tests/test_node_failures.py`` (rank 2 crashes
mid-run) on both offload tiers and prints counts instead of asserting,
so the same file reads the state of any commit: to measure a parent,
export it (``git archive REV | tar -x -C DIR``), copy this file and
those three test files over it and run it there.  EXPERIMENTS.md,
"One offload-collective state machine", holds the numbers.
"""

from __future__ import annotations

import sys

sys.path.insert(0, ".")

from repro.cluster import run_mpi  # noqa: E402
from tests import test_collective_tiers as tiers  # noqa: E402
from tests import test_collectives_under_loss as loss  # noqa: E402
from tests import test_node_failures as crash  # noqa: E402

OFFLOAD = ("nic", "kernel")


def fold_order() -> None:
    differ = dict.fromkeys(OFFLOAD, 0)
    cases = 0
    for dims in tiers.MESHES + ((3, 3, 3),):
        for seed in range(5):
            cases += 1
            per_tier = {}
            for tier in tiers.TIERS:
                cluster, comms = tiers._build(dims, tier)
                per_tier[tier] = run_mpi(cluster, tiers._grid_program,
                                         comms=comms, args=(seed,))
            for tier in OFFLOAD:
                differ[tier] += per_tier[tier] != per_tier["host"]
    print(f"fold order: of {cases} (mesh, seed) cases, last bits differ "
          f"from the host tier on {differ}")


def frame_loss() -> None:
    for tier in OFFLOAD:
        lossless = loss._run_offload(tier)[1]
        for seed in (101, 202, 303):
            try:
                cluster, results, engines = loss._run_offload(tier, seed)
            except Exception as error:  # noqa: BLE001 - report any end
                print(f"1% loss: {tier} seed {seed}: "
                      f"{type(error).__name__}: {str(error)[:70]}")
                continue
            same = repr(results) == repr(lossless)
            dropped = sum(sum(link.stats["dropped"])
                          for link in cluster.links)
            resent = sum(engine.stats.get("retransmits", 0)
                         for engine in engines)
            print(f"1% loss: {tier} seed {seed}: "
                  f"{'bit-identical' if same else 'DIFFERENT'}, "
                  f"{dropped} frames dropped, {resent} resent, "
                  f"done at {cluster.sim.now:.0f} us")


def node_crash() -> None:
    for tier in OFFLOAD:
        for crash_at in (200.0, 333.0, 1000.0):
            results, leaked = crash._offload_crash_run(tier, crash_at)
            counts = {name: results.count(name)
                      for name in sorted(set(results))}
            print(f"crash at {crash_at:.0f} us: {tier}: {counts}, "
                  f"{leaked} in-flight entries left on survivors")


if __name__ == "__main__":
    fold_order()
    frame_loss()
    node_crash()
