"""The offload tiers' defects and recovery cost, counted.

    PYTHONPATH=src python3 tools/offload_defects.py

Run from the root of a checkout.  Drives the programs of
``tests/test_collective_tiers.py`` (seeded entry skew, ordinary
float64), ``tests/test_collectives_under_loss.py`` (60 allreduces at 1 %
frame loss; the 62-op program and the direct bcast + reduce rounds
under five regimes) and ``tests/test_node_failures.py`` (rank 2
crashes mid-run) on both offload tiers and prints counts instead of
asserting, so the same file reads the state of any commit: to measure
a parent, export it (``git archive REV | tar -x -C DIR``), copy this
file and those three test files over it and run it there.
EXPERIMENTS.md, "One offload-collective state machine" and "Recovery
per operation", holds the numbers.
"""

from __future__ import annotations

import statistics
import sys

sys.path.insert(0, ".")

from repro.cluster import run_mpi  # noqa: E402
from repro.hw.faults import NodeFaultSpec  # noqa: E402
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


#: (label, run_offload keywords): the 62-op program runs its lossy
#: regimes at seed 101, the direct rounds at 202.
REGIMES = (
    ("lossless", {}),
    ("reliable, no loss", {"node_faults": [NodeFaultSpec(rank=7,
                                                         crash_at=1e9)]}),
    ("0.1% loss", {"loss": 0.001}),
    ("1% loss", {"loss": 0.01}),
    ("5% loss", {"loss": 0.05}),
)


#: (name, program, seed of its lossy regimes, ops per run).
PROGRAMS = (("62-op", loss._offload_program, 101, 62),
            ("bcast+reduce", loss._direct_program, 202, 40))


def frames_per_op() -> None:
    """Per site, program and regime: data frames first sent, requests
    and held answers (cumulative ACKs before recovery per operation),
    data frames sent again, frames an out-of-order gate dropped, and
    the simulated end time."""
    for tier in OFFLOAD:
        for name, program, seed, ops in PROGRAMS:
            for label, regime in REGIMES:
                regime = dict(regime)
                if "loss" in regime:
                    regime["seed"] = seed
                cluster, _results, engines = loss._run_offload(
                    tier, program=program, **regime)
                total = {}
                for engine in engines:
                    for key, value in engine.stats.items():
                        total[key] = total.get(key, 0) + value
                data = total["forwards"]
                asks = (total.get("acks_sent", 0)
                        + total.get("requests", 0)
                        + total.get("held_answers", 0))
                resent = total["retransmits"]
                print(f"frames per op: {tier} {name} ({ops} ops), "
                      f"{label}: {data} data + {asks} asks/ACKs + "
                      f"{resent} resent = {data + asks + resent} "
                      f"({(data + asks + resent) / ops:.1f}/op), "
                      f"{total.get('ooo_dropped', 0)} dropped out of "
                      f"order, done at {cluster.sim.now:.1f} us")


def end_times() -> None:
    """One seed's losses land where they land: the simulated end time
    over seeds 101-120, as median and quartiles."""
    for tier in OFFLOAD:
        for name, program, _seed, _ops in PROGRAMS:
            for rate in (0.01, 0.05):
                ends = [loss._run_offload(tier, seed=seed, loss=rate,
                                          program=program)[0].sim.now
                        for seed in range(101, 121)]
                low, median, high = statistics.quantiles(ends, n=4)
                print(f"end time: {tier} {name}, {rate:.0%} loss, seeds "
                      f"101-120: median {median:.1f} us (quartiles "
                      f"{low:.1f} - {high:.1f})")


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
    frames_per_op()
    end_times()
    node_crash()
