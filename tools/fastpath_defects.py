"""Fast scheduler vs reference scheduler wherever reliable delivery
runs (ISSUE 23), counted.

    PYTHONPATH=src python3 tools/fastpath_defects.py

Run from the root of a checkout.  Drives the programs of
``tests/test_fastpath_equivalence.py`` (3x3 all-neighbour exchange and
2x2x2 collectives at 1 % frame loss, chaos-style node crashes) and the
stale-RMA line of ``tests/test_node_failures.py`` under both schedulers
and prints how many runs differ instead of asserting, so the same file
reads the state of any commit: to measure a parent, export it
(``git archive REV | tar -x -C DIR``), copy this file and those two
test files over it and run it there.  EXPERIMENTS.md, "Fast path vs
reference under loss, before/after", holds the numbers.
"""

from __future__ import annotations

import sys

sys.path.insert(0, ".")

from tests import test_fastpath_equivalence as oracle  # noqa: E402
from tests import test_node_failures as crash  # noqa: E402

CRASH_INSTANTS = (97.1, 137.3, 181.9, 260.5, 333.3, 401.3, 455.7, 512.9)


def _report(title: str, runs) -> None:
    """``runs``: (label, fast observation, reference observation)."""
    runs = list(runs)
    differ = [run for run in runs if run[1] != run[2]]
    print(f"{title}: {len(differ)} of {len(runs)} runs differ between "
          f"the schedulers")
    for label, fast, reference in differ[:3]:
        spans = "equal" if fast[3] == reference[3] else "unequal"
        print(f"    {label}: finish {fast[1]:.2f} vs "
              f"{reference[1]:.2f} us, retransmits "
              f"{fast[2]['retransmits']} vs "
              f"{reference[2]['retransmits']}, span sets {spans}")


def frame_loss() -> None:
    _report("1% loss, 3x3 exchange", (
        (f"{nbytes} B seed {seed}",
         *oracle.both_schedulers(
             lambda: oracle.lossy_exchange(seed, (nbytes,))))
        for nbytes in oracle.EXCHANGE_SIZES for seed in (1, 2, 3)))
    for tier in ("host", "kernel", "nic"):
        _report(f"1% loss, 2x2x2 {tier}-tier collectives", (
            (f"seed {seed}",
             *oracle.both_schedulers(
                 lambda: oracle.lossy_collectives(tier, seed)))
            for seed in (5, 6, 7, 8)))


def node_crash() -> None:
    for scenario in ("pt2pt", "lqcd-cg"):
        _report(f"node crash, {scenario}", (
            (f"rank {victim} at {crash_at} us",
             *oracle.both_schedulers(
                 lambda: oracle.crashed_campaign(scenario, victim,
                                                 crash_at)))
            for victim in oracle.CRASH_VICTIMS
            for crash_at in CRASH_INSTANTS))


def stale_rma() -> None:
    fast, reference = (crash._stale_rma_run(mode)[1].completed_at
                       for mode in (True, False))
    print(f"stale RMA frame under node faults: next receive completes "
          f"at {fast:.3f} (fast) vs {reference:.3f} us (reference)")


if __name__ == "__main__":
    frame_loss()
    node_crash()
    stale_rma()
