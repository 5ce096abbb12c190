"""Whether node-fault handling depends on ``node_faults`` alone, and how
a PDES shard worker's early death reads.

    PYTHONPATH=src python3 tools/liveness_defects.py

Run from the root of a checkout (~1 s).  Prints the ``nic-stall``
scenario of ``tests/test_node_failures.py`` (2x2x2 torus, rank 3's NIC
down from 300 to 3 000 us while rank 0 sends it 200 x 2 KB that it
never receives) without a crash and with one scheduled at 1e9 us that
never fires: per rank, the outcome and the instant, then the death
log.  The two lines should be equal.  Then it builds a subprocess PDES
shard, kills the worker before it reads its ``build`` command and
prints the type of the error that reading its ``ready`` raises; only
``ShardCrashed`` is recovered by replay.  It prints instead of
asserting, so the same file reads the state of any commit: to measure
a parent, export it (``git archive REV | tar -x -C DIR``), copy this
file and that test file over it and run it there.
"""

from __future__ import annotations

import sys

sys.path.insert(0, ".")

from repro.pdes.runner import PipeShard  # noqa: E402
from tests.test_node_failures import far_future_run  # noqa: E402


def stall() -> None:
    for crash_at in (None, 1e9):
        results, death_log, _totals = far_future_run(True, "nic-stall",
                                                     crash_at)
        if results[0] == "HangError":
            ranks = f"HangError at {results[1]:.1f} us"
        else:
            ranks = ", ".join(f"{rank}: {what} @ {when:.1f}"
                              for rank, (what, when) in enumerate(results))
        deaths = [(rank, round(when, 1), by)
                  for rank, when, by, _reason in death_log]
        print(f"nic stall, crash_at={crash_at}: {ranks}; "
              f"deaths (rank, us, by) {deaths}")


def early_shard_death() -> None:
    shard = PipeShard({"shard_id": 0})
    try:
        shard.kill()
        shard.ready()
        what = "no error"
    except Exception as error:  # noqa: BLE001 - report any end
        what = type(error).__name__
    finally:
        shard.close()
    print(f"PDES shard killed before reading build: ready() raises {what}")


if __name__ == "__main__":
    stall()
    early_shard_death()
