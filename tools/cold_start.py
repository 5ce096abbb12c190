"""What a fleet worker holds at boot and after its first point job.

    python3 tools/cold_start.py

Run from the root of a checkout (~20 s).  Each fresh interpreter boots
as a ``Fleet`` worker does: it calls ``worker_main`` with the fleet's
``ckpt_dir`` hand-off, over an in-process stand-in for the fleet's
pipe that sends one small point job and then ``stop``.  Printed:

* the boot row: the ``repro`` modules held at ``ready``, the KB of
  their source, and the ms from importing ``repro.service.worker`` to
  ``ready`` (the interpreter and the spawn bootstrap come before);
* per point op of ``repro.service.jobs.POINT_OPS``: the ``repro``
  modules the worker holds after the job (boot closure included),
  their KB, and the ms from ``ready`` to the reply, which covers
  importing ``jobs`` and running the job.

Every ms cell is the median over ``RUNS`` fresh interpreters, once
without cached bytecode (``PYTHONDONTWRITEBYTECODE=1``, so every
module compiles from source, as in a read-only install) and once with
bytecode cached under a temporary ``PYTHONPYCACHEPREFIX`` (one
unmeasured run fills it first).

Then the module names: the boot closure, and what each distinct job
closure adds to it.  The runs use a copy of ``src/`` without
``__pycache__`` directories in a temporary directory, so nothing is
written into the checkout and no bytecode left in it is read.

It prints instead of asserting, so the same file reads the state of
any commit: to measure a parent, export it (``git archive REV | tar
-x -C DIR``), copy this file over it and run it there.  EXPERIMENTS.md,
"Cold start by layer", holds the numbers.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

#: Fresh interpreters per op and bytecode condition.
RUNS = 5

#: One child: a worker booted with the fleet's ``ckpt_dir`` hand-off
#: (``argv[2]``), one point job of op ``argv[1]``, then ``stop``.  At
#: ``ready`` and at the reply it notes the clock and the ``repro``
#: modules loaded.
CHILD = """
import json, os, sys, time
start = time.perf_counter()
from repro.service.worker import worker_main

class Pipe:
    inbox = [("stop",), ("job", 0, {"kind": "point", "name": sys.argv[1],
                                   "args": {"nbytes": 1024}, "seed": 0})]
    marks = {}
    def recv(self):
        return self.inbox.pop()
    def send(self, message):
        if message[0] != "heartbeat":
            self.marks[message[0]] = (time.perf_counter(), message, sorted(
                m for m in sys.modules
                if m == "repro" or m.startswith("repro.")))
    def close(self):
        pass

worker_main(Pipe(), ckpt_dir=sys.argv[2])
ready, _, boot = Pipe.marks["ready"]
if "result" not in Pipe.marks:
    sys.exit(f"job failed: {Pipe.marks['error'][1]}")
replied, _, held = Pipe.marks["result"]
def kb(modules):
    return sum(os.path.getsize(sys.modules[m].__file__)
               for m in modules) / 1e3
print(json.dumps({"boot": boot, "boot_kb": kb(boot),
                  "boot_ms": (ready - start) * 1e3, "held": held,
                  "held_kb": kb(held), "ms": (replied - ready) * 1e3}))
"""


def point_ops(src: str, env: dict) -> list:
    done = subprocess.run(
        [sys.executable, "-c",
         "from repro.service.jobs import POINT_OPS; print(*POINT_OPS)"],
        env=dict(env, PYTHONPATH=src), capture_output=True, text=True,
        check=True)
    return done.stdout.split()


def first_job(src: str, op: str, env: dict) -> dict:
    ckpt = os.path.join(os.path.dirname(src), "ckpt")
    done = subprocess.run([sys.executable, "-c", CHILD, op, ckpt],
                          env=dict(env, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def median(runs: list, key: str) -> float:
    return statistics.median(r[key] for r in runs)


def main() -> None:
    scratch = tempfile.mkdtemp(prefix="cold-start-")
    try:
        src = os.path.join(scratch, "src")
        shutil.copytree("src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        base = {k: v for k, v in os.environ.items()
                if k not in ("PYTHONDONTWRITEBYTECODE",
                             "PYTHONPYCACHEPREFIX")}
        uncached = dict(base, PYTHONDONTWRITEBYTECODE="1")
        cached = dict(base, PYTHONPYCACHEPREFIX=os.path.join(scratch,
                                                              "pyc"))
        print(f"python {platform.python_version()}, "
              f"{platform.machine()}, {os.cpu_count()} cpus; "
              f"median of {RUNS} fresh interpreters per cell")
        print(f"{'':28s} {'modules':>7s} {'KB':>7s} "
              f"{'ms no pyc':>10s} {'ms pyc':>8s}")
        rows, closures, colds, warms = [], {}, [], []
        for op in point_ops(src, uncached):
            cold = [first_job(src, op, uncached) for _ in range(RUNS)]
            first_job(src, op, cached)
            warm = [first_job(src, op, cached) for _ in range(RUNS)]
            colds += cold
            warms += warm
            added = [m for m in cold[0]["held"] if m not in cold[0]["boot"]]
            closures.setdefault(tuple(added), []).append(op)
            rows.append((op, len(cold[0]["held"]), cold[0]["held_kb"],
                         median(cold, "ms"), median(warm, "ms")))
        boot = colds[0]["boot"]
        print(f"{'boot (worker_main to ready)':28s} {len(boot):7d} "
              f"{colds[0]['boot_kb']:7.1f} {median(colds, 'boot_ms'):10.1f} "
              f"{median(warms, 'boot_ms'):8.1f}")
        for op, held, kb, cold_ms, warm_ms in rows:
            print(f"{op:28s} {held:7d} {kb:7.1f} {cold_ms:10.1f} "
                  f"{warm_ms:8.1f}")
        print(f"\nboot ({len(boot)}):\n  " + " ".join(boot))
        for modules, ops in closures.items():
            print(f"\n{', '.join(ops)} adds ({len(modules)}):")
            print("  " + " ".join(modules))
    finally:
        shutil.rmtree(scratch)


if __name__ == "__main__":
    main()
