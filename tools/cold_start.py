"""What a fleet worker's first point job imports, and what that costs.

    python3 tools/cold_start.py

Run from the root of a checkout (~15 s).  For every point op of
``repro.service.jobs.POINT_OPS``, a fresh interpreter imports what a
worker holds at ``ready`` (``repro.service.worker``), then imports
``repro.service.jobs`` and executes one small job of that op, as the
first job of a new or replacement worker does.  Printed per op:

* the ``repro`` modules the job loads (beyond the ``ready`` closure
  and ``jobs`` itself), and the KB of their source;
* the median ms of importing ``jobs`` and running the job, over
  ``RUNS`` fresh interpreters, once without cached bytecode
  (``PYTHONDONTWRITEBYTECODE=1``, so every module compiles from
  source, as in a read-only install) and once with bytecode cached
  under a temporary ``PYTHONPYCACHEPREFIX`` (one unmeasured run fills
  it first).

Then the module names, one line per distinct closure.  The runs use a
copy of ``src/`` without ``__pycache__`` directories in a temporary
directory, so nothing is written into the checkout and no bytecode
left in it is read.

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

#: One child: the worker's ``ready`` closure, then the timed first job
#: (the job module's import and the job); modules counted: the job's.
CHILD = """
import json, os, sys, time
import repro.service.worker
start = time.perf_counter()
from repro.service.jobs import execute
from repro.service.protocol import JobSpec
before = set(sys.modules)
execute(JobSpec.make("point", sys.argv[1], nbytes=1024))
elapsed = time.perf_counter() - start
loaded = sorted(m for m in set(sys.modules) - before
                if m == "repro" or m.startswith("repro."))
source = sum(os.path.getsize(sys.modules[m].__file__) for m in loaded)
print(json.dumps({"ms": elapsed * 1e3, "modules": loaded,
                  "kb": source / 1e3}))
"""


def point_ops(src: str, env: dict) -> list:
    done = subprocess.run(
        [sys.executable, "-c",
         "from repro.service.jobs import POINT_OPS; print(*POINT_OPS)"],
        env=dict(env, PYTHONPATH=src), capture_output=True, text=True,
        check=True)
    return done.stdout.split()


def first_job(src: str, op: str, env: dict) -> dict:
    done = subprocess.run([sys.executable, "-c", CHILD, op],
                          env=dict(env, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


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
        print(f"{'point op':28s} {'modules':>7s} {'KB':>7s} "
              f"{'ms no pyc':>10s} {'ms pyc':>8s}")
        closures = {}
        for op in point_ops(src, uncached):
            cold = [first_job(src, op, uncached) for _ in range(RUNS)]
            first_job(src, op, cached)
            warm = [first_job(src, op, cached) for _ in range(RUNS)]
            modules = cold[0]["modules"]
            closures.setdefault(tuple(modules), []).append(op)
            print(f"{op:28s} {len(modules):7d} {cold[0]['kb']:7.1f} "
                  f"{statistics.median(r['ms'] for r in cold):10.1f} "
                  f"{statistics.median(r['ms'] for r in warm):8.1f}")
        for modules, ops in closures.items():
            print(f"\n{', '.join(ops)} ({len(modules)}):")
            print("  " + " ".join(modules))
    finally:
        shutil.rmtree(scratch)


if __name__ == "__main__":
    main()
