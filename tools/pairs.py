"""Alternating parent/change pairs on the ledger.

    python3 tools/pairs.py --workload mesh_aggregate [--parent HEAD]
        [--pairs 10] [--seed 901] [--seconds 12] [--trace 0|1] [--out DIR]

The protocol every performance claim in this repository is held to:
the parent commit and this checkout run ``ledger/run.py`` on the same
fresh seed, N times, alternating which side goes first (the host
drifts 1.0-1.5x within a day; alternation keeps a drift from reading
as a gain).  One line per pair, then per end-to-end metric both sides'
median and quartiles, the wins, and whether the rule is met: the
change wins at least nine tenths of the pairs (ties count for neither)
and the medians differ by more than the distance between the parent's
quartiles.  ``ledger/compare.py`` over the two result sets comes last.

The parent is exported once with ``git archive`` into ``--out``
(default: a new temporary directory, printed) and reused if already
there, so several workloads can share one export; the change side is
the working tree this file sits in, uncommitted edits included.  Runs
are sequential: two at once on a two-core host measure each other.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export_parent(rev: str, target: str) -> None:
    os.makedirs(target)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", target], stdin=archive.stdout,
                   check=True)
    if archive.wait():
        sys.exit(f"pairs: git archive {rev} failed")


def run_side(root: str, out: str, args, seed: int) -> dict:
    """One ledger run; the metrics of its closing JSON line."""
    done = subprocess.run(
        [sys.executable, os.path.join(root, "ledger", "run.py"),
         "--workload", args.workload, "--seed", str(seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out", out],
        cwd=root, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"pairs: ledger/run.py failed in {root}:\n{done.stderr}")
    closing = json.loads(done.stdout.strip().splitlines()[-1])
    if closing["failed"] or not closing["correct"]:
        sys.exit(f"pairs: failed operations in {root}: {closing}")
    return {name: entry["value"]
            for name, entry in closing["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    low, _mid, high = statistics.quantiles(values, n=4)
    return low, high


def summarize(metric: dict, parent, change) -> str:
    sign = 1.0 if metric["better"] == "lower" else -1.0
    wins = sum(sign * c < sign * p for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    med_p, med_c = statistics.median(parent), statistics.median(change)
    (p_lo, p_hi), (c_lo, c_hi) = quartiles(parent), quartiles(change)
    met = (wins >= 0.9 * len(parent)
           and sign * (med_p - med_c) > p_hi - p_lo)
    return (f"{metric['name']:12s} parent {med_p:9.4g} "
            f"({p_lo:.4g}..{p_hi:.4g})  change {med_c:9.4g} "
            f"({c_lo:.4g}..{c_hi:.4g})  {(med_c - med_p) / med_p:+7.1%}  "
            f"wins {wins}/{len(parent)}"
            + (f" ({ties} ties)" if ties else "")
            + f"  gain rule {'met' if met else 'not met'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent", default="HEAD",
                        help="commit to compare against (default HEAD)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=901,
                        help="first seed; pair i runs seed + i on both "
                             "sides (use ones not used while developing)")
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    out = os.path.abspath(args.out or tempfile.mkdtemp(prefix="pairs-"))
    parent_root = os.path.join(out, "parent-src")
    if not os.path.isdir(parent_root):
        export_parent(args.parent, parent_root)
    sides = {"parent": (parent_root, os.path.join(out, "parent")),
             "change": (ROOT, os.path.join(out, "change"))}
    print(f"pairs: {args.workload}, parent {args.parent} in {parent_root}, "
          f"results under {out}", flush=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        metrics = json.load(handle)["end_to_end"]

    samples = {side: [] for side in sides}
    for index in range(args.pairs):
        seed = args.seed + index
        order = ("parent", "change") if index % 2 == 0 else (
            "change", "parent")
        for side in order:
            samples[side].append(run_side(*sides[side], args, seed))
        if not args.trace:
            cells = "  ".join(
                f"{m['name']} {samples['parent'][-1][m['name']]:.4g} -> "
                f"{samples['change'][-1][m['name']]:.4g}"
                for m in metrics if m["name"] != "msgs_per_s")
            print(f"pair {index + 1:2d}  seed {seed}  {order[0]} first  "
                  f"{cells}", flush=True)

    if not args.trace:
        print()
        for metric in metrics:
            print(summarize(
                metric, *([run[metric["name"]] for run in samples[side]]
                          for side in ("parent", "change"))))
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "ledger", "compare.py"),
         sides["parent"][1], sides["change"][1]]).returncode


if __name__ == "__main__":
    sys.exit(main())
