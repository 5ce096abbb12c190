"""Compare two directories of result files: ``compare.py A_DIR B_DIR``
(or ``compare.py --summary DIR`` to print one directory as the JSON
that ``baseline.json`` holds).

A is the parent (or the first set of a same-code agreement check), B
the change.  For each workload and metric it prints both medians, both
quartile pairs, B's change against A, and a verdict:

    improved     B's median is better by more than the spread, or every
                 B run beats every A run
    unchanged    B's median is within the bound and the spread allows
                 saying so
    unresolved   the run-to-run spread is wider than the bound, so the
                 runs cannot tell (not "unchanged")
    regressed    B's median is worse than A's by more than the bound

Bounds are ``BENCHMARK.json``'s (declared in ``spec.py``); per-layer
metrics have none and are shown with their change only.  Exact metrics
(deterministic counts and simulated quantities) must be identical for
every seed both sides ran; any difference is a behaviour change and is
listed.

Exit code 1 on a regression or a changed exact count, else 0.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from ledger import spec  # noqa: E402  (path set just above)


def load(directory: str) -> Dict[Tuple[str, bool], List[dict]]:
    """``{(workload, traced): [result, ...]}`` for one directory."""
    runs = defaultdict(list)
    for path in sorted(glob.glob(os.path.join(directory, "result-*.json"))):
        with open(path) as handle:
            result = json.load(handle)
        runs[(result["workload"], bool(result["trace"]))].append(result)
    return runs


def _values(runs: List[dict], name: str) -> List[float]:
    return [run["metrics"][name]["value"] for run in runs
            if name in run["metrics"]]


def _quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    low, _mid, high = statistics.quantiles(values, n=4)
    return low, high


def _sign(metric: spec.Metric) -> float:
    return 1.0 if metric.better == "lower" else -1.0


def change(metric: spec.Metric, a: List[float], b: List[float]) -> float:
    """B's median against A's as a share of A's; positive = worse."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    return _sign(metric) * (med_b - med_a) / abs(med_a) if med_a else 0.0


def verdict(metric: spec.Metric, a: List[float], b: List[float]) -> str:
    """One of the four words of the module docstring, for a bounded
    metric; the spread is the wider of the two sides' q1..q3."""
    sign, bound, worse = _sign(metric), metric.bound, change(metric, a, b)
    med_a = statistics.median(a)
    spread = max(high - low for low, high in
                 (_quartiles(a), _quartiles(b))) / abs(med_a or 1.0)
    if max(sign * v for v in b) < min(sign * v for v in a):
        return "improved"
    every_b_worse = min(sign * v for v in b) > max(sign * v for v in a)
    if worse > bound and (every_b_worse or spread <= bound):
        return "regressed"
    if spread > bound:
        return "unresolved"
    if worse < -spread:
        return "improved"
    return "unchanged"


def exact_changes(a_runs: List[dict], b_runs: List[dict]) -> List[str]:
    """Exact metrics that differ, over seeds both sides ran."""
    by_seed = defaultdict(lambda: ([], []))
    for side, runs in enumerate((a_runs, b_runs)):
        for run in runs:
            by_seed[run["provenance"]["seed"]][side].append(run)
    changes = []
    for seed, (a_side, b_side) in sorted(by_seed.items()):
        if not a_side or not b_side:
            continue
        for name in a_side[0]["metrics"]:
            if not spec.BY_NAME[name].exact:
                continue
            seen = {run["metrics"][name]["value"]
                    for run in a_side + b_side}
            if len(seen) > 1:
                changes.append(f"seed {seed}: {name} takes values "
                               f"{sorted(seen)}")
    return changes


def compare(a_dir: str, b_dir: str, emit=print) -> int:
    a_all, b_all = load(a_dir), load(b_dir)
    bad = 0
    for key in sorted(set(a_all) & set(b_all)):
        workload, traced = key
        a_runs, b_runs = a_all[key], b_all[key]
        emit(f"\n== {workload}  trace={int(traced)}  "
             f"runs A={len(a_runs)} B={len(b_runs)}")
        emit(f"{'metric':32s} {'A median':>12s} {'A q1..q3':>23s} "
             f"{'B median':>12s} {'B q1..q3':>23s} {'worse by':>9s}  "
             f"verdict")
        for name in a_runs[0]["metrics"]:
            metric = spec.BY_NAME[name]
            a, b = _values(a_runs, name), _values(b_runs, name)
            if not a or not b:
                continue
            (a_lo, a_hi), (b_lo, b_hi) = _quartiles(a), _quartiles(b)
            worse = change(metric, a, b)
            if metric.bound is not None:
                word = verdict(metric, a, b)
                bad += word == "regressed"
            else:
                word = "exact" if metric.exact else "(no bound)"
            emit(f"{name:32s} {statistics.median(a):12.6g} "
                 f"{a_lo:11.5g}..{a_hi:<10.5g} "
                 f"{statistics.median(b):12.6g} "
                 f"{b_lo:11.5g}..{b_hi:<10.5g} {worse:+9.1%}  {word}")
        for difference in exact_changes(a_runs, b_runs):
            emit(f"EXACT COUNT CHANGED  {workload}: {difference}")
            bad += 1
        failed = sum(run["failed"] for run in a_runs + b_runs)
        if failed:
            emit(f"FAILED OPERATIONS  {workload}: {failed}")
            bad += 1
    only = sorted(set(a_all) ^ set(b_all))
    if only:
        emit(f"\nonly on one side (not compared): {only}")
    emit(f"\n{'FAIL' if bad else 'OK'}: {bad} regression(s) / exact "
         f"change(s)")
    return 1 if bad else 0


def summarize(directory: str) -> dict:
    """One directory as a baseline: medians and quartiles of every
    measured metric, and the exact metrics pinned per seed.  A metric
    left out of a workload's section is 0 there."""
    workloads: Dict[str, dict] = {}
    host = None
    for (workload, traced), runs in sorted(load(directory).items()):
        entry = workloads.setdefault(workload, {})
        host = host or {key: runs[0]["provenance"][key] for key in (
            "git_sha", "git_dirty", "python", "nproc", "cpu_model",
            "started")}
        section = entry.setdefault(
            "per_layer" if traced else "end_to_end", {})
        for name in sorted(runs[0]["metrics"]):
            if spec.BY_NAME[name].exact:
                continue
            values = _values(runs, name)
            if not any(values):
                continue
            low, high = _quartiles(values)
            section[name] = {
                "unit": spec.BY_NAME[name].unit, "runs": len(values),
                "median": statistics.median(values),
                "q1": low, "q3": high}
        if traced:
            entry["exact"] = {
                str(run["provenance"]["seed"]): {
                    name: value["value"]
                    for name, value in sorted(run["metrics"].items())
                    if spec.BY_NAME[name].exact and value["value"]}
                for run in runs}
    return {"claim": None, "default_seed": spec.DEFAULT_SEED,
            "run_seconds": spec.RUN_SECONDS, "host": host,
            "workloads": workloads}


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--summary":
        print(json.dumps(summarize(sys.argv[2]), indent=1))
        sys.exit(0)
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(compare(sys.argv[1], sys.argv[2]))
