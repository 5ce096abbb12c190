"""End-to-end checks of the benchmark itself.

Not collected by tier-1 (``testpaths = ["tests"]``); run it as
``python -m pytest ledger/test_ledger_e2e.py`` (about a minute).
"""

import ast
import glob
import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from ledger import spec  # noqa: E402

RUN = [sys.executable, os.path.join(ROOT, "ledger", "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def _run(out, *args, cwd=ROOT, run=RUN):
    return subprocess.run(run + list(args) + ["--out", str(out)], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def _last_json(process):
    assert process.returncode == 0, process.stderr[-2000:]
    return json.loads(process.stdout.strip().splitlines()[-1])


def _results(out):
    found = {}
    for path in glob.glob(os.path.join(str(out), "result-*.json")):
        with open(path) as handle:
            result = json.load(handle)
        found[result["workload"]] = result
    return found


def _exact(result):
    return {name: entry["value"]
            for name, entry in result["metrics"].items()
            if spec.BY_NAME[name].exact}


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One untraced and two same-seed traced smoke sets."""
    dirs = {key: tmp_path_factory.mktemp(key)
            for key in ("plain", "traced_a", "traced_b")}
    start = time.perf_counter()
    process = _run(dirs["plain"], "--workload", "all", "--smoke",
                   "--seconds", "0.5", "--trace", "0", "--seed", "7")
    elapsed = time.perf_counter() - start
    assert process.returncode == 0, process.stderr[-2000:]
    for key in ("traced_a", "traced_b"):
        process = _run(dirs[key], "--workload", "all", "--smoke",
                       "--seconds", "0.5", "--trace", "1", "--seed", "7")
        assert process.returncode == 0, process.stderr[-2000:]
    return {"elapsed": elapsed,
            **{key: _results(path) for key, path in dirs.items()}}


def test_benchmark_json_is_the_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        assert json.load(handle) == spec.benchmark_json()


def test_names_units_and_limits():
    declared = spec.benchmark_json()
    assert 2 <= len(declared["workloads"]) <= 8
    assert 1 <= len(declared["end_to_end"]) <= 16
    assert 1 <= len(declared["per_layer"]) <= 128
    assert 1 <= declared["run_seconds"] <= 60
    names = ([w["name"] for w in declared["workloads"]]
             + [m["name"] for m in declared["end_to_end"]]
             + [m["name"] for m in declared["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for workload in declared["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in declared["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in declared["end_to_end"])


def test_smoke_runs_all_six_in_under_30s(smoke):
    assert smoke["elapsed"] < 30.0
    assert set(smoke["plain"]) == set(spec.WORKLOADS)
    for result in smoke["plain"].values():
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1 and result["claim"] is None


def test_every_declared_metric_is_emitted_with_its_unit(smoke):
    for key, declared in (("plain", spec.END_TO_END),
                          ("traced_a", spec.PER_LAYER)):
        for workload in spec.WORKLOADS:
            metrics = smoke[key][workload]["metrics"]
            assert set(metrics) == {m.name for m in declared}
            for metric in declared:
                assert metrics[metric.name]["unit"] == metric.unit
                assert isinstance(metrics[metric.name]["value"],
                                  (int, float))
    for result in smoke["plain"].values():
        for entry in result["metrics"].values():
            assert entry["value"] > 0  # end-to-end metrics are never 0


def test_layer_shares_sum_to_one_and_overhead_is_reported(smoke):
    for result in smoke["traced_a"].values():
        metrics = result["metrics"]
        shares = sum(metrics[f"{layer}.self_share"]["value"]
                     for layer in spec.LAYERS)
        assert shares == pytest.approx(1.0, abs=0.01)
        assert metrics["bench.trace_overhead_ratio"]["value"] > 0


def test_results_carry_provenance_and_raw_samples(smoke):
    for result in smoke["plain"].values():
        for key in ("git_sha", "git_dirty", "python", "nproc",
                    "cpu_model", "seed", "started", "ended"):
            assert key in result["provenance"]
        wall = result["samples"]["wall_s"]
        assert len(wall["raw"]) >= 2 and len(wall["quartiles"]) == 3
        # The uncorrected timings and the host probe behind the
        # correction are kept beside the corrected ones.
        assert len(result["samples"]["raw_wall_s"]["raw"]) == len(wall["raw"])
        assert len(result["samples"]["host_probe_s"]["raw"]) >= 2


def test_traced_run_writes_one_span_file_per_workload(smoke, tmp_path):
    process = _run(tmp_path, "--workload", "mesh_aggregate", "--smoke",
                   "--seconds", "0.5", "--trace", "1")
    _last_json(process)
    with open(tmp_path / "trace-mesh_aggregate.json") as handle:
        trace = json.load(handle)
    names = {span["name"] for span in trace["spans"]}
    assert {"setup", "build_mesh", "build_world", "run",
            "verify"} <= names
    for span in trace["spans"]:
        assert set(span) == {"id", "name", "start", "end", "parent",
                             "workload", "iteration"}
        assert span["end"] >= span["start"]


def test_exact_counts_repeat_for_a_seed_and_move_with_it(smoke, tmp_path):
    for workload in spec.WORKLOADS:
        assert (_exact(smoke["traced_a"][workload])
                == _exact(smoke["traced_b"][workload])), workload
    process = _run(tmp_path, "--workload", "lossy_mesh", "--smoke",
                   "--seconds", "0.5", "--trace", "1", "--seed", "8")
    _last_json(process)
    other = _results(tmp_path)["lossy_mesh"]
    assert _exact(other) != _exact(smoke["traced_a"]["lossy_mesh"])


def test_written_predictions_hold_at_smoke_size(smoke):
    traced = smoke["traced_a"]

    def value(workload, name):
        return traced[workload]["metrics"][name]["value"]

    assert value("lossy_mesh", "hw.train_frames") == 0
    assert value("lossy_mesh", "hw.frames_dropped") > 0
    for workload in spec.WORKLOADS:
        if workload != "lossy_mesh":
            assert value(workload, "via.retransmits") == 0
    assert value("pdes_shards", "pdes.windows") > 1


def test_runner_imports_nothing_from_repro_bench():
    for path in glob.glob(os.path.join(ROOT, "ledger", "*.py")):
        with open(path) as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            modules = []
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            for module in modules:
                assert not module.startswith("repro.bench"), (path, module)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    """In a directory holding only BENCHMARK.json and ``ledger/`` the
    command must fail without printing a result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "ledger"), tmp_path / "ledger",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    process = _run(tmp_path / "out", "--workload", "pt2pt_sweep",
                   "--seconds", "1", "--trace", "0", cwd=tmp_path,
                   run=[sys.executable, "ledger/run.py"])
    assert process.returncode != 0
    assert "{" not in process.stdout


def test_service_run_leaves_no_process_behind(tmp_path):
    """Anything the run orphans is reparented to this process (child
    subreaper), where ``waitpid`` would find it."""
    ctypes = pytest.importorskip("ctypes")
    PR_SET_CHILD_SUBREAPER = 36
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        pytest.skip("no child subreaper on this platform")
    try:
        _last_json(_run(tmp_path, "--workload", "service_closed_loop",
                        "--smoke", "--seconds", "0.5", "--trace", "0"))
        time.sleep(0.2)  # an orphan exiting late would be a zombie by now
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    finally:
        libc.prctl(PR_SET_CHILD_SUBREAPER, 0, 0, 0, 0)
