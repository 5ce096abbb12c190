"""Integration tests: the shipped examples and the bench CLI."""

import io
import os
import re
import runpy
import sys
import textwrap
from contextlib import redirect_stdout
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _run_example(name: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return out.getvalue()


def test_quickstart_example():
    output = _run_example("quickstart.py")
    assert "total simulated time" in output
    assert "'rank_sum': 36.0" in output


def test_package_docstring_quickstart_runs_and_is_the_readme_one():
    import repro

    block = textwrap.dedent(repro.__doc__.split("Quickstart::\n", 1)[1])
    readme = (EXAMPLES.parent / "README.md").read_text()
    fenced = re.search(r"## Quickstart\n\n```python\n(.*?)```", readme, re.S)
    assert block.strip() == fenced.group(1).strip()
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(block, "repro.__doc__", "exec"), {})
    assert out.getvalue().startswith("['hello from 8', 'hello from 0',")


def test_raw_via_pingpong_example():
    output = _run_example("raw_via_pingpong.py")
    assert "M-VIA 4-byte RTT/2: 18." in output
    assert "TCP" in output
    assert "110" in output  # simultaneous bandwidth


def test_lqcd_halo_exchange_example():
    output = _run_example("lqcd_halo_exchange.py")
    assert "identical on all 8 ranks" in output
    assert "surface-to-volume ratio: 1.50" in output


def test_kernel_collectives_example():
    output = _run_example("kernel_collectives.py")
    assert "interrupt-level" in output
    assert "faster" in output
    assert "utilization" in output


@pytest.mark.slow
def test_scatter_algorithms_example():
    output = _run_example("scatter_algorithms.py")
    assert "OPT must be optimal" not in output  # no assertion message
    assert "step-model speedup" in output
    assert "simulated speedup" in output


def test_cli_runs_routing(capsys):
    from repro.bench.__main__ import main

    assert main(["routing", "--quick"]) == 0
    captured = capsys.readouterr()
    assert "Routing latency" in captured.out
    assert "12.5" in captured.out


def test_cli_csv_mode(capsys):
    from repro.bench.__main__ import main

    assert main(["routing", "--quick", "--csv"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("hops,")


def test_cli_rejects_unknown():
    from repro.bench.__main__ import main
    from repro.errors import BenchmarkError

    with pytest.raises(BenchmarkError):
        main(["fig99"])


def test_lqcd_fault_tolerance_example():
    output = _run_example("lqcd_fault_tolerance.py")
    assert "victim rank 5 crashes" in output
    assert "shrunk to 7 ranks" in output
    assert "all 7 survivors recovered" in output
    assert "no operation hung" in output


def test_cli_chaos_flag(capsys):
    from repro.bench.__main__ import main

    assert main(["--chaos", "2", "--fault-seed", "5"]) == 0
    captured = capsys.readouterr()
    assert "Chaos campaigns (seed 5)" in captured.out
    assert "deterministic" in captured.out


def test_cli_requires_experiments_or_chaos():
    from repro.bench.__main__ import main

    with pytest.raises(SystemExit):
        main([])


def test_cli_loss_restores_ambient_faults_when_an_experiment_raises():
    from repro.bench.__main__ import main
    from repro.errors import BenchmarkError
    from repro.hw import faults

    with pytest.raises(BenchmarkError):
        main(["fig99", "--loss", "0.01"])
    assert faults.ambient() is None
    assert faults.REGISTRY == []


def test_cli_chaos_clears_the_fault_registry_when_a_campaign_raises(
        monkeypatch):
    from repro.bench import chaos
    from repro.bench.__main__ import main
    from repro.hw import faults

    def crashing_campaign(*_args, **_kwargs):
        faults.REGISTRY.append(object())
        raise RuntimeError("campaign died")

    monkeypatch.setattr(chaos, "run_chaos", crashing_campaign)
    with pytest.raises(RuntimeError, match="campaign died"):
        main(["--chaos", "1"])
    assert faults.REGISTRY == []


CLI_WRITES = [
    ("repro.bench", ["routing", "--quick"], []),
    ("repro.bench", ["routing", "--quick", "--csv"], []),
    ("repro.bench", ["nic-collectives", "--quick"], []),
    ("repro.bench", ["--breakdown", "--quick"], []),
    ("repro.bench", ["--chaos", "1", "--fault-seed", "1"], []),
    ("repro.bench", ["--trace", "out.json", "--quick"], ["out.json"]),
    ("repro.service", ["--load-test", "8", "--workers", "1"], []),
    ("repro.service", ["--load-test", "8", "--workers", "1",
                       "--bench-out", "r.json"], ["r.json"]),
]


@pytest.mark.parametrize(
    "package, argv, written", CLI_WRITES,
    ids=[f"{package} {' '.join(argv)}" for package, argv, _ in CLI_WRITES])
def test_cli_writes_only_the_files_it_is_told_to(
        package, argv, written, tmp_path, monkeypatch, capsys):
    import importlib

    main = importlib.import_module(f"{package}.__main__").main
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    assert os.listdir(tmp_path) == written
    assert capsys.readouterr().out


#: ``nic-collectives --quick`` as the parent commit's
#: ``--nic-collectives --quick`` printed it: simulated microseconds.
NIC_COLLECTIVES_QUICK = [
    ["2x2", 4, "host", 87.5244, 15.4324, 100.5945],
    ["2x2", 4, "kernel", 56.9397, 66.8225, 66.8225],
    ["2x2", 4, "nic", 17.999, 5.9975, 26.063],
    ["2x2x2", 8, "host", 136.3116, 25.2522, 156.2668],
    ["2x2x2", 8, "kernel", 84.9126, 99.8565, 99.8565],
    ["2x2x2", 8, "nic", 25.7235, 7.332, 37.8195],
    ["3x3", 9, "host", 103.2277, 22.0069, 117.8912],
    ["3x3", 9, "kernel", 58.7479, 68.8764, 68.8764],
    ["3x3", 9, "nic", 17.999, 5.9975, 26.063],
]


def test_nic_collectives_is_a_registry_name_outside_the_paper_set():
    from repro.bench import EXPERIMENTS, run_experiment

    assert "nic-collectives" not in EXPERIMENTS
    result = run_experiment("nic-collectives", quick=True)
    assert result.rows == NIC_COLLECTIVES_QUICK
    assert result.notes[1:] == [
        "crossover (nic < kernel on barrier+bcast at >= 8 nodes): "
        "holds everywhere",
        "host overhead per op on 2x2x2 (api-call + irq-wait): "
        "kernel 16.4125us -> nic 0.3us (98.2% lower)",
    ]
