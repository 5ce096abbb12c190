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

    assert main(["chaos", "--quick", "--fault-seed", "5"]) == 0
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
        main(["chaos", "--quick"])
    assert faults.REGISTRY == []


CLI_WRITES = [
    ("repro.bench", ["routing", "--quick"], []),
    ("repro.bench", ["routing", "--quick", "--csv"], []),
    ("repro.bench", ["nic-collectives", "--quick"], []),
    ("repro.bench", ["explain", "--quick"], []),
    ("repro.bench", ["chaos", "--fault-seed", "1", "--quick"], []),
    ("repro.bench", ["explain", "--out", ".", "--quick"],
     ["explain-trace.json"]),
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
    ["2x2", 4, "kernel", 56.9397, 10.5388, 66.8225],
    ["2x2", 4, "nic", 17.999, 5.9975, 26.063],
    ["2x2x2", 8, "host", 136.3116, 25.2522, 156.2668],
    ["2x2x2", 8, "kernel", 84.9126, 14.303, 99.8565],
    ["2x2x2", 8, "nic", 25.7235, 7.332, 37.8195],
    ["3x3", 9, "host", 103.2277, 22.0069, 117.8912],
    ["3x3", 9, "kernel", 58.7479, 10.5608, 68.8764],
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
        "kernel 14.2057us -> nic 0.3us (97.9% lower)",
    ]


#: Where the repo tells a reader to run one of its CLIs.
COMMAND_DOCS = ["README.md", "DESIGN.md", "docs/*.md",
                ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"]
_COMMAND = re.compile(r"python3? -m (repro\.(?:bench|service))(?![\w.])"
                      r"([^`;|&)#\n]*)")


def _documented_commands():
    """``(where, package, names, options)`` for every documented
    command line (backslash continuations joined); ``names`` are the
    bare words before the first option."""
    root = EXAMPLES.parent
    for pattern in COMMAND_DOCS:
        for path in sorted(root.glob(pattern)):
            number = 1
            for line in re.split(r"(?<!\\)\n", path.read_text()):
                where = f"{path.relative_to(root)}:{number}"
                number += line.count("\n") + 1
                for package, rest in _COMMAND.findall(
                        line.replace("\\\n", " ")):
                    options = re.findall(r"(?<!\S)(--[a-z][a-z0-9-]*)", rest)
                    names = re.match(r"(?:\s*[a-z][a-z0-9-]*(?!\S))*",
                                     rest).group().split()
                    yield where, package, names, options


def test_documented_command_lines_use_only_real_options():
    import importlib

    from repro.bench.harness import _registry

    helps = {}
    for package in ("repro.bench", "repro.service"):
        out = io.StringIO()
        with redirect_stdout(out), pytest.raises(SystemExit):
            importlib.import_module(f"{package}.__main__").main(["--help"])
        helps[package] = set(re.findall(r"--[a-z][a-z0-9-]*",
                                        out.getvalue()))
    commands = list(_documented_commands())
    assert len(commands) > 10
    unknown = [f"{where}: {package} {option}"
               for where, package, _names, options in commands
               for option in options if option not in helps[package]]
    assert not unknown, unknown
    studies = set(_registry()) | {"all"}
    named = [(where, package, name) for where, package, names, _options
             in commands for name in names]
    assert any(package == "repro.bench" for _where, package, _name in named)
    unnamed = [f"{where}: {package} {name}"
               for where, package, name in named
               if package != "repro.bench" or name not in studies]
    assert not unnamed, unnamed


def test_bench_cli_has_five_options_and_runs_every_name_by_registry():
    """A study is a registry name, not a flag: the CLI's only options
    shape how names run, and every study sits outside the paper's
    set."""
    from repro.bench.__main__ import main
    from repro.bench.harness import EXPERIMENTS, _registry

    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit):
        main(["--help"])
    options = set(re.findall(r"--[a-z][a-z0-9-]*", out.getvalue()))
    assert options == {"--help", "--quick", "--csv", "--loss",
                       "--fault-seed", "--out"}
    studies = set(_registry()) - set(EXPERIMENTS)
    assert studies == {"conformance", "nic-collectives", "explain", "pdes",
                       "chaos"}


def test_pdes_study_returns_the_one_shard_table_at_every_shard_count():
    from repro.bench import run_experiment

    result = run_experiment("pdes", quick=True)
    assert result.column("nshards") == [1, 2, 4]
    assert result.column("vs_1_shard")[0] == 1.0
    assert all(windows > 1 for windows in result.column("windows")[1:])
    assert "cores" in result.notes[0]
