"""Integration tests: the shipped examples and the bench CLI."""

import io
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
