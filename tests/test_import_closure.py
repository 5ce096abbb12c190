"""The import closure of each entry point is a checked contract.

A fleet worker, a PDES shard and a ledger run load what they execute:
no numpy until a reduction combines two real operands, none of the
asyncio front-end until somebody asks ``repro.service`` for it.  Every
closure case runs in a fresh interpreter — ``sys.modules`` of the
pytest process has long since loaded everything.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.mpi import op as mpi_op

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: What a worker on the default VIA stack must never pay for.
FRONT_END = ("numpy", "asyncio", "ssl", "repro.service.router",
             "repro.service.server", "repro.service.fleet")


def _fresh(code: str) -> str:
    """Run ``code`` in a new interpreter; its stdout, stripped."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_worker_closure_loads_no_numpy_and_no_front_end():
    loaded = _fresh(
        "import repro.service.worker, repro.service.jobs\n"
        "import repro.bench.microbench, repro.cluster, sys\n"
        f"print([m for m in {FRONT_END!r} if m in sys.modules])"
    )
    assert loaded == "[]"


def test_numpy_loads_on_the_first_data_carrying_reduction():
    out = _fresh(
        "import sys\n"
        "from repro.cluster import build_mesh, run_mpi\n"
        "def pingpong(comm):\n"
        "    if comm.rank == 0:\n"
        "        yield from comm.send(1, tag=7, nbytes=64)\n"
        "        yield from comm.recv(1, tag=8, nbytes=64)\n"
        "    elif comm.rank == 1:\n"
        "        yield from comm.recv(0, tag=7, nbytes=64)\n"
        "        yield from comm.send(0, tag=8, nbytes=64)\n"
        "    yield from comm.barrier()\n"
        "def reduce(comm):\n"
        "    total = yield from comm.allreduce(nbytes=8, data=comm.rank)\n"
        "    return total\n"
        "run_mpi(build_mesh((2, 2), wrap=True), pingpong)\n"
        "print('numpy' in sys.modules)\n"
        "totals = run_mpi(build_mesh((2, 2), wrap=True), reduce)\n"
        "print({type(t).__name__ for t in totals}, [int(t) for t in totals])\n"
        "print('numpy' in sys.modules)\n"
    )
    assert out.splitlines() == ["False", "{'int64'} [6, 6, 6, 6]", "True"]


def test_hardware_models_import_nothing_of_the_protocol_above_them():
    """``repro.hw`` is the layer ``repro.via`` stands on: no submodule
    of it may reach back up (the NIC-site collective used to live in
    ``hw`` and pulled nine ``repro.via`` modules in with it)."""
    loaded = _fresh(
        "import importlib, pkgutil, sys, repro.hw\n"
        "for found in pkgutil.walk_packages(repro.hw.__path__, 'repro.hw.'):\n"
        "    importlib.import_module(found.name)\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.via')))"
    )
    assert loaded == "[]"


def test_default_run_never_loads_the_offload_collective_engine():
    """The tree-collective state machine is imported by
    ``enable_kernel_collectives`` / ``enable_nic_collectives``, not by
    a run that stays on the host tier."""
    out = _fresh(
        "import sys\n"
        "from repro.cluster import build_mesh, run_mpi\n"
        "def program(comm):\n"
        "    total = yield from comm.allreduce(nbytes=8, data=comm.rank)\n"
        "    yield from comm.barrier()\n"
        "    return int(total)\n"
        "cluster = build_mesh((2, 2), wrap=True)\n"
        "print(run_mpi(cluster, program))\n"
        "print('repro.via.offload_collective' in sys.modules)\n"
        "cluster.nodes[0].via.enable_kernel_collectives()\n"
        "print('repro.via.offload_collective' in sys.modules)\n"
    )
    assert out.splitlines() == ["[6, 6, 6, 6]", "False", "True"]


def test_service_package_exports_resolve_lazily():
    out = _fresh(
        "import sys, repro.service as service\n"
        "print(service.__all__)\n"
        "print(sorted(set(service.__all__) - set(dir(service))))\n"
        "print('repro.service.fleet' in sys.modules)\n"
        "from repro.service import (Fleet, JobSpec, ResultCache, Router,\n"
        "    RouterConfig, ServiceClient, ServiceServer)\n"
        "print(Fleet.__module__, ServiceServer.__module__)\n"
        "try:\n"
        "    service.Flotilla\n"
        "except AttributeError as err:\n"
        "    print(err)\n"
    )
    assert out.splitlines() == [
        "['Fleet', 'JobSpec', 'ResultCache', 'Router', 'RouterConfig',"
        " 'ServiceClient', 'ServiceServer']",
        "[]",
        "False",
        "repro.service.fleet repro.service.server",
        "module 'repro.service' has no attribute 'Flotilla'",
    ]


# -- the lazily bound ufuncs are the eager ones -----------------------------

UFUNCS = {
    mpi_op.SUM: np.add, mpi_op.PROD: np.multiply,
    mpi_op.MAX: np.maximum, mpi_op.MIN: np.minimum,
    mpi_op.LAND: np.logical_and, mpi_op.LOR: np.logical_or,
    mpi_op.BAND: np.bitwise_and, mpi_op.BOR: np.bitwise_or,
}

_floats = st.floats(min_value=-1e6, max_value=1e6)
operands = st.one_of(
    st.none(),
    st.integers(min_value=-10**6, max_value=10**6),
    _floats,
    st.booleans(),
    _floats.map(np.float64),
    st.lists(_floats, min_size=1, max_size=3).map(np.array),
    st.lists(st.integers(-100, 100), min_size=1, max_size=3).map(np.array),
)


def _outcome(fn, a, b):
    """(type, repr) of ``fn(a, b)``, or the exception type it raises
    (bitwise ufuncs reject floats, unequal lengths do not broadcast)."""
    try:
        value = fn(a, b)
    except (TypeError, ValueError) as err:
        return type(err)
    return type(value), repr(value)


def test_every_op_in_the_module_is_covered():
    ops = {v for v in vars(mpi_op).values() if isinstance(v, mpi_op.Op)}
    assert ops == set(UFUNCS) | {mpi_op.NULL}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(UFUNCS, key=lambda op: op.name)),
       operands, operands)
def test_op_equals_the_eager_ufunc(op, a, b):
    if a is None or b is None:
        assert op(a, b) is (b if a is None else a)
    else:
        assert _outcome(op, a, b) == _outcome(UFUNCS[op], a, b)


@given(operands, operands)
def test_null_op_keeps_the_left_operand(a, b):
    assert mpi_op.NULL(a, b) is (b if a is None else a)


def test_two_threads_racing_the_first_combine_agree_with_numpy():
    out = _fresh(
        "import sys, threading\n"
        "from repro.mpi.op import SUM\n"
        "sys.setswitchinterval(1e-6)\n"
        "gate, results = threading.Barrier(2), [None, None]\n"
        "def first(slot):\n"
        "    gate.wait(timeout=30)\n"
        "    results[slot] = SUM(1.5, slot)\n"
        "threads = [threading.Thread(target=first, args=(i,))\n"
        "           for i in (0, 1)]\n"
        "assert 'numpy' not in sys.modules\n"
        "for t in threads: t.start()\n"
        "for t in threads: t.join(timeout=60)\n"
        "assert not any(t.is_alive() for t in threads)\n"
        "import numpy as np\n"
        "want = [np.add(1.5, 0), np.add(1.5, 1)]\n"
        "print([(type(r), repr(r)) for r in results]\n"
        "      == [(type(w), repr(w)) for w in want])\n"
    )
    assert out == "True"
