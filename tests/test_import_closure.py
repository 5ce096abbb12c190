"""The import closure of each entry point is a checked contract.

A fleet worker, a PDES shard and a ledger run load what they execute:
no numpy until a reduction combines two operands that are not both
Python floats, none of the asyncio front-end until somebody asks
``repro.service`` for it, and no layer a job does not run — a package
re-exports its siblings' names lazily.  Every closure case runs in a
fresh interpreter — ``sys.modules`` of the pytest process has long
since loaded everything.
"""

import importlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mpi import op as mpi_op
from repro.service.jobs import POINT_OPS
from repro.service.protocol import JobSpec

SRC = str(Path(__file__).resolve().parent.parent / "src")

#: What a worker on the default VIA stack must never pay for.
FRONT_END = ("numpy", "asyncio", "ssl", "repro.service.router",
             "repro.service.server", "repro.service.fleet")


def _fresh(code: str, *args: str) -> str:
    """Run ``code`` with ``args`` in a new interpreter; its stdout,
    stripped."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          timeout=120, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_worker_closure_loads_no_numpy_and_no_front_end():
    loaded = _fresh(
        "import repro.service.worker, repro.service.jobs\n"
        "import repro.bench.microbench, repro.cluster, sys\n"
        f"print([m for m in {FRONT_END!r} if m in sys.modules])"
    )
    assert loaded == "[]"


#: What no point job loads: the collectives, and the siblings of the
#: layers it runs (the OPT partitions, the Myrinet comparator, the
#: flight recorder — its span kinds are ``repro.obs``'s own constants —
#: and trace exporters, the figure registry).
NO_POINT_JOB = ("repro.collectives", "repro.topology.partition",
                "repro.topology.switched", "repro.hw.myrinet",
                "repro.obs.recorder", "repro.obs.export",
                "repro.bench.harness")

#: The layers above VIA, which only the MPI point job runs.
ABOVE_VIA = ("repro.core", "repro.mpi")


def _under(loaded, packages):
    return [m for m in loaded
            if any(m == p or m.startswith(p + ".") for p in packages)]


#: What a fleet worker neither boots with nor loads for a lossless
#: point job: the checkpoint plane (the fleet's ``ckpt_dir`` is only
#: recorded at boot), the telemetry plane and the observation surfaces
#: it pulls in, and the reliable-delivery protocol.
NOT_BOOTED = ("repro.ckpt", "repro.telemetry", "repro.obs.recorder",
              "repro.obs.monitor", "repro.via.reliability")

#: A fleet worker's life in a fresh interpreter: ``worker_main`` with
#: the fleet's ``ckpt_dir`` hand-off (``argv[2]``), over a stand-in for
#: the fleet's end of the pipe that sends the job ``argv[1]`` and then
#: ``stop``.  Prints the reply's kind and the ``repro`` modules loaded
#: (and ``hashlib``, if it is).
WORKER = """
import json, sys
from repro.service.worker import worker_main
class Pipe:
    inbox = [("stop",), ("job", 0, json.loads(sys.argv[1]))]
    replies = []
    def recv(self):
        return self.inbox.pop()
    def send(self, message):
        if message[0] in ("result", "error"):
            self.replies.append(message[0])
    def close(self):
        pass
worker_main(Pipe(), ckpt_dir=sys.argv[2])
print(json.dumps([Pipe.replies, sorted(
    m for m in sys.modules if m.startswith("repro") or m == "hashlib")]))
"""


def _worker_job(spec, ckpt_dir):
    """The modules a booted fleet worker holds after running ``spec``."""
    replies, loaded = json.loads(_fresh(
        WORKER, json.dumps(spec.to_wire()), str(ckpt_dir)))
    assert replies == ["result"]
    return loaded


#: Hashing is the router's (``JobSpec.cache_key``) and the checkpoint
#: store's; a worker running a point job never hashes.
NOT_HASHED = ("hashlib",)


@pytest.mark.parametrize("op", sorted(POINT_OPS))
def test_a_point_job_loads_only_the_layers_it_runs(op, tmp_path):
    loaded = _worker_job(JobSpec.make("point", op, nbytes=1024), tmp_path)
    assert _under(loaded, NO_POINT_JOB + NOT_BOOTED + NOT_HASHED) == []
    if op.startswith("mpi_"):
        assert "repro.mpi.communicator" in loaded
    else:
        assert _under(loaded, ABOVE_VIA) == []


def test_a_lossy_point_job_loads_the_reliability_protocol(tmp_path):
    loaded = _worker_job(
        JobSpec.make("point", "via_latency", nbytes=1024, loss=0.01),
        tmp_path)
    assert "repro.via.reliability" in loaded
    assert _under(loaded, ("repro.ckpt", "repro.telemetry")) == []


def test_tracing_loads_only_the_recorder():
    """A traced run keeps roots, spans and events: the recorder needs
    neither the run instruments nor the exporters."""
    out = _fresh(
        "import sys\n"
        "from repro.bench.microbench import via_latency\n"
        "from repro.obs.recorder import FlightRecorder\n"
        "from repro.sim import Simulator\n"
        "sim = Simulator()\n"
        "sim.recorder = recorder = FlightRecorder()\n"
        "via_latency(nbytes=4, sim=sim)\n"
        "print(bool(recorder.spans))\n"
        "print([m for m in ('repro.obs.monitor', 'repro.obs.export')\n"
        "       if m in sys.modules])"
    )
    assert out.splitlines() == ["True", "[]"]


def test_the_simulation_kernel_loads_only_itself():
    loaded = _fresh(
        "import sys, repro.sim\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro')))"
    )
    assert loaded == str([
        "repro", "repro._version", "repro.errors", "repro.fastpath",
        "repro.sim", "repro.sim.core", "repro.sim.events",
        "repro.sim.process", "repro.sim.resources", "repro.sim.store"])


@pytest.mark.parametrize("package", [
    "repro.bench", "repro.cluster", "repro.hw",
    "repro.lqcd", "repro.obs", "repro.service", "repro.topology"])
def test_every_lazy_export_resolves(package):
    """A typo in an ``_EXPORTS`` table fails here, not in a user's
    first ``from package import name``."""
    module = importlib.import_module(package)
    assert set(module._EXPORTS) <= set(module.__all__)
    listed = dir(module)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
        assert name in listed, name


def test_table1_loads_no_numpy_and_no_micro_benchmarks():
    """Table 1 moves byte-count halos and charges flop constants: the
    lattice numerics are the test oracle's, the cost model is
    ``repro.lqcd.benchmark``'s own."""
    loaded = _fresh(
        "import sys, repro.bench.table1\n"
        "print(sorted(m for m in sys.modules if m == 'numpy'\n"
        "             or m.startswith(('repro.model', 'repro.lqcd.'))\n"
        "             or m == 'repro.bench.microbench'))"
    )
    assert loaded == str(["repro.lqcd.benchmark", "repro.lqcd.halo",
                          "repro.lqcd.lattice"])


def test_the_timeline_report_loads_no_numpy_and_no_micro_benchmarks():
    loaded = _fresh(
        "import sys, repro.obs.timeline\n"
        "print([m for m in ('numpy', 'repro.bench.microbench')\n"
        "       if m in sys.modules])"
    )
    assert loaded == "[]"


def test_the_analytic_model_loads_no_numpy_and_no_micro_benchmarks():
    """The closed form needs the parameter classes alone; the DES fit
    imports the micro-benchmarks when it is called."""
    loaded = _fresh(
        "import sys, repro.model\n"
        "print([m for m in ('numpy', 'repro.bench.microbench')\n"
        "       if m in sys.modules])"
    )
    assert loaded == "[]"


def test_an_allreduce_loads_only_the_collectives_it_runs():
    out = _fresh(
        "import sys\n"
        "from repro.cluster import build_mesh, run_mpi\n"
        "def program(comm):\n"
        "    total = yield from comm.allreduce(nbytes=8,\n"
        "                                      data=float(comm.rank))\n"
        "    return total\n"
        "print(run_mpi(build_mesh((2, 2, 2), wrap=True), program))\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith(('repro.collectives', 'repro.model'))))"
    )
    assert out.splitlines() == [
        str([28.0] * 8),
        str(["repro.collectives", "repro.collectives.broadcast",
             "repro.collectives.combine", "repro.collectives.reduce",
             "repro.collectives.tree"])]


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


def test_float_reductions_never_load_numpy_and_array_ones_still_do():
    out = _fresh(
        "import sys\n"
        "from repro.cluster import build_mesh, run_mpi\n"
        "from repro.mpi.op import MAX\n"
        "def floats(comm):\n"
        "    total = yield from comm.allreduce(nbytes=8,\n"
        "                                      data=comm.rank + 0.5)\n"
        "    top = yield from comm.allreduce(nbytes=8, op=MAX,\n"
        "                                    data=float(comm.rank))\n"
        "    return total, top\n"
        "print(run_mpi(build_mesh((2, 2), wrap=True), floats))\n"
        "print('numpy' in sys.modules)\n"
        "import numpy as np\n"
        "def arrays(comm):\n"
        "    total = yield from comm.allreduce(\n"
        "        nbytes=16, data=np.array([comm.rank, 1.0]))\n"
        "    return total\n"
        "totals = run_mpi(build_mesh((2, 2), wrap=True), arrays)\n"
        "print({type(t).__name__ for t in totals}, totals[0].tolist())\n"
    )
    assert out.splitlines() == [
        "[(8.0, 3.0), (8.0, 3.0), (8.0, 3.0), (8.0, 3.0)]", "False",
        "{'ndarray'} [6.0, 4.0]"]


def test_a_pdes_collective_job_loads_no_numpy():
    """What a service worker runs for the fig. 5 global combine."""
    out = _fresh(
        "import sys\n"
        "from repro.service.jobs import execute\n"
        "from repro.service.protocol import JobSpec\n"
        "spec = JobSpec.make('pdes', 'collective', dims='2x2x2',\n"
        "                    nshards=2, ckpt_every=0)\n"
        "print(execute(spec)['table']['sums'])\n"
        "print('numpy' in sys.modules)\n"
    )
    assert out.splitlines() == [str([108.0] * 8), "False"]


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

#: The ops that reduce two Python floats without numpy.
FLOAT_OPS = (mpi_op.SUM, mpi_op.PROD, mpi_op.MAX, mpi_op.MIN)

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
    elif op in FLOAT_OPS and type(a) is float and type(b) is float:
        # The ufunc's double, as a Python float (bits: the test below).
        assert _outcome(op, a, b) == (float, repr(float(UFUNCS[op](a, b))))
    else:
        assert _outcome(op, a, b) == _outcome(UFUNCS[op], a, b)


def _double(bits: int) -> float:
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


def _bits(value) -> bytes:
    return struct.pack("<d", value)


#: Every double: NaNs with any payload, quiet or signalling, either
#: sign; subnormals; and the values a reduction meets on purpose.
doubles = st.one_of(
    st.floats(),
    st.integers(0, 2**64 - 1).map(_double),
    st.sampled_from([0.0, -0.0, float("inf"), float("-inf"), 5e-324,
                     -5e-324, 2.2250738585072014e-308,
                     _double(0x7ff0000000000001), _double(0xfff8000000000123),
                     float("nan")]),
)


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(FLOAT_OPS), doubles, doubles)
def test_float_path_is_the_ufunc_bit_for_bit(op, a, b):
    with np.errstate(all="ignore"):
        want = UFUNCS[op](a, b)
    got = op(a, b)
    assert type(got) is float
    assert _bits(got) == _bits(want), (a, b, got, want)


def test_first_float_combines_are_the_ufunc_bit_for_bit():
    """CPython runs an operator generically until its call site
    specialises, and the two forms return opposite NaNs of a pair; by
    now this process has specialised, a fresh one's first calls have
    not."""
    out = _fresh(
        "import struct, sys\n"
        "from repro.mpi.op import SUM, PROD, MAX, MIN\n"
        "def d(bits):\n"
        "    return struct.unpack('<d', bits.to_bytes(8, 'little'))[0]\n"
        "pairs = [(d(0x7ff8000000000001), d(0xfff8000000000123)),\n"
        "         (d(0x7ff0000000000005), d(0x7ff8000000000001)),\n"
        "         (d(0xfff8000000000123), 1.0)]\n"
        "got = [op(a, b) for op in (SUM, PROD, MAX, MIN) for a, b in pairs]\n"
        "assert 'numpy' not in sys.modules\n"
        "import numpy as np\n"
        "with np.errstate(all='ignore'):\n"
        "    want = [f(a, b) for f in (np.add, np.multiply, np.maximum,\n"
        "                              np.minimum) for a, b in pairs]\n"
        "print([type(g) is float and struct.pack('<d', g) ==\n"
        "       struct.pack('<d', w) for g, w in zip(got, want)])\n"
    )
    assert out == str([True] * 12)


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
