"""Tests for scan, reduce_scatter, persistent requests, and the
analytic collective cost model."""

import numpy as np
import pytest

from repro.cluster import build_mesh, build_world, run_mpi
from repro.model import (
    barrier_prediction,
    broadcast_prediction,
    global_combine_prediction,
    scatter_opt_prediction,
    validate_against,
)
from repro.mpi import SUM
from repro.topology import Torus


def test_scan_prefix_sums():
    cluster = build_mesh((2, 2))
    comms = build_world(cluster)

    def program(comm):
        result = yield from comm.scan(nbytes=8,
                                      data=np.float64(comm.rank + 1))
        return float(result)

    # Inclusive prefixes of 1,2,3,4.
    assert run_mpi(cluster, program, comms=comms) == [1.0, 3.0, 6.0, 10.0]


def test_reduce_scatter():
    cluster = build_mesh((2, 2))
    comms = build_world(cluster)

    def program(comm):
        data = [np.float64(comm.rank * 10 + slot)
                for slot in range(comm.size)]
        result = yield from comm.reduce_scatter(nbytes=8, op=SUM,
                                                data=data)
        return float(result)

    results = run_mpi(cluster, program, comms=comms)
    # Slice r = sum over ranks of (rank*10 + r) = 60 + 4r.
    assert results == [60.0, 64.0, 68.0, 72.0]


def test_persistent_send_recv():
    cluster = build_mesh((2,), wrap=False)

    def program(comm):
        if comm.rank == 0:
            persistent = comm.send_init(1, tag=4, nbytes=256)
            for _ in range(3):
                persistent.start()
                yield from persistent.wait()
            return "sent"
        persistent = comm.recv_init(source=0, tag=4, nbytes=512)
        got = 0
        for _ in range(3):
            persistent.start()
            yield from persistent.wait()
            got += persistent.request.received_bytes
        return got

    assert run_mpi(cluster, program) == ["sent", 3 * 256]


def test_persistent_restart_guard():
    cluster = build_mesh((2,), wrap=False)

    def program(comm):
        if comm.rank == 0:
            persistent = comm.send_init(1, tag=1, nbytes=8)
            persistent.start()
            with pytest.raises(RuntimeError):
                persistent.start()
            yield from persistent.wait()
            return None
        yield from comm.recv(source=0, tag=1, nbytes=64)
        return None

    run_mpi(cluster, program)


def test_persistent_wait_before_start_guard():
    cluster = build_mesh((2,), wrap=False)

    def program(comm):
        persistent = comm.recv_init(source=0, tag=1, nbytes=8)
        with pytest.raises(RuntimeError):
            yield from persistent.wait()
        yield comm.engine.sim.timeout(0)
        return True

    assert all(run_mpi(cluster, program))


# ---------------------------------------------------------------------------
# Analytic cost model.
# ---------------------------------------------------------------------------

def test_broadcast_prediction_matches_paper_arithmetic():
    torus = Torus((4, 8, 8))
    prediction = broadcast_prediction(torus, nbytes=4)
    assert prediction.steps == 10
    # "about 200us for 10 communication steps, i.e., 20us per step".
    assert 180 <= prediction.time_us <= 220


def test_combine_twice_broadcast():
    torus = Torus((4, 8, 8))
    combine = global_combine_prediction(torus, nbytes=4)
    single = broadcast_prediction(torus, nbytes=4)
    assert combine.time_us == pytest.approx(2 * single.time_us)
    assert barrier_prediction(torus).steps == combine.steps


def test_scatter_opt_prediction():
    torus = Torus((4, 8, 8))
    prediction = scatter_opt_prediction(torus, nbytes=64)
    assert prediction.steps == 43  # ceil(255/6)
    assert prediction.time_us > 43 * 12.5


def test_model_validates_simulation():
    """Close the loop: the analytic model agrees with the DES."""
    dims = (2, 4, 4)
    cluster = build_mesh(dims)
    comms = build_world(cluster)
    times = {}

    def program(comm):
        sim = comm.engine.sim
        yield from comm.barrier()
        start = sim.now
        yield from comm.bcast(root=0, nbytes=4)
        times.setdefault("b0", start)
        times["b1"] = max(times.get("b1", 0.0), sim.now)
        yield from comm.barrier()
        start = sim.now
        yield from comm.allreduce(nbytes=8, data=np.float64(1))
        times.setdefault("s0", start)
        times["s1"] = max(times.get("s1", 0.0), sim.now)
        return None

    run_mpi(cluster, program, comms=comms)
    # The paper's step arithmetic is a first-order model: on small
    # meshes the reduction's fan-in serialization pushes the combine
    # above the clean 2x, so validate with a loose band here (the
    # fig5 bench checks the 4x8x8 where the arithmetic is tight).
    assert validate_against(
        Torus(dims),
        measured_broadcast_us=times["b1"] - times["b0"],
        measured_combine_us=times["s1"] - times["s0"],
        tolerance=0.65,
    )
