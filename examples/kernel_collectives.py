"""The paper's future work, built: interrupt-level global reduction.

Run:  python examples/kernel_collectives.py

Section 7 of the paper sketches "interrupt-level based collective
communication, in which intermediate collective communications are
carried out in the kernel space", to cut the user-space crossings out
of every intermediate hop of a global sum.  This example runs both
implementations on a 4x4x4 torus and prints the latency difference,
then shows the post-run utilization report.
"""

import numpy as np

from repro.analysis.timeline import utilization_report
from repro.cluster import build_mesh, build_world, run_mpi

DIMS = (4, 4, 4)


def program(comm, times):
    sim = comm.engine.sim

    # 1. Classic user-level global combine (reduce + broadcast).
    yield from comm.barrier()
    start = sim.now
    user_value = yield from comm.allreduce(
        nbytes=8, data=np.float64(comm.rank)
    )
    times.setdefault("user_start", start)
    times["user_end"] = max(times.get("user_end", 0.0), sim.now)

    # 2. Kernel-space combining: intermediate hops never leave
    #    interrupt context.
    yield from comm.barrier()
    comm.set_collective_tier("kernel")
    start = sim.now
    kernel_value = yield from comm.allreduce(
        nbytes=8, data=np.float64(comm.rank)
    )
    times.setdefault("kernel_start", start)
    times["kernel_end"] = max(times.get("kernel_end", 0.0), sim.now)

    assert float(user_value) == float(kernel_value)
    return float(kernel_value)


def main():
    cluster = build_mesh(DIMS, wrap=True)
    comms = build_world(cluster)
    for node in cluster.nodes:
        node.via.enable_kernel_collectives()
    times = {}
    values = run_mpi(cluster, program, args=(times,), comms=comms)
    expected = sum(range(cluster.size))
    assert all(v == expected for v in values)

    user_us = times["user_end"] - times["user_start"]
    kernel_us = times["kernel_end"] - times["kernel_start"]
    print(f"global sum over {cluster.size} nodes ({DIMS} torus):")
    print(f"  user-level   (reduce + bcast): {user_us:8.1f} us")
    print(f"  interrupt-level (section 7):   {kernel_us:8.1f} us "
          f"({100 * (1 - kernel_us / user_us):.0f}% faster)")
    print()
    print(utilization_report(cluster, cluster.sim.now, top=5))


if __name__ == "__main__":
    main()
