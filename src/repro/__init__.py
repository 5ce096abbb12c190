"""repro — reproduction of *Message Passing for Linux Clusters with
Gigabit Ethernet Mesh Connections* (Chen, Watson, Edwards, Mao; IPPS 2005).

The package builds, in pure Python, every system the paper describes:

* a deterministic discrete-event simulator (:mod:`repro.sim`),
* calibrated hardware models for GigE adapters, links, the PCI-X bus and
  a Myrinet comparator (:mod:`repro.hw`),
* torus/mesh topology machinery (:mod:`repro.topology`),
* a modified-M-VIA model with OS-bypass semantics and kernel-level
  packet switching (:mod:`repro.via`) and a TCP baseline
  (:mod:`repro.tcpip`),
* the common messaging core with eager/rendezvous protocols and token
  flow control (:mod:`repro.core`),
* MPI-1.1-style and QMP-style message-passing libraries
  (:mod:`repro.mpi`, :mod:`repro.qmp`),
* torus collective algorithms including the paper's optimal scatter
  (:mod:`repro.collectives`),
* the LQCD application benchmark of Table 1: halo exchanges over the
  simulated machine, a sustained kernel rate charged per site
  (:mod:`repro.lqcd`),
* cluster builders and a parallel-program API (:mod:`repro.cluster`),
* the benchmark harness regenerating every figure and table
  (:mod:`repro.bench`).

Quickstart::

    from repro.cluster import build_mesh, run_mpi

    cluster = build_mesh((3, 3), wrap=True)   # a 9-node GigE torus

    def program(comm):
        right, left = (comm.rank + 1) % comm.size, (comm.rank - 1) % comm.size
        req = yield from comm.sendrecv(dest=right, source=left,
                                       send_nbytes=64, recv_nbytes=64,
                                       data=f"hello from {comm.rank}")
        total = yield from comm.allreduce(nbytes=8, data=float(comm.rank))
        return req.received_data

    print(run_mpi(cluster, program))
"""

from repro._version import __version__

__all__ = ["__version__"]
