"""Torus collective-communication algorithms (paper section 5.2).

Every algorithm exists in two forms:

* an **executable** SPMD form — per-rank generator subroutines invoked
  through :class:`repro.mpi.Communicator` methods, running on the
  simulated cluster (store-and-forward through the six GigE links,
  multi-port concurrency, real protocol costs);
* an **analytic** step-count form (:mod:`repro.collectives.schedule`)
  matching the paper's synchronized-step k-port model, used to verify
  the OPT optimality bound ``max(T1, T2)`` and the SDF comparison
  (the steps' times are :mod:`repro.model`'s predictions).

Algorithms:

* dimension-order broadcast (x line, then xy plane, then the volume);
* reduction as its reverse with combining;
* global combine (allreduce) = reduce + broadcast; barrier = combine
  with a null reduction;
* one-to-all personalized communication (scatter) with the SDF and OPT
  schedulers, gather as the reverse, and all-to-all personalized as a
  parallel scatter from every node.
"""

#: Submodules, each imported where it is first used (``from
#: repro.collectives import combine``): a run loads what it calls.
__all__ = ["allgather", "alltoall", "broadcast", "combine", "gather",
           "reduce", "scan", "scatter", "schedule", "tree"]
