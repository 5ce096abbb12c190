"""Exception hierarchy for the repro package.

All library errors derive from :class:`ReproError` so applications can
catch everything from this package with one handler.  Layer-specific
errors mirror the error surfaces of the real systems the paper used:
VIA status codes, MPI error classes, and QMP status values.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SimulationError(ReproError):
    """Errors raised by the discrete-event simulation kernel."""


class DeadlockError(SimulationError):
    """The event queue drained while processes were still waiting."""


class HangError(SimulationError):
    """The watchdog saw no application progress for too long.

    Raised by :class:`repro.obs.monitor.Watchdog` when the event queue
    is still busy (keepalive timers, retransmission timers) but no
    descriptor, request, or collective has completed within the hang
    window — the distributed-hang analogue of :class:`DeadlockError`,
    which can never fire while periodic timers keep the queue nonempty.

    ``config_hash`` and ``fault_seed`` identify the exact run (canonical
    configuration digest + deterministic fault-stream seed) so a hung
    run is reproducible from the error alone; both also appear in the
    message text via the cluster's ``hang_report``.

    ``checkpoint_id`` and ``checkpoint_index`` name the most recent
    durable checkpoint of the run, when one exists — exactly where a
    resumed run will pick up (see :mod:`repro.ckpt`).
    """

    def __init__(self, message: str,
                 config_hash: Optional[str] = None,
                 fault_seed: Optional[int] = None,
                 checkpoint_id: Optional[str] = None,
                 checkpoint_index: Optional[int] = None) -> None:
        super().__init__(message)
        self.config_hash = config_hash
        self.fault_seed = fault_seed
        self.checkpoint_id = checkpoint_id
        self.checkpoint_index = checkpoint_index


class ShardCrashed(SimulationError):
    """A PDES shard worker died mid-run (pipe EOF / killed process).

    Distinct from a shard *reporting* an error (which stays a plain
    :class:`SimulationError` and is never retried): a crash says
    nothing about the simulation itself, so the coordinator may recover
    the shard from its checkpoint log (:mod:`repro.ckpt`) and replay.
    """

    def __init__(self, message: str, shard_id: Optional[int] = None) -> None:
        super().__init__(message)
        self.shard_id = shard_id


class CheckpointError(ReproError):
    """Base class for checkpoint/restore failures (:mod:`repro.ckpt`)."""


class CheckpointMismatchError(CheckpointError):
    """A checkpoint does not match the run trying to restore from it.

    Raised when the stored config hash or code version disagrees with
    the restoring run's identity, or when a replayed shard's state
    digest diverges from the digest captured at checkpoint time — in
    either case resuming would silently break the determinism contract,
    so the restore is refused instead.
    """


class InterruptError(SimulationError):
    """A process was interrupted while waiting on an event.

    The ``cause`` attribute carries the value passed to
    :meth:`repro.sim.Process.interrupt`.
    """

    def __init__(self, cause: object = None) -> None:
        super().__init__(cause)
        self.cause = cause


class ConfigurationError(ReproError):
    """Invalid hardware/topology/cluster configuration."""


class TopologyError(ReproError):
    """Invalid coordinates, ranks, or dimensions for a topology."""


class ViaError(ReproError):
    """Base class for VIA-layer errors (mirrors VIP_* status codes)."""


class ViaNotConnectedError(ViaError):
    """Operation attempted on a VI that is not in the connected state."""


class ViaDescriptorError(ViaError):
    """Malformed or exhausted descriptor (e.g. receive queue empty)."""


class ViaProtectionError(ViaError):
    """RMA access outside a registered/enabled memory region."""


class TcpError(ReproError):
    """Errors from the TCP baseline stack."""


class MessagingError(ReproError):
    """Base class for the common messaging-core errors."""


class FlowControlError(MessagingError):
    """Credit/token accounting violated an invariant."""


class MpiError(ReproError):
    """MPI-level error (mirrors MPI error classes)."""

    def __init__(self, message: str, error_class: str = "MPI_ERR_OTHER") -> None:
        super().__init__(message)
        self.error_class = error_class


class TruncationError(MpiError):
    """Received message longer than the posted receive buffer."""

    def __init__(self, message: str) -> None:
        super().__init__(message, error_class="MPI_ERR_TRUNCATE")


class MpiProcFailed(MpiError):
    """An operation touched a failed rank (ULFM MPI_ERR_PROC_FAILED).

    Raised instead of hanging when the failure detector has declared a
    peer dead, or when a pending operation is aborted by a failure
    notice mid-flight.  ``dead_rank`` names the failed world rank when
    known (None for blanket aborts where several deaths coincide).
    """

    def __init__(self, message: str, dead_rank: Optional[int] = None) -> None:
        super().__init__(message, error_class="MPI_ERR_PROC_FAILED")
        self.dead_rank = dead_rank


class MpiRevoked(MpiError):
    """The communicator was revoked (ULFM MPI_ERR_REVOKED)."""

    def __init__(self, message: str) -> None:
        super().__init__(message, error_class="MPI_ERR_REVOKED")


class QmpError(ReproError):
    """QMP-level error (mirrors QMP_status_t)."""


class BenchmarkError(ReproError):
    """Benchmark harness failure (bad sweep, missing experiment id)."""
