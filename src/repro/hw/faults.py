"""Generalized link-fault model with deterministic seeded injection.

The seed's only fault knob was ``corrupt_every`` — damage every Nth
frame, which the Jlab per-packet checksums detect (section 4).  The
reliable-delivery work needs a much richer failure vocabulary, modeled
on what real GigE meshes actually suffer (and what the related
PM/Ethernet and APENet clusters recovered from):

* **probabilistic frame loss** (``loss_rate``) — the frame serializes
  but never reaches the peer (late collision, switch buffer overrun);
* **probabilistic frame corruption** (``corrupt_rate``) — the frame
  arrives with wire damage, to be caught (or not) by the checksum;
* **scheduled drops** (``drop_frames``) — drop exact per-direction
  frame indices, for tests that need surgical losses;
* **link flap** (``flap_period``/``flap_down``/``flap_offset`` and the
  explicit ``down_at`` outage windows) — every frame serialized while
  the link is down is lost;
* **permanent link death** (``die_at``) — after this instant the link
  never delivers again and the kernel packet switch must route around
  it (see :func:`repro.topology.routing.alive_path`).

Determinism
-----------
Every random decision comes from a per-link, per-direction
:class:`random.Random` stream seeded from ``(seed, link name, side)``
via CRC32 — *not* Python's salted ``hash``.  Streams advance once per
judged frame in simulation order, which the event kernel makes fully
deterministic, so the same seed reproduces the identical fault
schedule — and therefore the identical event trace — on every run.

Ambient configuration
---------------------
Benchmarks build their clusters deep inside experiment functions, so
the bench CLI injects faults ambiently: :func:`set_ambient` (or the
:func:`inject` context manager) establishes a default
:class:`FaultParams` that :class:`~repro.cluster.builder.MeshCluster`
applies to every link whose :class:`~repro.hw.params.GigEParams` does
not carry an explicit fault config.
"""

from __future__ import annotations

import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from random import Random
from typing import Optional, Tuple

from repro.canonical import Canonical
from repro.errors import ConfigurationError


@dataclass(init=False, repr=False, eq=False)
class FaultParams(Canonical):
    """Declarative fault schedule for one link (or, ambiently, all).

    All times are simulated microseconds; all knobs default to
    "healthy wire" so a default-constructed instance injects nothing.
    """

    #: Base seed for the per-direction RNG streams.
    seed: int = 0
    #: Per-frame probability the frame is silently dropped.
    loss_rate: float = 0.0
    #: Per-frame probability the frame is damaged (checksum territory).
    corrupt_rate: float = 0.0
    #: Exact 1-based per-direction frame indices to drop.
    drop_frames: Tuple[int, ...] = ()
    #: Periodic flap: every ``flap_period`` us the link goes down for
    #: ``flap_down`` us, phase-shifted by ``flap_offset``.
    flap_period: Optional[float] = None
    flap_down: float = 0.0
    flap_offset: float = 0.0
    #: Explicit scheduled outages: ``((start, end), ...)`` windows.
    down_at: Tuple[Tuple[float, float], ...] = ()
    #: Permanent link death instant (None = the link never dies).
    die_at: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ConfigurationError(
                f"loss_rate must be in [0, 1], got {self.loss_rate}"
            )
        if not 0.0 <= self.corrupt_rate <= 1.0:
            raise ConfigurationError(
                f"corrupt_rate must be in [0, 1], got {self.corrupt_rate}"
            )
        if self.flap_period is not None:
            if self.flap_period <= 0:
                raise ConfigurationError(
                    f"flap_period must be > 0, got {self.flap_period}"
                )
            if not 0.0 <= self.flap_down <= self.flap_period:
                raise ConfigurationError(
                    f"flap_down must be in [0, flap_period], got "
                    f"{self.flap_down}"
                )
        for window in self.down_at:
            if len(window) != 2 or window[0] > window[1]:
                raise ConfigurationError(
                    f"down_at windows must be (start, end) with "
                    f"start <= end, got {window!r}"
                )

    def lossy(self) -> bool:
        """Whether any fault knob is non-default, which is whether
        frames can be *lost* (drives auto-reliability).

        Corruption counts: with checksum verification on, a damaged
        frame is dropped at the receiver, so it is a loss end-to-end.
        """
        return bool(
            self.loss_rate > 0.0
            or self.corrupt_rate > 0.0
            or self.drop_frames
            or (self.flap_period is not None and self.flap_down > 0.0)
            or self.down_at
            or self.die_at is not None
        )


@dataclass(init=False, repr=False, eq=False)
class NodeFaultSpec(Canonical):
    """Seeded node-scoped fault schedule (crash, NIC stall/reboot).

    Node faults compose *on top of* the per-link schedules: the
    cluster builder merges each spec into the :class:`FaultParams` of
    every link adjacent to ``rank``, so a crash kills all of the
    node's links atomically (``die_at``) and a NIC outage window maps
    to scheduled link outages (``down_at``) on every port at once.
    A crash additionally tears down the node's own VIs and pending MPI
    requests at the crash instant (see
    ``MeshCluster._node_crashed``) so the victim's program observes
    the failure too, and arms the mesh-wide failure detector.
    """

    #: World rank of the faulty node.
    rank: int = 0
    #: Fail-stop crash instant (us); None = the node never crashes.
    crash_at: Optional[float] = None
    #: NIC stall / reboot windows ``((start, end), ...)`` (us): every
    #: port of the node is down for the window, then comes back.  A
    #: window shorter than the failure-detector timeout is ridden out
    #: by retransmission without a false death verdict.
    nic_down: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ConfigurationError(
                f"NodeFaultSpec.rank must be >= 0, got {self.rank}"
            )
        if self.crash_at is not None and self.crash_at < 0:
            raise ConfigurationError(
                f"crash_at must be >= 0, got {self.crash_at}"
            )
        for window in self.nic_down:
            if len(window) != 2 or window[0] > window[1]:
                raise ConfigurationError(
                    f"nic_down windows must be (start, end) with "
                    f"start <= end, got {window!r}"
                )

    def active(self) -> bool:
        return self.crash_at is not None or bool(self.nic_down)


def merge_node_faults(
    base: Optional[FaultParams],
    specs: Tuple[NodeFaultSpec, ...],
) -> Optional[FaultParams]:
    """Fold node-fault schedules into one link's :class:`FaultParams`.

    ``specs`` are the node faults of the link's two endpoints; a crash
    at either endpoint kills the link (earliest crash wins over any
    existing ``die_at``), and every NIC outage window becomes a link
    outage window.  Returns ``base`` unchanged when no spec is active.
    """
    crash_times = [s.crash_at for s in specs if s.crash_at is not None]
    windows = tuple(w for s in specs for w in s.nic_down)
    if not crash_times and not windows:
        return base
    params = base if base is not None else FaultParams()
    die_at = params.die_at
    if crash_times:
        earliest = min(crash_times)
        die_at = earliest if die_at is None else min(die_at, earliest)
    from dataclasses import replace

    return replace(
        params, die_at=die_at, down_at=params.down_at + windows,
    )


def _stream_seed(seed: int, name: str, side: int) -> int:
    """Deterministic (unsalted) stream seed for one link direction."""
    return zlib.crc32(f"{seed}:{name}:{side}".encode()) ^ (seed << 1)


#: Verdicts returned by :meth:`FaultInjector.judge`.
DELIVER = "deliver"
CORRUPT = "corrupt"
DROP = "drop"


class FaultInjector:
    """Stateful per-link fault engine driven by a :class:`FaultParams`.

    One injector serves both directions of its link, with independent
    RNG streams per direction.  ``stats`` counts injected events by
    cause, indexed ``[side]`` like the link's own counters.
    """

    def __init__(self, params: FaultParams, link_name: str) -> None:
        self.params = params
        self.link_name = link_name
        self._rngs = (
            Random(_stream_seed(params.seed, link_name, 0)),
            Random(_stream_seed(params.seed, link_name, 1)),
        )
        self._drop_set = frozenset(params.drop_frames)
        self.stats = {
            "loss": [0, 0], "corrupt": [0, 0], "flap": [0, 0],
            "dead": [0, 0], "scheduled": [0, 0],
        }
        REGISTRY.append(self)

    # -- schedule queries ---------------------------------------------------
    def dead(self, now: float) -> bool:
        """Permanently dead at ``now``?"""
        die_at = self.params.die_at
        return die_at is not None and now >= die_at

    def link_up(self, now: float) -> bool:
        """Transiently up at ``now`` (flap + scheduled outages)?"""
        p = self.params
        for start, end in p.down_at:
            if start <= now < end:
                return False
        if p.flap_period is not None and p.flap_down > 0.0:
            phase = (now - p.flap_offset) % p.flap_period
            if 0.0 <= phase < p.flap_down:
                return False
        return True

    # -- the per-frame verdict ---------------------------------------------
    def judge(self, side: int, frame_index: int, now: float) -> str:
        """Fate of the ``frame_index``-th (1-based) frame on ``side``.

        Called once per serialized frame, in simulation order, so the
        RNG streams advance deterministically.
        """
        p = self.params
        if self.dead(now):
            self.stats["dead"][side] += 1
            return DROP
        if not self.link_up(now):
            self.stats["flap"][side] += 1
            return DROP
        if frame_index in self._drop_set:
            self.stats["scheduled"][side] += 1
            return DROP
        rng = self._rngs[side]
        if p.loss_rate > 0.0 and rng.random() < p.loss_rate:
            self.stats["loss"][side] += 1
            return DROP
        if p.corrupt_rate > 0.0 and rng.random() < p.corrupt_rate:
            self.stats["corrupt"][side] += 1
            return CORRUPT
        return DELIVER

    def injected(self) -> int:
        """Total injected faults (all causes, both directions)."""
        return sum(sum(pair) for pair in self.stats.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultInjector({self.link_name!r}, {self.params!r})"


#: Every injector constructed in this interpreter (cleared by
#: :func:`clear_registry`); the bench CLI reads it to report injected
#: fault totals for experiments that build clusters internally.
REGISTRY: list = []


def clear_registry() -> None:
    REGISTRY.clear()


def injected_totals() -> dict:
    """Aggregate injected-fault counts across :data:`REGISTRY`."""
    totals = {"loss": 0, "corrupt": 0, "flap": 0, "dead": 0,
              "scheduled": 0}
    for injector in REGISTRY:
        for cause, pair in injector.stats.items():
            totals[cause] += sum(pair)
    return totals


_ambient: Optional[FaultParams] = None


def set_ambient(params: Optional[FaultParams]) -> None:
    """Set (or clear, with None) the ambient fault default."""
    global _ambient
    _ambient = params


def ambient() -> Optional[FaultParams]:
    """The ambient fault default, if any."""
    return _ambient


@contextmanager
def inject(params: Optional[FaultParams]):
    """Temporarily establish ``params`` as the ambient fault default."""
    global _ambient
    previous = _ambient
    _ambient = params
    try:
        yield
    finally:
        _ambient = previous
