"""Service wire protocol: job specs, cache keys, and response shapes.

Transport is JSON lines (one request or response object per line, over
a local TCP socket or the in-process transport).  Every request names
an ``op``; ``submit`` carries a job spec:

.. code-block:: json

    {"op": "submit", "id": "c1", "deadline_s": 30,
     "job": {"kind": "figure", "name": "fig2",
             "args": {"quick": true}, "seed": 0}}

Responses are one of three shapes, all carrying the request ``id``:

``ok``
    ``{"id", "status": "ok", "result", "key", "cache", "attempts",
    "elapsed_s"}`` — ``cache`` is ``"hit"``, ``"miss"`` (a fresh
    engine run) or ``"coalesced"`` (piggybacked on an identical
    in-flight request).
``error``
    ``{"id", "status": "error", "error", "message", "retriable",
    "attempts"}`` — structured; ``retriable`` tells the client whether
    resubmitting the same request can succeed.  When the job has a
    durable checkpoint (:mod:`repro.ckpt`), ``checkpoint`` carries
    ``{"id", "kind", "index"}`` — where a resubmitted run resumes.
``overloaded``
    ``{"id", "status": "overloaded", "retriable": true,
    "retry_after_s"}`` — admission control shed the request before
    accepting it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, Mapping, Optional, Tuple

from repro import __version__
from repro.canonical import Canonical, canonical_json
from repro.errors import ReproError

#: Workload families the service executes (see :mod:`repro.service.jobs`).
JOB_KINDS = ("figure", "point", "chaos", "trace", "breakdown", "pdes")

#: JSON scalar types permitted as job argument values.
_ARG_SCALARS = (bool, int, float, str, type(None))


class ServiceError(ReproError):
    """Base class for service-layer errors."""


class ProtocolError(ServiceError):
    """Malformed request or job spec (non-retriable client error)."""


class JobFailed(ServiceError):
    """The job itself failed deterministically inside a worker.

    Retrying cannot help (same config, same deterministic engine), so
    the router surfaces it as a non-retriable structured error.
    """

    def __init__(self, error_type: str, message: str) -> None:
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type
        self.detail = message


class WorkerCrashed(ServiceError):
    """The worker process running the job died (exit / lost pipe)."""


class WorkerHung(ServiceError):
    """The worker stopped heartbeating and was killed by supervision."""


class DeadlineExceeded(ServiceError):
    """One attempt ran past its wall-clock deadline and was killed."""


@dataclass(init=False, repr=False, eq=False)
class JobSpec(Canonical):
    """One experiment request, canonical and hashable by content.

    ``args`` is a sorted tuple of ``(key, value)`` pairs (JSON scalars
    only) so the spec is frozen/hashable and two dicts with different
    insertion order produce the same spec — and therefore the same
    cache key.
    """

    kind: str
    name: str = ""
    args: Tuple[Tuple[str, Any], ...] = field(default_factory=tuple)
    seed: int = 0

    @staticmethod
    def make(kind: str, name: str = "", seed: int = 0,
             **args: Any) -> "JobSpec":
        return JobSpec(kind=kind, name=name, seed=seed,
                       args=tuple(sorted(args.items())))

    @classmethod
    def from_wire(cls, data: Mapping[str, Any]) -> "JobSpec":
        """Parse and validate the ``job`` object of a submit request."""
        if not isinstance(data, Mapping):
            raise ProtocolError(f"job must be an object, got {data!r}")
        kind = data.get("kind")
        if kind not in JOB_KINDS:
            raise ProtocolError(
                f"unknown job kind {kind!r}; choose from {JOB_KINDS}"
            )
        name = data.get("name", "")
        if not isinstance(name, str):
            raise ProtocolError(f"job name must be a string, got {name!r}")
        seed = data.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ProtocolError(f"seed must be an integer, got {seed!r}")
        raw_args = data.get("args", {})
        if not isinstance(raw_args, Mapping):
            raise ProtocolError(f"args must be an object, got {raw_args!r}")
        for key, value in raw_args.items():
            if not isinstance(key, str):
                raise ProtocolError(f"arg keys must be strings: {key!r}")
            if not isinstance(value, _ARG_SCALARS):
                raise ProtocolError(
                    f"arg {key!r} must be a JSON scalar, got {value!r}"
                )
        return cls(kind=kind, name=name, seed=seed,
                   args=tuple(sorted(raw_args.items())))

    def to_wire(self) -> Dict[str, Any]:
        return {"kind": self.kind, "name": self.name,
                "args": dict(self.args), "seed": self.seed}

    def arg(self, key: str, default: Any = None) -> Any:
        for name, value in self.args:
            if name == key:
                return value
        return default

    def cache_key(self) -> str:
        """Content address of this job's result.

        Canonical hash of the full run identity: the workload spec
        itself, the hardware/protocol parameter sets the engine will
        run with (defaults; workload args carry any overrides such as
        loss rate), the seed, and the code version — a new release
        never serves a stale cached result.

        The key is ``content_hash`` of ``{"job", "gige", "host", "via",
        "code_version"}``, byte for byte; only the three parameter sets'
        canonical text is computed once per process, not per request
        (:func:`_default_params_json`).
        """
        import hashlib  # here, not at the top: a worker never keys a job
        import json

        gige, host, via = _default_params_json()
        text = (f'{{"code_version":{json.dumps(__version__)},'
                f'"gige":{gige},"host":{host},'
                f'"job":{canonical_json(self)},"via":{via}}}')
        return hashlib.sha256(text.encode("ascii")).hexdigest()

    def label(self) -> str:
        return f"{self.kind}:{self.name}" if self.name else self.kind


@lru_cache(maxsize=1)
def _default_params_json() -> Tuple[str, str, str]:
    """Canonical text of the default GigE, host and VIA parameters.

    They are frozen dataclasses, and nothing ambient is in them (their
    ``faults`` field is None: ambient faults are read where a link is
    built), so the text cannot change within a process.
    """
    from repro.hw.params import default_gige, default_host, default_via

    return (canonical_json(default_gige()), canonical_json(default_host()),
            canonical_json(default_via()))


# -- response builders --------------------------------------------------------
def ok_response(request_id: Any, key: str, result: Any, cache: str,
                attempts: int, elapsed_s: float) -> Dict[str, Any]:
    return {
        "id": request_id, "status": "ok", "result": result,
        "key": key, "cache": cache, "attempts": attempts,
        "elapsed_s": round(elapsed_s, 6),
    }


def error_response(request_id: Any, error: str, message: str,
                   retriable: bool, attempts: int = 0,
                   key: Optional[str] = None,
                   checkpoint: Optional[Dict[str, Any]] = None,
                   ) -> Dict[str, Any]:
    response = {
        "id": request_id, "status": "error", "error": error,
        "message": message, "retriable": retriable,
        "attempts": attempts, "key": key,
    }
    if checkpoint is not None:
        response["checkpoint"] = checkpoint
    return response


def overloaded_response(request_id: Any,
                        retry_after_s: float) -> Dict[str, Any]:
    return {
        "id": request_id, "status": "overloaded", "retriable": True,
        "retry_after_s": round(retry_after_s, 6),
    }


__all__ = [
    "DeadlineExceeded",
    "JOB_KINDS",
    "JobFailed",
    "JobSpec",
    "ProtocolError",
    "ServiceError",
    "WorkerCrashed",
    "WorkerHung",
    "error_response",
    "ok_response",
    "overloaded_response",
]
