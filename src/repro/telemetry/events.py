"""Structured, leveled wall-clock event log.

Records are plain JSON-able dicts with a fixed envelope and free-form
``fields``:

``t``
    Seconds since the telemetry plane was enabled (monotonic clock, so
    unaffected by wall-clock steps), rounded to microseconds.
``seq``
    Per-process monotone sequence number; breaks ties between records
    sharing a timestamp.
``level``
    One of ``debug`` / ``info`` / ``warn`` / ``error``.
``schema``
    Dotted record type, e.g. ``service.retry`` or ``pdes.window`` —
    the contract for what ``fields`` contains.
``run``
    Correlation id (config hash or load-test run id) tying records to
    the run that emitted them.
``msg``
    Human-readable one-liner.
``fields``
    Schema-specific payload (job ids, attempt numbers, shard ids, …).

The log is a bounded deque: old records fall off rather than growing
without bound, which is the right trade for a crash/hang post-mortem
buffer (the tail is what matters).
"""

from __future__ import annotations

import time
from collections import deque
from typing import Dict, List, Optional

LEVELS = ("debug", "info", "warn", "error")


class EventLog:
    """Bounded in-memory structured log for one process."""

    def __init__(self, t0: Optional[float] = None,
                 maxlen: int = 4096) -> None:
        self.t0 = time.monotonic() if t0 is None else t0
        self._records: deque = deque(maxlen=maxlen)
        self._seq = 0

    def log(self, level: str, schema: str, msg: str, *,
            run: str = "", **fields) -> Dict[str, object]:
        if level not in LEVELS:
            raise ValueError(f"unknown level {level!r}, want one of {LEVELS}")
        record = {
            "t": round(time.monotonic() - self.t0, 6),
            "seq": self._seq,
            "level": level,
            "schema": schema,
            "run": run,
            "msg": msg,
            "fields": fields,
        }
        self._seq += 1
        self._records.append(record)
        return record

    def debug(self, schema: str, msg: str, **fields):
        return self.log("debug", schema, msg, **fields)

    def info(self, schema: str, msg: str, **fields):
        return self.log("info", schema, msg, **fields)

    def warn(self, schema: str, msg: str, **fields):
        return self.log("warn", schema, msg, **fields)

    def error(self, schema: str, msg: str, **fields):
        return self.log("error", schema, msg, **fields)

    def __len__(self) -> int:
        return len(self._records)

    def tail(self, n: int = 20) -> List[Dict[str, object]]:
        """The newest ``n`` records, oldest first."""
        if n <= 0:
            return []
        return list(self._records)[-n:]

    def records(self) -> List[Dict[str, object]]:
        return list(self._records)


__all__ = ["EventLog", "LEVELS"]
