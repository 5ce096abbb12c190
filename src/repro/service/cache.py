"""Content-addressed result cache.

Keys are canonical content hashes of the full run identity
(:meth:`repro.service.protocol.JobSpec.cache_key`); values are result
payloads frozen as deterministic JSON text at insertion time.  Because
the engine is deterministic, a key fully determines its value — the
cache therefore *verifies* that property: inserting a different
payload under an existing key raises :class:`CacheIntegrityError`
instead of silently replacing the stored result.  This is what turns
"retry on a fresh worker" into exactly-once semantics: however many
times a request is retried, killed, or coalesced, one frozen result
text serves every response bit-identically.

Eviction is LRU over a bounded entry count; every hit re-decodes the
frozen text so callers can never mutate the stored result in place.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from typing import Any, Dict, Optional

from repro.canonical import stable_json
from repro.service.protocol import ServiceError


class CacheIntegrityError(ServiceError):
    """Two different payloads were inserted under one content key."""


class ResultCache:
    """Bounded LRU store of frozen result payloads, keyed by content."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[str, str]" = OrderedDict()
        self.stats: Dict[str, int] = {
            "hits": 0, "misses": 0, "insertions": 0, "evictions": 0,
        }

    def get(self, key: str) -> Optional[Any]:
        """The payload stored under ``key`` (a fresh decode), or None."""
        text = self._entries.get(key)
        if text is None:
            self.stats["misses"] += 1
            return None
        self._entries.move_to_end(key)
        self.stats["hits"] += 1
        return json.loads(text)

    def put(self, key: str, payload: Any) -> str:
        """Freeze ``payload`` under ``key``; returns the frozen text.

        Idempotent for identical payloads; a *different* payload under
        an existing key means determinism was violated somewhere and
        raises :class:`CacheIntegrityError`.
        """
        text = stable_json(payload)
        existing = self._entries.get(key)
        if existing is not None:
            if existing != text:
                raise CacheIntegrityError(
                    f"content key {key[:16]} already holds a different "
                    f"result ({len(existing)} vs {len(text)} bytes)"
                )
            self._entries.move_to_end(key)
            return text
        self._entries[key] = text
        self.stats["insertions"] += 1
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats["evictions"] += 1
        return text

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def snapshot(self) -> Dict[str, int]:
        """Stats plus current size (for the status endpoint)."""
        out = dict(self.stats)
        out["entries"] = len(self._entries)
        out["capacity"] = self.capacity
        return out


__all__ = ["CacheIntegrityError", "ResultCache"]
