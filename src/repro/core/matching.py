"""Receiver-side message matching with MPI semantics.

Matching key is (source, tag, context); receives may wildcard source
and/or tag.  Order rules follow MPI 1.1 section 3.5: messages between a
pair of processes are non-overtaking, and posted receives match in
posting order.
"""

from __future__ import annotations

from collections import deque
from typing import List

from repro.core.message import ANY_SOURCE, ANY_TAG


def match(posted_src: int, posted_tag: int, posted_context: int,
          src: int, tag: int, context: int) -> bool:
    """Does a posted receive (with wildcards) match an incoming
    message's actual (src, tag, context)?"""
    if posted_context != context:
        return False
    if posted_src != ANY_SOURCE and posted_src != src:
        return False
    if posted_tag != ANY_TAG and posted_tag != tag:
        return False
    return True


#: ``_entries`` of a queue nothing was ever appended to.  Most queues
#: (a posted and an unexpected one per channel end) stay that way for a
#: whole run, an empty deque costs 760 bytes, and an empty tuple reads
#: the same.
_EMPTY = ()


class MatchQueue:
    """An ordered queue of entries matched by (src, tag, context).

    Used both for posted receives (entries = RecvRequest, probes =
    incoming envelopes) and for the unexpected-message queue (entries =
    envelopes, probes = freshly posted receives).  Entries preserve
    arrival order; :meth:`pop_first_match` scans FIFO.
    """

    def __init__(self) -> None:
        self._entries = _EMPTY

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def append(self, entry, src: int, tag: int, context: int) -> None:
        """Add ``entry`` with its matching key (may include wildcards)."""
        if self._entries is _EMPTY:
            self._entries = deque()
        self._entries.append((entry, src, tag, context))

    def pop_first_match(self, src: int, tag: int, context: int):
        """Remove and return the first entry whose *stored* key matches
        the probe (stored keys may hold wildcards); None if no match."""
        for index, (entry, esrc, etag, ectx) in enumerate(self._entries):
            if match(esrc, etag, ectx, src, tag, context):
                del self._entries[index]
                return entry
        return None

    def pop_first_match_by_probe(self, probe_src: int, probe_tag: int,
                                 probe_context: int):
        """Remove and return the first entry whose stored *concrete* key
        is matched by a probe that may hold wildcards (the unexpected-
        queue direction)."""
        for index, (entry, esrc, etag, ectx) in enumerate(self._entries):
            if match(probe_src, probe_tag, probe_context, esrc, etag, ectx):
                del self._entries[index]
                return entry
        return None

    def pop_first_match_where(self, src: int, tag: int, context: int,
                              predicate):
        """Like :meth:`pop_first_match` but the entry must also satisfy
        ``predicate(entry)`` (e.g. skip rendezvous-bound receives)."""
        for index, (entry, esrc, etag, ectx) in enumerate(self._entries):
            if (match(esrc, etag, ectx, src, tag, context)
                    and predicate(entry)):
                del self._entries[index]
                return entry
        return None

    def peek_first_match(self, src: int, tag: int, context: int):
        for entry, esrc, etag, ectx in self._entries:
            if match(esrc, etag, ectx, src, tag, context):
                return entry
        return None

    def remove(self, target) -> bool:
        """Remove a specific entry (by identity, falling back to
        equality); True if it was present."""
        for index, (entry, *_key) in enumerate(self._entries):
            if entry is target or entry == target:
                del self._entries[index]
                return True
        return False

    def entries(self) -> List:
        return [entry for entry, *_k in self._entries]
