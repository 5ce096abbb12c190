"""Content-addressed, crash-safe checkpoint storage.

Layout (one directory per run key, keys are
:func:`repro.canonical.content_hash` digests of the run's canonical
configuration, so identical configs share checkpoints and different
configs can never collide)::

    <root>/
      <key>/
        meta.json          # {key, kind, config_hash, code_version}
        item-000003.json   # campaign checkpoints: stable_json payloads
        window-000012.pkl  # PDES checkpoints: pickled window sets
                           # (incremental log tails chained by "base";
                           # latest_window() reassembles full logs)

Every write is atomic (temp file + ``os.replace``), so a worker killed
mid-write leaves either the previous checkpoint or the new one, never
a torn file — the property that makes SIGKILL chaos safe to point at
this layer.

``meta.json`` is the restore guard: opening a key validates the stored
config hash and code version against the restoring run and raises
:class:`~repro.errors.CheckpointMismatchError` on any disagreement.  A
checkpoint written by different code or a different configuration is
worthless-but-plausible state; refusing it is what keeps resumed runs
inside the bit-identity contract.
"""

from __future__ import annotations

import json
import os
import pickle
import re
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

from repro import __version__, telemetry
from repro.canonical import stable_json
from repro.errors import CheckpointError, CheckpointMismatchError

_ITEM_RE = re.compile(r"^item-(\d{6})\.json$")
_WINDOW_RE = re.compile(r"^window-(\d{6})\.pkl$")


def checkpoint_id(key: str, kind: str, index: int) -> str:
    """Human-quotable checkpoint name: ``<key16>/<kind>-<index>``."""
    return f"{key[:16]}/{kind}-{index:06d}"


@dataclass(frozen=True)
class CheckpointRef:
    """Pointer to the newest durable checkpoint under one key."""

    key: str
    kind: str
    index: int

    @property
    def ckpt_id(self) -> str:
        return checkpoint_id(self.key, self.kind, self.index)


class CheckpointStore:
    """Filesystem-backed checkpoint store rooted at ``root``."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- key lifecycle --------------------------------------------------

    def _key_dir(self, key: str) -> Path:
        if not key or "/" in key or key.startswith("."):
            raise CheckpointError(f"invalid checkpoint key {key!r}")
        return self.root / key

    def open_key(self, key: str, kind: str,
                 config_hash: str,
                 code_version: str = __version__) -> Path:
        """Create-or-validate the directory for ``key``.

        Raises :class:`CheckpointMismatchError` when an existing key
        was written under a different config hash or code version.
        """
        directory = self._key_dir(key)
        meta_path = directory / "meta.json"
        meta = {
            "key": key,
            "kind": kind,
            "config_hash": config_hash,
            "code_version": code_version,
        }
        if meta_path.exists():
            stored = json.loads(meta_path.read_text())
            for field in ("config_hash", "code_version"):
                if stored.get(field) != meta[field]:
                    raise CheckpointMismatchError(
                        f"checkpoint {key[:16]} was written with "
                        f"{field}={stored.get(field)!r} but this run has "
                        f"{meta[field]!r}; refusing to resume from it"
                    )
            return directory
        directory.mkdir(parents=True, exist_ok=True)
        self._atomic_write(meta_path, stable_json(meta).encode())
        return directory

    @staticmethod
    def _atomic_write(path: Path, data: bytes) -> None:
        fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                                   prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- campaign items (JSON payloads) ---------------------------------

    def put_item(self, key: str, index: int, payload) -> str:
        directory = self._key_dir(key)
        path = directory / f"item-{index:06d}.json"
        tel = telemetry.ACTIVE
        write_start = time.perf_counter() if tel is not None else 0.0
        data = stable_json(payload).encode()
        self._atomic_write(path, data)
        if tel is not None:
            tel.registry.histogram("ckpt_write_seconds", kind="item",
                                   ).observe(time.perf_counter()
                                             - write_start)
            tel.registry.counter("ckpt_bytes_total",
                                 kind="item").inc(len(data))
        return checkpoint_id(key, "item", index)

    def get_item(self, key: str, index: int):
        path = self._key_dir(key) / f"item-{index:06d}.json"
        if not path.exists():
            return None
        return json.loads(path.read_text())

    # -- PDES window sets (pickled coordinator state) -------------------

    def put_window(self, key: str, window: int, data: dict) -> str:
        directory = self._key_dir(key)
        path = directory / f"window-{window:06d}.pkl"
        tel = telemetry.ACTIVE
        write_start = time.perf_counter() if tel is not None else 0.0
        encoded = pickle.dumps(data, protocol=4)
        self._atomic_write(path, encoded)
        if tel is not None:
            tel.registry.histogram("ckpt_write_seconds", kind="window",
                                   ).observe(time.perf_counter()
                                             - write_start)
            tel.registry.counter("ckpt_bytes_total",
                                 kind="window").inc(len(encoded))
        return checkpoint_id(key, "window", window)

    def windows(self, key: str) -> List[int]:
        directory = self._key_dir(key)
        if not directory.is_dir():
            return []
        found = []
        for name in os.listdir(directory):
            match = _WINDOW_RE.match(name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    def _read_window(self, key: str, window: int) -> dict:
        path = self._key_dir(key) / f"window-{window:06d}.pkl"
        with open(path, "rb") as handle:
            return pickle.load(handle)

    def latest_window(self, key: str) -> Optional[Tuple[int, dict]]:
        """Newest window set for ``key``, with its full replay logs.

        Window files are *incremental*: each holds only the log tail
        since the previous capture plus a ``base`` pointer (so capture
        cost stays proportional to the checkpoint interval, not the
        run length).  This walks the base chain and splices the tails
        back into the complete per-shard logs the restore path needs.
        A file holding full ``logs`` (the first capture, or the legacy
        format) terminates the chain.
        """
        indices = self.windows(key)
        if not indices:
            return None
        tel = telemetry.ACTIVE
        restore_start = time.perf_counter() if tel is not None else 0.0
        window = indices[-1]
        newest = self._read_window(key, window)
        chain = [newest]
        while "logs" not in chain[-1]:
            base = chain[-1].get("base")
            if base is None:
                break
            chain.append(self._read_window(key, base))
        logs: Optional[List[list]] = None
        for part in reversed(chain):
            tails = part["logs"] if "logs" in part \
                else part.get("logs_tail", [])
            if logs is None:
                logs = [list(tail) for tail in tails]
            else:
                if len(tails) != len(logs):
                    raise CheckpointError(
                        f"window chain for {key[:16]} changed shard "
                        f"count mid-run ({len(logs)} vs {len(tails)})"
                    )
                for index, tail in enumerate(tails):
                    logs[index].extend(tail)
        data = dict(newest)
        data["logs"] = logs or []
        data.pop("logs_tail", None)
        data.pop("base", None)
        if tel is not None:
            tel.registry.histogram("ckpt_restore_seconds").observe(
                time.perf_counter() - restore_start)
            tel.registry.counter("ckpt_restores_total").inc()
        return window, data

    def drop_windows_after(self, key: str, keep_up_to: int) -> int:
        """Delete window checkpoints above ``keep_up_to`` (test/ops aid:
        force a resume from an earlier barrier)."""
        dropped = 0
        for window in self.windows(key):
            if window > keep_up_to:
                os.unlink(self._key_dir(key) / f"window-{window:06d}.pkl")
                dropped += 1
        return dropped

    # -- inspection -----------------------------------------------------

    def latest(self, key: str) -> Optional[CheckpointRef]:
        """Newest checkpoint under ``key``, item or window kind."""
        directory = self._key_dir(key)
        if not directory.is_dir():
            return None
        best: Optional[CheckpointRef] = None
        for name in os.listdir(directory):
            for kind, pattern in (("item", _ITEM_RE),
                                  ("window", _WINDOW_RE)):
                match = pattern.match(name)
                if match:
                    ref = CheckpointRef(key, kind, int(match.group(1)))
                    if best is None or ref.index > best.index:
                        best = ref
        return best


# -- process-wide default store (set by service workers / CLIs) --------

def default_store() -> Optional[CheckpointStore]:
    """The store under ``REPRO_CKPT_DIR``, if set, else ``None``
    (callers treat a missing store as checkpointing-off).  A fleet
    worker sets it to its fleet's directory."""
    root = os.environ.get("REPRO_CKPT_DIR")
    if not root:
        return None
    return CheckpointStore(root)
