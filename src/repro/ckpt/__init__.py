"""Deterministic checkpoint/restart (``repro.ckpt``).

A live simulation holds Python generators, so no byte-level snapshot
exists; instead the repo's determinism contract makes *replay* exact:

* checkpoint = build spec + complete log of cross-shard window inputs
  (or completed campaign-item payloads) + a bit-exact state digest;
* restore = rebuild from the spec, replay the log, verify the digest.

Modules: :mod:`~repro.ckpt.store` (content-addressed atomic storage),
:mod:`~repro.ckpt.state` (state digests), :mod:`~repro.ckpt.campaign`
(item-level resume), :mod:`~repro.ckpt.context` (latest-checkpoint
note surfaced in hang/service errors).  See ``docs/CHECKPOINT.md``.
"""

from repro.ckpt import context
from repro.ckpt.campaign import CampaignProgress, SimulatedCrash, run_resumable
from repro.ckpt.state import shard_digest
from repro.ckpt.store import (
    CheckpointRef,
    CheckpointStore,
    checkpoint_id,
    default_store,
)

__all__ = [
    "CampaignProgress",
    "CheckpointRef",
    "CheckpointStore",
    "SimulatedCrash",
    "checkpoint_id",
    "context",
    "default_store",
    "run_resumable",
    "shard_digest",
]
