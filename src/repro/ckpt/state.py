"""Deterministic state signatures for checkpoint verification.

A live simulation cannot be serialized byte-for-byte — processes are
Python generators holding live frames — so checkpoints restore by
*replay* (rebuild from the spec, re-apply the logged window inputs;
see :mod:`repro.ckpt` and ``docs/CHECKPOINT.md``).  What makes replay
trustworthy is this module: a compact, deterministic digest over every
state surface that could diverge, captured at the quiescent window
barrier and compared bit-for-bit after restore.

Covered surfaces, one per stack layer:

* ``sim/`` — clock (as ``float.hex``), event-heap and fast-path-deque
  entries ``(time, priority, sequence, event type)``, the monotone
  sequence counter, processed-event and progress counters;
* ``hw/`` — per-link frame/byte/drop counters, boundary-link egress
  sequence numbers, the exact :func:`random.Random.getstate` of every
  fault-injector stream, NIC port counters;
* ``via/`` — kernel-agent counters and selective-repeat reliability
  state (next tx seq, expected rx seq, held seqs, unacked window depth,
  rto, retries);
* ``mpi/`` — per-rank communicator recovery epoch;
* ``obs/`` — flight-recorder span-set content hash.

Two runs with equal digests have processed the same events, advanced
the same RNGs, and hold the same pending-event structure — any
divergence a resumed run could later exhibit is already visible here.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Optional


def _hexf(value: float) -> str:
    """Bit-exact float encoding (repr can round-trip, hex is explicit)."""
    return float(value).hex()


def sim_signature(sim) -> dict:
    """Pending-event structure and counters of one Simulator."""
    heap = sorted(
        (_hexf(when), priority, seq, type(event).__name__)
        for when, priority, seq, event in sim._queue
    )
    fast = [
        [(_hexf(when), seq, type(event).__name__)
         for when, seq, event in lane]
        for lane in (sim._urgent, sim._normal)
    ]
    return {
        "now": _hexf(sim.now),
        "sequence": sim._sequence,
        "req_seq": getattr(sim, "_req_ids", 0),
        "events": sim.events_processed,
        "progress": sim.progress,
        "heap": heap,
        "urgent": fast[0],
        "normal": fast[1],
    }


def _rng_state(rng) -> list:
    """``random.Random.getstate()`` flattened to nested lists."""
    kind, internal, gauss = rng.getstate()
    return [kind, list(internal), gauss]


def cluster_signature(cluster) -> dict:
    """Hardware + VIA + liveness state of one MeshCluster."""
    links = []
    for link in cluster.links:
        entry = {
            "name": link.name,
            "stats": {k: list(v) if isinstance(v, list) else v
                      for k, v in link.stats.items()},
        }
        seq = getattr(link, "_egress_seq", None)
        if seq is not None:
            entry["egress_seq"] = seq
        faults = getattr(link, "faults", None)
        if faults is not None:
            entry["rngs"] = [_rng_state(rng) for rng in faults._rngs]
        links.append(entry)
    links.sort(key=lambda e: e["name"])
    nodes = []
    for node in cluster.nodes:
        if node is None:
            nodes.append(None)
            continue
        ports = {
            str(pid): dict(port.stats)
            for pid, port in sorted(node.ports.items())
        }
        via = None
        if node.via is not None:
            agent = node.via.agent
            via = {
                "stats": dict(agent.stats),
                "msg_seq": node.via._next_msg_id,
                "channels": {
                    str(vi_id): {
                        "next_seq": ch.next_seq,
                        "rx_expected": ch.rx_expected,
                        "held": sorted(ch.held),
                        "unacked": len(ch.unacked),
                        "rto": _hexf(ch.timer.rto),
                        "retries": ch.timer.retries,
                        "stats": dict(ch.stats),
                    }
                    for vi_id, ch in sorted(agent._channels.items())
                },
            }
        nodes.append({"rank": node.rank, "ports": ports, "via": via})
    return {
        "links": links,
        "nodes": nodes,
        "alive": list(cluster._alive),
        "deaths": [(rank, _hexf(when), by, reason)
                   for rank, when, by, reason in cluster.death_log],
    }


def comm_signature(comms) -> dict:
    """ULFM recovery epochs, keyed by rank."""
    return {str(rank): comm.epoch for rank, comm in sorted(comms.items())}


def recorder_signature(recorder) -> Optional[dict]:
    """Span-set content hash of a flight recorder (None when off)."""
    if recorder is None:
        return None
    keys = recorder.span_keys()
    digest = hashlib.sha256(repr(keys).encode()).hexdigest()
    return {"spans": len(keys), "keys_sha256": digest}


def shard_digest(runtime) -> str:
    """The verification digest of one ShardRuntime at a window barrier.

    Built from deterministically ordered dicts of primitives, so a
    fixed-protocol pickle of the combined payload is itself
    deterministic (same construction order => same bytes); the sha256
    over it is the bit-identity witness the restore path checks.
    Pickle rather than ``repr`` because it serialises the large RNG /
    heap sections at C speed — digests run at every capture, and this
    keeps the measured checkpoint overhead inside its <5% budget.
    Digests are only ever compared under one code version (the store's
    ``meta.json`` guard refuses cross-version restores), so pickle's
    per-version encoding is not a portability concern.
    """
    payload = {
        "shard_id": runtime.shard_id,
        "sim": sim_signature(runtime.sim),
        "cluster": cluster_signature(runtime.cluster),
        "comms": comm_signature(runtime.comms),
        "recorder": recorder_signature(runtime.sim.recorder),
        "outbox": len(runtime.cluster.pdes_outbox),
        "notify_outbox": len(runtime.notify_outbox),
    }
    return hashlib.sha256(pickle.dumps(payload, protocol=4)).hexdigest()
