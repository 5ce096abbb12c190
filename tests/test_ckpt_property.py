"""Property-style checkpoint sweeps: many seeds, many fault shapes.

Two populations, matching the two checkpoint grains:

* **PDES crash/replay** — sharded runs are fault-free by design (the
  builder rejects link faults under PDES), so the property here is
  seeded crash-at-a-seeded-window bit-identity, with both fast-path
  states covered (the session default keeps the fast path engaged).
* **Campaign resume** — the sequential engine owns fault injection, so
  item-level ``run_resumable`` is swept across loss, link-flap, and
  node-crash configurations: crash after item 0, resume, and the
  reassembled results must equal a straight uninterrupted run.

Plus the restore guards: a store written under a different config
hash, code version, topology, or with tampered digests must refuse to
resume rather than produce plausible-but-wrong state.
"""

import pickle
import zlib

import pytest

from repro import fastpath
from repro.ckpt import CheckpointStore, SimulatedCrash, run_resumable
from repro.errors import CheckpointMismatchError
from repro.hw import faults
from repro.pdes import CheckpointPolicy, run_sharded

SEEDS = list(range(10))


def _mix(*parts) -> int:
    salt = ":".join(str(p) for p in parts)
    return zlib.crc32(f"ckpt-property:{salt}".encode()) & 0x7FFFFFFF


# -- PDES crash/replay determinism --------------------------------------

DIMS = (2, 2, 2)


@pytest.fixture(scope="module")
def pdes_reference():
    return run_sharded(DIMS, workload="aggregate", nshards=2)


class TestPdesCrashReplaySweep:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_seeded_crash_is_bit_identical(self, pdes_reference, seed):
        ref = pdes_reference
        victim = _mix("victim", seed) % 2
        window = _mix("window", seed) % ref.windows
        result = run_sharded(
            DIMS, workload="aggregate", nshards=2,
            checkpoint=CheckpointPolicy(every=16,
                                        chaos_kill=(victim, window)),
        )
        assert result.recoveries == 1
        assert repr(result.table) == repr(ref.table)
        assert result.per_rank == ref.per_rank
        assert result.windows == ref.windows

    def test_crash_replay_with_fastpath_off(self):
        # The sweep above runs under the session default (fast path
        # on); pin the slow path once so both event-loop variants are
        # inside the replay-determinism contract.
        with fastpath.force(False):
            ref = run_sharded(DIMS, workload="aggregate", nshards=2)
            result = run_sharded(
                DIMS, workload="aggregate", nshards=2,
                checkpoint=CheckpointPolicy(
                    every=16, chaos_kill=(1, ref.windows // 2)),
            )
        assert result.recoveries == 1
        assert repr(result.table) == repr(ref.table)
        assert result.per_rank == ref.per_rank


# -- campaign resume under faults ---------------------------------------

def _campaign(seed: int):
    """(items, run_item) for this seed's fault flavor.

    Loss and flap exercise the sequential engine's fault injectors
    through the VIA latency microbench; crash runs a full chaos
    campaign (node death mid-collective) as one resumable item.
    """
    flavor = ("loss", "flap", "crash")[seed % 3]
    if flavor == "crash":
        from repro.bench.chaos import campaign_row, run_campaign

        scenario = ("pt2pt", "bcast")[seed % 2]

        def run_item(item, _index):
            faults.clear_registry()
            try:
                return campaign_row(run_campaign(item, seed,
                                                 scenario=scenario))
            finally:
                faults.clear_registry()

        return [0, 1], run_item

    from repro.bench.microbench import via_latency

    if flavor == "loss":
        params = faults.FaultParams(seed=seed,
                                    loss_rate=0.02 + 0.01 * (seed % 3))
    else:
        params = faults.FaultParams(seed=seed, flap_period=400.0,
                                    flap_down=40.0)

    def run_item(item, _index):
        faults.set_ambient(params)
        try:
            return via_latency(nbytes=item, repeats=3)
        finally:
            faults.set_ambient(None)
            faults.clear_registry()

    return [64, 1024, 16384], run_item


class TestCampaignResumeUnderFaults:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_crash_resume_equals_straight_run(self, seed, tmp_path):
        items, run_item = _campaign(seed)
        straight = [run_item(item, index)
                    for index, item in enumerate(items)]

        store = CheckpointStore(tmp_path)
        key = f"prop-{seed:02d}"
        with pytest.raises(SimulatedCrash):
            run_resumable(key, items, run_item, store, crash_after=0)

        resumed = run_resumable(key, items, run_item, store)
        assert resumed.results == straight
        assert resumed.loaded >= 1
        assert resumed.computed == len(items) - resumed.loaded


# -- restore guards -----------------------------------------------------

class TestRestoreGuards:
    def test_open_key_rejects_config_hash_drift(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.open_key("guarded", "item", config_hash="hash-a")
        with pytest.raises(CheckpointMismatchError, match="config_hash"):
            store.open_key("guarded", "item", config_hash="hash-b")

    def test_open_key_rejects_code_version_drift(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.open_key("versioned", "item", config_hash="hash-a")
        with pytest.raises(CheckpointMismatchError,
                           match="code_version"):
            store.open_key("versioned", "item", config_hash="hash-a",
                           code_version="0.0.0+stale")

    def test_store_stamped_by_the_previous_release_is_refused(
            self, tmp_path):
        """1.0.0 queued bus joins and wakes as ``Callback`` entries;
        1.0.1 queued a ``StoreGet`` and a ``Timeout`` per received frame
        where 1.0.2 queues the port's one ``_RxStage``, and a ``Process``
        entry for every termination nobody awaited; 1.0.2 queued an
        ``Event`` per serialization end, a ``StoreGet`` per idle wire
        stage and a ``StorePut`` per full transmit FIFO where 1.0.3
        queues the port's one ``_TxWire`` or nothing.  ``sim_signature``
        hashes entry type names, the sequence counter and the event
        count, so replaying such a store would diverge mid-run instead
        of being refused here.  1.0.3 folded a kernel-tier reduction in
        arrival order where 1.0.4 folds in tree order: a cached
        kernel-tier payload can differ in its last bits.  1.0.4's fast
        scheduler ran go-back-N bookkeeping ahead of the interrupt
        dispatcher's per-frame cost where 1.0.5 runs it at the
        reference instants: a cached result under loss or node faults
        can differ.  1.0.5 ran a shard-boundary port's transmit stages
        as processes (every port's, and its receive stage, under the
        reference scheduler): ``Process`` start-ups, ``StoreGet`` hops,
        a ``Timeout`` per frame's processing and serialization, where
        1.0.6 queues the port's one ``_TxWire`` or ``_RxStage``.  1.0.6
        stamped a reliable frame's cumulative ACK when it entered the
        transmit ring where 1.0.7 stamps it when the NIC fetches it: a
        cached result under loss or node faults can differ.  1.0.7
        recovered a loss by go-back-N where 1.0.8 holds the fragments
        past the gap and resends only the missing one: the same.  1.0.8
        queued a ``StorePut`` for every frame posted to a transmit ring
        with room, where 1.0.9's fast scheduler inserts it at once: the
        sequence counter and event count of a digest fall.  1.0.9 ran a
        node-fault cluster's unsequenced frames through relays whose
        links were not the sender's own, and took only keepalives as
        proof of a live neighbor, where 1.0.10 engages reliability on
        every node and counts every arriving frame: a cached chaos
        payload or a node-fault digest differs.  1.0.10 restarted the
        offload collectives' retransmission timer from its own wake and
        slept a CONNECT's timer on a ``Timeout``, where 1.0.11 restarts
        every retransmission timer from the ACK, sleeps it toward an
        absolute deadline and gives a send into an idle window a full
        RTO: a result under loss or a reliable run's digest differs.
        1.0.11 sequenced and ACKed every offload-collective frame on a
        reliable fabric, where 1.0.12 recovers per operation with no
        ACK frame: an offload result under loss or node faults (a chaos
        payload) differs.  1.0.12 ran a kernel-tier ``bcast`` or
        ``reduce`` as a combine over root 0, where 1.0.13 runs it as
        itself over its own root: a cached ``nic-collectives`` payload
        differs in its kernel rows.  1.0.13 queued a CPU grant as a
        ``PriorityRequest``, where 1.0.14 has one lock class and queues
        a ``Request``: a digest over the queued entries' type names
        differs.  1.0.14's ``GigEParams`` / ``ViaParams`` carried
        ``dma_setup``, ``price_per_port`` and ``send_queue_depth`` and
        its PDES run identity ``metrics_interval``, where 1.0.15 has
        none of them: a config hash or cache key differs."""
        from repro import __version__
        assert __version__ == "1.0.15"
        store = CheckpointStore(tmp_path)
        for stale in ("1.0.0", "1.0.1", "1.0.2", "1.0.3", "1.0.4",
                      "1.0.5", "1.0.6", "1.0.7", "1.0.8", "1.0.9",
                      "1.0.10", "1.0.11", "1.0.12", "1.0.13",
                      "1.0.14"):
            store.open_key(f"old-{stale}", "item", config_hash="hash-a",
                           code_version=stale)
            with pytest.raises(CheckpointMismatchError,
                               match="code_version"):
                store.open_key(f"old-{stale}", "item",
                               config_hash="hash-a")

    def test_resume_rejects_different_topology_under_same_key(
            self, tmp_path):
        store = CheckpointStore(tmp_path)
        run_sharded((2, 2, 2), workload="aggregate", nshards=2,
                    checkpoint=CheckpointPolicy(every=16, store=store,
                                                key="pinned"))
        with pytest.raises(CheckpointMismatchError, match="config_hash"):
            run_sharded((4, 2, 2), workload="aggregate", nshards=2,
                        checkpoint=CheckpointPolicy(
                            every=16, store=store, key="pinned",
                            resume=True))

    def test_resume_rejects_tampered_state_digest(self, tmp_path):
        store = CheckpointStore(tmp_path)
        full = run_sharded((2, 2, 2), workload="aggregate", nshards=2,
                           checkpoint=CheckpointPolicy(every=16,
                                                       store=store))
        key = full.ckpt_key
        newest = store.windows(key)[-1]
        path = tmp_path / key / f"window-{newest:06d}.pkl"
        data = pickle.loads(path.read_bytes())
        data["digests"] = [(count, "0" * 64)
                           for count, _digest in data["digests"]]
        path.write_bytes(pickle.dumps(data, protocol=4))
        with pytest.raises(CheckpointMismatchError):
            run_sharded((2, 2, 2), workload="aggregate", nshards=2,
                        checkpoint=CheckpointPolicy(
                            every=16, store=store, resume=True))
