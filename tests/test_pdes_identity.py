"""Sharded-vs-sequential bit-identity (the PDES determinism contract).

``run_sharded(nshards=1)`` *is* the sequential reference engine — one
simulator, one full-drain window.  Every test here pins that higher
shard counts (and subprocess execution) reproduce it exactly:
experiment tables repr-identical, flight-recorder span sets identical,
per-rank results identical, reruns identical.
"""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.pdes import run_sharded
from repro.pdes.workloads import far_peer, get_workload
from repro.topology.torus import Torus


def _tables(dims, workload, counts, **kw):
    return {
        n: run_sharded(dims, workload=workload, nshards=n, **kw)
        for n in counts
    }


class TestTableIdentity:
    @pytest.mark.parametrize("workload", ["pingpong", "collective"])
    def test_2x2x2_mesh(self, workload):
        results = _tables((2, 2, 2), workload, (1, 2))
        reprs = {n: repr(r.table) for n, r in results.items()}
        assert reprs[1] == reprs[2]

    @pytest.mark.parametrize("workload", ["pingpong", "collective"])
    def test_3x3_mesh(self, workload):
        results = _tables((3, 3), workload, (1, 2, 3))
        reprs = {n: repr(r.table) for n, r in results.items()}
        assert len(set(reprs.values())) == 1

    def test_shard_count_invariance_1_2_4(self):
        # The 1/2/4 sweep needs a longest axis of extent >= 4.
        results = _tables((4, 2, 2), "aggregate", (1, 2, 4))
        reprs = {n: repr(r.table) for n, r in results.items()}
        assert len(set(reprs.values())) == 1
        per_rank = {n: r.per_rank for n, r in results.items()}
        assert per_rank[1] == per_rank[2] == per_rank[4]

    def test_pingpong_crosses_the_cut(self):
        # The fig2-style pingpong spans the longest axis, so any
        # nshards > 1 exercises boundary links, not just local ones.
        torus = Torus((4, 2, 2))
        peer = far_peer(torus)
        result = run_sharded((4, 2, 2), workload="pingpong", nshards=4)
        assert result.table["peer"] == peer
        assert result.windows > 1
        assert result.table["latency_us"] == pytest.approx(
            run_sharded((4, 2, 2), workload="pingpong",
                        nshards=1).table["latency_us"])


class TestNicCollectiveIdentity:
    """The NIC-tier allreduce sharded: wire-level collective frames
    cross shard boundaries, and every shard count reproduces the
    sequential reference bit for bit."""

    def test_tables_identical_1_2_4(self):
        # (4, 2, 2) supports the full 1/2/4 sweep ((2, 2, 2) caps at 2
        # shards — its longest axis has extent 2).
        results = _tables((4, 2, 2), "nic-collective", (1, 2, 4))
        reprs = {n: repr(r.table) for n, r in results.items()}
        assert len(set(reprs.values())) == 1
        per_rank = {n: r.per_rank for n, r in results.items()}
        assert per_rank[1] == per_rank[2] == per_rank[4]

    def test_tables_identical_2x2x2(self):
        results = _tables((2, 2, 2), "nic-collective", (1, 2))
        assert repr(results[1].table) == repr(results[2].table)
        assert results[1].per_rank == results[2].per_rank
        # Sanity on the values themselves: 3 allreduce rounds of
        # rank+1 over 8 ranks.
        assert results[1].table["sums"] == [3 * 36.0] * 8

    def test_span_sets_identical(self):
        spans = {}
        for n in (1, 2):
            result = run_sharded((2, 2, 2), workload="nic-collective",
                                 nshards=n, observe=True)
            spans[n] = frozenset(result.recorder.span_keys())
        assert spans[1] == spans[2]
        kinds = {key[1] for key in spans[1]}
        assert "nic-forward" in kinds and "nic-combine" in kinds

    def test_boundary_links_carry_nic_frames(self):
        """The cut actually carries NIC collective frames — the test
        is not accidentally measuring a shard-local pattern."""
        result = run_sharded((4, 2, 2), workload="nic-collective",
                             nshards=2)
        assert result.windows >= 1
        # Frame accounting: every rank completed 3 allreduces, and the
        # per-rank results prove cross-cut reduction (the global sum
        # includes contributions from both shards).
        assert result.table["sums"] == [3 * 136.0] * 16

    def test_subprocess_match(self):
        inproc = run_sharded((2, 2, 2), workload="nic-collective",
                             nshards=2, processes=False)
        piped = run_sharded((2, 2, 2), workload="nic-collective",
                            nshards=2, processes=True)
        assert repr(inproc.table) == repr(piped.table)
        assert inproc.per_rank == piped.per_rank


class TestSpanSetIdentity:
    @pytest.mark.parametrize("dims,counts,workload", [
        ((2, 2, 2), (1, 2), "collective"),
        ((3, 3), (1, 3), "pingpong"),
    ])
    def test_recorder_spans_identical(self, dims, counts, workload):
        spans = {}
        for n in counts:
            result = run_sharded(dims, workload=workload, nshards=n,
                                 observe=True)
            assert result.recorder is not None
            spans[n] = frozenset(result.recorder.span_keys())
        assert len(set(spans.values())) == 1
        assert spans[counts[0]]  # non-empty: the recorder saw traffic


class TestProcessesAndDeterminism:
    def test_subprocess_workers_match_in_process(self):
        inproc = run_sharded((3, 3), workload="collective", nshards=3,
                             processes=False)
        piped = run_sharded((3, 3), workload="collective", nshards=3,
                            processes=True)
        assert repr(inproc.table) == repr(piped.table)
        assert inproc.per_rank == piped.per_rank
        assert inproc.events_processed == piped.events_processed
        assert inproc.windows == piped.windows

    def test_rerun_determinism(self):
        first = run_sharded((2, 2, 2), workload="aggregate", nshards=2)
        second = run_sharded((2, 2, 2), workload="aggregate", nshards=2)
        assert repr(first.table) == repr(second.table)
        assert first.windows == second.windows
        assert first.events_processed == second.events_processed


class TestAccounting:
    def test_event_totals_aggregate_across_workers(self):
        from repro.sim import core as sim_core

        before = sim_core.TOTAL_EVENTS
        result = run_sharded((2, 2, 2), workload="pingpong", nshards=2,
                             processes=True)
        delta = sim_core.TOTAL_EVENTS - before
        # Every event simulated in the worker processes lands in the
        # parent's global tally (satellite: no more silent undercount).
        assert delta >= result.events_processed
        assert result.events_processed > 0

    def test_result_metadata(self):
        result = run_sharded((3, 3), workload="collective", nshards=2)
        assert result.nshards == 2
        assert result.processes is False
        assert result.now > 0
        assert result.wall_seconds > 0
        assert set(result.per_rank) == set(range(9))


class TestShardDeath:
    def test_a_worker_dead_before_reading_its_command_is_a_crash(self):
        """A worker killed with ``build`` still unread in its pipe
        resets the connection instead of closing it: the read must
        still say :class:`ShardCrashed`, the error the supervisor
        recovers by replay."""
        from repro.errors import ShardCrashed
        from repro.pdes.runner import PipeShard

        shard = PipeShard({"shard_id": 0})
        try:
            shard.kill()
            with pytest.raises(ShardCrashed):
                shard.ready()
        finally:
            shard.close()


class TestGuards:
    def test_too_many_shards_rejected(self):
        from repro.errors import TopologyError

        with pytest.raises(TopologyError, match="cannot cut"):
            run_sharded((2, 2, 2), workload="pingpong", nshards=4)

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown PDES"):
            get_workload("nope")

    def test_window_limit_guard(self):
        with pytest.raises(SimulationError, match="exceeded 1 window"):
            run_sharded((3, 3), workload="collective", nshards=3,
                        max_windows=1)

    def test_a_spec_key_the_runtime_does_not_read_is_ignored(self):
        from repro import fastpath
        from repro.pdes.shard import ShardRuntime

        # ``ledger/workloads.py``'s shard set-up passes
        # ``metrics_interval``, which no runtime reads any more.
        runtime = ShardRuntime({
            "dims": [2, 2, 2], "wrap": True, "nshards": 2,
            "shard_id": 0, "workload": "aggregate", "kwargs": {},
            "fast": fastpath.enabled(), "observe": True,
            "metrics_interval": 50.0,
        })
        assert runtime.sim.recorder is not None
        assert runtime.local_ranks
