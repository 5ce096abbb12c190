"""Property tests for the reliable-delivery protocol under seeded loss.

The selective-repeat layer (via.reliability) must provide exactly-once,
in-order delivery over links that drop frames, without duplicate
completions, and with retry streaks bounded by the configured budget —
and all of it deterministically for a fixed fault seed.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ViaError
from repro.hw.faults import FaultParams
from repro.hw.params import GigEParams, ViaParams
from repro.via.descriptors import (
    DescriptorStatus,
    RecvDescriptor,
    SendDescriptor,
)
from repro.via.vi import ViState
from tests.conftest import make_via_pair

#: Mixed message sizes: sub-frame, exactly-one-frame-ish, multi-frag.
SIZES = (4, 100, 1434, 5000, 20000)


def _lossy_pair(seed, loss=0.03, drop_frames=(), **via_kwargs):
    return make_via_pair(
        gige_params=GigEParams(
            faults=FaultParams(seed=seed, loss_rate=loss,
                               drop_frames=drop_frames)
        ),
        via_params=ViaParams(**via_kwargs),
    )


def _run_exchange(seed, loss=0.03, nmsgs=40, drop_frames=(),
                  **via_kwargs):
    """Send ``nmsgs`` tagged messages of mixed sizes over a lossy pair.

    Returns (payload list in arrival order, send-completion statuses,
    cluster) after the simulation drains.
    """
    cluster, (vi0, r0), (vi1, r1) = _lossy_pair(seed, loss, drop_frames,
                                                **via_kwargs)
    sim = cluster.sim
    received = []
    statuses = []

    def receiver():
        # Pre-post every buffer (VIA flow-control discipline: receives
        # must be outstanding before the matching send is posted).
        for _ in range(nmsgs):
            vi1.post_recv(RecvDescriptor(r1, 0, max(SIZES)))
        for _ in range(nmsgs):
            descriptor = yield from vi1.recv_wait()
            received.append(
                (descriptor.received_payload, descriptor.received_bytes)
            )

    def sender():
        for index in range(nmsgs):
            nbytes = SIZES[index % len(SIZES)]
            yield from vi0.post_send(
                SendDescriptor(r0, 0, nbytes, payload=("msg", index))
            )
            done = yield from vi0.send_wait()
            statuses.append(done.status)

    sim.spawn(receiver())
    process = sim.spawn(sender())
    sim.run_until_complete(process)
    sim.run()
    return received, statuses, cluster


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_exactly_once_in_order_under_loss(seed):
    nmsgs = 40
    received, statuses, cluster = _run_exchange(seed, nmsgs=nmsgs)
    # Every message arrived exactly once, in posting order, with the
    # right length — despite real frame losses on the wire.
    assert [p for p, _ in received] == [("msg", i) for i in range(nmsgs)]
    assert [n for _, n in received] == \
        [SIZES[i % len(SIZES)] for i in range(nmsgs)]
    # Every send completed exactly once, successfully.  (A duplicate
    # completion would raise inside mark_done, so reaching here with
    # nmsgs DONE statuses is the no-duplicate-completions property.)
    assert statuses == [DescriptorStatus.DONE] * nmsgs
    dropped = sum(sum(link.stats["dropped"]) for link in cluster.links)
    totals = cluster.reliability_stats()
    assert dropped > 0, "seed injected no losses; test is vacuous"
    assert totals["retransmits"] > 0
    assert totals["timeouts"] > 0
    assert totals["acks_sent"] >= totals["acks_received"] > 0


@settings(max_examples=25, deadline=None)
@given(drops=st.frozensets(st.integers(min_value=1, max_value=90),
                           max_size=10))
def test_any_drop_set_delivers_the_lossless_stream(drops):
    """Whatever set of frames the link loses — the same per-direction
    indices on both sides, so data, resends, ACKs, NACKs and handshake
    frames alike — the receiver delivers the lossless run's stream:
    each message once, in order, with its bytes, and nothing is left
    held."""
    nmsgs = 12
    lossless, _statuses, _cluster = _run_exchange(0, loss=0.0,
                                                  nmsgs=nmsgs)
    received, statuses, cluster = _run_exchange(
        0, loss=0.0, nmsgs=nmsgs, drop_frames=tuple(sorted(drops)),
        reliable=True)
    assert received == lossless
    assert statuses == [DescriptorStatus.DONE] * nmsgs
    for node in cluster.nodes:
        for channel in node.via.agent._channels.values():
            assert not channel.held and not channel.unacked


@pytest.mark.parametrize("seed", [1, 2])
def test_retry_streaks_bounded_by_budget(seed):
    _received, _statuses, cluster = _run_exchange(
        seed, loss=0.10, nmsgs=20, rel_max_retries=10
    )
    for node in cluster.nodes:
        for channel in node.via.agent._channels.values():
            assert (channel.stats["max_retry_streak"]
                    <= node.via.params.rel_max_retries)


def test_retry_budget_exhaustion_surfaces_via_error():
    """A link that goes (effectively forever) dark fails the send as a
    VIA error after the retry budget, instead of hanging."""
    cluster, (vi0, r0), (vi1, r1) = make_via_pair(
        gige_params=GigEParams(
            faults=FaultParams(seed=9, down_at=((5_000.0, 1e12),))
        ),
        via_params=ViaParams(rel_max_retries=3),
    )
    sim = cluster.sim
    assert cluster.nodes[0].via.reliable
    outcome = {}

    def sender():
        yield from vi0.post_send(
            SendDescriptor(r0, 0, 2000, payload="doomed")
        )
        done = yield from vi0.send_wait()
        outcome["status"] = done.status
        outcome["error"] = done.error

    sim.run(until=6_000.0)  # the outage has begun
    process = sim.spawn(sender())
    sim.run_until_complete(process)
    assert outcome["status"] is DescriptorStatus.ERROR
    assert isinstance(outcome["error"], ViaError)
    assert vi0.state is ViState.ERROR
    agent = cluster.nodes[0].via.agent
    assert agent.stats["rel_failures"] == 1
    # 3 allowed retries -> the 4th timeout trips the budget.
    assert agent.stats["timeouts"] == 4


@pytest.mark.parametrize("seed", [5, 11])
def test_same_seed_reproduces_identical_run(seed):
    """Determinism: identical fault seed => identical loss schedule,
    identical recovery schedule, identical counters and event count."""

    def fingerprint():
        received, _statuses, cluster = _run_exchange(seed, nmsgs=25)
        return (
            received,
            cluster.reliability_stats(),
            [tuple(link.stats["dropped"]) for link in cluster.links],
            cluster.sim.now,
            cluster.sim.events_processed,
        )

    assert fingerprint() == fingerprint()


def test_lossless_run_has_zero_fault_activity():
    """With default knobs the reliability machinery stays cold: no
    sequencing, no ACK traffic, no channels, no counters."""
    received, statuses, cluster = _run_exchange(0, loss=0.0, nmsgs=10)
    assert len(received) == 10
    totals = cluster.reliability_stats()
    assert all(value == 0 for value in totals.values()), totals
    for node in cluster.nodes:
        assert not node.via.reliable
        assert not node.via.agent._channels


def test_handshake_retries_connect_under_heavy_loss():
    """CONNECT/ACCEPT frames are themselves covered by a retry timer;
    a handshake eventually completes under serious loss."""
    for seed in range(3):
        cluster, (vi0, _r0), (vi1, _r1) = _lossy_pair(seed, loss=0.25)
        assert vi0.state is ViState.CONNECTED
        assert vi1.state is ViState.CONNECTED
        assert vi0.peer == (1, vi1.vi_id)
