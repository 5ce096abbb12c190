"""One retransmission timer behind every recovery path.

A reliable VI's window, the CONNECT handshake and the kernel and NIC
offload collectives each run a :class:`~repro.via.reliability.RtoTimer`
and differ only in what an expiry resends and what a spent budget
fails.  Against a peer whose link drops every frame, all four resend
on one schedule: ``rel_rto`` backed off by ``rel_rto_backoff`` up to
``rel_rto_max``, and the expiry after ``rel_max_retries`` of them
spends the budget.  Under node faults that reaches
``Liveness.suspect`` exactly once; without them it ends in the site's
own error.

A send into an idle window gets a full RTO (RFC 6298, 5.1), however
recently the last ACK emptied the window.

Every case runs under both schedulers.
"""

from __future__ import annotations

import pytest

from repro import fastpath
from repro.cluster.builder import build_mesh
from repro.errors import ViaError
from repro.hw.faults import NodeFaultSpec
from repro.hw.params import ViaParams
from repro.via.descriptors import (
    DescriptorStatus, RecvDescriptor, SendDescriptor,
)
from repro.via.packet import (
    KERNEL_COLLECTIVE_KINDS, NIC_COLLECTIVE_KINDS, PacketKind,
)
from tests.conftest import make_via_pair

both = pytest.mark.parametrize("fast", [True, False],
                               ids=["fast", "reference"])

#: Resends after the first copy (us): 300 doubling to the 5 000 cap.
SCHEDULE = (300.0, 900.0, 2100.0, 4500.0, 9300.0,
            14300.0, 19300.0, 24300.0, 29300.0, 34300.0)
#: The eleventh expiry spends the budget.
BUDGET_SPENT = 39300.0


def _wire_log(cluster, kind, src_node, lose=None):
    """Wrap the one link's verdict: log when each frame of ``kind``
    from ``src_node`` leaves.  Lose copy number ``lose`` of those, or
    with ``lose`` None every frame either way."""
    link = cluster.links[0]
    judge = link._judge
    copies = []

    def judged(side, frame):
        packet = frame.payload
        logged = packet.kind is kind and packet.src_node == src_node
        if logged:
            copies.append(cluster.sim.now)
        if lose is None or logged and len(copies) - 1 == lose:
            link.stats["dropped"][side] += 1
            return False
        return judge(side, frame)

    link._judge = judged
    return copies


def _params(faults):
    # The keepalive detector must not beat the retry budget to the
    # verdict: the link it listens on is silent too.
    return dict(via_params=ViaParams(reliable=True, fd_timeout=1e6),
                node_faults=[NodeFaultSpec(rank=1, crash_at=1e9)]
                if faults else None)


def _catching(sim, gen, out):
    """Process: run ``gen``; record when it ended and how."""
    try:
        out["result"] = yield from gen
    except ViaError as error:
        out["result"] = error
    out["at"] = sim.now


def _vi_window(faults):
    cluster, (vi0, r0), (_vi1, _r1) = make_via_pair(**_params(faults))

    def send():
        yield from vi0.post_send(SendDescriptor(r0, 0, 8))
        done = yield from vi0.send_wait()
        assert done.status is DescriptorStatus.ERROR
        return vi0.error

    return cluster, 0, 1, PacketKind.DATA, send()


def _connect(faults):
    cluster = build_mesh((2,), wrap=False, stack="via", **_params(faults))
    device = cluster.nodes[0].via
    vi = device.create_vi(device.create_protection_tag())
    return (cluster, 0, 1, PacketKind.CONNECT,
            device.agent.connect_request(vi, 1, "pair"))


def _offload(tier):
    def site(faults):
        cluster = build_mesh((2,), wrap=False, stack="via",
                             **_params(faults))
        engine = getattr(cluster.nodes[1].via,
                         f"enable_{tier}_collectives")()
        kinds = (KERNEL_COLLECTIVE_KINDS if tier == "kernel"
                 else NIC_COLLECTIVE_KINDS)
        # Rank 1 is the root's child: its reduce frame climbs to 0.
        return (cluster, 1, 0, kinds[0],
                engine.collective("combine", 0, 1.0, max, 8))
    return site


SITES = {"vi-window": _vi_window, "connect": _connect,
         "kernel-offload": _offload("kernel"),
         "nic-offload": _offload("nic")}


@both
@pytest.mark.parametrize("faults", [False, True],
                         ids=["local-error", "node-faults"])
@pytest.mark.parametrize("site", sorted(SITES))
def test_every_site_backs_off_on_one_schedule(site, faults, fast):
    with fastpath.force(fast):
        cluster, sender, peer, kind, gen = SITES[site](faults)
        sim = cluster.sim
        live = cluster.nodes[sender].via.liveness
        assert (live is not None) is faults
        suspected = []
        if faults:
            suspect = live.suspect

            def counted(rank, reason):
                suspected.append(rank)
                return suspect(rank, reason)

            live.suspect = counted
        copies = _wire_log(cluster, kind, sender)
        out = {}
        sim.spawn(_catching(sim, gen, out))
        sim.run(until=sim.now + BUDGET_SPENT + 5000.0)
    # Under node faults a copy may leave behind a keepalive.
    first, tolerance = copies[0], 2.0 if faults else 1e-6
    assert [at - first for at in copies[1:]] == pytest.approx(
        SCHEDULE, abs=tolerance)
    # The budget is spent on the eleventh expiry, with no copy more.
    assert out["at"] - first == pytest.approx(BUDGET_SPENT, abs=10.0)
    assert out["at"] - copies[-1] == pytest.approx(5000.0, abs=10.0)
    assert isinstance(out["result"], ViaError)
    # Under node faults every site hands its spent budget to the
    # liveness owner, once, and that is the verdict.
    if faults:
        assert suspected == [peer]
        assert live.dead == {peer}


def _idle_window_resend(gap, fast):
    """Message A goes 0 -> 1 and is ACKed; ``gap`` us later message B
    is posted and its first wire copy lost.  Returns when B's copies
    left."""
    with fastpath.force(fast):
        cluster, (vi0, r0), (vi1, r1) = make_via_pair(
            via_params=ViaParams(reliable=True))
        sim = cluster.sim
        # Copy 0 is A's; copy 1, B's first, is lost.
        copies = _wire_log(cluster, PacketKind.DATA, 0, lose=1)
        for _ in range(2):
            vi1.post_recv(RecvDescriptor(r1, 0, 64))

        def sender():
            for wait in (0.0, gap):
                yield sim.timeout(wait)
                yield from vi0.post_send(SendDescriptor(r0, 0, 8))
                yield from vi0.send_wait()

        sim.run_until_complete(sim.spawn(sender()))
    return copies[1:]


@both
@pytest.mark.parametrize("gap", [50.0, 200.0, 280.0])
def test_a_send_into_an_idle_window_gets_a_full_rto(gap, fast):
    """B's resend leaves one full ``rel_rto`` after its first copy,
    whether or not the timer that served A still sleeps toward A's
    last deadline (it does at gaps of 50 and 200 us)."""
    first, resend = _idle_window_resend(gap, fast)
    assert resend - first == pytest.approx(ViaParams().rel_rto, abs=1e-9)


@both
def test_a_teardown_during_the_first_send_arms_no_timer(fast):
    """The VI is torn down (its peer declared dead) while a fragment's
    first copy is being queued: nothing is outstanding afterwards, so
    no timer may expire on the empty window."""
    with fastpath.force(fast):
        cluster, (vi0, r0), (vi1, r1) = make_via_pair(
            via_params=ViaParams(reliable=True))
        sim = cluster.sim
        vi1.post_recv(RecvDescriptor(r1, 0, 64))
        agent = cluster.nodes[0].via.agent
        channel = agent.channel_for(vi0)
        send_entry = channel._send_entry

        def torn_down_meanwhile(entry, route):
            yield from send_entry(entry, route)
            agent._fail_vi(vi0, ViaError("peer declared dead"))

        channel._send_entry = torn_down_meanwhile

        def send():
            yield from vi0.post_send(SendDescriptor(r0, 0, 8))
            return (yield from vi0.send_wait())

        done = sim.run_until_complete(sim.spawn(send()))
        sim.run()
    assert done.status is DescriptorStatus.ERROR
    assert not channel.unacked
    assert channel.stats["timeouts"] == channel.stats["retransmits"] == 0
