"""What reliable delivery costs on a clean wire and resends under loss,
counted.

    PYTHONPATH=src python3 tools/ack_defects.py

Run from the root of a checkout (~20 s).  Prints, for the clean-wire
shapes of ``tests/test_reliability_clean_wire.py`` plus a 2x2x4 torus
at 16 KB, the exchange's simulated time with ``ViaParams(reliable=
True)`` and without, and the retransmits and RTO expiries of the
reliable run; then, for the ledger's ``lossy_mesh`` program at 1 %
frame loss, the frames put on the wire, retransmits (and how many of
them an RTO expiry sent rather than a NACK), duplicate frames,
explicit ACKs (and how many of them were NACKs), fragments held past
a gap (in total, and the most one channel held at once), and how many
RTO expiries found their head fragment already delivered (the
receiving channel's ``rx_expected`` past it); and, on a reliable
2-node pair, when message B is resent.  B is posted 50, 200 and 280
us after message A was ACKed, and its one wire copy is lost.  A send
into an idle window is owed a full RTO, so the resend should leave
``rel_rto`` after the lost copy.  It prints instead of
asserting, so the same file reads the state of any commit (a commit
without NACKs or a held map reads zero for them): to measure a
parent, export it (``git archive REV | tar -x -C DIR``), copy this
file and that test file over it and run it there.  EXPERIMENTS.md,
"ACKs read at fetch", "Selective repeat" and "One retransmission
timer", holds the numbers.
"""

from __future__ import annotations

import contextlib
import sys

sys.path.insert(0, ".")

from ledger.workloads import simulator_workloads  # noqa: E402
from repro.hw.params import ViaParams  # noqa: E402
from repro.via import reliability  # noqa: E402
from repro.via.descriptors import (  # noqa: E402
    RecvDescriptor, SendDescriptor,
)
from repro.via.packet import PacketKind  # noqa: E402
from tests.conftest import make_via_pair  # noqa: E402
from tests.test_reliability_clean_wire import SHAPES, _run  # noqa: E402

LOSSY_SEEDS = (7, 11, 20050404)


class _Expiries(dict):
    """A channel's ``stats`` that, as each RTO expiry is counted,
    asks the peer's channel whether the head fragment has arrived, and
    as each fragment is held, how many the channel holds."""

    agents: dict = {}
    counts = {"expiries": 0, "head_delivered": 0, "peak_held": 0}

    def __init__(self, channel, stats) -> None:
        super().__init__(stats)
        self.channel = channel

    def __setitem__(self, key, value) -> None:
        channel = self.channel
        if key == "timeouts" and channel.unacked:
            self.counts["expiries"] += 1
            peer_node, peer_vi = channel.vi.peer
            peer = self.agents[peer_node]._channels.get(peer_vi)
            if (peer is not None
                    and peer.rx_expected > channel.unacked[0].seq):
                self.counts["head_delivered"] += 1
        elif key == "held":
            self.counts["peak_held"] = max(self.counts["peak_held"],
                                           len(channel.held))
        super().__setitem__(key, value)


def _watch_expiries() -> None:
    init = reliability.ReliableChannel.__init__

    def watched(channel, agent, vi) -> None:
        init(channel, agent, vi)
        _Expiries.agents[agent.device.rank] = agent
        channel.stats = _Expiries(channel, channel.stats)

    reliability.ReliableChannel.__init__ = watched


def clean_wire() -> None:
    print("clean wire: reliable vs unreliable exchange (us from the "
          "opening barrier)")
    for dims, phases in (*SHAPES, ((2, 2, 4), ((16384, 1),))):
        bare = _run(dims, phases, reliable=False)[0]
        elapsed, stats, _tx_frames = _run(dims, phases, reliable=True)
        shape = "x".join(map(str, dims))
        sizes = ", ".join(f"{n // 1024} KB x{r}" for n, r in phases)
        print(f"  {shape} [{sizes}]: {elapsed:.1f} vs {bare:.1f} "
              f"({100 * (elapsed / bare - 1):+.1f} %), "
              f"{stats['retransmits']} retransmits, "
              f"{stats['timeouts']} timeouts")


def lossy_mesh() -> None:
    print("lossy_mesh program, 1 % loss")
    workload = simulator_workloads()["lossy_mesh"]
    for seed in LOSSY_SEEDS:
        _Expiries.agents.clear()
        _Expiries.counts.update(expiries=0, head_delivered=0,
                                peak_held=0)
        ctx = workload.setup(workload.inputs(seed, False),
                             lambda _name: contextlib.nullcontext())
        outcome = workload.verify(ctx, workload.run(ctx))
        counts = outcome.counts
        agents = _Expiries.agents.values()
        nacks = sum(agent.stats.get("nacks_sent", 0) for agent in agents)
        held = sum(agent.stats.get("held", 0) for agent in agents)
        nack_resends = sum(channel.stats.get("nack_resends", 0)
                           for agent in agents
                           for channel in agent._channels.values())
        retransmits = counts["via.retransmits"]
        print(f"  seed {seed}: {outcome.sim_time_us:.1f} us, "
              f"{counts['hw.tx_frames']:.0f} tx frames, "
              f"{retransmits:.0f} retransmits "
              f"({retransmits - nack_resends:.0f} on an RTO), "
              f"{counts['via.dup_frames']:.0f} duplicates, "
              f"{counts['via.acks_sent']:.0f} explicit ACKs "
              f"({nacks} NACKs), {held} held (peak "
              f"{_Expiries.counts['peak_held']} on one channel), "
              f"{_Expiries.counts['expiries']} RTO expiries "
              f"({_Expiries.counts['head_delivered']} with the head "
              f"delivered), {outcome.failed} failed")


def _idle_window_resend(gap: float):
    """(post, lost copy, resend) instants of message B, posted ``gap``
    us after message A (same VI, 0 -> 1) was ACKed."""
    cluster, (vi0, r0), (vi1, r1) = make_via_pair(
        via_params=ViaParams(reliable=True))
    sim = cluster.sim
    link = cluster.links[0]
    judge = link._judge
    copies, posts = [], []

    def judged(side, frame):
        if frame.payload.kind is PacketKind.DATA \
                and frame.payload.src_node == 0:
            copies.append(sim.now)
            if len(copies) == 2:
                link.stats["dropped"][side] += 1
                return False
        return judge(side, frame)

    link._judge = judged
    for _ in range(2):
        vi1.post_recv(RecvDescriptor(r1, 0, 64))

    def sender():
        for wait in (0.0, gap):
            yield sim.timeout(wait)
            posts.append(sim.now)
            yield from vi0.post_send(SendDescriptor(r0, 0, 8))
            yield from vi0.send_wait()

    sim.run_until_complete(sim.spawn(sender()))
    return posts[1], copies[1], copies[2]


def idle_window() -> None:
    print("send into an idle window: message B's one copy lost")
    for gap in (50.0, 200.0, 280.0):
        post, lost, resend = _idle_window_resend(gap)
        print(f"  B posted {gap:.0f} us after A completed: resend leaves "
              f"{resend - post:.1f} us after the post, "
              f"{resend - lost:.1f} us after the lost copy")


if __name__ == "__main__":
    _watch_expiries()
    clean_wire()
    lossy_mesh()
    idle_window()
