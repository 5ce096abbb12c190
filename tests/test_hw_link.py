"""Tests for frames and links."""

import pytest

from repro.errors import ConfigurationError
from repro.hw.link import BoundaryLink, Frame, Link
from repro.hw.nic import GigEPort
from repro.hw.node import Host
from repro.hw.params import GigEParams
from repro.sim import Simulator
from repro.units import ETHERNET_WIRE_OVERHEAD


class _StubPort:
    def __init__(self):
        self.arrivals = []

    def frame_arrived(self, frame):
        self.arrivals.append(frame)


def _link(sim, **kwargs):
    defaults = dict(wire_rate=125.0, frame_overhead=ETHERNET_WIRE_OVERHEAD,
                    propagation=0.3, name="L")
    defaults.update(kwargs)
    return Link(sim, **defaults)


def test_frame_wire_bytes():
    frame = Frame(payload_bytes=1458, header_bytes=42)
    assert frame.wire_bytes(ETHERNET_WIRE_OVERHEAD) == 1500 + 38


def test_small_frame_padded_to_minimum():
    frame = Frame(payload_bytes=1, header_bytes=0)
    # 64-byte minimum includes 14 header + 4 FCS -> 46-byte body floor.
    assert frame.wire_bytes(ETHERNET_WIRE_OVERHEAD) == 46 + 38


def test_frame_ids_unique():
    a, b = Frame(1, 0), Frame(1, 0)
    assert a.frame_id != b.frame_id


def test_attach_validation(sim):
    link = _link(sim)
    port = _StubPort()
    link.attach(0, port)
    with pytest.raises(ConfigurationError):
        link.attach(0, _StubPort())
    with pytest.raises(ConfigurationError):
        link.attach(2, _StubPort())
    with pytest.raises(ConfigurationError):
        link.peer(0)  # asks for side 1, which is unattached


def _serialize(sim, link, side, frame):
    """Process: what a port's wire stage does with the line — hold it
    for the serialization time, then hand the frame to the link."""
    started = sim.now
    link.begin_tx(side, frame)
    yield sim.timeout(link.serialization_time(frame))
    link.complete_tx(side, frame, started)


def test_transmit_timing(sim):
    link = _link(sim)
    a, b = _StubPort(), _StubPort()
    link.attach(0, a)
    link.attach(1, b)
    frame = Frame(payload_bytes=1462, header_bytes=0)  # 1500 wire bytes

    def send():
        yield from _serialize(sim, link, 0, frame)
        return sim.now

    process = sim.spawn(send())
    serialization_done = sim.run_until_complete(process)
    assert serialization_done == pytest.approx(1500 / 125.0)
    assert b.arrivals == []
    sim.run()
    assert b.arrivals == [frame]
    # Arrival includes propagation delay after serialization.
    assert sim.now == pytest.approx(1500 / 125.0 + 0.3)


def test_directions_independent(sim):
    link = _link(sim)
    a, b = _StubPort(), _StubPort()
    link.attach(0, a)
    link.attach(1, b)
    done = []

    def send(side):
        yield from _serialize(sim, link, side, Frame(1462, 0))
        done.append((side, sim.now))

    sim.spawn(send(0))
    sim.spawn(send(1))
    sim.run()
    # Full duplex: both serializations take one frame time, in parallel,
    # and each frame lands on the other side.
    assert done[0][1] == pytest.approx(done[1][1])
    assert len(a.arrivals) == len(b.arrivals) == 1
    assert link.stats["frames"] == [1, 1]


def test_same_direction_serializes():
    """One direction carries one port's frames back to back: the
    second frame's serialization starts where the first one's ends,
    after the NIC's per-descriptor processing."""
    gige = GigEParams()
    sim = Simulator()
    link = _link(sim, wire_rate=gige.wire_rate,
                 frame_overhead=gige.frame_overhead,
                 propagation=gige.propagation)
    p0 = GigEPort(sim, Host(sim, 0), gige, name="p0")
    p0.attach_link(link, 0)
    arrivals = []

    class _Timed:
        """Side 1: the instant each frame lands."""

        def frame_arrived(self, frame):
            arrivals.append(sim.now)

    link.attach(1, _Timed())

    def send():
        yield from p0.enqueue_tx(Frame(1462, 0))
        yield from p0.enqueue_tx(Frame(1462, 0))

    sim.spawn(send())
    sim.run()
    assert p0.link.stats["frames"] == [2, 0] and len(arrivals) == 2
    assert arrivals[1] - arrivals[0] == pytest.approx(
        gige.tx_proc + 1500 / 125.0)


def test_stats_track_payload(sim):
    link = _link(sim)
    a, b = _StubPort(), _StubPort()
    link.attach(0, a)
    link.attach(1, b)

    def send():
        yield from _serialize(sim, link, 0, Frame(100, 10))

    process = sim.spawn(send())
    sim.run_until_complete(process)
    assert link.stats["frames"][0] == 1
    assert link.stats["bytes"][0] == 100


def test_a_boundary_link_commits_at_start_and_counts_at_end(sim):
    outbox = []
    link = BoundaryLink(sim, 125.0, ETHERNET_WIRE_OVERHEAD, 0.3,
                        name="cut", outbox=outbox, remote_rank=5,
                        remote_port=2)
    link.attach(0, _StubPort())
    frames = [Frame(1462, 0, on_fetched=lambda: None) for _ in range(2)]

    def send():
        yield sim.timeout(1.0)
        for frame in frames:
            yield from _serialize(sim, link, 0, frame)

    ser = link.serialization_time(frames[0])
    sim.spawn(send())
    sim.run(until=1.0 + ser / 2)
    # The first frame is committed, not yet counted.
    assert len(outbox) == 1 and link.stats["frames"] == [0, 0]
    sim.run()
    assert outbox[0][:5] == ((1.0 + ser) + 0.3, "cut", 1, 5, 2)
    assert outbox[1][:5] == (((1.0 + ser) + ser) + 0.3, "cut", 2, 5, 2)
    assert [record[5] for record in outbox] == frames
    assert all(frame.on_fetched is None for frame in frames)
    assert link.stats["frames"] == [2, 0]
    with pytest.raises(ConfigurationError, match="shard boundary"):
        link.peer(0)


def test_a_boundary_link_refuses_faults(sim):
    link = BoundaryLink(sim, 125.0, ETHERNET_WIRE_OVERHEAD, 0.3,
                        name="cut", outbox=[], remote_rank=1,
                        remote_port=0)
    link.corrupt_every = 3
    with pytest.raises(ConfigurationError, match="fault injection"):
        link.begin_tx(0, Frame(10, 0))


def test_bad_wire_rate(sim):
    with pytest.raises(ConfigurationError):
        _link(sim, wire_rate=0)
