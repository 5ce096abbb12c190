"""Tests for the GigE port model."""

import pytest

from repro.errors import ConfigurationError
from repro.hw.link import Frame, Link
from repro.hw.nic import GigEPort
from repro.hw.node import Host
from repro.hw.params import GigEParams, HostParams
from repro.sim import Simulator


def _pair(sim, gige=None, host_params=None):
    gige = gige or GigEParams()
    h0, h1 = Host(sim, 0, host_params), Host(sim, 1, host_params)
    link = Link(sim, gige.wire_rate, gige.frame_overhead,
                gige.propagation, name="L")
    p0 = GigEPort(sim, h0, gige, name="p0")
    p1 = GigEPort(sim, h1, gige, name="p1")
    p0.attach_link(link, 0)
    p1.attach_link(link, 1)
    return p0, p1


def _null_driver(port):
    def driver(frame):
        port.post_rx_descriptors(1)
        yield port.sim.timeout(0)
    return driver


def _collector(port, sink):
    def driver(frame):
        sink.append((port.sim.now, frame))
        port.post_rx_descriptors(1)
        yield port.sim.timeout(0)
    return driver


def test_frame_travels_end_to_end(sim):
    p0, p1 = _pair(sim)
    arrivals = []
    p1.set_driver(_collector(p1, arrivals))
    p0.set_driver(_null_driver(p0))

    def send():
        yield from p0.enqueue_tx(Frame(100, 42))

    sim.spawn(send())
    sim.run(until=1000)
    assert len(arrivals) == 1
    assert arrivals[0][1].payload_bytes == 100


def test_frames_stay_ordered(sim):
    p0, p1 = _pair(sim)
    arrivals = []
    p1.set_driver(_collector(p1, arrivals))
    p0.set_driver(_null_driver(p0))

    def send():
        for index in range(20):
            yield from p0.enqueue_tx(Frame(1458, 42, payload=index))

    sim.spawn(send())
    sim.run(until=10000)
    assert [f.payload for _t, f in arrivals] == list(range(20))


def test_coalescing_count_trigger(sim):
    # With a huge delay, only the frame-count threshold fires.
    gige = GigEParams(coalesce_delay=100000.0, coalesce_frames=5)
    p0, p1 = _pair(sim, gige)
    arrivals = []
    p1.set_driver(_collector(p1, arrivals))
    p0.set_driver(_null_driver(p0))

    def send(count):
        for _ in range(count):
            yield from p0.enqueue_tx(Frame(100, 42))

    sim.spawn(send(5))
    sim.run(until=5000)
    assert len(arrivals) == 5
    assert p1.stats["interrupts"] == 1


def test_coalescing_delay_trigger(sim):
    gige = GigEParams(coalesce_delay=50.0, coalesce_frames=100)
    p0, p1 = _pair(sim, gige)
    arrivals = []
    p1.set_driver(_collector(p1, arrivals))
    p0.set_driver(_null_driver(p0))

    def send():
        yield from p0.enqueue_tx(Frame(100, 42))

    sim.spawn(send())
    sim.run(until=5000)
    assert len(arrivals) == 1
    # Delivery waits out the coalescing delay.
    assert arrivals[0][0] >= 50.0


def test_missing_driver_raises(sim):
    p0, p1 = _pair(sim)
    p0.set_driver(_null_driver(p0))

    def send():
        yield from p0.enqueue_tx(Frame(100, 42))

    sim.spawn(send())
    with pytest.raises(ConfigurationError):
        sim.run(until=5000)


def test_rx_credits_deplete_and_recover(sim):
    gige = GigEParams(rx_ring=4, coalesce_delay=1e9,
                      coalesce_frames=10**6)
    p0, p1 = _pair(sim, gige)
    p0.set_driver(_null_driver(p0))
    # No interrupts will fire (absurd coalescing), so credits are
    # consumed and never recycled: the 5th frame stalls the rx loop.
    received = []
    p1.set_driver(_collector(p1, received))

    def send():
        for _ in range(6):
            yield from p0.enqueue_tx(Frame(1458, 42))

    sim.spawn(send())
    sim.run(until=2000)
    assert p1.stats["rx_frames"] == 4
    assert len(p1.rx_credits) == 0


def test_post_rx_descriptors_is_all_or_nothing_at_the_ring_boundary(sim):
    gige = GigEParams(rx_ring=8, coalesce_delay=1e9,
                      coalesce_frames=10**6)
    p0, p1 = _pair(sim, gige)
    p0.set_driver(_null_driver(p0))
    p1.set_driver(_collector(p1, []))

    def send():
        for _ in range(3):
            yield from p0.enqueue_tx(Frame(1458, 42))

    sim.spawn(send())
    sim.run(until=2000)
    # Never interrupted (absurd coalescing): three credits are out.
    assert len(p1.rx_credits) == 5
    with pytest.raises(ConfigurationError, match="rx ring over-posted"):
        p1.post_rx_descriptors(4)     # one more than the ring has room for
    assert len(p1.rx_credits) == 5    # ... and nothing was half-applied
    p1.post_rx_descriptors(3)         # exactly to the brim is fine
    assert len(p1.rx_credits) == 8
    with pytest.raises(ConfigurationError, match="rx ring over-posted"):
        p1.post_rx_descriptors(1)
    p1.post_rx_descriptors(0)
    assert len(p1.rx_credits) == gige.rx_ring


def test_a_multi_credit_post_wakes_the_stalled_rx_loop(sim):
    gige = GigEParams(rx_ring=2, coalesce_delay=1e9,
                      coalesce_frames=10**6)
    p0, p1 = _pair(sim, gige)
    p0.set_driver(_null_driver(p0))
    p1.set_driver(_collector(p1, []))

    def send():
        for _ in range(5):
            yield from p0.enqueue_tx(Frame(1458, 42))

    sim.spawn(send())
    sim.run(until=2000)
    assert p1.stats["rx_frames"] == 2 and p1.stats["rx_stalls"] == 1
    p1.post_rx_descriptors(2)
    sim.run(until=4000)
    # The stalled frame took one credit, the next frame the other.
    assert p1.stats["rx_frames"] == 4 and len(p1.rx_credits) == 0


def test_on_fetched_called_after_dma(sim):
    p0, p1 = _pair(sim)
    p1.set_driver(_null_driver(p1))
    p0.set_driver(_null_driver(p0))
    fired = []
    frame = Frame(1458, 42, on_fetched=lambda: fired.append(sim.now))

    def send():
        yield from p0.enqueue_tx(frame)

    process = sim.spawn(send())
    sim.run_until_complete(process)
    sim.run(until=1000)
    assert len(fired) == 1
    # Fetched strictly before serialization could have finished.
    assert fired[0] < 1500 / 125.0 + 5


def test_try_enqueue_respects_ring_size(sim):
    gige = GigEParams(tx_ring=2)
    p0, _p1 = _pair(sim, gige)
    assert p0.try_enqueue_tx(Frame(10, 0))
    assert p0.try_enqueue_tx(Frame(10, 0))
    assert not p0.try_enqueue_tx(Frame(10, 0))


def test_double_attach_rejected(sim):
    gige = GigEParams()
    host = Host(sim, 0)
    port = GigEPort(sim, host, gige)
    link = Link(sim, gige.wire_rate, gige.frame_overhead,
                gige.propagation)
    port.attach_link(link, 0)
    link2 = Link(sim, gige.wire_rate, gige.frame_overhead,
                 gige.propagation)
    with pytest.raises(ConfigurationError):
        port.attach_link(link2, 0)


def test_a_port_without_a_link_refuses_frames(sim):
    """The transmit pipeline starts when the link is attached; before
    that a frame would sit in the ring for ever, so the hand-over
    itself fails."""
    port = GigEPort(sim, Host(sim, 0), GigEParams(), name="loose")
    attempts = [
        lambda: sim.spawn(port.enqueue_tx(Frame(10, 0))),
        lambda: sim.spawn(port.send_frames([Frame(10, 0)] * 3)),
        lambda: sim.spawn(port.nic_inject_tx(Frame(10, 0))),
        lambda: port.try_enqueue_tx(Frame(10, 0)),
    ]
    for attempt in attempts:
        with pytest.raises(ConfigurationError, match="loose has no link"):
            attempt()
            sim.run()
    assert len(port.tx_queue) == 0 and sim.queue_length == 0


def test_software_checksum_costs_cpu(sim):
    fast = GigEParams(hw_checksum=True)
    slow = GigEParams(hw_checksum=False)

    def measure(gige):
        local = Simulator()
        p0, p1 = _pair(local, gige)
        p1.set_driver(_null_driver(p1))
        p0.set_driver(_null_driver(p0))
        done = []

        def send():
            for _ in range(10):
                yield from p0.enqueue_tx(Frame(1458, 42))
            done.append(local.now)

        process = local.spawn(send())
        local.run_until_complete(process)
        local.run(until=1e6)
        return p1.stats["rx_frames"], local.now

    frames_fast, _ = measure(fast)
    frames_slow, _ = measure(slow)
    assert frames_fast == frames_slow == 10
