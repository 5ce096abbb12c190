"""Tests for the fluid bandwidth-shared bus."""

import pytest

from repro.errors import ConfigurationError
from repro.hw.pci import BandwidthBus
from repro.sim import Simulator
from tests.conftest import run


def test_validation(sim):
    with pytest.raises(ConfigurationError):
        BandwidthBus(sim, rate=0)
    bus = BandwidthBus(sim, rate=100)

    def bad_size():
        yield from bus.transfer(-1)

    with pytest.raises(ConfigurationError):
        run(sim, bad_size())


def test_single_transfer_exact_time(sim):
    bus = BandwidthBus(sim, rate=100.0, setup=0.0)

    def proc():
        yield from bus.transfer(1000)
        return sim.now

    assert run(sim, proc()) == pytest.approx(10.0)


def test_setup_added_once(sim):
    bus = BandwidthBus(sim, rate=100.0, setup=2.0)

    def proc():
        yield from bus.transfer(100)
        return sim.now

    assert run(sim, proc()) == pytest.approx(3.0)


def test_zero_bytes_costs_setup_only(sim):
    bus = BandwidthBus(sim, rate=100.0, setup=1.5)

    def proc():
        yield from bus.transfer(0)
        return sim.now

    assert run(sim, proc()) == pytest.approx(1.5)


def test_two_equal_transfers_share_fairly(sim):
    bus = BandwidthBus(sim, rate=100.0)
    finish = []

    def proc():
        yield from bus.transfer(1000)
        finish.append(sim.now)

    sim.spawn(proc())
    sim.spawn(proc())
    sim.run()
    # Each gets 50 B/us: both finish at t=20.
    assert finish == [pytest.approx(20.0), pytest.approx(20.0)]


def test_late_joiner_slows_first(sim):
    bus = BandwidthBus(sim, rate=100.0)
    finish = {}

    def first():
        yield from bus.transfer(1000)
        finish["first"] = sim.now

    def second():
        yield sim.timeout(5.0)  # first has moved 500 bytes alone
        yield from bus.transfer(250)
        finish["second"] = sim.now

    sim.spawn(first())
    sim.spawn(second())
    sim.run()
    # From t=5 both at 50 B/us; second finishes at t=10 (250 bytes),
    # then first finishes its remaining 250 alone at t=12.5.
    assert finish["second"] == pytest.approx(10.0)
    assert finish["first"] == pytest.approx(12.5)


def test_rate_cap_limits_single_flow(sim):
    bus = BandwidthBus(sim, rate=100.0)

    def proc():
        yield from bus.transfer(100, rate_cap=10.0)
        return sim.now

    assert run(sim, proc()) == pytest.approx(10.0)


def test_cap_surplus_goes_to_others(sim):
    bus = BandwidthBus(sim, rate=100.0)
    finish = {}

    def capped():
        yield from bus.transfer(200, rate_cap=20.0)
        finish["capped"] = sim.now

    def open_flow():
        yield from bus.transfer(800)
        finish["open"] = sim.now

    sim.spawn(capped())
    sim.spawn(open_flow())
    sim.run()
    # Capped at 20, open gets the remaining 80: both end at t=10.
    assert finish["capped"] == pytest.approx(10.0)
    assert finish["open"] == pytest.approx(10.0)


def test_weighted_shares(sim):
    bus = BandwidthBus(sim, rate=90.0)
    finish = {}

    def heavy():
        yield from bus.transfer(600, weight=2.0)
        finish["heavy"] = sim.now

    def light():
        yield from bus.transfer(300, weight=1.0)
        finish["light"] = sim.now

    sim.spawn(heavy())
    sim.spawn(light())
    sim.run()
    # Shares 60/30: both complete at t=10.
    assert finish["heavy"] == pytest.approx(10.0)
    assert finish["light"] == pytest.approx(10.0)


def test_bad_parameters(sim):
    bus = BandwidthBus(sim, rate=10.0)

    def bad_cap():
        yield from bus.transfer(10, rate_cap=0)

    def bad_weight():
        yield from bus.transfer(10, weight=0)

    with pytest.raises(ConfigurationError):
        run(sim, bad_cap())
    with pytest.raises(ConfigurationError):
        run(sim, bad_weight())


def test_transfer_event_needs_a_setup_window(sim):
    """With setup == 0 the fused join would be a zero-delay queue entry,
    behind entries transfer()'s inline join runs ahead of."""
    with pytest.raises(ConfigurationError, match="setup"):
        BandwidthBus(sim, rate=10.0).transfer_event(10)
    with pytest.raises(ConfigurationError, match="setup"):
        BandwidthBus(sim, rate=10.0).transfer_event(10, at=1.0)
    bus = BandwidthBus(sim, rate=10.0, setup=0.5)
    with pytest.raises(ConfigurationError):
        bus.transfer_event(0)
    assert bus.stats["transfers"] == 0 and bus._entered == 0

    def proc():
        yield bus.transfer_event(10)
        return sim.now

    assert run(sim, proc()) == pytest.approx(1.5)
    assert bus._entered == 0 and not bus.busy()


def test_stats_and_concurrency(sim):
    bus = BandwidthBus(sim, rate=100.0)

    def proc():
        yield from bus.transfer(100)

    sim.spawn(proc())
    sim.spawn(proc())
    sim.run()
    assert bus.stats["transfers"] == 2
    assert bus.stats["bytes"] == 200
    assert bus.stats["max_concurrency"] == 2
    assert not bus.busy()


def test_many_small_transfers_progress(sim):
    """Regression: residual float error must never stall the clock."""
    bus = BandwidthBus(sim, rate=123.456)
    count = 300

    def proc(n):
        for _ in range(n):
            yield from bus.transfer(1537.3)

    process1 = sim.spawn(proc(count))
    process2 = sim.spawn(proc(count))
    sim.run_until_complete(process1, limit=1e7)
    sim.run_until_complete(process2, limit=1e7)
    expected = 2 * count * 1537.3 / 123.456
    assert sim.now == pytest.approx(expected, rel=1e-6)
