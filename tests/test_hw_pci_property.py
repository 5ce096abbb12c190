"""Property tests for the fluid bus: conservation and fairness."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import fastpath
from repro.hw.pci import BandwidthBus
from repro.sim import Simulator
from repro.sim.events import Callback

TRANSFERS = st.lists(
    st.tuples(
        st.floats(min_value=1.0, max_value=50_000.0),   # bytes
        st.floats(min_value=0.0, max_value=50.0),       # start delay
    ),
    min_size=1,
    max_size=8,
)


@given(TRANSFERS, st.floats(min_value=10.0, max_value=2000.0))
@settings(max_examples=40, deadline=None)
def test_total_time_bounded_by_serial_and_capacity(transfers, rate):
    """All transfers complete; the makespan is at least the
    work-conservation bound (total bytes / rate from the last start
    cannot beat capacity) and at most the serial bound."""
    sim = Simulator()
    bus = BandwidthBus(sim, rate=rate)
    finished = []

    def run(nbytes, delay):
        yield sim.timeout(delay)
        yield from bus.transfer(nbytes)
        finished.append(sim.now)

    for nbytes, delay in transfers:
        sim.spawn(run(nbytes, delay))
    sim.run()
    assert len(finished) == len(transfers)
    total_bytes = sum(b for b, _d in transfers)
    last_start = max(d for _b, d in transfers)
    makespan = max(finished)
    # Work conservation: the bus cannot move bytes faster than rate.
    assert makespan >= total_bytes / rate - 1e-6
    # And never slower than fully-serial execution after the last
    # arrival.
    assert makespan <= last_start + total_bytes / rate + 1e-6


@given(st.integers(min_value=2, max_value=6))
@settings(max_examples=10, deadline=None)
def test_equal_flows_finish_together(n):
    sim = Simulator()
    bus = BandwidthBus(sim, rate=100.0)
    finished = []

    def run():
        yield from bus.transfer(1000.0)
        finished.append(sim.now)

    for _ in range(n):
        sim.spawn(run())
    sim.run()
    assert max(finished) - min(finished) < 1e-6
    assert max(finished) == pytest.approx(n * 10.0)


@given(st.floats(min_value=1.0, max_value=99.0))
@settings(max_examples=20, deadline=None)
def test_cap_never_exceeded(cap):
    """A capped flow alone on the bus finishes exactly at bytes/cap."""
    sim = Simulator()
    bus = BandwidthBus(sim, rate=100.0)
    done = {}

    def run():
        yield from bus.transfer(500.0, rate_cap=cap)
        done["t"] = sim.now

    sim.spawn(run())
    sim.run()
    assert done["t"] == pytest.approx(500.0 / cap)


# -- differential oracle: the bus as it was before flows became records ----
#
# ``_FrozenBus`` is the pre-rewrite implementation kept verbatim (minus
# argument checks, the recorder hook and the ``_processed`` store the
# kernel no longer has): a plain flow record plus a done
# Event, a Callback per fused join and per wake, list-copying water-fill.
# The live bus must reproduce it bit for bit — completion order and
# instants, statistics, reallocation count — under both schedulers; under
# the reference scheduler also the number of events processed, the
# sequence counter and the clock at which the queue drains.  Under the
# fast scheduler those three are the live bus's own business: it does not
# arm a wake when a fused join already queued lands strictly before the
# wake's target (that join settles and reallocates itself), so which wake
# *entries* exist differs — usually fewer, now and then one more (see
# test_the_wake_skip_moves_entries_not_instants) — while every settle
# happens at the same instant.  Do not "modernise" this class; it is the
# reference.


class _FrozenFlow:
    __slots__ = ("remaining", "cap", "weight", "rate", "done")

    def __init__(self, nbytes, cap, weight, done):
        self.remaining = float(nbytes)
        self.cap = cap
        self.weight = weight
        self.rate = 0.0
        self.done = done


class _FrozenBus:
    def __init__(self, sim, rate, setup=0.0, name="bus"):
        self.sim = sim
        self.rate = rate
        self.setup = setup
        self.name = name
        self._flows = []
        self._last_update = 0.0
        self._wake_generation = 0
        self._wake_time = 0.0
        self._wake_times = []
        self._entered = 0
        self.stats = {"transfers": 0, "bytes": 0.0, "max_concurrency": 0}

    def transfer(self, nbytes, rate_cap=None, weight=1.0):
        self.stats["transfers"] += 1
        self.stats["bytes"] += nbytes
        self._entered += 1
        try:
            if self.setup:
                yield self.sim.timeout(self.setup)
            if nbytes == 0:
                return 0.0
            done = self.sim.event()
            flow = _FrozenFlow(nbytes, rate_cap, weight, done)
            self._settle()
            self._flows.append(flow)
            if len(self._flows) > self.stats["max_concurrency"]:
                self.stats["max_concurrency"] = len(self._flows)
            self._reallocate()
            yield done
        finally:
            self._entered -= 1
        return nbytes

    def transfer_event(self, nbytes, rate_cap=None, weight=1.0, at=None):
        self.stats["transfers"] += 1
        self.stats["bytes"] += nbytes
        self._entered += 1
        done = self.sim.event()
        done.callbacks.append(self._transfer_done)
        flow = _FrozenFlow(nbytes, rate_cap, weight, done)
        if at is not None:
            Callback(self.sim, lambda: self._join(flow), at=at)
        else:
            Callback(self.sim, lambda: self._join(flow), delay=self.setup)
        return done

    def _join(self, flow):
        self._settle()
        self._flows.append(flow)
        if len(self._flows) > self.stats["max_concurrency"]:
            self.stats["max_concurrency"] = len(self._flows)
        self._reallocate()

    def _transfer_done(self, _event):
        self._entered -= 1

    def _settle(self):
        now = self.sim.now
        elapsed = now - self._last_update
        self._last_update = now
        if not self._flows:
            return
        finished = []
        for flow in self._flows:
            if elapsed > 0:
                flow.remaining -= elapsed * flow.rate
            if flow.remaining <= 1e-6:
                flow.remaining = 0.0
                finished.append(flow)
        if not finished:
            return
        for flow in finished:
            self._flows.remove(flow)
        if self.sim._fast:
            for flow in finished:
                done = flow.done
                done._ok = True
                done._value = None
                callbacks, done.callbacks = done.callbacks, None
                for callback in callbacks:
                    callback(done)
        else:
            for flow in finished:
                flow.done.succeed()

    def _reallocate(self):
        flows = self._flows
        if not flows:
            return
        if len(flows) == 1:
            f = flows[0]
            unit = self.rate / f.weight
            share = f.weight * unit
            cap = f.cap
            f.rate = cap if (cap is not None and cap < share) else share
            horizon = f.remaining / f.rate
            if horizon < 1e-6:
                horizon = 1e-6
        else:
            budget = self.rate
            pending = list(flows)
            while pending:
                total_weight = sum(f.weight for f in pending)
                unit = budget / total_weight
                capped = [
                    f for f in pending
                    if f.cap is not None and f.cap < f.weight * unit
                ]
                if not capped:
                    for f in pending:
                        f.rate = f.weight * unit
                    break
                for f in capped:
                    f.rate = f.cap
                    budget -= f.cap
                    pending.remove(f)
            horizon = max(min(f.remaining / f.rate for f in flows), 1e-6)
        self._wake_generation += 1
        if self.sim._fast:
            self._wake_time = target = self.sim._now + horizon
            for t in self._wake_times:
                if t <= target:
                    return
            self._wake_times.append(target)
            Callback(self.sim, self._on_wake_fast, at=target)
        else:
            self.sim.spawn(self._wake(self._wake_generation, horizon),
                           name=f"{self.name}:wake")

    def _on_wake(self, generation):
        if generation != self._wake_generation:
            return
        self._settle()
        self._reallocate()

    def _on_wake_fast(self):
        now = self.sim._now
        times = self._wake_times
        try:
            times.remove(now)
        except ValueError:
            pass
        if not self._flows:
            return
        target = self._wake_time
        if now >= target:
            self._settle()
            self._reallocate()
            return
        for t in times:
            if t <= target:
                return
        times.append(target)
        Callback(self.sim, self._on_wake_fast, at=target)

    def _wake(self, generation, delay):
        yield self.sim.timeout(delay)
        self._on_wake(generation)


SETUP = 0.02            # the hosts' memory-bus setup window
SIZES = st.one_of(
    # Straddling _EPS: done on the first settle, or one ulp of work.
    st.sampled_from([5e-7, 1e-6, 1.0000000000000002e-6, 2e-6, 1e-3,
                     64.0, 1500.0, 4096.0]),
    st.floats(min_value=1e-7, max_value=20_000.0),
)
CAPS = st.one_of(st.sampled_from([None, 1064.0, 1200.0]),
                 st.floats(min_value=1.0, max_value=3000.0))
# 0.1 and 0.3 do not add exactly: the weight total is where a compensated
# sum() (CPython >= 3.12) and a plain += loop part ways.
WEIGHTS = st.sampled_from([1.0, 5.0, 0.1, 0.3])
FLOWS = st.lists(
    st.tuples(st.sampled_from(["process", "fused"]),
              st.floats(min_value=0.0, max_value=30.0),     # issue instant
              SIZES, CAPS, WEIGHTS),
    min_size=1, max_size=10,
)
#: Extra fused joins aimed at the k-th completion instant of the rest.
LANDINGS = st.lists(st.tuples(st.integers(0, 9), SIZES, CAPS, WEIGHTS),
                    max_size=2)


def _wake_is_covered(bus):
    """The invariant the wake skip must keep: while flows are active,
    some entry already queued — an outstanding wake or a fused join —
    fires at or before the valid wake target, so settle/reallocate run
    no later than the earliest completion."""
    if bus._flows:
        queued = bus._wake_times + bus._join_times
        assert queued and min(queued) <= bus._wake_time, (
            bus._wake_times, bus._join_times, bus._wake_time)


def _drive(bus_type, fast, rate, flows, landings=(), after_step=None):
    """Run one schedule; everything an observer of the bus can see.

    With ``after_step`` the schedule is stepped one event at a time and
    the hook sees the bus after every one of them.
    """
    with fastpath.force(fast):
        sim = Simulator()
        bus = bus_type(sim, rate=rate, setup=SETUP)
        log = []

        def note(index):
            return lambda _event: log.append((index, sim.now.hex()))

        def issue(index, shape, start, nbytes, cap, weight):
            yield sim.sleep_until(start)
            if shape == "fused":
                yield bus.transfer_event(nbytes, rate_cap=cap,
                                         weight=weight)
            else:
                yield from bus.transfer(nbytes, rate_cap=cap,
                                        weight=weight)
            log.append((index, sim.now.hex()))

        for index, flow in enumerate(flows):
            sim.spawn(issue(index, *flow))
        for index, (at, nbytes, cap, weight) in enumerate(landings):
            bus.transfer_event(nbytes, rate_cap=cap, weight=weight,
                               at=at).callbacks.append(note(("at", index)))
        if after_step is None:
            sim.run()
        else:
            while sim.queue_length:
                sim.step()
                after_step(bus)
        assert not bus._flows and bus._entered == 0
        return (log, sim.now.hex(), sim.events_processed, sim._sequence,
                bus.stats, bus._wake_generation)


#: Positions in ``_drive``'s result.
_LOG, _DRAINED, _EVENTS, _SEQUENCE, _STATS, _STEPS = range(6)


@given(st.sampled_from([2100.0, 100.0, 777.7]), FLOWS, LANDINGS)
@example(2100.0, [("fused", 0.0, 4096.0, None, 0.1)] * 10, [])
@example(100.0, [("process", 0.0, 1000.0, 30.0, 0.3),
                 ("fused", 0.0, 1000.0, None, 0.1),
                 ("process", 0.0, 1000.0, None, 0.1)], [(0, 1e-6, None, 5.0)])
# A fused join queued *before* a wake is armed for exactly its instant
# (0.01 + 0.02 == 0.02 + 1.0 / 100): the skip is strict, the wake is armed.
@example(100.0, [("fused", 0.0, 1.0, None, 1.0),
                 ("fused", 0.01, 1000.0, None, 1.0)], [])
# A wake the frozen bus armed and the live one skipped can outlive every
# flow: the long transfer's first target (armed at 0.02...) is one ulp
# *after* the target recomputed once the landing has come and gone, so
# on the frozen bus a dead wake still fires past the last completion and
# the queue drains one ulp later.
@example(2100.0, [("process", 0.0, 5e-7, None, 1.0)] * 7
         + [("process", 0.0, 4096.0, 1.25, 1.0)]
         + [("process", 1.0, 5e-7, None, 1.0)] * 2, [(7, 5e-7, None, 1.0)])
@settings(max_examples=60, deadline=None)
def test_bus_matches_the_frozen_oracle_bit_for_bit(rate, flows, landings):
    # Aim the landing joins at completion instants of the base schedule:
    # whatever joins at an instant cannot move what completed by then.
    instants = [float.fromhex(when)
                for _index, when in _drive(_FrozenBus, True, rate, flows)[0]]
    landings = [(instants[k % len(instants)], nbytes, cap, weight)
                for k, nbytes, cap, weight in landings]
    for fast in (True, False):
        expected = _drive(_FrozenBus, fast, rate, flows, landings)
        got = _drive(BandwidthBus, fast, rate, flows, landings)
        assert len(expected[0]) == len(flows) + len(landings)
        if not fast:
            assert got == expected
            continue
        # Every completion instant (hex floats), their order, the stats
        # dict and the reallocation count: exact.
        for exact in (_LOG, _STATS, _STEPS):
            assert got[exact] == expected[exact]
        # The queue drains at the last completion, or at a dead wake
        # within float error of it.
        last = float.fromhex(got[_LOG][-1][1])
        assert last <= float.fromhex(got[_DRAINED]) <= last + 1e-6
        # One event at a time: the same run, and the skip never leaves
        # active flows without an entry that will settle them in time.
        assert _drive(BandwidthBus, True, rate, flows, landings,
                      after_step=_wake_is_covered) == got


def test_the_wake_skip_moves_entries_not_instants():
    """Two pinned schedules, one in each direction.  Skipping a wake
    usually saves its entry; when the skipped wake would have *covered*
    a later target (the reuse rule), that target is armed at once and
    may fire stale — one entry more.  Completions are identical in both."""
    saves = (100.0, [("process", 0.0, 1000.0, 30.0, 0.3),
                     ("fused", 0.0, 1000.0, None, 0.1),
                     ("process", 0.0, 1000.0, None, 0.1)])
    costs = (2100.0, [("process", 0.0, 5e-7, None, 1.0)] * 4
             + [("fused", 0.0, 64.0, None, 1.0),
                ("process", 0.0, 5e-7, None, 1.0)])
    for (rate, flows), events in ((saves, (13, 12)), (costs, (20, 21))):
        frozen = _drive(_FrozenBus, True, rate, flows)
        live = _drive(BandwidthBus, True, rate, flows)
        assert (frozen[_EVENTS], live[_EVENTS]) == events
        assert live[_LOG] == frozen[_LOG] and live[_STATS] == frozen[_STATS]


def test_a_join_at_exactly_the_wake_target_still_arms_the_wake():
    """The skip is strict ``<``: a join queued for the very instant of
    the wake target does not stand in for the wake; one queued for any
    earlier instant does."""
    with fastpath.force(True):
        for second_lands, wake_armed in ((0.01 + SETUP, True),
                                         (0.025, False)):
            sim = Simulator()
            bus = BandwidthBus(sim, rate=100.0, setup=SETUP)
            first = bus.transfer_event(1.0)   # joins at 0.02, 0.01 long
            second = bus.transfer_event(1000.0, at=second_lands)
            sim.run(until=0.021)
            target = bus._wake_time
            assert target == 0.02 + 1.0 / 100 == 0.01 + SETUP
            assert bus._flows == [first]
            assert bus._join_times == [second_lands]
            assert bus._wake_times == ([target] if wake_armed else [])
            sim.run()
            assert first.processed and second.processed
            assert not bus._wake_times and not bus._join_times
