"""``VI.post_recv_slots`` against its definition: ``count`` ``post_recv``s.

Differential and deterministic — every case runs the run-length post
and the per-slot loop on twin VIs and compares what comes out: buffers
and their order, errors, queue length as the hang report prints it,
simulated completion times, and what a disconnect drains.
"""

from __future__ import annotations

import gc

import pytest

from repro.errors import ViaDescriptorError, ViaError
from repro.via.descriptors import (
    DescriptorStatus, RecvDescriptor, SendDescriptor,
)
from tests.conftest import make_via_pair

SLOT = 4096


def _post_each(vi, region, stride, nbytes, count):
    """The definition ``post_recv_slots`` must agree with."""
    for i in range(count):
        vi.post_recv(RecvDescriptor(region, i * stride, nbytes))


def _drain(vi):
    out = []
    while vi.recv_queue:
        descriptor = vi.recv_queue.popleft()
        assert type(descriptor) is RecvDescriptor
        assert descriptor.status is DescriptorStatus.PENDING
        out.append((descriptor.region, descriptor.offset, descriptor.nbytes))
    return out


def _twin_receivers():
    """Two fresh, identically built receive ends."""
    _c0, _e0, (vi_a, r_a) = make_via_pair()
    _c1, _e1, (vi_b, r_b) = make_via_pair()
    return (vi_a, r_a), (vi_b, r_b)


@pytest.mark.parametrize("stride,nbytes,count", [
    (SLOT, SLOT, 64), (SLOT, 100, 7), (256, 256, 1), (0, 64, 3),
])
def test_same_buffers_in_the_same_order(stride, nbytes, count):
    (vi_a, r_a), (vi_b, r_b) = _twin_receivers()
    vi_a.post_recv_slots(r_a, stride, nbytes, count)
    _post_each(vi_b, r_b, stride, nbytes, count)
    assert len(vi_a.recv_queue) == len(vi_b.recv_queue) == count
    got = [(off, n) for _r, off, n in _drain(vi_a)]
    want = [(off, n) for _r, off, n in _drain(vi_b)]
    assert got == want == [(i * stride, nbytes) for i in range(count)]
    assert len(vi_a.recv_queue) == 0 and not vi_a.recv_queue
    with pytest.raises(IndexError):
        vi_a.recv_queue.popleft()


def test_no_descriptor_exists_until_its_slot_is_consumed():
    _cluster, _e0, (vi, region) = make_via_pair()
    gc.collect()
    before = sum(type(o) is RecvDescriptor for o in gc.get_objects())
    vi.post_recv_slots(region, SLOT, SLOT, 200)
    assert sum(type(o) is RecvDescriptor
               for o in gc.get_objects()) == before
    held = [vi.recv_queue.popleft() for _ in range(3)]
    assert sum(type(o) is RecvDescriptor
               for o in gc.get_objects()) == before + 3
    assert [d.offset for d in held] == [0, SLOT, 2 * SLOT]
    assert len(vi.recv_queue) == 197


def _error_of(call):
    with pytest.raises(ViaDescriptorError) as info:
        call()
    return str(info.value)


def test_tag_mismatch_is_the_same_error():
    (vi_a, _r_a), (vi_b, _r_b) = _twin_receivers()
    device = vi_a.device
    foreign = device.register_memory_now(
        1 << 16, device.create_protection_tag())
    got = _error_of(lambda: vi_a.post_recv_slots(foreign, SLOT, SLOT, 4))
    device = vi_b.device
    foreign = device.register_memory_now(
        1 << 16, device.create_protection_tag())
    want = _error_of(lambda: _post_each(vi_b, foreign, SLOT, SLOT, 4))
    assert got == want
    assert len(vi_a.recv_queue) == 0


def _twin_small_regions(slots=8):
    ends = []
    for vi, _region in _twin_receivers():
        ends.append((vi, vi.device.register_memory_now(slots * SLOT,
                                                       vi.tag)))
    return ends


@pytest.mark.parametrize("stride,nbytes,count", [
    (SLOT, SLOT, 9),             # last slot starts at the region's end
    (SLOT, SLOT + 1, 8),         # last slot runs one byte past it
    (SLOT, 8 * SLOT + 1, 1),     # first slot alone is too long
    (SLOT, -1, 2),               # negative length
])
def test_slot_outside_region_is_the_same_error(stride, nbytes, count):
    (vi_a, r_a), (vi_b, r_b) = _twin_small_regions()
    got = _error_of(
        lambda: vi_a.post_recv_slots(r_a, stride, nbytes, count))
    want = _error_of(lambda: _post_each(vi_b, r_b, stride, nbytes, count))
    # The per-slot loop stops at its first bad slot, which for these
    # shapes is the one the run-length check names too.
    assert got == want
    # ... but the run is all-or-nothing where the loop is not.
    assert len(vi_a.recv_queue) == 0


def test_run_far_past_the_region_names_its_last_slot():
    (vi_a, r_a), (vi_b, r_b) = _twin_small_regions()
    got = _error_of(lambda: vi_a.post_recv_slots(r_a, SLOT, SLOT, 12))
    want = _error_of(lambda: _post_each(vi_b, r_b, SLOT, SLOT, 12))
    assert got == want.replace(f"[{8 * SLOT},", f"[{11 * SLOT},")
    assert (len(vi_a.recv_queue), len(vi_b.recv_queue)) == (0, 8)


def test_queue_depth_overflow_is_the_same_error():
    (vi_a, r_a), (vi_b, r_b) = _twin_receivers()
    depth = vi_a.device.params.recv_queue_depth
    for vi, region in ((vi_a, r_a), (vi_b, r_b)):
        vi.post_recv(RecvDescriptor(region, 0, 64))
    got = _error_of(lambda: vi_a.post_recv_slots(r_a, 64, 64, depth))
    want = _error_of(lambda: _post_each(vi_b, r_b, 64, 64, depth))
    assert got == want
    assert len(vi_a.recv_queue) == 1          # nothing half-applied
    assert len(vi_b.recv_queue) == depth      # the loop filled it
    vi_a.post_recv_slots(r_a, 64, 64, depth - 1)  # exactly full is fine
    assert len(vi_a.recv_queue) == depth
    assert _error_of(
        lambda: vi_a.post_recv(RecvDescriptor(r_a, 0, 64))) == want


@pytest.mark.parametrize("count,stride", [(0, 64), (-3, 64), (2, -64)])
def test_degenerate_runs_are_rejected(count, stride):
    _cluster, _e0, (vi, region) = make_via_pair()
    with pytest.raises(ViaDescriptorError):
        vi.post_recv_slots(region, stride, 64, count)
    assert len(vi.recv_queue) == 0


def test_fifo_when_runs_and_single_posts_interleave():
    (vi_a, r_a), (vi_b, r_b) = _twin_receivers()
    first_a = RecvDescriptor(r_a, 7, 11)
    last_a = RecvDescriptor(r_a, 13, 17)
    vi_a.post_recv(first_a)
    vi_a.post_recv_slots(r_a, SLOT, SLOT, 3)
    vi_a.post_recv(RecvDescriptor(r_a, 99, 1))
    vi_a.post_recv_slots(r_a, 128, 64, 2)
    vi_a.post_recv(last_a)

    vi_b.post_recv(RecvDescriptor(r_b, 7, 11))
    _post_each(vi_b, r_b, SLOT, SLOT, 3)
    vi_b.post_recv(RecvDescriptor(r_b, 99, 1))
    _post_each(vi_b, r_b, 128, 64, 2)
    vi_b.post_recv(RecvDescriptor(r_b, 13, 17))

    assert len(vi_a.recv_queue) == len(vi_b.recv_queue) == 8
    # A single post comes back as the very object that was posted.
    assert vi_a.recv_queue.popleft() is first_a
    vi_b.recv_queue.popleft()
    got, want = _drain(vi_a), _drain(vi_b)
    assert [(o, n) for _r, o, n in got] == [(o, n) for _r, o, n in want]
    assert [(o, n) for _r, o, n in got] == [
        (0, SLOT), (SLOT, SLOT), (2 * SLOT, SLOT), (99, 1),
        (0, 64), (128, 64), (13, 17),
    ]


def _receive_n(post, messages=5):
    """Send ``messages`` to a receiver that pre-posted with ``post``;
    per completion (offset, bytes, payload, simulated time)."""
    cluster, (vi0, r0), (vi1, r1) = make_via_pair()
    sim = cluster.sim
    post(vi1, r1)
    seen = []

    def receiver():
        for _ in range(messages):
            done = yield from vi1.recv_wait()
            seen.append((done.offset, done.nbytes, done.received_bytes,
                         done.received_payload, done.completed_at))

    def sender():
        for index in range(messages):
            yield from vi0.post_send(
                SendDescriptor(r0, 0, 1000 + index, payload=index))

    process = sim.spawn(receiver())
    sim.spawn(sender())
    sim.run_until_complete(process)
    return seen, sim.now, sim.events_processed, len(vi1.recv_queue)


def test_traffic_sees_identical_buffers_and_timing():
    run = _receive_n(lambda vi, r: vi.post_recv_slots(r, SLOT, SLOT, 8))
    loop = _receive_n(lambda vi, r: _post_each(vi, r, SLOT, SLOT, 8))
    assert run == loop
    seen, _now, _events, left = run
    assert [offset for offset, *_ in seen] == [i * SLOT for i in range(5)]
    assert [payload for *_, payload, _t in seen] == list(range(5))
    assert left == 3


def test_hang_report_counts_posted_buffers_not_queue_entries():
    cluster, _e0, (vi1, r1) = make_via_pair()
    vi1.post_recv_slots(r1, SLOT, SLOT, 40)
    vi1.post_recv(RecvDescriptor(r1, 0, 64))
    assert len(vi1.recv_queue) == 41
    report = cluster.hang_report()
    assert f"rank 1 {vi1!r}: 41 posted recvs" in report
    vi1.recv_queue.popleft()
    assert f"rank 1 {vi1!r}: 40 posted recvs" in cluster.hang_report()


def test_disconnect_drain_fails_every_remaining_slot():
    cluster, _e0, (vi1, r1) = make_via_pair()
    agent = cluster.nodes[1].via.agent
    vi1.post_recv_slots(r1, SLOT, SLOT, 6)
    single = RecvDescriptor(r1, 0, 64)
    vi1.post_recv(single)
    consumed = vi1.recv_queue.popleft()      # one slot already used
    error = ViaError("peer declared dead")
    agent._fail_vi(vi1, error)
    assert len(vi1.recv_queue) == 0
    assert agent.stats["recv_drained"] == 6
    failed = []
    while True:
        descriptor = vi1._recv_done.try_get()
        if descriptor is None:
            break
        failed.append(descriptor)
    assert [d.offset for d in failed] == [SLOT * i for i in range(1, 6)] + [0]
    assert failed[-1] is single
    assert all(d.status is DescriptorStatus.ERROR and d.error is error
               for d in failed)
    assert consumed.status is DescriptorStatus.PENDING


def test_completed_twice_names_the_buffer():
    _cluster, _e0, (_vi, region) = make_via_pair()
    descriptor = RecvDescriptor(region, 8192, 100)
    descriptor.mark_done(1.0)
    with pytest.raises(ViaDescriptorError) as info:
        descriptor.mark_done(2.0)
    message = str(info.value)
    assert "completed twice" in message
    assert f"{region.addr:#x}+8192" in message and "100B" in message
