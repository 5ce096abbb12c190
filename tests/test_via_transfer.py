"""End-to-end VIA tests: connection, sends, fragmentation, RMA,
packet switching, and error paths."""

import pytest

from repro.errors import (
    TruncationError,
    ViaDescriptorError,
    ViaNotConnectedError,
    ViaProtectionError,
)
from repro.via.descriptors import (
    RecvDescriptor,
    RmaWriteDescriptor,
    SendDescriptor,
)
from repro.via.vi import ViState
from tests.conftest import make_via_pair, run, via_pingpong_rtt2


def test_connection_establishment(via_pair):
    _cluster, (vi0, _r0), (vi1, _r1) = via_pair
    assert vi0.state is ViState.CONNECTED
    assert vi1.state is ViState.CONNECTED
    assert vi0.peer == (1, vi1.vi_id)
    assert vi1.peer == (0, vi0.vi_id)


def test_send_before_connect_rejected():
    from repro.cluster.builder import build_mesh

    cluster = build_mesh((2,), wrap=False, stack="via")
    device = cluster.nodes[0].via
    tag = device.create_protection_tag()
    vi = device.create_vi(tag)
    region = device.register_memory_now(4096, tag)

    def send():
        yield from vi.post_send(SendDescriptor(region, 0, 4))

    with pytest.raises(ViaNotConnectedError):
        run(cluster.sim, send())


def test_payload_and_immediate_delivered(via_pair):
    cluster, (vi0, r0), (vi1, r1) = via_pair
    sim = cluster.sim

    def receiver():
        vi1.post_recv(RecvDescriptor(r1, 0, 4096))
        descriptor = yield from vi1.recv_wait()
        return descriptor

    def sender():
        yield from vi0.post_send(SendDescriptor(
            r0, 0, 100, payload={"key": "value"}, immediate=7,
        ))

    receive = sim.spawn(receiver())
    sim.spawn(sender())
    descriptor = sim.run_until_complete(receive)
    assert descriptor.received_bytes == 100
    assert descriptor.received_payload == {"key": "value"}
    assert descriptor.received_immediate == 7


def test_large_message_fragmentation(via_pair):
    cluster, (vi0, r0), (vi1, r1) = via_pair
    sim = cluster.sim
    nbytes = 100_000  # ~69 fragments

    def receiver():
        vi1.post_recv(RecvDescriptor(r1, 0, nbytes))
        descriptor = yield from vi1.recv_wait()
        return descriptor

    def sender():
        yield from vi0.post_send(SendDescriptor(r0, 0, nbytes,
                                                payload="big"))

    receive = sim.spawn(receiver())
    sim.spawn(sender())
    descriptor = sim.run_until_complete(receive)
    assert descriptor.received_bytes == nbytes
    assert descriptor.received_payload == "big"
    frames = cluster.nodes[1].via.agent.stats["data_frames"]
    assert frames == -(-nbytes // cluster.nodes[0].via.frame_payload)


def test_messages_complete_in_order(via_pair):
    cluster, (vi0, r0), (vi1, r1) = via_pair
    sim = cluster.sim
    seen = []

    def receiver():
        for index in range(5):
            vi1.post_recv(RecvDescriptor(r1, 0, 8192))
        for index in range(5):
            descriptor = yield from vi1.recv_wait()
            seen.append(descriptor.received_payload)

    def sender():
        for index in range(5):
            yield from vi0.post_send(SendDescriptor(
                r0, 0, 1000, payload=index,
            ))

    receive = sim.spawn(receiver())
    sim.spawn(sender())
    sim.run_until_complete(receive)
    assert seen == [0, 1, 2, 3, 4]


def test_truncation_rejected(via_pair):
    cluster, (vi0, r0), (vi1, r1) = via_pair
    sim = cluster.sim
    vi1.post_recv(RecvDescriptor(r1, 0, 10))

    def sender():
        yield from vi0.post_send(SendDescriptor(r0, 0, 1000))

    sim.spawn(sender())
    with pytest.raises(TruncationError):
        sim.run(until=1e6)


def test_empty_recv_queue_is_flow_violation(via_pair):
    cluster, (vi0, r0), (_vi1, _r1) = via_pair
    sim = cluster.sim

    def sender():
        yield from vi0.post_send(SendDescriptor(r0, 0, 4))

    sim.spawn(sender())
    with pytest.raises(ViaDescriptorError):
        sim.run(until=1e6)


def test_recv_queue_depth_enforced(via_pair):
    _cluster, (_e0), (vi1, r1) = via_pair
    depth = vi1.device.params.recv_queue_depth
    for _ in range(depth):
        vi1.post_recv(RecvDescriptor(r1, 0, 64))
    with pytest.raises(ViaDescriptorError):
        vi1.post_recv(RecvDescriptor(r1, 0, 64))


@pytest.mark.parametrize("post,build", [
    ("post_send", SendDescriptor),
    ("post_rma_write", RmaWriteDescriptor),
])
def test_post_under_foreign_protection_tag_rejected(post, build):
    """One post body: a local segment registered under a tag other than
    the VI's is refused by both posts, before anything is sent."""
    cluster, (vi0, _r0), (_vi1, _r1) = make_via_pair()
    device0 = cluster.nodes[0].via
    foreign = device0.register_memory_now(
        4096, device0.create_protection_tag())

    def poster():
        yield from getattr(vi0, post)(build(foreign, 0, 64))

    with pytest.raises(ViaDescriptorError) as info:
        run(cluster.sim, poster())
    assert str(info.value) == "descriptor/VI protection tag mismatch"
    assert vi0.stats["send_bytes"] == 0


def test_rma_write_lands_in_enabled_region():
    cluster, (vi0, r0), (vi1, _r1) = make_via_pair()
    sim = cluster.sim
    device1 = cluster.nodes[1].via
    target = device1.register_memory_now(8192, vi1.tag, rma_write=True)

    def writer():
        yield from vi0.post_rma_write(RmaWriteDescriptor(
            r0, 0, 5000, remote_addr=target.addr, payload="rma-data",
        ))
        yield from vi0.send_wait()

    process = sim.spawn(writer())
    sim.run_until_complete(process)
    sim.run(until=sim.now + 10000)
    assert target.data == "rma-data"


def test_rma_write_to_plain_region_rejected():
    cluster, (vi0, r0), (vi1, _r1) = make_via_pair()
    sim = cluster.sim
    device1 = cluster.nodes[1].via
    target = device1.register_memory_now(8192, vi1.tag, rma_write=False)

    def writer():
        yield from vi0.post_rma_write(RmaWriteDescriptor(
            r0, 0, 100, remote_addr=target.addr,
        ))

    sim.spawn(writer())
    with pytest.raises(ViaProtectionError):
        sim.run(until=1e6)


def test_rma_notify_consumes_descriptor():
    cluster, (vi0, r0), (vi1, r1) = make_via_pair()
    sim = cluster.sim
    device1 = cluster.nodes[1].via
    target = device1.register_memory_now(8192, vi1.tag, rma_write=True)
    vi1.post_recv(RecvDescriptor(r1, 0, 64))

    def writer():
        yield from vi0.post_rma_write(RmaWriteDescriptor(
            r0, 0, 4000, remote_addr=target.addr, notify=True,
            immediate=55,
        ))

    def receiver():
        descriptor = yield from vi1.recv_wait()
        return descriptor

    receive = sim.spawn(receiver())
    sim.spawn(writer())
    descriptor = sim.run_until_complete(receive)
    assert descriptor.received_bytes == 4000
    assert descriptor.received_immediate == 55


def test_multi_hop_transfer_via_packet_switch():
    cluster, (vi0, r0), (vi1, r1) = make_via_pair(hops=3)
    sim = cluster.sim

    def receiver():
        vi1.post_recv(RecvDescriptor(r1, 0, 65536))
        descriptor = yield from vi1.recv_wait()
        return descriptor

    def sender():
        yield from vi0.post_send(SendDescriptor(r0, 0, 50_000,
                                                payload="routed"))

    receive = sim.spawn(receiver())
    sim.spawn(sender())
    descriptor = sim.run_until_complete(receive)
    assert descriptor.received_payload == "routed"
    # Both intermediate nodes forwarded every fragment.
    for middle in (1, 2):
        assert cluster.nodes[middle].via.agent.stats["forwarded"] > 0


def test_per_hop_latency_matches_paper():
    direct = via_pingpong_rtt2(*_pair_args(1))
    two_hops = via_pingpong_rtt2(*_pair_args(2))
    per_hop = two_hops - direct
    assert direct == pytest.approx(18.5, abs=0.6)
    assert per_hop == pytest.approx(12.5, abs=0.6)


def _pair_args(hops):
    cluster, end0, end1 = make_via_pair(hops=hops)
    return cluster, end0, end1


def test_source_route_followed():
    # 3x3 torus: route 0 -> 4 the long way via explicit ports.
    from repro.cluster.builder import build_mesh
    from repro.topology.torus import Direction

    cluster = build_mesh((3, 3), wrap=True, stack="via")
    sim = cluster.sim
    d0, d4 = cluster.nodes[0].via, cluster.nodes[4].via
    t0, t4 = d0.create_protection_tag(), d4.create_protection_tag()
    vi0, vi4 = d0.create_vi(t0), d4.create_vi(t4)
    r0 = d0.register_memory_now(8192, t0)
    r4 = d4.register_memory_now(8192, t4)
    a = sim.spawn(d0.agent.connect_request(vi0, 4, "sr"))
    b = sim.spawn(d4.agent.connect_wait(vi4, "sr"))
    sim.run_until_complete(a)
    sim.run_until_complete(b)
    vi4.post_recv(RecvDescriptor(r4, 0, 4096))
    # Connection handshake traffic may already have crossed node 1.
    baseline = cluster.nodes[1].via.agent.stats["forwarded"]
    # Route: +y then +x (ports 2 then 0): 0 -> 1 -> 4 in a 3x3.
    route = (Direction(1, +1).port, Direction(0, +1).port)

    def sender():
        yield from vi0.post_send(SendDescriptor(r0, 0, 64, route=route))

    def receiver():
        descriptor = yield from vi4.recv_wait()
        return descriptor

    receive = sim.spawn(receiver())
    sim.spawn(sender())
    descriptor = sim.run_until_complete(receive)
    assert descriptor.received_bytes == 64
    # Node 1 (the routed intermediate) forwarded exactly our frame.
    assert cluster.nodes[1].via.agent.stats["forwarded"] == baseline + 1
