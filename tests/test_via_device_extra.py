"""Extra coverage for the VIA device layer."""

import pytest

from repro.cluster.builder import build_mesh
from repro.errors import ConfigurationError, ViaError
from repro.hw.params import ViaParams
from repro.topology.torus import Torus
from repro.via.descriptors import SendDescriptor
from repro.via.device import Fragments, ViaDevice
from repro.via.vi import Reliability
from tests.conftest import make_via_pair


def test_fragment_plan_covers_message():
    _cluster, (vi, region), _peer = make_via_pair()
    device = vi.device
    payload = device.frame_payload
    for nbytes in (0, 1, payload, payload + 1, 5 * payload + 17):
        fragments = Fragments(device, vi, SendDescriptor(region, 0, nbytes),
                              0, None)
        frags = [(packet.msg_offset, packet.payload_bytes)
                 for packet in map(fragments.packet, range(fragments.count))]
        assert sum(size for _off, size in frags) == max(nbytes, 0)
        if nbytes == 0:
            assert frags == [(0, 0)]
        else:
            offsets = [off for off, _size in frags]
            assert offsets == sorted(offsets)
            assert all(size <= payload for _off, size in frags)
        # A plan sizes the frames the NIC will cut.
        assert list(fragments.sizes()) == [
            (frame.payload_bytes, frame.padded_bytes)
            for frame in map(fragments.frame, range(fragments.count))]


def test_frame_payload_accounts_header():
    cluster = build_mesh((2,), wrap=False, stack="via")
    device = cluster.nodes[0].via
    assert device.frame_payload == 1500 - device.params.header_bytes


def test_header_larger_than_mtu_rejected():
    with pytest.raises(ConfigurationError):
        build_mesh((2,), wrap=False, stack="via",
                   via_params=ViaParams(header_bytes=2000))


def test_device_requires_ports():
    cluster = build_mesh((2,), wrap=False, stack="none")
    with pytest.raises(ConfigurationError):
        ViaDevice(cluster.sim, cluster.nodes[0].host, 0,
                  cluster.torus, {})


def test_egress_to_self_rejected():
    cluster = build_mesh((2,), wrap=False, stack="via")
    with pytest.raises(ViaError):
        cluster.nodes[0].via.egress_port(0)


def test_route_through_missing_port_rejected():
    cluster = build_mesh((2,), wrap=False, stack="via")
    device = cluster.nodes[0].via
    with pytest.raises(ConfigurationError):
        device._route_egress(1, (5,))  # port 5 doesn't exist on a line


def test_register_memory_charges_kernel_time():
    cluster = build_mesh((2,), wrap=False, stack="via")
    sim = cluster.sim
    device = cluster.nodes[0].via
    tag = device.create_protection_tag()

    def register():
        start = sim.now
        region = yield from device.register_memory(1 << 20, tag)
        return (region, sim.now - start)

    region, elapsed = sim.run_until_complete(sim.spawn(register()))
    assert region.nbytes == 1 << 20
    assert elapsed >= device.memory.register_cost(1 << 20)


def test_reliability_levels_exposed():
    cluster = build_mesh((2,), wrap=False, stack="via")
    device = cluster.nodes[0].via
    tag = device.create_protection_tag()
    vi = device.create_vi(tag, reliability=Reliability.UNRELIABLE)
    assert vi.reliability is Reliability.UNRELIABLE


def test_vi_registry():
    cluster = build_mesh((2,), wrap=False, stack="via")
    device = cluster.nodes[0].via
    tag = device.create_protection_tag()
    v1, v2 = device.create_vi(tag), device.create_vi(tag)
    assert device.vis[v1.vi_id] is v1
    assert device.vis[v2.vi_id] is v2
    assert v1.vi_id != v2.vi_id
