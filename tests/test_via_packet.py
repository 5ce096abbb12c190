"""Tests for VIA wire packets and checksums."""

import dataclasses

from hypothesis import given, strategies as st

from repro.via.packet import PacketKind, ViaPacket


def _packet(**overrides):
    fields = dict(
        kind=PacketKind.DATA, src_node=1, dst_node=2, dst_vi=3,
        src_vi=4, msg_id=5, frag_index=0, num_frags=2,
        payload_bytes=100, msg_offset=0, msg_bytes=200,
    )
    fields.update(overrides)
    return ViaPacket(**fields)


def test_seal_and_verify():
    packet = _packet().seal()
    assert packet.verify()


def test_unsealed_fails_verification():
    assert not _packet().verify()


def test_tamper_detected():
    packet = _packet().seal()
    packet.dst_node = 99
    assert not packet.verify()


def test_checksum_covers_identity_fields():
    a = _packet(msg_id=1).seal()
    b = _packet(msg_id=2).seal()
    assert a.checksum != b.checksum


def test_route_excluded_from_checksum():
    packet = _packet(route=(0, 1, 2)).seal()
    packet.route = (1, 2)  # hop consumed by the switch
    assert packet.verify()


def test_msg_ids_monotone():
    assert ViaPacket.next_msg_id() < ViaPacket.next_msg_id()


#: Every dataclass field with a second value: the sixteen header fields
#: the checksum covers, then the four it must not see.
_COVERED = dict(
    kind=PacketKind.RMA_WRITE, src_node=7, dst_node=8, dst_vi=9, src_vi=10,
    msg_id=11, frag_index=1, num_frags=3, payload_bytes=101, msg_offset=64,
    msg_bytes=201, remote_addr=4096, notify=True, immediate=0, seq=0, ack=0,
)
_EXCLUDED = dict(route=(0, 1), payload=b"x", checksum=1, trace=object())


def test_checksum_covers_exactly_the_header_fields():
    assert set(_COVERED) | set(_EXCLUDED) == {
        f.name for f in dataclasses.fields(ViaPacket)}
    base = _packet().compute_checksum()
    for name, value in _COVERED.items():
        assert _packet(**{name: value}).compute_checksum() != base, name
    for name, value in _EXCLUDED.items():
        assert _packet(**{name: value}).compute_checksum() == base, name


def test_checksum_tells_every_kind_and_absent_immediate_apart():
    sums = {_packet(kind=kind).compute_checksum() for kind in PacketKind}
    assert len(sums) == len(PacketKind)
    none, zero, one = (_packet(immediate=i).compute_checksum()
                       for i in (None, 0, 1))
    assert len({none, zero, one}) == 3


def test_verify_recomputes_rather_than_trusting_the_seal():
    packet = _packet(immediate=5).seal()
    for name, value in _COVERED.items():
        tampered = packet.clone()
        setattr(tampered, name, value)
        assert not tampered.verify(), name


_ints = st.integers(-1, 2**31)
packets = st.builds(
    ViaPacket,
    kind=st.sampled_from(PacketKind), src_node=_ints, dst_node=_ints,
    dst_vi=_ints, src_vi=_ints, msg_id=_ints, frag_index=_ints,
    num_frags=_ints, payload_bytes=_ints, msg_offset=_ints,
    msg_bytes=_ints, remote_addr=_ints, notify=st.booleans(),
    immediate=st.none() | _ints, route=st.none() | st.tuples(_ints, _ints),
    seq=_ints, ack=_ints, payload=st.none() | st.builds(object),
    checksum=st.none() | st.integers(0, 2**32 - 1),
    trace=st.none() | st.builds(object),
)


def _fields(packet):
    # Read one by one: ``==`` skips ``trace`` (compare=False) and
    # ``astuple`` deep-copies the payload.
    return [getattr(packet, f.name) for f in dataclasses.fields(ViaPacket)]


@given(packets)
def test_clone_is_replace_field_for_field(packet):
    clone, want = packet.clone(), dataclasses.replace(packet)
    assert type(clone) is ViaPacket
    assert all(c is w for c, w in zip(_fields(clone), _fields(want)))
    # A fresh object: what the switch and the sealer write to it (the
    # route it consumes hop by hop, the checksum) stays on the copy.
    before = _fields(packet)
    clone.route, clone.checksum, clone.seq, clone.trace = (9,), -7, -2, 1
    assert all(p is b for p, b in zip(_fields(packet), before))
