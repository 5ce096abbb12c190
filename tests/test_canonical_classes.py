"""The eight ``Canonical`` classes behave as frozen dataclasses.

``Canonical`` writes once the methods ``@dataclass(frozen=True)`` used
to generate for every class at every import.  Pinned here, per class,
from the generated versions: the content hash of a sample and of the
default instance, the pickle bytes (protocol 4) and the ``repr`` of
the sample; checked: ``==`` and ``hash`` (the dataclass formula, a hash
of the field tuple), positional and keyword construction,
``dataclasses.fields`` / ``replace`` / ``asdict`` / ``is_dataclass``,
``FrozenInstanceError`` on set and on delete, and the ``__post_init__``
errors of the two fault classes.
"""

import dataclasses
import hashlib
import pickle
from typing import NamedTuple

import pytest

from repro.canonical import Canonical
from repro.errors import ConfigurationError
from repro.hw.faults import FaultParams, NodeFaultSpec
from repro.hw.params import (
    GigEParams,
    HostParams,
    MyrinetParams,
    TcpParams,
    ViaParams,
)
from repro.service.protocol import JobSpec

#: One sample per class, built partly by position and partly by keyword.
SAMPLES = {
    "HostParams": lambda: HostParams(3.0, memory_mb=512),
    "GigEParams": lambda: GigEParams(
        mtu=9000, faults=FaultParams(seed=3, loss_rate=0.01)),
    "ViaParams": lambda: ViaParams(42, 2.5, reliable=True),
    "TcpParams": lambda: TcpParams(60, window_bytes=65536),
    "MyrinetParams": lambda: MyrinetParams(7.5, 250.0),
    "FaultParams": lambda: FaultParams(
        1, 0.01, drop_frames=(3, 5), down_at=((1.0, 2.0),), die_at=900.0),
    "NodeFaultSpec": lambda: NodeFaultSpec(2, 100.0, ((5.0, 6.0),)),
    "JobSpec": lambda: JobSpec("point", "via_latency", (("nbytes", 1024),),
                               7),
}

#: The default instance (``JobSpec`` has one required field).
DEFAULTS = {name: (lambda: JobSpec("point")) if name == "JobSpec"
            else type(make()) for name, make in SAMPLES.items()}


class Pin(NamedTuple):
    content_hash: str
    default_hash: str
    pickle_sha256: str
    repr: str


PINS = {
    "HostParams": Pin(
        "0c4cb82143d5018e52438e4962da7498ad3c4082b386ea3c9e8a590da5aa27bc",
        "bf736a91fdea93d8e53baeb1c18a5210e423ee62cd1ffe874b7bf51747f6a003",
        "e0898ca61872e110515aaf8a0397bb2e0cfff7e21d712ab0f0e211227885534a",
        ('HostParams(cpu_ghz=3.0, copy_rate=1200.0, membus_rate=2100.0,'
         ' copy_bus_weight=5.0, interrupt_cost=1.5,'
         ' interrupt_per_frame=0.35, syscall_cost=1.1,'
         ' napi_poll_window=0.0, memory_mb=512)')),
    "GigEParams": Pin(
        "5f05ecefc4319bc1d6d5741ce94679a20581d22594a722766505911525e74ad8",
        "9e55ab0b6a922fb7c1d40b82e7f11519a5b1cf0b1850398e4e8427bbbf59d942",
        "1274a2500123eb7355002f3e9cef2529aaaa87c41b10066c1a141d1ebefb292b",
        ('GigEParams(wire_rate=125.0, mtu=9000, frame_overhead=38,'
         ' propagation=0.3, tx_proc=0.9, rx_proc=0.9, tx_ring=2048,'
         ' rx_ring=2048, coalesce_delay=6.9, coalesce_frames=10,'
         ' hw_checksum=True, sw_checksum_per_byte=0.0009,'
         ' corrupt_every=None, faults=FaultParams(seed=3, loss_rate=0.01,'
         ' corrupt_rate=0.0, drop_frames=(), flap_period=None,'
         ' flap_down=0.0, flap_offset=0.0, down_at=(), die_at=None))')),
    "ViaParams": Pin(
        "220823b3c962193f6b68be8a42fe6ff4608221df44f335596cb8c84616d37bfc",
        "3830eae655919301d37cfe4b98e05ccc8b767b8fbe5b23be377472da2b833a31",
        "05ecef78223bf52131b6bb3d8f957953bcda99bcea39bfbec85a4947a7f7118f",
        ('ViaParams(header_bytes=42, send_overhead=2.5, recv_overhead=3.68,'
         ' recv_copy=True, switch_forward_cost=0.68, rx_demux_cost=0.3,'
         ' verify_checksums=True, recv_queue_depth=256, reliable=True,'
         ' rel_window=64,'
         ' rel_rto=300.0, rel_rto_backoff=2.0, rel_rto_max=5000.0,'
         ' rel_max_retries=10, rel_ack_every=4, rel_ack_delay=25.0,'
         ' fd_interval=200.0, fd_timeout=1000.0)')),
    "TcpParams": Pin(
        "6e4367f0a67116c47edc4e05c6201e157eed88c47dd73e7016aced12127d5e5a",
        "d7f6ffda1684fcc140d73ee28599c4929d29315ef6e5e3ac1c515139937a152f",
        "6a82641fbcec9b2539c639c99f7398d6e56a4506c0fde52c65bab5e65433fff0",
        ('TcpParams(header_bytes=60, send_overhead=3.2, send_copy=True,'
         ' recv_overhead=3.6, per_segment_tx=5.3, per_segment_rx=6.9,'
         ' recv_copy=True, ack_cost=0.6, segments_per_ack=2,'
         ' window_bytes=65536, ip_forward_cost=2.6)')),
    "MyrinetParams": Pin(
        "0e772ef53295b6b5e49a8a27f97a513b1bd06eafe6e4502d773b153235356dd8",
        "73c4df961d0c4d0fcf1c3e26f3ecb305943d1dcc660e292b6238f4214ae5fb78",
        "3486bd994890a57566f1639f2c44beed3f049c9cb5b7938c4d33434051a143cb",
        ('MyrinetParams(latency=7.5, bandwidth=250.0, per_switch_hop=0.5,'
         ' host_overhead=2.2)')),
    "FaultParams": Pin(
        "2aae74f82e2563ad8240b441821b76ea1fedbc0cf34eae073ed3a5fabc80cc3c",
        "fd2e7d3b9cad184035c68bb880bfa3c74eb8a087a34ee7ca0b640364b26e64f4",
        "0e5bdb7b08e861bf23d82d8f98af281a70bce8b6264b829c20d81f32c216bfc3",
        ('FaultParams(seed=1, loss_rate=0.01, corrupt_rate=0.0,'
         ' drop_frames=(3, 5), flap_period=None, flap_down=0.0,'
         ' flap_offset=0.0, down_at=((1.0, 2.0),), die_at=900.0)')),
    "NodeFaultSpec": Pin(
        "6ad7bebcc7867491c6afed19f9faad4baff13eef5ea0f5976c8f270d84de4397",
        "0872f1eca9a9072efbd250564b9512056f6c2f5c812222fbf01a6701423fddb7",
        "b3e39c866595201ca7b5f7c8bb2185e62760364030aab635781ce5769407c02f",
        ('NodeFaultSpec(rank=2, crash_at=100.0, nic_down=((5.0, 6.0),))')),
    "JobSpec": Pin(
        "4c570c245852b06d7c09090c9d9db7ee2e8f177aa85ca4226ff16f8951ff70fc",
        "76cb00e9314913d409c779ab8963103432b018c2cb3eba0b17fc131306aa3257",
        "5d631e92ef79598c3fa50c138dd7288a7bd15c4756f52bc209af776bc4fc5291",
        ("JobSpec(kind='point', name='via_latency', args=(('nbytes',"
         ' 1024),), seed=7)')),
}

NAMES = sorted(SAMPLES)


def _values(obj):
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))


@pytest.mark.parametrize("name", NAMES)
def test_content_hash_pickle_and_repr_are_pinned(name):
    obj, pin = SAMPLES[name](), PINS[name]
    assert isinstance(obj, Canonical)
    assert obj.content_hash() == pin.content_hash
    assert DEFAULTS[name]().content_hash() == pin.default_hash
    data = pickle.dumps(obj, protocol=4)
    assert hashlib.sha256(data).hexdigest() == pin.pickle_sha256
    assert pickle.loads(data) == obj
    assert pickle.dumps(pickle.loads(data), protocol=4) == data
    assert repr(obj) == pin.repr


@pytest.mark.parametrize("name", NAMES)
def test_eq_and_hash_are_the_field_tuples(name):
    obj, default = SAMPLES[name](), DEFAULTS[name]()
    twin = SAMPLES[name]()
    assert obj == twin and obj is not twin
    assert hash(obj) == hash(twin) == hash(_values(obj))
    assert obj != default
    assert len({obj, twin, default}) == 2
    assert obj.__eq__(_values(obj)) is NotImplemented
    other = HostParams() if name != "HostParams" else MyrinetParams()
    assert obj != other


@pytest.mark.parametrize("name", NAMES)
def test_positional_and_keyword_construction_agree(name):
    obj = SAMPLES[name]()
    cls = type(obj)
    by_name = {f.name: getattr(obj, f.name)
               for f in dataclasses.fields(obj)}
    assert cls(*_values(obj)) == obj
    assert cls(**by_name) == obj
    assert list(vars(cls(**by_name))) == list(by_name)
    with pytest.raises(TypeError):
        cls(*_values(obj), 0)
    with pytest.raises(TypeError):
        cls(bogus=1)
    first = dataclasses.fields(obj)[0].name
    with pytest.raises(TypeError):
        cls(getattr(obj, first), **{first: getattr(obj, first)})


def test_a_required_field_is_required():
    with pytest.raises(TypeError, match="'kind'"):
        JobSpec()
    assert JobSpec("chaos").args == ()


@pytest.mark.parametrize("name", NAMES)
def test_dataclass_functions_work(name):
    obj = SAMPLES[name]()
    assert dataclasses.is_dataclass(obj)
    fields = dataclasses.fields(obj)
    assert [f.name for f in fields] == list(vars(obj))
    assert dataclasses.replace(obj) == obj
    last = fields[-1].name
    changed = dataclasses.replace(obj, **{last: getattr(DEFAULTS[name](),
                                                        last)})
    assert getattr(changed, last) == getattr(DEFAULTS[name](), last)
    assert dataclasses.asdict(obj) == {
        f.name: (dataclasses.asdict(v) if dataclasses.is_dataclass(v)
                 else v)
        for f, v in zip(fields, _values(obj))}


@pytest.mark.parametrize("name", NAMES)
def test_instances_are_frozen(name):
    obj = SAMPLES[name]()
    field = dataclasses.fields(obj)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError,
                       match=f"cannot assign to field '{field}'"):
        setattr(obj, field, None)
    with pytest.raises(dataclasses.FrozenInstanceError,
                       match=f"cannot delete field '{field}'"):
        delattr(obj, field)
    with pytest.raises(dataclasses.FrozenInstanceError):
        obj.not_a_field = 1
    assert obj == SAMPLES[name]()


@pytest.mark.parametrize("make, message", [
    (lambda: FaultParams(loss_rate=1.5),
     "loss_rate must be in [0, 1], got 1.5"),
    (lambda: FaultParams(corrupt_rate=-0.1),
     "corrupt_rate must be in [0, 1], got -0.1"),
    (lambda: FaultParams(flap_period=0.0),
     "flap_period must be > 0, got 0.0"),
    (lambda: FaultParams(flap_period=10.0, flap_down=11.0),
     "flap_down must be in [0, flap_period], got 11.0"),
    (lambda: FaultParams(down_at=((5.0, 1.0),)),
     "down_at windows must be (start, end) with start <= end, "
     "got (5.0, 1.0)"),
    (lambda: dataclasses.replace(FaultParams(), loss_rate=-1.0),
     "loss_rate must be in [0, 1], got -1.0"),
    (lambda: NodeFaultSpec(rank=-1),
     "NodeFaultSpec.rank must be >= 0, got -1"),
    (lambda: NodeFaultSpec(crash_at=-1.0), "crash_at must be >= 0, got -1.0"),
    (lambda: NodeFaultSpec(nic_down=((1.0,),)),
     "nic_down windows must be (start, end) with start <= end, "
     "got (1.0,)"),
])
def test_post_init_errors_are_unchanged(make, message):
    with pytest.raises(ConfigurationError) as err:
        make()
    assert str(err.value) == message


def test_a_field_option_canonical_does_not_implement_is_refused():
    @dataclasses.dataclass(init=False, repr=False, eq=False)
    class Hidden(Canonical):
        shown: int = 0
        secret: int = dataclasses.field(default=0, repr=False)

    with pytest.raises(TypeError, match="Hidden"):
        Hidden()
