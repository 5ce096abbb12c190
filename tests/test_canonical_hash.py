"""Canonical serialization and stable content hashing.

The content hash is the service cache key, so its stability is a
compatibility contract: the pinned digest below must only change when
the default parameter set (or the hashing scheme itself) deliberately
changes.
"""

import json

import pytest

from repro.canonical import (
    Canonical,
    canonical_json,
    content_hash,
    stable_json,
    to_canonical,
)
from repro.hw.faults import FaultParams, NodeFaultSpec
from repro.hw.params import GigEParams, default_gige, default_via

# The frozen digest of the default GigEParams.  Changing any default
# hardware parameter (or the canonical-form encoding) changes this —
# which is exactly the point: it silently invalidates every cached
# service result keyed on the old configuration.
PINNED_GIGE_DIGEST = \
    "9e55ab0b6a922fb7c1d40b82e7f11519a5b1cf0b1850398e4e8427bbbf59d942"


def test_default_gige_digest_is_pinned():
    assert GigEParams().content_hash() == PINNED_GIGE_DIGEST
    assert default_gige().content_hash() == PINNED_GIGE_DIGEST


def test_hash_is_insertion_order_independent():
    a = {"x": 1, "y": [1, 2, {"z": 3.5}]}
    b = {"y": [1, 2, {"z": 3.5}], "x": 1}
    assert content_hash(a) == content_hash(b)
    assert canonical_json(a) == canonical_json(b)


def test_floats_hash_by_exact_value():
    assert content_hash(0.1) != content_hash(0.1 + 1e-16)
    assert content_hash(1.0) != content_hash(1)  # type distinction
    assert content_hash(2.5) == content_hash(2.5)


def test_dataclasses_are_tagged_with_their_class():
    form = to_canonical(GigEParams())
    assert form["__class__"] == "GigEParams"
    # A different parameter class with overlapping field values must
    # not collide.
    assert content_hash(default_gige()) != content_hash(default_via())


def test_param_change_changes_hash():
    base = GigEParams()
    assert GigEParams(mtu=base.mtu).content_hash() == base.content_hash()
    assert GigEParams(mtu=9000).content_hash() != base.content_hash()


def test_fault_params_are_canonical():
    assert isinstance(FaultParams(), Canonical)
    spec = NodeFaultSpec(rank=3, crash_at=100.0)
    assert isinstance(spec, Canonical)
    assert spec.content_hash() == NodeFaultSpec(
        rank=3, crash_at=100.0).content_hash()
    assert spec.content_hash() != NodeFaultSpec(
        rank=4, crash_at=100.0).content_hash()


def test_to_canonical_dict_roundtrips_through_json():
    form = GigEParams().to_canonical_dict()
    assert json.loads(json.dumps(form, sort_keys=True)) == form


def test_stable_json_is_deterministic_text():
    payload = {"b": [1.5, 2], "a": {"nested": True}}
    assert stable_json(payload) == stable_json(dict(payload))
    assert json.loads(stable_json(payload)) == payload


def test_unsupported_types_are_rejected():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        to_canonical(object())
    with pytest.raises(ConfigurationError):
        to_canonical({1: "non-string key"})


def test_hang_error_carries_run_identity():
    from repro.errors import HangError

    exc = HangError("stuck", config_hash="abc123", fault_seed=7)
    assert exc.config_hash == "abc123"
    assert exc.fault_seed == 7
    bare = HangError("stuck")
    assert bare.config_hash is None and bare.fault_seed is None


def test_cluster_hang_report_names_config_hash_and_seed():
    from repro.cluster.builder import build_mesh
    from repro.hw.faults import FaultParams

    cluster = build_mesh((2, 2), gige_params=GigEParams(
        faults=FaultParams(seed=11, loss_rate=0.001)))
    report = cluster.hang_report()
    assert f"config_hash={cluster.config_hash()[:16]}" in report
    assert "fault_seed=11" in report
    assert len(cluster.config_hash()) == 64
    # The hash is stable for an identical configuration and moves
    # when the configuration moves.
    twin = build_mesh((2, 2), gige_params=GigEParams(
        faults=FaultParams(seed=11, loss_rate=0.001)))
    assert twin.config_hash() == cluster.config_hash()
    other = build_mesh((2, 2), gige_params=GigEParams(
        faults=FaultParams(seed=12, loss_rate=0.001)))
    assert other.config_hash() != cluster.config_hash()
