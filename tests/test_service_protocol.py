"""Wire protocol and result-cache unit tests (no processes spawned)."""

import pytest

from repro.service.cache import CacheIntegrityError, ResultCache
from repro.service.protocol import (
    JobSpec,
    ProtocolError,
    error_response,
    ok_response,
    overloaded_response,
)


# -- JobSpec ------------------------------------------------------------------
def test_make_sorts_args_so_order_never_matters():
    a = JobSpec.make("point", "via_latency", nbytes=64, repeats=5)
    b = JobSpec.make("point", "via_latency", repeats=5, nbytes=64)
    assert a == b
    assert a.cache_key() == b.cache_key()


def test_wire_roundtrip_preserves_identity():
    spec = JobSpec.make("figure", "fig2", quick=True, seed=3)
    assert JobSpec.from_wire(spec.to_wire()) == spec


def test_cache_key_covers_seed_and_args():
    base = JobSpec.make("point", "via_latency", nbytes=64)
    assert base.cache_key() != JobSpec.make(
        "point", "via_latency", nbytes=128).cache_key()
    assert base.cache_key() != JobSpec.make(
        "point", "via_latency", nbytes=64, seed=1).cache_key()
    assert base.cache_key() == JobSpec.make(
        "point", "via_latency", nbytes=64).cache_key()


#: Keys computed under code version 1.0.5 by the full-hash formula
#: below, when ``cache_key`` still canonicalised the default parameter
#: sets on every call.
PINNED_KEYS = [
    (JobSpec.make("point", "via_latency", nbytes=1024, repeats=5, seed=3),
     "b49fde2ca772eb14c9696e6fc670bc95024d618318edac9c70f53852152647ac"),
    (JobSpec.make("figure", "fig2", quick=True),
     "ec06456d3ebb9cec8bc0964f1fb3dfc2aa8e61aa2aaadb6750b0e7b2b031eea4"),
    (JobSpec.make("pdes", "aggregate", dims="4x4x4", nshards=2,
                  ckpt_every=16),
     "6ca88fee2bf3518423134e2cfa2ab1eee0d8ebfbb19012431b93aaf7db1177d8"),
]


@pytest.mark.parametrize("spec, key", PINNED_KEYS,
                         ids=[spec.kind for spec, _key in PINNED_KEYS])
def test_cache_keys_are_byte_identical_to_the_full_hash(spec, key,
                                                        monkeypatch):
    from repro.canonical import content_hash
    from repro.hw.params import default_gige, default_host, default_via
    from repro.service import protocol

    monkeypatch.setattr(protocol, "__version__", "1.0.5")
    assert spec.cache_key() == key
    monkeypatch.undo()
    # Under any version: the hash of the whole identity, computed cold.
    assert spec.cache_key() == content_hash({
        "job": spec, "gige": default_gige(), "host": default_host(),
        "via": default_via(), "code_version": protocol.__version__})
    assert JobSpec.from_wire(spec.to_wire()).cache_key() == spec.cache_key()


def test_request_deadline_is_not_part_of_the_job_identity():
    # deadline_s is a *request* field; JobSpec has no slot for it, so
    # two clients asking for the same job with different patience
    # always share one cache entry.
    wire = JobSpec.make("point", "via_latency", nbytes=64).to_wire()
    assert "deadline_s" not in wire


@pytest.mark.parametrize("bad", [
    None,
    "not an object",
    {"kind": "warp-drive"},
    {"kind": "point", "name": 42},
    {"kind": "point", "name": "x", "seed": "zero"},
    {"kind": "point", "name": "x", "seed": True},
    {"kind": "point", "name": "x", "args": "not an object"},
    {"kind": "point", "name": "x", "args": {"v": [1, 2]}},
    {"kind": "point", "name": "x", "args": {1: "non-string key"}},
])
def test_from_wire_rejects_malformed_jobs(bad):
    with pytest.raises(ProtocolError):
        JobSpec.from_wire(bad)


def test_labels_and_arg_lookup():
    spec = JobSpec.make("point", "via_latency", nbytes=64)
    assert spec.label() == "point:via_latency"
    assert JobSpec.make("trace").label() == "trace"
    assert spec.arg("nbytes") == 64
    assert spec.arg("missing", "fallback") == "fallback"


# -- response shapes ----------------------------------------------------------
def test_response_builders_shapes():
    ok = ok_response("r1", "k" * 64, {"value": 1}, "hit", attempts=0,
                     elapsed_s=0.001)
    assert ok["status"] == "ok" and ok["cache"] == "hit"
    err = error_response("r2", "WorkerCrashed", "boom", retriable=True,
                         attempts=3, key="k" * 64)
    assert err["status"] == "error" and err["retriable"] is True
    shed = overloaded_response("r3", 0.05)
    assert shed["status"] == "overloaded" and shed["retriable"] is True
    assert shed["retry_after_s"] == 0.05


# -- ResultCache --------------------------------------------------------------
def test_cache_roundtrip_returns_fresh_decodes():
    cache = ResultCache()
    cache.put("k1", {"value": [1, 2, 3]})
    first = cache.get("k1")
    first["value"].append(99)  # mutating a result must not poison it
    assert cache.get("k1") == {"value": [1, 2, 3]}


def test_cache_put_is_idempotent_but_guards_integrity():
    cache = ResultCache()
    cache.put("k1", {"value": 1})
    cache.put("k1", {"value": 1})  # identical: fine
    assert len(cache) == 1
    with pytest.raises(CacheIntegrityError):
        cache.put("k1", {"value": 2})


def test_cache_lru_eviction():
    cache = ResultCache(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # touch "a" so "b" is the LRU entry
    cache.put("c", 3)
    assert "b" not in cache
    assert cache.get("a") == 1 and cache.get("c") == 3


def test_cache_snapshot_counts_hits_and_misses():
    cache = ResultCache(capacity=8)
    cache.put("a", 1)
    cache.get("a")
    cache.get("nope")
    snap = cache.snapshot()
    assert snap["entries"] == 1
    assert snap["hits"] == 1 and snap["misses"] == 1
    assert snap["capacity"] == 8
