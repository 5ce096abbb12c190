"""Canonical serialization and stable content hashing.

The simulator is deterministic: a run is fully identified by its
configuration (hardware params, topology, workload, seed) plus the
code version.  That makes results *content-addressable* — the service
layer caches them under a hash of the canonicalized configuration —
but only if the serialization is genuinely stable:

* dict keys are emitted sorted, so field ordering can never drift;
* dataclasses are tagged with their class name, so two different
  param types with identical field values never collide;
* floats are hashed through ``float.hex()`` (exact, locale- and
  platform-independent) rather than ``repr``, so ``0.30000000000000004``
  and friends can never round differently across Python builds;
* only JSON scalars, lists/tuples, dicts, dataclasses and numpy
  scalars are accepted — anything else raises instead of picking up
  ``repr``-dependent bytes.

``tests/test_canonical_hash.py`` pins the digest of the default
:class:`~repro.hw.params.GigEParams` so accidental drift (a renamed
field, a changed default, a new float formatting) fails loudly.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from dataclasses import MISSING, FrozenInstanceError
from typing import Any, Dict, List, Union

from repro.errors import ConfigurationError

Jsonable = Union[None, bool, int, float, str, List[Any], Dict[str, Any]]


def to_canonical(obj: Any) -> Jsonable:
    """Recursively convert ``obj`` to a canonical JSON-able structure.

    Dataclass instances become dicts tagged with ``"__class__"``;
    tuples become lists; numpy scalars collapse to Python scalars.
    Unsupported types raise :class:`ConfigurationError`.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out: Dict[str, Any] = {"__class__": type(obj).__name__}
        for field in dataclasses.fields(obj):
            out[field.name] = to_canonical(getattr(obj, field.name))
        return out
    if isinstance(obj, dict):
        converted = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                raise ConfigurationError(
                    f"canonical dict keys must be str, got {key!r}"
                )
            converted[key] = to_canonical(value)
        return converted
    if isinstance(obj, (list, tuple)):
        return [to_canonical(value) for value in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    # numpy scalars (np.float64, np.int64, ...) expose .item().
    item = getattr(obj, "item", None)
    if callable(item) and type(obj).__module__.startswith("numpy"):
        return to_canonical(obj.item())
    raise ConfigurationError(
        f"cannot canonicalize {type(obj).__name__}: {obj!r}"
    )


def _hash_form(obj: Jsonable) -> Jsonable:
    """Replace floats with their explicit hex form for hashing.

    ``float.hex()`` is an exact, unambiguous textual form;
    ``["~f", ...]`` tags it so the string ``"0x1.8p+1"`` and the float
    ``3.0`` can never collide.  Booleans are checked before ints
    (``bool`` is an ``int`` subclass) so ``True`` != ``1``.
    """
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return ["~f", float(obj).hex()]
    if isinstance(obj, list):
        return [_hash_form(value) for value in obj]
    if isinstance(obj, dict):
        return {key: _hash_form(value) for key, value in obj.items()}
    raise ConfigurationError(f"non-canonical value {obj!r}")  # pragma: no cover


def canonical_json(obj: Any) -> str:
    """The canonical JSON text of ``obj`` (sorted keys, no whitespace,
    floats in explicit hex form).  Equal objects always produce equal
    text; this is the hashing pre-image."""
    return json.dumps(_hash_form(to_canonical(obj)), sort_keys=True,
                      separators=(",", ":"), allow_nan=False)


def content_hash(obj: Any) -> str:
    """SHA-256 hex digest of :func:`canonical_json`."""
    return hashlib.sha256(canonical_json(obj).encode("ascii")).hexdigest()


def stable_json(obj: Any) -> str:
    """Deterministic *readable* JSON of ``obj`` (sorted keys, plain
    float repr).  Used to freeze result payloads: two bit-identical
    results produce byte-identical text."""
    return json.dumps(to_canonical(obj), sort_keys=True,
                      separators=(",", ":"), allow_nan=True)


@functools.cache
def _fields(cls: type) -> tuple:
    fields = dataclasses.fields(cls)
    if not all(f.init and f.repr and f.compare and f.hash is None
               and not f.kw_only for f in fields):
        raise TypeError(f"{cls.__qualname__}: a Canonical field takes no "
                        f"init/repr/compare/hash/kw_only option")
    return fields


class Canonical:
    """Base of the frozen config classes: canonical-dict and content-hash
    views, and the methods ``@dataclass(frozen=True)`` would generate,
    written once.  A subclass is declared ``@dataclass(init=False,
    repr=False, eq=False)``, so importing it ``exec``s no code; its
    fields are set in declaration order, so pickles are unchanged."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        name = f"{type(self).__qualname__}.__init__()"
        fields = _fields(type(self))
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} positional "
                            f"arguments but {len(args)} were given")
        for f, value in zip(fields, args):
            if f.name in kwargs:
                raise TypeError(f"{name} got multiple values for {f.name!r}")
            kwargs[f.name] = value
        for f in fields:
            value = kwargs.pop(f.name, f.default)
            if value is MISSING and f.default_factory is not MISSING:
                value = f.default_factory()
            elif value is MISSING:
                raise TypeError(f"{name} missing argument {f.name!r}")
            object.__setattr__(self, f.name, value)
        if kwargs:
            raise TypeError(f"{name} got an unexpected keyword argument "
                            f"{next(iter(kwargs))!r}")
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def _values(self) -> tuple:
        return tuple([getattr(self, f.name) for f in _fields(type(self))])

    def __repr__(self) -> str:
        shown = ", ".join(f"{f.name}={getattr(self, f.name)!r}"
                          for f in _fields(type(self)))
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other: Any) -> Any:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def to_canonical_dict(self) -> Jsonable:
        """This object as a canonical (sorted, tagged) plain structure."""
        return to_canonical(self)

    def content_hash(self) -> str:
        """Stable SHA-256 identity of this object's configuration."""
        return content_hash(self)


__all__ = [
    "Canonical",
    "canonical_json",
    "content_hash",
    "stable_json",
    "to_canonical",
]
