"""Lazy package re-exports (PEP 562).

A package ``__init__`` that re-exports names from its submodules binds
them on first access instead of at import, so importing one layer does
not compile the layers beside it::

    _EXPORTS = {"run_mpi": "process_api", ...}
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, globals())
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, List, Tuple


def lazy_exports(package: str, exports: Dict[str, str],
                 namespace: Dict[str, Any],
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps each lazy public name to the submodule (relative
    to ``package``) that defines it; a resolved name is bound in
    ``namespace``, the package's ``globals()``, so it is looked up once.
    """

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(
            import_module(f"{package}.{module}"), name)
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__
