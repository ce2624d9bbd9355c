"""Standalone force backends.

No variant calls these: every variant's force phase is the UPC-metered
object-tree walk.  The engines are test oracles and standalone force
evaluators.  See ``README.md`` in this directory for the layout of the
flat engine and how to add a backend.
"""

from .base import ForceBackend, ForceResult
from .compiled import CompiledFlatBackend
from .direct import DirectBackend
from .flat import FlatBackend
from .object_tree import ObjectTreeBackend
from .registry import (
    BACKENDS,
    DEFAULT_BACKEND,
    backend_names,
    get_backend,
    make_backend,
)

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "CompiledFlatBackend",
    "DirectBackend",
    "FlatBackend",
    "ForceBackend",
    "ForceResult",
    "ObjectTreeBackend",
    "backend_names",
    "get_backend",
    "make_backend",
]
