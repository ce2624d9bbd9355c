"""Pluggable force backends.

Selecting an engine is orthogonal to selecting an optimization-ladder
variant: the variant decides *how the simulated UPC program communicates*,
the backend decides *which engine computes the accelerations*.  See
``README.md`` in this directory for the layout of the flat engine and how
to add a backend.
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
