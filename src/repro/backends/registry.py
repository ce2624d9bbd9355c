"""Force-backend registry (mirrors :mod:`repro.core.variants.registry`)."""

from __future__ import annotations

from typing import Any, Dict, List, Type

from .base import ForceBackend
from .compiled import CompiledFlatBackend
from .direct import DirectBackend
from .flat import FlatBackend
from .object_tree import ObjectTreeBackend

#: every selectable backend, by registry name.  The compiled flat
#: engine is *always* registered: on a box with no C toolchain its
#: constructor keeps the kernel handle None and the instance serves the
#: numpy ``flat`` engine, after the kernel loader's single
#: RuntimeWarning -- selecting it is never an error.
BACKENDS: Dict[str, Type[ForceBackend]] = {
    cls.name: cls
    for cls in (
        ObjectTreeBackend,
        FlatBackend,
        CompiledFlatBackend,
        DirectBackend,
    )
}

#: the default used by :class:`repro.core.config.BHConfig`
DEFAULT_BACKEND = ObjectTreeBackend.name


def backend_names() -> List[str]:
    return sorted(BACKENDS)


def get_backend(name: str) -> Type[ForceBackend]:
    try:
        return BACKENDS[name]
    except KeyError:
        raise KeyError(
            f"unknown force backend {name!r}; choose from {sorted(BACKENDS)}"
        ) from None


def make_backend(name: str, cfg: Any, tracer: Any = None) -> ForceBackend:
    """Instantiate a backend for one simulation's configuration.

    ``tracer`` is an optional :class:`repro.obs.trace.Tracer` for per-call
    spans; the ambient tracer is used when omitted.
    """
    return get_backend(name)(cfg, tracer=tracer)
