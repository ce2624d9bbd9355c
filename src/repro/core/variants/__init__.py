"""Barnes-Hut optimization-level variants (paper sections 4-6)."""

from .async_agg import AsyncAgg
from .base import Baseline, VariantBase
from .cache_merged import CacheMerged
from .cache_tree import CacheTree
from .local_build import LocalBuild
from .redistribute import Redistribute
from .registry import LADDER_SECTIONS, OPT_LADDER, VARIANTS, get_variant
from .replicate import Replicate
from .subspace import Subspace

__all__ = [
    "AsyncAgg",
    "Baseline",
    "CacheMerged",
    "CacheTree",
    "LADDER_SECTIONS",
    "LocalBuild",
    "OPT_LADDER",
    "Redistribute",
    "Replicate",
    "Subspace",
    "VARIANTS",
    "VariantBase",
    "get_variant",
]
