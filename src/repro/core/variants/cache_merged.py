"""L3b -- merged local tree with shadow pointers (section 5.3.2).

Avoids the superfluous local copies of the separate-tree scheme by linking
cells that already have local affinity through ``shadowp[]``; only remote
cells are copied, and private fields (``Localized``, ``shadowp``) are not
transferred.  The paper found "little performance improvement" over the
separate tree -- it saves local copying but not global communication -- and
our ablation bench confirms the same shape.
"""

from __future__ import annotations

from .cache_tree import CacheTree


class CacheMerged(CacheTree):
    """L2 + merged-local-tree (shadow pointer) caching."""

    name = "cache-merged"
    ladder_level = 3  # alternative at the same ladder position
    cache_mode = "merged"
