"""L3 -- cache remote cells with a separate local tree (section 5.3.1).

The force traversal now runs over each thread's demand-built local copy of
the octree: the first open of a cell fetches all its children (one bulk get
per remote child) and swizzles pointers; every later touch is a plain local
pointer dereference.  This is the single largest win in the paper (99%
force-time reduction at scale) -- and even the 1-thread run speeds up ~25%
because global pointers are replaced by local ones.
"""

from __future__ import annotations

from ..cache import CellCache
from .redistribute import Redistribute


class CacheTree(Redistribute):
    """L2 + separate-local-tree caching."""

    name = "cache"
    ladder_level = 3
    cache_mode = "separate"

    def charge_force_walk(self, tid, tree, opens, k) -> None:
        """Replay the walk's first opens through a :class:`CellCache`
        (one bulk get per remote child on first open), then charge the
        now-local cell and body reads as local words."""
        rt = self.rt
        cache = CellCache(rt, tid, self.bodies.store,
                          merged=self.cache_mode == "merged")
        cache.localize_root(self.root)
        for cell in tree.open_order(opens):
            cache.ensure_children(cell)
        rt.charge_compute(tid, self.local_force_words(tree, opens, k)
                          * rt.machine.local_word_cost)
        rt.count(tid, "cache_misses", cache.misses)
        rt.count(tid, "cache_hits", cache.hits)
        rt.count(tid, "cache_local_copies", cache.local_copies)
