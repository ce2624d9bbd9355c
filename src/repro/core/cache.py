"""Demand-driven cell caching (paper section 5.3).

During force computation the octree is read-only, so each thread caches the
cells it touches.  ``CellCache`` implements both schemes of the paper:

* ``merged=False`` -- listing 1: a *separate local tree*; every child of an
  opened cell is copied into local memory (even children that already live
  on this thread) and child pointers are swizzled to the copies.
* ``merged=True`` -- listing 2: a *merged local tree* with shadow pointers;
  only children with remote affinity are copied (one bulk get each, private
  fields excluded), local children are linked through ``shadowp[]`` for one
  cheap pointer write.

The functional tree is shared by all threads in this simulation, so the
cache tracks localization state and charges costs instead of physically
copying; the cell values a thread reads are bit-identical either way, which
is precisely the property that makes read-only caching safe (no coherence
protocol needed -- section 5.3's core observation).
"""

from __future__ import annotations

from typing import Set

import numpy as np

from ..octree.cell import Cell, Leaf
from ..upc.runtime import UpcRuntime


class CellCache:
    """Per-thread, per-force-phase cache of octree cells."""

    def __init__(self, rt: UpcRuntime, tid: int, store: np.ndarray,
                 merged: bool):
        self.rt = rt
        self.tid = tid
        self.store = store
        self.merged = merged
        self._localized: Set[int] = set()
        #: remote cells/bodies fetched (one bulk get each)
        self.misses = 0
        #: local cells copied anyway (separate-tree scheme only)
        self.local_copies = 0
        #: opens satisfied from cache
        self.hits = 0

    def localize_root(self, root: Cell) -> None:
        """Make L_root, the local copy of the global root (listing 1)."""
        rt = self.rt
        if root.home != self.tid:
            rt.memget(self.tid, root.home, rt.machine.cell_nbytes,
                      key="cache_fetch")
            self.misses += 1
        elif not self.merged:
            rt.memget(self.tid, self.tid, rt.machine.cell_nbytes,
                      key="cache_local_copy")
            self.local_copies += 1

    def is_localized(self, cell: Cell) -> bool:
        return id(cell) in self._localized

    def ensure_children(self, cell: Cell) -> None:
        """Fetch/copy all children of ``cell`` on first open (the
        ``Localized`` flag test of listings 1 and 2)."""
        if id(cell) in self._localized:
            self.hits += 1
            return
        rt = self.rt
        tid = self.tid
        m = rt.machine
        copies = 0  # cells fetched or copied: one upc_alloc each
        for ch in cell.children:
            if ch is None:
                continue
            if isinstance(ch, Leaf):
                for b in ch.indices:
                    owner = int(self.store[b])
                    if owner != tid:
                        rt.memget(tid, owner, m.body_nbytes,
                                  key="cache_fetch")
                        self.misses += 1
                    elif not self.merged:
                        rt.memget(tid, tid, m.body_nbytes,
                                  key="cache_local_copy")
                        self.local_copies += 1
                    else:
                        rt.charge_compute(tid, m.local_word_cost)
                continue
            if ch.home != tid:
                rt.memget(tid, ch.home, m.cell_nbytes, key="cache_fetch")
                copies += 1
                self.misses += 1
            elif self.merged:
                # upc_threadof(ch) == MYTHREAD: shadowp[i] = ch
                rt.charge_compute(tid, m.local_word_cost)
            else:
                rt.memget(tid, tid, m.cell_nbytes, key="cache_local_copy")
                copies += 1
                self.local_copies += 1
        if copies:
            # the copies' pointers are never kept: book the totals only
            rt.heap.upc_alloc_count(tid, m.cell_nbytes, copies)
        self._localized.add(id(cell))

    @property
    def localized_count(self) -> int:
        return len(self._localized)
