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

from ..octree.flat import EMPTY, TreeRows, decode_leaf
from ..upc.runtime import UpcRuntime


class CellCache:
    """Per-thread, per-force-phase cache of the cells of one tree, read
    from its :class:`~repro.octree.flat.TreeRows` ``rows``: a cell is a
    row, its children the row's ``child`` slots, a child cell's affinity
    its ``home`` and a leaf's bodies its ``leaf_bodies`` span, stored
    where ``store`` says."""

    def __init__(self, rt: UpcRuntime, tid: int, store: np.ndarray,
                 merged: bool, rows: TreeRows):
        self.rt = rt
        self.tid = tid
        self.merged = merged
        self.child = rows.child
        self.home = rows.home.tolist()
        self.leaf_ptr = rows.leaf_ptr.tolist()
        #: the thread that stores each leaf body, aligned with leaf_bodies
        self.leaf_owner = store[rows.leaf_bodies].tolist()
        self._localized: Set[int] = set()
        #: remote cells/bodies fetched (one bulk get each)
        self.misses = 0
        #: local cells copied anyway (separate-tree scheme only)
        self.local_copies = 0
        #: opens satisfied from cache
        self.hits = 0

    def localize_root(self) -> None:
        """Make L_root, the local copy of the global root (row 0,
        listing 1)."""
        rt = self.rt
        home = self.home[0]
        if home != self.tid:
            rt.memget(self.tid, home, rt.machine.cell_nbytes,
                      key="cache_fetch")
            self.misses += 1
        elif not self.merged:
            rt.memget(self.tid, self.tid, rt.machine.cell_nbytes,
                      key="cache_local_copy")
            self.local_copies += 1

    def ensure_children(self, row: int) -> None:
        """Fetch/copy all children of the cell of ``row`` on first open
        (the ``Localized`` flag test of listings 1 and 2)."""
        if row in self._localized:
            self.hits += 1
            return
        rt = self.rt
        tid = self.tid
        m = rt.machine
        copies = 0  # cells fetched or copied: one upc_alloc each
        for code in self.child[row].tolist():
            if code == EMPTY:
                continue
            if code < 0:
                leaf = decode_leaf(code)
                for owner in self.leaf_owner[self.leaf_ptr[leaf]:
                                             self.leaf_ptr[leaf + 1]]:
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
            home = self.home[code]
            if home != tid:
                rt.memget(tid, home, m.cell_nbytes, key="cache_fetch")
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
        self._localized.add(row)

    @property
    def localized_count(self) -> int:
        return len(self._localized)
