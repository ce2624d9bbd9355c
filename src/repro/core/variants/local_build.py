"""L4 -- local tree build + merge (paper section 5.4).

Each thread first builds a *local* octree over its own bodies -- a purely
sequential, lock-free procedure on local memory (global pointers cast to
local) -- and computes local centers of mass.  Threads then merge their
local trees into the global tree; wherever two cells collide the (mass,
cofm) pair is merged with the commutative weighted average, so merges can
happen in any order.

The merge is where the section-6 imbalance story lives: the *winner* of a
subtree slot pays one pointer redirection, while later threads must walk the
winner's subtree with fine-grained remote operations to find their insertion
points.  The per-thread local/merge sub-phase times recorded here feed
figure 8.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ...octree.build import gc_paused, insert, new_root
from ...octree.cell import Cell
# the fields come from VariantBase.fill_cofm; the name stays importable
# here, since bench/layers.py attributes time to it in this module
from ...octree.cofm import compute_cofm  # noqa: F401
from .base import (
    ATOMIC_COFM_WORDS,
    BODY_POS_WORDS,
    CELL_COMPUTE,
    CELL_VISIT_WORDS,
)
from .cache_tree import CacheTree


class LocalBuild(CacheTree):
    """L3 + local tree building with global merge."""

    name = "localbuild"
    ladder_level = 4
    local_tree_build = True

    def phase_plan(self):
        # c-of-m is folded into tree building (tables 6+ drop the row)
        from ..phases import FORCE, PARTITION, REDISTRIBUTION, TREEBUILD, ADVANCE

        plan = [
            (TREEBUILD, self.phase_treebuild),
            (PARTITION, self.phase_partition),
        ]
        if self.redistribute_bodies:
            plan.append((REDISTRIBUTION, self.phase_redistribution))
        plan.append((FORCE, self.phase_force))
        plan.append((ADVANCE, self.phase_advance))
        return plan

    # ------------------------------------------------------------------ #
    @gc_paused()
    def phase_treebuild(self) -> None:
        rt = self.rt
        bodies = self.bodies
        P = self.P
        self.root = new_root(self.box, home=0)
        self._locks.clear()
        local_times = np.zeros(P)
        merge_times = np.zeros(P)
        lroots: List[Cell] = []

        # -- sub-phase 1: local builds (balanced, cheap) -------------------
        for t in range(P):
            start = float(rt.clock[t])
            if self.replicate_scalars:
                self.read_shared_scalar(t, 1)
            idx = self.assigned(t)
            self.charge_body_words(t, idx, BODY_POS_WORDS)
            lroot = new_root(self.box, home=t)
            seq = [1]  # numbers the new cells: counts the allocations
            visits = 0
            for i in idx.tolist():
                visits += insert(lroot, i, bodies.pos, home=t,
                                 seq_counter=seq)
            allocs = seq[0] - 1
            rt.heap.upc_alloc_count(t, rt.machine.cell_nbytes, allocs)
            # pointers to local cells are cast local: plain word accesses
            rt.charge_compute(
                t,
                visits * CELL_VISIT_WORDS * rt.machine.local_word_cost
                + allocs * CELL_COMPUTE,
            )
            # local center-of-mass pass: no communication (section 5.4),
            # one combine per cell of the local tree; the merge reads no
            # field, so the fields come from the pass over the merged tree
            ncells = allocs + 1
            rt.charge_compute(t, ncells * CELL_COMPUTE)
            rt.count(t, "local_cells", ncells)
            lroots.append(lroot)
            local_times[t] = float(rt.clock[t]) - start

        # -- sub-phase 2: merge into the global tree ----------------------
        for t in range(P):
            start = float(rt.clock[t])
            self._merge_tree(t, self.root, lroots[t])
            merge_times[t] = float(rt.clock[t]) - start

        # the real code maintains (mass, cofm) atomically during the merge;
        # fill them functionally so downstream phases see exact values
        self.fill_cofm(self.root)
        # the merged tree's cells: the merge drops the local cells it
        # folds into existing global ones
        self.ncells = len(self.tree_rows[0]) if self.tree_rows is not None \
            else self.root.count_cells()
        self.treebuild_subphases.append(
            {"local": local_times, "merge": merge_times}
        )
        self.record_upc_locks()

    # ------------------------------------------------------------------ #
    def _merge_tree(self, t: int, g: Cell, l: Cell) -> None:
        """Merge local cell ``l`` into global cell ``g`` (same region)."""
        rt = self.rt
        # commutative atomic (mass, cofm) merge
        rt.word_access(t, g.home, words=ATOMIC_COFM_WORDS,
                       key="merge_cofm_updates")
        rt.charge_compute(t, CELL_COMPUTE)
        for oct_idx in range(8):
            lch = l.children[oct_idx]
            if lch is None:
                continue
            rt.word_access(t, g.home, words=1.0, key="merge_slot_reads")
            gch = g.children[oct_idx]
            if gch is None:
                self._hook(t, g, oct_idx, lch)
            elif isinstance(gch, Cell):
                if isinstance(lch, Cell):
                    self._merge_tree(t, gch, lch)
                else:
                    for b in lch.indices:
                        self._global_insert(t, gch, int(b))
            else:  # global slot holds a leaf
                if isinstance(lch, Cell):
                    self._hook(t, g, oct_idx, lch)
                    for b in gch.indices:
                        self._insert_local_subtree(t, lch, int(b))
                else:
                    sub = Cell(g.child_center(oct_idx), g.size / 2.0, home=t)
                    rt.heap.upc_alloc(t, rt.machine.cell_nbytes, sub)
                    rt.charge_compute(t, CELL_COMPUTE)
                    self._hook(t, g, oct_idx, sub)
                    for b in list(gch.indices) + list(lch.indices):
                        self._insert_local_subtree(t, sub, int(b))

    def _hook(self, t: int, g: Cell, oct_idx: int, node) -> None:
        """Write one child pointer under a lock (the cheap 'winner' path)."""
        rt = self.rt
        lk = self.lock_of(g)
        rt.lock(t, lk)
        g.children[oct_idx] = node
        rt.word_access(t, g.home, words=1.0, key="merge_hooks")
        rt.unlock(t, lk)

    def _global_insert(self, t: int, cell: Cell, b: int) -> None:
        """Insert one body into a (generally remote) global subtree."""
        rt = self.rt

        def on_visit(c, t=t):
            rt.word_access(t, c.home, words=CELL_VISIT_WORDS,
                           key="merge_insert_visits")
            # maintain (mass, cofm) along the path, atomically
            rt.word_access(t, c.home, words=ATOMIC_COFM_WORDS,
                           key="merge_cofm_updates")

        def on_alloc(c, t=t):
            rt.heap.upc_alloc(t, rt.machine.cell_nbytes, c)
            rt.charge_compute(t, CELL_COMPUTE)

        def on_modify(c, t=t):
            lk = self.lock_of(c)
            rt.lock(t, lk)
            rt.word_access(t, c.home, words=1.0, key="merge_insert_writes")
            rt.unlock(t, lk)

        insert(cell, b, self.bodies.pos, home=t, on_visit=on_visit,
               on_alloc=on_alloc, on_modify=on_modify)

    def _insert_local_subtree(self, t: int, cell: Cell, b: int) -> None:
        """Insert a displaced body into the thread's own hooked subtree."""
        rt = self.rt
        seq = [1]  # numbers the new cells: counts the allocations
        visits = insert(cell, b, self.bodies.pos, home=t, seq_counter=seq)
        allocs = seq[0] - 1
        rt.heap.upc_alloc_count(t, rt.machine.cell_nbytes, allocs)
        # one charge per allocation, in the order the insertion made them
        for _ in range(allocs):
            rt.charge_compute(t, CELL_COMPUTE)
        rt.charge_compute(
            t,
            visits * (CELL_VISIT_WORDS + ATOMIC_COFM_WORDS)
            * rt.machine.local_word_cost,
        )
