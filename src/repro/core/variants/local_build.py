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

from typing import Dict, List

import numpy as np

from ...octree.build import BuildRecord, gc_paused, insert, new_root
from ...octree.cell import Cell
# the fields come from VariantBase.fill_cofm; the name stays importable
# here, since bench/layers.py attributes time to it in this module
from ...octree.cofm import compute_cofm  # noqa: F401
from ...upc.locks import UpcLock
from ..build_replay import lock_stats, locked_write
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
        self._new_tree()
        local_times = np.zeros(P)
        merge_times = np.zeros(P)
        lroots: List[Cell] = []
        # numbers every cell of the step: the global root, the local
        # trees, the merge's split cells and every insertion's
        record = BuildRecord()
        record.add(self.root)

        # -- sub-phase 1: local builds (balanced, cheap) -------------------
        # every thread's local tree in one batch; the charges follow in
        # thread order
        idx_lists = self.assigned_all()
        for t in range(P):
            lroot = new_root(self.box, home=t)
            record.add(lroot)
            lroots.append(lroot)
        built = insert(list(zip(lroots, idx_lists, range(P))), bodies.pos,
                       record=record)
        self.insert_engine = built.engine
        for t, (idx, visits, allocs) in enumerate(zip(
                idx_lists, built.visits, built.made)):
            start = float(rt.clock[t])
            if self.replicate_scalars:
                self.read_shared_scalar(t, 1)
            self.charge_body_words(t, idx, BODY_POS_WORDS)
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
            local_times[t] = float(rt.clock[t]) - start

        # -- sub-phase 2: merge into the global tree ----------------------
        locks: Dict[int, UpcLock] = {}
        for t in range(P):
            start = float(rt.clock[t])
            self._merge_tree(t, self.root, lroots[t], record, locks)
            merge_times[t] = float(rt.clock[t]) - start

        # the real code maintains (mass, cofm) atomically during the merge;
        # fill them functionally so downstream phases see exact values
        self.flatten(self.root)
        self.fill_cofm()
        self.treebuild_subphases.append(
            {"local": local_times, "merge": merge_times}
        )
        self.record_treebuild_locks(*lock_stats(locks.values()))

    # ------------------------------------------------------------------ #
    def _merge_tree(self, t: int, g: Cell, l: Cell, record: BuildRecord,
                    locks: Dict[int, UpcLock]) -> None:
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
                self._hook(t, g, oct_idx, lch, locks)
            elif isinstance(gch, Cell):
                if isinstance(lch, Cell):
                    self._merge_tree(t, gch, lch, record, locks)
                else:
                    for b in lch.indices:
                        self._global_insert(t, gch, int(b), record, locks)
            else:  # global slot holds a leaf
                if isinstance(lch, Cell):
                    self._hook(t, g, oct_idx, lch, locks)
                    for b in gch.indices:
                        self._insert_local_subtree(t, lch, int(b), record)
                else:
                    sub = Cell(g.child_center(oct_idx), g.size / 2.0, home=t)
                    record.add(sub)
                    rt.heap.upc_alloc(t, rt.machine.cell_nbytes, sub)
                    rt.charge_compute(t, CELL_COMPUTE)
                    self._hook(t, g, oct_idx, sub, locks)
                    for b in list(gch.indices) + list(lch.indices):
                        self._insert_local_subtree(t, sub, int(b), record)

    def _locked_write(self, t: int, cell: Cell, locks: Dict[int, UpcLock],
                      key: str) -> None:
        """One word written to ``cell`` under its lock (``locks[seq]``)."""
        lk = locks.get(cell.seq)
        if lk is None:
            lk = locks[cell.seq] = UpcLock(home=cell.home)
        locked_write(self.rt, t, lk, key)

    def _hook(self, t: int, g: Cell, oct_idx: int, node,
              locks: Dict[int, UpcLock]) -> None:
        """Write one child pointer under a lock (the cheap 'winner' path)."""
        g.children[oct_idx] = node
        self._locked_write(t, g, locks, "merge_hooks")

    def _global_insert(self, t: int, cell: Cell, b: int, record: BuildRecord,
                       locks: Dict[int, UpcLock]) -> None:
        """Insert one body into a (generally remote) global subtree.  It
        visits the cells met descending from ``cell`` by the body's
        octant, and created the last ``made`` of them."""
        rt = self.rt
        made = insert([(cell, [b], t)], self.bodies.pos,
                      record=record).made[0]
        p = self.bodies.pos[b].tolist()
        path = []
        node = cell
        while isinstance(node, Cell):
            path.append(node)
            node = node.children[node.octant_of(p)]
        first_made = len(path) - made
        for k, c in enumerate(path):
            if k >= first_made:
                rt.heap.upc_alloc(t, rt.machine.cell_nbytes, c)
                rt.charge_compute(t, CELL_COMPUTE)
                self._locked_write(t, path[k - 1], locks,
                                   "merge_insert_writes")
            rt.word_access(t, c.home, words=CELL_VISIT_WORDS,
                           key="merge_insert_visits")
            # maintain (mass, cofm) along the path, atomically
            rt.word_access(t, c.home, words=ATOMIC_COFM_WORDS,
                           key="merge_cofm_updates")
        self._locked_write(t, path[-1], locks, "merge_insert_writes")

    def _insert_local_subtree(self, t: int, cell: Cell, b: int,
                              record: BuildRecord) -> None:
        """Insert a displaced body into the thread's own hooked subtree."""
        rt = self.rt
        built = insert([(cell, [b], t)], self.bodies.pos, record=record)
        visits, allocs = built.visits[0], built.made[0]
        rt.heap.upc_alloc_count(t, rt.machine.cell_nbytes, allocs)
        # one charge per allocation, in the order the insertion made them
        for _ in range(allocs):
            rt.charge_compute(t, CELL_COMPUTE)
        rt.charge_compute(
            t,
            visits * (CELL_VISIT_WORDS + ATOMIC_COFM_WORDS)
            * rt.machine.local_word_cost,
        )
