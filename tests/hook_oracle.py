"""The hook-driven tree builds: the independent oracle of every replay.

Before the builds charged from their :class:`~repro.octree.build.BuildRecord`,
``insert`` took three hooks and charged each event as it happened:

``on_visit(cell)``  -- every cell the insertion descends through;
``on_alloc(cell)``  -- every cell it creates (``upc_alloc``);
``on_modify(cell)`` -- every child-slot write (under the cell's
                       ``upc_lock``),

with ``seq_counter`` numbering the created cells.  This module keeps that
code: :func:`hook_insert` is that ``insert``, :func:`treebuild_with_hooks`
the baseline's hook-driven build (``VariantBase._build_with_hooks`` and
its phase), and :func:`merge_treebuild_with_hooks` the section-5.4 local
builds and merge as they charged through hooks.  Locks are kept by ``id``
of their cell, as the hooks kept them.  ``bh_build_replay``, its Python
mirror and the record-driven merge must charge exactly what these do.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.build_replay import lock_stats
from repro.core.variants.base import (
    ATOMIC_COFM_WORDS,
    BODY_POS_WORDS,
    CELL_COMPUTE,
    CELL_VISIT_WORDS,
    _round_robin,
)
from repro.octree.build import BuildRecord, new_root
from repro.octree.cell import MAX_DEPTH, Cell, Leaf
from repro.upc.locks import UpcLock

Hook = Optional[Callable[[Cell], None]]


def hook_insert(root: Cell, idx: int, positions: np.ndarray, home: int = 0,
                on_visit: Hook = None, on_alloc: Hook = None,
                on_modify: Hook = None, seq_counter: Optional[list] = None,
                record: Optional[BuildRecord] = None) -> int:
    """Insert body ``idx``, firing the hooks; returns the number of cells
    visited.  The same tree, cell numbering and record as ``insert``."""
    px, py, pz = positions[idx].tolist()
    cur = root
    depth = 0
    while True:
        if on_visit is not None:
            on_visit(cur)
        cx, cy, cz = cur.center
        oct_idx = ((1 if px > cx else 0) | (2 if py > cy else 0)
                   | (4 if pz > cz else 0))
        children = cur.children
        slot = children[oct_idx]
        if slot is None:
            if on_modify is not None:
                on_modify(cur)
            children[oct_idx] = Leaf(idx)
            if record is not None:
                record.pending += (cur.seq, oct_idx, idx)
            return depth + 1
        if isinstance(slot, Leaf):
            if depth >= MAX_DEPTH:
                if on_modify is not None:
                    on_modify(cur)
                slot.indices.append(idx)
                if record is not None:
                    record.pending += (cur.seq, oct_idx, idx)
                return depth + 1
            q = cur.size / 4.0
            sx = cx + q if oct_idx & 1 else cx - q
            sy = cy + q if oct_idx & 2 else cy - q
            sz = cz + q if oct_idx & 4 else cz - q
            sub = Cell((sx, sy, sz), cur.size / 2.0, home=home)
            if seq_counter is not None:
                sub.seq = seq_counter[0]
                seq_counter[0] += 1
            ox, oy, oz = positions[slot.indices[0]].tolist()
            moved = ((1 if ox > sx else 0) | (2 if oy > sy else 0)
                     | (4 if oz > sz else 0))
            if record is not None:
                sub.seq = seq = len(record.cells)
                record.cells.append(sub)
                record.homes.append(home)
                record.pending += (cur.seq, oct_idx, -2 - seq, seq, moved,
                                  -1)
            if on_alloc is not None:
                on_alloc(sub)
            if on_modify is not None:
                on_modify(cur)
            sub.children[moved] = slot
            children[oct_idx] = sub
            cur = sub
        else:
            cur = slot
        depth += 1


class _Locks:
    """The hooks' build locks, by ``id`` of their cell."""

    def __init__(self) -> None:
        self.by_id: Dict[int, UpcLock] = {}

    def of(self, cell: Cell) -> UpcLock:
        lk = self.by_id.get(id(cell))
        if lk is None:
            lk = self.by_id[id(cell)] = UpcLock(home=cell.home)
        return lk


def treebuild_with_hooks(v) -> List[Optional[UpcLock]]:
    """The baseline's ``phase_treebuild`` (``VariantBase``), every charge
    made by ``insert``'s hooks.  Returns each cell's lock, by seq (None
    for a cell no write locked)."""
    rt = v.rt
    bodies = v.bodies
    idx_lists = v.assigned_all()
    counts = v.owner_counts()
    for t, idx in enumerate(idx_lists):
        if v.replicate_scalars:
            v.read_shared_scalar(t, 1)
        else:
            v.read_shared_scalar(t, float(len(idx)))
        v.charge_body_words(t, idx, BODY_POS_WORDS, counts[t])
    order, tids = _round_robin(idx_lists)
    v._new_tree()
    seq = [1]
    locks = _Locks()

    def make_hooks(t: int):
        def on_visit(cell: Cell) -> None:
            rt.word_access(t, cell.home, words=CELL_VISIT_WORDS,
                           key="cell_visits")

        def on_alloc(cell: Cell) -> None:
            rt.heap.upc_alloc(t, rt.machine.cell_nbytes, cell)
            rt.charge_compute(t, CELL_COMPUTE)
            rt.count(t, "cells_alloc")

        def on_modify(cell: Cell) -> None:
            lk = locks.of(cell)
            rt.lock(t, lk)
            rt.word_access(t, cell.home, words=1.0, key="cell_writes")
            rt.unlock(t, lk)

        return on_visit, on_alloc, on_modify

    hooks = [make_hooks(t) for t in range(v.P)]
    for i, t in zip(order, tids):
        on_visit, on_alloc, on_modify = hooks[t]
        hook_insert(v.root, i, bodies.pos, home=t, on_visit=on_visit,
                    on_alloc=on_alloc, on_modify=on_modify, seq_counter=seq)
    v.flatten(v.root)
    v.record_treebuild_locks(*lock_stats(locks.by_id.values()))
    cells = sorted(v.root.iter_cells(), key=lambda c: c.seq)
    return [locks.by_id.get(id(c)) for c in cells]


def merge_treebuild_with_hooks(v) -> None:
    """``LocalBuild.phase_treebuild`` (localbuild, async) as it charged
    the section-5.4 merge through ``insert``'s hooks and ``id``-keyed
    locks."""
    rt = v.rt
    bodies = v.bodies
    P = v.P
    v._new_tree()
    local_times = np.zeros(P)
    merge_times = np.zeros(P)
    lroots: List[Cell] = []
    locks = _Locks()

    for t, idx in enumerate(v.assigned_all()):
        start = float(rt.clock[t])
        if v.replicate_scalars:
            v.read_shared_scalar(t, 1)
        v.charge_body_words(t, idx, BODY_POS_WORDS)
        lroot = new_root(v.box, home=t)
        seq = [1]
        visits = 0
        for i in idx.tolist():
            visits += hook_insert(lroot, i, bodies.pos, home=t,
                                  seq_counter=seq)
        allocs = seq[0] - 1
        rt.heap.upc_alloc_count(t, rt.machine.cell_nbytes, allocs)
        rt.charge_compute(
            t,
            visits * CELL_VISIT_WORDS * rt.machine.local_word_cost
            + allocs * CELL_COMPUTE,
        )
        ncells = allocs + 1
        rt.charge_compute(t, ncells * CELL_COMPUTE)
        rt.count(t, "local_cells", ncells)
        lroots.append(lroot)
        local_times[t] = float(rt.clock[t]) - start

    def hook(t: int, g: Cell, oct_idx: int, node) -> None:
        lk = locks.of(g)
        rt.lock(t, lk)
        g.children[oct_idx] = node
        rt.word_access(t, g.home, words=1.0, key="merge_hooks")
        rt.unlock(t, lk)

    def global_insert(t: int, cell: Cell, b: int) -> None:
        def on_visit(c):
            rt.word_access(t, c.home, words=CELL_VISIT_WORDS,
                           key="merge_insert_visits")
            rt.word_access(t, c.home, words=ATOMIC_COFM_WORDS,
                           key="merge_cofm_updates")

        def on_alloc(c):
            rt.heap.upc_alloc(t, rt.machine.cell_nbytes, c)
            rt.charge_compute(t, CELL_COMPUTE)

        def on_modify(c):
            lk = locks.of(c)
            rt.lock(t, lk)
            rt.word_access(t, c.home, words=1.0, key="merge_insert_writes")
            rt.unlock(t, lk)

        hook_insert(cell, b, bodies.pos, home=t, on_visit=on_visit,
                    on_alloc=on_alloc, on_modify=on_modify)

    def insert_local_subtree(t: int, cell: Cell, b: int) -> None:
        seq = [1]
        visits = hook_insert(cell, b, bodies.pos, home=t, seq_counter=seq)
        allocs = seq[0] - 1
        rt.heap.upc_alloc_count(t, rt.machine.cell_nbytes, allocs)
        for _ in range(allocs):
            rt.charge_compute(t, CELL_COMPUTE)
        rt.charge_compute(
            t,
            visits * (CELL_VISIT_WORDS + ATOMIC_COFM_WORDS)
            * rt.machine.local_word_cost,
        )

    def merge_tree(t: int, g: Cell, l: Cell) -> None:
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
                hook(t, g, oct_idx, lch)
            elif isinstance(gch, Cell):
                if isinstance(lch, Cell):
                    merge_tree(t, gch, lch)
                else:
                    for b in lch.indices:
                        global_insert(t, gch, int(b))
            else:
                if isinstance(lch, Cell):
                    hook(t, g, oct_idx, lch)
                    for b in gch.indices:
                        insert_local_subtree(t, lch, int(b))
                else:
                    sub = Cell(g.child_center(oct_idx), g.size / 2.0, home=t)
                    rt.heap.upc_alloc(t, rt.machine.cell_nbytes, sub)
                    rt.charge_compute(t, CELL_COMPUTE)
                    hook(t, g, oct_idx, sub)
                    for b in list(gch.indices) + list(lch.indices):
                        insert_local_subtree(t, sub, int(b))

    for t in range(P):
        start = float(rt.clock[t])
        merge_tree(t, v.root, lroots[t])
        merge_times[t] = float(rt.clock[t]) - start

    v.flatten(v.root)
    v.fill_cofm()
    v.treebuild_subphases.append({"local": local_times, "merge": merge_times})
    v.record_treebuild_locks(*lock_stats(locks.by_id.values()))
