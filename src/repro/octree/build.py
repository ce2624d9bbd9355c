"""Insertion-based octree construction (SPLASH-2 ``loadtree``).

Bodies are inserted one at a time, splitting leaf slots into sub-cells until
every body sits alone (or MAX_DEPTH is hit, where the leaf degrades to a
bucket).  Callers that need communication accounting pass hooks:

``on_visit(cell)``  -- invoked for every cell the insertion descends through
                       (the baseline charges remote field reads here);
``on_alloc(cell)``  -- invoked when a new cell is created (``upc_alloc``);
``on_modify(cell)`` -- invoked when a child slot of ``cell`` is written
                       (the baseline wraps this in a upc_lock).

``seq_counter`` (a one-element list) numbers created cells: each takes its
value as ``Cell.seq`` and increments it, so its growth is the number of
cells an insertion allocated.  ``insert`` returns the number of cells it
visited (the ``on_visit`` calls it made or would have made), so a caller
that only counts needs no hook at all.

The octant test and the child-centre arithmetic run inline on the cells'
float-tuple centres (:mod:`repro.octree.cell`), with the same float ops
as ``Cell.octant_of`` and ``Cell.child_center``.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Callable, Optional

import numpy as np

from ..nbody.bbox import RootBox
from .cell import Cell, Leaf, MAX_DEPTH

Hook = Optional[Callable[[Cell], None]]


@contextmanager
def gc_paused():
    """Pause Python's cyclic garbage collector over a tree build (also
    usable as a decorator).

    A build allocates a few objects per cell, and the collector rescans
    the young objects every 700 allocations and the whole growing tree
    every hundredth time; none of it is garbage.  A tree holds no
    reference cycles, so reference counting frees it either way.  The
    collector's state is restored on exit.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def new_root(box: RootBox, home: int = 0) -> Cell:
    """Create an empty root cell from a root box."""
    return Cell(center=tuple(np.asarray(box.center, dtype=np.float64
                                        ).tolist()),
                size=float(box.rsize), home=home)


def insert(root: Cell, idx: int, positions: np.ndarray, home: int = 0,
           on_visit: Hook = None, on_alloc: Hook = None,
           on_modify: Hook = None, seq_counter: Optional[list] = None) -> int:
    """Insert body ``idx`` (position looked up in ``positions``); returns
    the number of cells visited."""
    # one read as Python floats: the octant tests compare the same values
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
            return depth + 1
        if isinstance(slot, Leaf):
            if depth >= MAX_DEPTH:
                if on_modify is not None:
                    on_modify(cur)
                slot.indices.append(idx)
                return depth + 1
            # Cell.child_center, inline
            q = cur.size / 4.0
            sx = cx + q if oct_idx & 1 else cx - q
            sy = cy + q if oct_idx & 2 else cy - q
            sz = cz + q if oct_idx & 4 else cz - q
            sub = Cell((sx, sy, sz), cur.size / 2.0, home=home)
            if seq_counter is not None:
                sub.seq = seq_counter[0]
                seq_counter[0] += 1
            if on_alloc is not None:
                on_alloc(sub)
            if on_modify is not None:
                on_modify(cur)
            ox, oy, oz = positions[slot.indices[0]].tolist()
            sub.children[(1 if ox > sx else 0) | (2 if oy > sy else 0)
                         | (4 if oz > sz else 0)] = slot
            children[oct_idx] = sub
            cur = sub
        else:
            cur = slot
        depth += 1


@gc_paused()
def build_tree(positions: np.ndarray, box: RootBox, indices=None,
               home: int = 0, **hooks) -> Cell:
    """Build a complete octree over ``indices`` (default: all bodies)."""
    root = new_root(box, home=home)
    if indices is None:
        indices = range(len(positions))
    for idx in indices:
        insert(root, int(idx), positions, home=home, **hooks)
    return root
