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

``record`` (a :class:`BuildRecord`) keeps the build's structural events
as flat ints, for the compiled flatten ``bh_tree_rows``
(:func:`repro.octree.flat.record_rows`); a recorded build numbers its
cells through the record, across every tree it holds.

The octant test and the child-centre arithmetic run inline on the cells'
float-tuple centres (:mod:`repro.octree.cell`), with the same float ops
as ``Cell.octant_of`` and ``Cell.child_center``.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Callable, List, Optional

import numpy as np

from ..nbody.bbox import RootBox
from .cell import Cell, Leaf, MAX_DEPTH

Hook = Optional[Callable[[Cell], None]]


class BuildRecord:
    """What one or more insertion builds did, in order, as flat ints.

    ``cells[s]`` is the cell of seq ``s`` and ``homes[s]`` its home
    thread.  ``events`` holds three ints per event (``bh_tree_rows`` in
    ``_bh_kernel.c`` reads them):

    * ``(p, o, b)``, ``b >= 0`` -- body ``b`` joins slot ``o`` of cell
      ``p``: a new leaf when the slot is empty, the leaf's bucket
      otherwise;
    * ``(p, o, -2 - s)`` -- cell ``s`` is hooked into slot ``o`` of cell
      ``p``, displacing the leaf that held the slot, if any;
    * ``(s, o, -1)`` -- that displaced leaf moves into slot ``o`` of
      cell ``s``.

    :func:`insert` records its splits and placements; a caller that
    hooks trees or leaves together itself records it with :meth:`add`
    and :meth:`hook`.
    """

    __slots__ = ("events", "cells", "homes")

    def __init__(self) -> None:
        self.events: List[int] = []
        self.cells: List[Cell] = []
        self.homes: List[int] = []

    def add(self, cell: Cell) -> None:
        """Number a cell no recorded insertion created (a root or a
        subtree root) as the next seq."""
        cell.seq = len(self.cells)
        self.cells.append(cell)
        self.homes.append(cell.home)

    def hook(self, parent: Cell, octant: int, node: "Cell | Leaf") -> None:
        """Record ``parent.children[octant] = node`` into an empty slot
        (``node`` a recorded cell or a one-body leaf)."""
        self.events += (parent.seq, octant,
                        -2 - node.seq if isinstance(node, Cell)
                        else node.indices[0])


@contextmanager
def gc_paused():
    """Pause Python's cyclic garbage collector over a tree build (also
    usable as a decorator).

    A build allocates a few objects per cell, and the collector rescans
    the young objects every 700 allocations and the whole growing tree
    every hundredth time; none of it is garbage.  A tree holds no
    reference cycles, so reference counting frees it either way.  The
    collector's state is restored on exit.

    On exit the objects the build made move to the oldest generation
    unscanned (``gc.freeze`` then ``gc.unfreeze``): re-enabled as they
    were, the collector's next young pass would walk the whole new tree
    once.  That is skipped while anything else is frozen, so that no one
    else's frozen objects are thawed.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        if not gc.get_freeze_count():
            gc.freeze()
            gc.unfreeze()
        gc.enable()


def new_root(box: RootBox, home: int = 0) -> Cell:
    """Create an empty root cell from a root box."""
    return Cell(center=tuple(np.asarray(box.center, dtype=np.float64
                                        ).tolist()),
                size=float(box.rsize), home=home)


def insert(root: Cell, idx: int, positions: np.ndarray, home: int = 0,
           on_visit: Hook = None, on_alloc: Hook = None,
           on_modify: Hook = None, seq_counter: Optional[list] = None,
           record: Optional[BuildRecord] = None) -> int:
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
            if record is not None:
                record.events += (cur.seq, oct_idx, idx)
            return depth + 1
        if isinstance(slot, Leaf):
            if depth >= MAX_DEPTH:
                if on_modify is not None:
                    on_modify(cur)
                slot.indices.append(idx)
                if record is not None:
                    record.events += (cur.seq, oct_idx, idx)
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
            ox, oy, oz = positions[slot.indices[0]].tolist()
            moved = ((1 if ox > sx else 0) | (2 if oy > sy else 0)
                     | (4 if oz > sz else 0))
            if record is not None:
                sub.seq = seq = len(record.cells)
                record.cells.append(sub)
                record.homes.append(home)
                record.events += (cur.seq, oct_idx, -2 - seq, seq, moved,
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
