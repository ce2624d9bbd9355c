"""Insertion-based octree construction (SPLASH-2 ``loadtree``).

Bodies are inserted one at a time, splitting leaf slots into sub-cells until
every body sits alone (or MAX_DEPTH is hit, where the leaf degrades to a
bucket).

Every insertion writes into a :class:`BuildRecord`, which numbers the
cells it creates (their ``Cell.seq``) and keeps its splits and placements
as flat ints.  ``insert`` returns the number of cells it visited, and a
build's allocations are the growth of ``len(record.cells)``.  A caller
that charges every event derives the events from the record or from the
insertion's path (:mod:`repro.core.build_replay`); ``bh_tree_rows``
flattens the same record (:func:`repro.octree.flat.record_rows`).

The octant test and the child-centre arithmetic run inline on the cells'
float-tuple centres (:mod:`repro.octree.cell`), with the same float ops
as ``Cell.octant_of`` and ``Cell.child_center``.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import List

import numpy as np

from ..nbody.bbox import RootBox
from .cell import Cell, Leaf, MAX_DEPTH


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
        """Number a cell no recorded insertion created as the next seq:
        a root, a subtree root, or a cell the section-5.4 merge splits
        off itself."""
        cell.seq = len(self.cells)
        self.cells.append(cell)
        self.homes.append(cell.home)

    def event_array(self) -> np.ndarray:
        """``events`` as an (n, 3) int64 array."""
        return np.fromiter(self.events, dtype=np.int64,
                           count=len(self.events)).reshape(-1, 3)

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


def insert(root: Cell, idx: int, positions: np.ndarray, home: int = 0, *,
           record: BuildRecord) -> int:
    """Insert body ``idx`` (position looked up in ``positions``) into the
    tree under ``root``, a cell ``record`` numbers; cells it creates take
    ``home`` and the record's next seqs.  Returns the number of cells
    visited."""
    # one read as Python floats: the octant tests compare the same values
    px, py, pz = positions[idx].tolist()
    cells = record.cells
    events = record.events
    cur = root
    depth = 0
    while True:
        cx, cy, cz = cur.center
        oct_idx = ((1 if px > cx else 0) | (2 if py > cy else 0)
                   | (4 if pz > cz else 0))
        children = cur.children
        slot = children[oct_idx]
        if slot is None:
            children[oct_idx] = Leaf(idx)
            events += (cur.seq, oct_idx, idx)
            return depth + 1
        if isinstance(slot, Leaf):
            if depth >= MAX_DEPTH:
                slot.indices.append(idx)
                events += (cur.seq, oct_idx, idx)
                return depth + 1
            # Cell.child_center, inline
            q = cur.size / 4.0
            sx = cx + q if oct_idx & 1 else cx - q
            sy = cy + q if oct_idx & 2 else cy - q
            sz = cz + q if oct_idx & 4 else cz - q
            sub = Cell((sx, sy, sz), cur.size / 2.0, home=home)
            ox, oy, oz = positions[slot.indices[0]].tolist()
            moved = ((1 if ox > sx else 0) | (2 if oy > sy else 0)
                     | (4 if oz > sz else 0))
            sub.seq = seq = len(cells)
            cells.append(sub)
            record.homes.append(home)
            events += (cur.seq, oct_idx, -2 - seq, seq, moved, -1)
            sub.children[moved] = slot
            children[oct_idx] = sub
            cur = sub
        else:
            cur = slot
        depth += 1


@gc_paused()
def build_tree(positions: np.ndarray, box: RootBox, indices=None,
               home: int = 0) -> Cell:
    """Build a complete octree over ``indices`` (default: all bodies),
    under a record of its own."""
    root = new_root(box, home=home)
    record = BuildRecord()
    record.add(root)
    if indices is None:
        indices = range(len(positions))
    for idx in indices:
        insert(root, int(idx), positions, home, record=record)
    return root
