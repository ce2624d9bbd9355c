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
value as ``Cell.seq`` and increments it.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..nbody.bbox import RootBox
from .cell import Cell, Leaf, MAX_DEPTH

Hook = Optional[Callable[[Cell], None]]


def new_root(box: RootBox, home: int = 0) -> Cell:
    """Create an empty root cell from a root box."""
    return Cell(center=np.asarray(box.center, dtype=np.float64),
                size=float(box.rsize), home=home)


def insert(root: Cell, idx: int, positions: np.ndarray, home: int = 0,
           on_visit: Hook = None, on_alloc: Hook = None,
           on_modify: Hook = None, seq_counter: Optional[list] = None) -> None:
    """Insert body ``idx`` (position looked up in ``positions``)."""
    # one read as Python floats: the octant tests compare the same values
    pos = positions[idx].tolist()
    cur = root
    depth = 0
    while True:
        if on_visit is not None:
            on_visit(cur)
        oct_idx = cur.octant_of(pos)
        slot = cur.children[oct_idx]
        if slot is None:
            if on_modify is not None:
                on_modify(cur)
            cur.children[oct_idx] = Leaf(idx)
            return
        if isinstance(slot, Leaf):
            if depth >= MAX_DEPTH:
                if on_modify is not None:
                    on_modify(cur)
                slot.indices.append(idx)
                return
            sub = Cell(cur.child_center(oct_idx), cur.size / 2.0, home=home)
            if seq_counter is not None:
                sub.seq = seq_counter[0]
                seq_counter[0] += 1
            if on_alloc is not None:
                on_alloc(sub)
            if on_modify is not None:
                on_modify(cur)
            old_oct = sub.octant_of(positions[slot.indices[0]].tolist())
            sub.children[old_oct] = slot
            cur.children[oct_idx] = sub
            cur = sub
            depth += 1
            continue
        cur = slot
        depth += 1


def build_tree(positions: np.ndarray, box: RootBox, indices=None,
               home: int = 0, **hooks) -> Cell:
    """Build a complete octree over ``indices`` (default: all bodies)."""
    root = new_root(box, home=home)
    if indices is None:
        indices = range(len(positions))
    for idx in indices:
        insert(root, int(idx), positions, home=home, **hooks)
    return root
