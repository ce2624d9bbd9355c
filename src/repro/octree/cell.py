"""Octree node types.

``Cell`` mirrors the SPLASH-2 cell struct the paper manipulates: eight child
slots (``subp[]``), mass and center of mass, plus the fields the
optimizations add -- ``home`` (the UPC thread whose shared memory holds the
cell) and ``cost`` for costzones/subspace partitioning.

``Leaf`` stands for a body stored in a child slot (SPLASH-2 stores body
pointers directly).  A leaf normally holds one body; when bodies coincide
beyond the maximum subdivision depth it degrades to a small bucket instead
of recursing forever.

A cell's geometric ``center`` is a tuple of three Python floats: the
insertion build compares positions against it and derives child centres
from it on every visit, without building an array per cell.  The float
ops give the same bits as numpy's ``center + off`` (``cx - q`` is
``cx + (-q)``), which ``repro.octree.morton_build`` relies on.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

#: number of children of an octree cell
NSUB = 8

#: Subdivision guard for (nearly) coincident bodies.  At depth 30 a cell is
#: ~1e-9 of the root size -- far above accumulated float64 center drift, so
#: geometry invariants hold, while genuinely separated bodies never get
#: this deep; anything closer shares a small bucket leaf.
MAX_DEPTH = 30

#: a cell's centre: three Python floats
Center = Tuple[float, float, float]

#: ``cofm`` of a cell whose c-of-m pass has not run (shared, read-only:
#: every pass assigns a new array)
_NO_COFM = np.zeros(3, dtype=np.float64)
_NO_COFM.flags.writeable = False


class Leaf:
    """A child slot holding one (rarely more) body."""

    __slots__ = ("indices",)

    def __init__(self, index: int):
        self.indices: List[int] = [index]

    def __repr__(self) -> str:  # pragma: no cover
        return f"Leaf({self.indices})"


class Cell:
    """One octree cell."""

    __slots__ = (
        "center", "size", "children", "home", "mass", "cofm", "cost",
        "nbodies", "seq",
    )

    def __init__(self, center: Center, size: float, home: int = 0):
        self.center = center
        self.size = size
        self.children: List[Optional[Union["Cell", Leaf]]] = [None] * NSUB
        self.home = home
        self.mass = 0.0
        self.cofm = _NO_COFM
        self.cost = 0.0
        self.nbodies = 0
        #: creation sequence number across one build record (the root
        #: is 0): indexes the record's cells, and orders the baseline's
        #: mycelltab, which the run_waiting c-of-m phase walks in reverse
        self.seq = 0

    # -- geometry -----------------------------------------------------------
    def octant_of(self, p) -> int:
        """Child slot index for a position (SPLASH-2 ``subindex``)."""
        cx, cy, cz = self.center
        return (
            (1 if p[0] > cx else 0)
            | (2 if p[1] > cy else 0)
            | (4 if p[2] > cz else 0)
        )

    def child_center(self, oct_idx: int) -> Center:
        """Centre of child slot ``oct_idx``: ``center +- size / 4`` per
        axis (:func:`repro.octree.build.insert` inlines the same ops)."""
        cx, cy, cz = self.center
        q = self.size / 4.0
        return (cx + q if oct_idx & 1 else cx - q,
                cy + q if oct_idx & 2 else cy - q,
                cz + q if oct_idx & 4 else cz - q)

    def iter_cells(self):
        """Yield this cell and every descendant cell (pre-order)."""
        stack = [self]
        while stack:
            c = stack.pop()
            yield c
            for ch in c.children:
                if isinstance(ch, Cell):
                    stack.append(ch)

    def iter_leaves(self):
        """Yield every Leaf under this cell."""
        stack = [self]
        while stack:
            c = stack.pop()
            for ch in c.children:
                if isinstance(ch, Cell):
                    stack.append(ch)
                elif isinstance(ch, Leaf):
                    yield ch

    def count_cells(self) -> int:
        return sum(1 for _ in self.iter_cells())

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"Cell(center={list(self.center)}, size={self.size}, "
            f"home={self.home}, n={self.nbodies})"
        )
