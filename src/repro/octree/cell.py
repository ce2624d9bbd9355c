"""Octree node types.

``Cell`` mirrors the SPLASH-2 cell struct the paper manipulates: eight child
slots (``subp[]``), mass and center of mass, plus the fields the
optimizations add -- ``home`` (the UPC thread whose shared memory holds the
cell), ``localized``/``shadow`` for the caching schemes of section 5.3, and
``cost`` for costzones/subspace partitioning.

``Leaf`` stands for a body stored in a child slot (SPLASH-2 stores body
pointers directly).  A leaf normally holds one body; when bodies coincide
beyond the maximum subdivision depth it degrades to a small bucket instead
of recursing forever.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

#: number of children of an octree cell
NSUB = 8

#: Subdivision guard for (nearly) coincident bodies.  At depth 30 a cell is
#: ~1e-9 of the root size -- far above accumulated float64 center drift, so
#: geometry invariants hold, while genuinely separated bodies never get
#: this deep; anything closer shares a small bucket leaf.
MAX_DEPTH = 30


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
        "localized", "shadow", "nbodies", "seq",
    )

    def __init__(self, center: np.ndarray, size: float, home: int = 0):
        self.center = center
        self.size = size
        self.children: List[Optional[Union["Cell", Leaf]]] = [None] * NSUB
        self.home = home
        self.mass = 0.0
        self.cofm = np.zeros(3, dtype=np.float64)
        self.cost = 0.0
        #: section 5.3: True when all children are cached on this thread
        self.localized = False
        #: section 5.3.2: shadow child pointers (merged local tree)
        self.shadow: Optional[list] = None
        self.nbodies = 0
        #: creation sequence number (per home thread) -- the baseline's
        #: mycelltab ordering that the c-of-m phase walks in reverse.
        self.seq = 0

    # -- geometry -----------------------------------------------------------
    def octant_of(self, p: np.ndarray) -> int:
        """Child slot index for a position (SPLASH-2 ``subindex``)."""
        cx, cy, cz = self.center.tolist()
        return (
            (1 if p[0] > cx else 0)
            | (2 if p[1] > cy else 0)
            | (4 if p[2] > cz else 0)
        )

    def child_center(self, oct_idx: int) -> np.ndarray:
        q = self.size / 4.0
        off = np.array(
            [
                q if (oct_idx & 1) else -q,
                q if (oct_idx & 2) else -q,
                q if (oct_idx & 4) else -q,
            ],
            dtype=np.float64,
        )
        return self.center + off

    def contains(self, p: np.ndarray) -> bool:
        half = self.size / 2.0 * (1.0 + 1e-12)
        return bool(np.all(np.abs(p - self.center) <= half))

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
            f"Cell(center={self.center.tolist()}, size={self.size}, "
            f"home={self.home}, n={self.nbodies})"
        )
