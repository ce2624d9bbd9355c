"""Bottom-up center-of-mass computation.

``compute_cofm`` is the sequential pass over a linked tree: the oracle of
the compiled ``bh_cofm_rows``, and the pass of ``mpi-let``'s local trees
and of a box without the kernel.  The baseline's done-flag c-of-m phase
lives in the variant code (:mod:`repro.core.variants.base`); the
section-5.4 merge charges its atomic (mass, cofm) updates but leaves the
fields to one pass over the merged tree.
"""

from __future__ import annotations

from typing import Callable, Container, Optional

import numpy as np

from .cell import Cell, Leaf


def compute_cofm(root: Cell, positions: np.ndarray, masses: np.ndarray,
                 costs: Optional[np.ndarray] = None,
                 on_cell: Optional[Callable[[Cell], None]] = None,
                 done: Container[Cell] = ()) -> None:
    """Fill ``mass``, ``cofm``, ``nbodies`` (and ``cost``) for every cell.

    Iterative post-order traversal; ``on_cell`` fires once per finished
    cell (used by variants to charge per-cell computation).  Cells in
    ``done`` already hold their fields: they are read, and their subtrees
    are not walked again.

    The sums run on Python floats, component by component, in the order
    of the numpy 3-vector updates they stand for (``cofm += m * pos``),
    so every field comes out with the same bits.
    """
    # post-order via two stacks
    stack = [root]
    order = []
    while stack:
        c = stack.pop()
        order.append(c)
        for ch in c.children:
            if isinstance(ch, Cell) and ch not in done:
                stack.append(ch)
    pos = positions.item
    mass_of = masses.item
    cost_of = None if costs is None else costs.item
    for c in reversed(order):
        mass = 0.0
        x = y = z = 0.0
        nbodies = 0
        cost = 0.0
        for ch in c.children:
            if ch is None:
                continue
            if isinstance(ch, Leaf):
                for idx in ch.indices:
                    m = mass_of(idx)
                    mass += m
                    x += m * pos(idx, 0)
                    y += m * pos(idx, 1)
                    z += m * pos(idx, 2)
                    nbodies += 1
                    if cost_of is not None:
                        cost += cost_of(idx)
            else:
                m = ch.mass
                mass += m
                cx, cy, cz = ch.cofm.tolist()
                x += m * cx
                y += m * cy
                z += m * cz
                nbodies += ch.nbodies
                cost += ch.cost
        c.mass = mass
        c.cofm = np.array((x / mass, y / mass, z / mass) if mass > 0
                          else c.center)
        c.nbodies = nbodies
        c.cost = cost
        if on_cell is not None:
            on_cell(c)

