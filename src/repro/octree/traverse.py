"""Vectorized Barnes-Hut force traversal with pluggable cost policies.

This is the reproduction's equivalent of SPLASH-2's per-body ``hackgrav``
recursion.  Instead of recursing once per body, the engine walks the tree
once per *group* of bodies (one UPC thread's partition), carrying the set of
bodies still "active" at each node; the opening criterion is evaluated
vectorized, so the per-body interaction sets -- and therefore every force --
are identical to the scalar recursion, while Python-level work scales with
the number of visited nodes rather than interactions.

The simulation's object-tree force phase no longer calls this engine
directly: :mod:`repro.backends.object_tree` serves it with a compiled
per-body walk that is bit-identical to this recursion (same pop order,
same float expressions) and charges the UPC accounting from per-cell open
counts.  This function remains the oracle for that walk and its path on a
box without a C compiler, where a ``TraversalPolicy`` records the open
counts.  The ``TraversalPolicy`` hooks report every per-node aggregate
(tests, accepts, opens, leaf visits); the tests use them as the oracle
for the variants' accounting.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..nbody.constants import G
from .cell import Cell, Leaf


class TraversalPolicy:
    """Cost/caching hooks; the default is a free shared-memory machine."""

    def children_of(self, cell: Cell) -> list:
        """Children used to continue the traversal (may swizzle/copy)."""
        return cell.children

    def on_test(self, cell: Cell, n_active: int) -> None:
        """Opening test evaluated against ``cell`` for ``n_active`` bodies."""

    def on_accept(self, cell: Cell, n_far: int) -> None:
        """``cell`` used whole for ``n_far`` bodies."""

    def on_open(self, cell: Cell, n_near: int) -> None:
        """``cell`` opened for ``n_near`` bodies."""

    def on_leaf(self, leaf: Leaf, n_active: int) -> None:
        """Body-body interactions of a leaf with ``n_active`` bodies."""


def gravity_traversal(
    root: Cell,
    body_idx: np.ndarray,
    positions: np.ndarray,
    masses: np.ndarray,
    theta: float,
    eps: float,
    policy: Optional[TraversalPolicy] = None,
    open_self_cells: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Accelerations and interaction counts for the bodies in ``body_idx``.

    ``open_self_cells=True`` additionally opens any cell that geometrically
    contains the body even if the theta test passes (slightly more accurate
    than SPLASH-2's plain distance test; off by default for fidelity).

    Returns ``(acc, work)`` with shapes (k, 3) and (k,).
    """
    if policy is None:
        policy = TraversalPolicy()
    k = len(body_idx)
    acc = np.zeros((k, 3), dtype=np.float64)
    work = np.zeros(k, dtype=np.float64)
    if k == 0 or root is None:
        return acc, work
    pos = positions[body_idx]
    ids = np.asarray(body_idx, dtype=np.int64)
    eps_sq = eps * eps
    theta_sq = theta * theta
    all_active = np.arange(k, dtype=np.int64)
    stack: List[Tuple[object, np.ndarray]] = [(root, all_active)]

    while stack:
        node, active = stack.pop()
        n_active = len(active)
        if isinstance(node, Leaf):
            policy.on_leaf(node, n_active)
            p_act = pos[active]
            for b in node.indices:
                d = positions[b] - p_act
                dsq = np.einsum("ij,ij->i", d, d) + eps_sq
                inv = (G * masses[b]) / (dsq * np.sqrt(dsq))
                notself = ids[active] != b
                inv *= notself
                acc[active] += d * inv[:, None]
                work[active] += notself
            continue

        cell = node
        policy.on_test(cell, n_active)
        d = cell.cofm - pos[active]
        dsq = np.einsum("ij,ij->i", d, d)
        far = (cell.size * cell.size) < theta_sq * dsq
        if open_self_cells and far.any():
            half = cell.size / 2.0
            inside = np.all(
                np.abs(pos[active] - cell.center) <= half, axis=1
            )
            far &= ~inside
        n_far = int(far.sum())
        if n_far:
            sel = active[far]
            dd = d[far]
            dq = dsq[far] + eps_sq
            inv = (G * cell.mass) / (dq * np.sqrt(dq))
            acc[sel] += dd * inv[:, None]
            work[sel] += 1.0
            policy.on_accept(cell, n_far)
        if n_far < n_active:
            near = active if n_far == 0 else active[~far]
            policy.on_open(cell, len(near))
            for ch in policy.children_of(cell):
                if ch is not None:
                    stack.append((ch, near))

    return acc, work
