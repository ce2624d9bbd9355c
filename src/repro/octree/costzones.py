"""Costzones partitioning (Singh, SPLASH-2).

Bodies carry a *cost* (their interaction count from the previous force
phase).  Walking the octree leaves in tree order and cutting the running
cost at multiples of ``total/THREADS`` yields contiguous spatial zones of
roughly equal work -- the "Partitioning" phase row of every table in the
paper (cheap, but essential for load balance and locality).
"""

from __future__ import annotations

import numpy as np


def costzones(order: np.ndarray, costs: np.ndarray,
              nthreads: int) -> np.ndarray:
    """Assign each body to a thread; returns int32 ``assign`` array.

    Bodies are taken in tree ``order`` (a tree flatten's ``order``, as
    :func:`~repro.octree.morton.bodies_in_order` gives it); thread ``t``
    receives the bodies whose running-cost prefix falls in
    ``[t, t+1) * total / nthreads``.
    """
    if nthreads < 1:
        raise ValueError("need at least one thread")
    assign = np.zeros(len(costs), dtype=np.int32)
    if nthreads == 1 or len(order) == 0:
        return assign
    w = np.maximum(costs[order], 0.0)
    total = float(w.sum())
    if total <= 0.0:
        # no cost info: equal-count contiguous chunks
        chunks = np.array_split(order, nthreads)
        for t, chunk in enumerate(chunks):
            assign[chunk] = t
        return assign
    # midpoint rule: a body belongs to the zone containing the middle of
    # its cost interval, so single heavy bodies don't all spill rightward
    cum = np.cumsum(w) - w / 2.0
    zone = np.floor(cum / total * nthreads).astype(np.int32)
    np.clip(zone, 0, nthreads - 1, out=zone)
    assign[order] = zone
    return assign


def zone_costs(assign: np.ndarray, costs: np.ndarray,
               nthreads: int) -> np.ndarray:
    """Total cost per thread under an assignment (for balance checks)."""
    return np.bincount(assign, weights=costs, minlength=nthreads)
