"""Extension: an MPI-style locally-essential-tree (LET) comparator.

The paper's conclusion: "We suspect that, with all these changes, the UPC
code is as efficient as a similar MPI code.  We plan, in future work, to
directly compare the performance of this code to the performance of a
similar code expressed in MPI."  This variant implements that comparator in
the same simulation framework, following the classic message-passing
formulation (Salmon 1991; Warren & Salmon 1993; the hybrid of Dinan et al.
2010 cited in the paper's related work):

1. each rank builds a *local* octree over its bodies (no locks, no
   remote accesses),
2. ranks exchange **locally essential trees** up-front: rank i walks its
   local tree once per peer j and ships every node that j *might* touch --
   a cell is shipped, and its children considered, when ``l / d >= theta``
   for ``d`` the minimum distance from the cell's center of mass to j's
   domain bounding box (the conservative criterion that makes the later
   traversal communication-free),
3. force computation then proceeds entirely on local data.

Contrast with the paper's final UPC code, which fetches remote cells
lazily, on demand, and only the ones actually touched: the MPI code pays
for the *conservative superset* up-front but in few large messages.  The
``abl-mpi`` bench compares the two.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ...octree.build import (C_INSERT, PY_INSERT, BuildRecord, gc_paused,
                              insert, new_root)
from ...octree.cell import Cell, Leaf
from ...octree.cofm import compute_cofm
# see the note in base.py: bench/layers.py times this name here
from ...octree.traverse import gravity_traversal  # noqa: F401
from ...upc.collectives import allreduce_vector, alltoallv
from .base import (
    BODY_POS_WORDS,
    CELL_COMPUTE,
    CELL_VISIT_WORDS,
    VariantBase,
)
from .async_agg import AsyncAgg


def _min_dist_to_box(point: np.ndarray, lo: np.ndarray,
                     hi: np.ndarray) -> float:
    """Minimum Euclidean distance from a point to an AABB (0 if inside)."""
    d = np.maximum(np.maximum(lo - point, 0.0), point - hi)
    return float(np.sqrt((d * d).sum()))


def let_count(local_root: Optional[Cell], lo: np.ndarray, hi: np.ndarray,
              theta: float) -> "tuple[int, int]":
    """(cells, bodies) of the LET that this local tree contributes to a
    peer whose domain is the box [lo, hi]."""
    if local_root is None:
        return 0, 0
    cells = 0
    bodies = 0
    stack: List = [local_root]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            bodies += len(node.indices)
            continue
        cells += 1
        d = _min_dist_to_box(node.cofm, lo, hi)
        if d <= 0.0 or node.size >= theta * d:
            # the peer might open this cell: ship the children too
            for ch in node.children:
                if ch is not None:
                    stack.append(ch)
    return cells, bodies


class MpiLet(AsyncAgg):
    """Message-passing comparator: up-front LET exchange, local force."""

    name = "mpi-let"
    ladder_level = 7  # off-ladder extension (paper's future work)

    def __init__(self, rt, bodies, cfg):
        super().__init__(rt, bodies, cfg)
        #: (cells, bodies) shipped per step, for analysis
        self.let_traffic: List[dict] = []

    # ------------------------------------------------------------------ #
    @gc_paused()
    def phase_treebuild(self) -> None:
        rt = self.rt
        bodies = self.bodies
        P = self.P
        m = rt.machine
        theta = self.cfg.theta
        # the partition has read the previous step's global tree
        self.release_tree()

        # 1. local builds + local c-of-m (communication-free): every
        # thread's local tree in one batch, then each thread's charges
        idx_lists = self.assigned_all()
        local_roots: List[Optional[Cell]] = [
            new_root(self.box, home=t) if len(idx) else None
            for t, idx in enumerate(idx_lists)]
        record = BuildRecord()
        jobs = []
        for t, lroot in enumerate(local_roots):
            if lroot is not None:
                record.add(lroot)
                jobs.append((lroot, idx_lists[t], t))
        built = insert(jobs, bodies.pos, record=record)
        visits_of = iter(built.visits)
        made_of = iter(built.made)
        local_times = np.zeros(P)
        for t, (idx, lroot) in enumerate(zip(idx_lists, local_roots)):
            start = float(rt.clock[t])
            self.charge_body_words(t, idx, BODY_POS_WORDS)
            visits = allocs = 0
            if lroot is not None:
                visits, allocs = next(visits_of), next(made_of)
                compute_cofm(lroot, bodies.pos, bodies.mass, bodies.cost)
            rt.heap.upc_alloc_count(t, m.cell_nbytes, allocs)
            rt.charge_compute(
                t,
                visits * CELL_VISIT_WORDS * m.local_word_cost
                + (allocs * 2) * CELL_COMPUTE,
            )
            local_times[t] = float(rt.clock[t]) - start

        # 2. LET exchange: one conservative walk per (sender, receiver)
        los = np.zeros((P, 3))
        his = np.zeros((P, 3))
        for t, idx in enumerate(idx_lists):
            if len(idx):
                los[t] = bodies.pos[idx].min(0)
                his[t] = bodies.pos[idx].max(0)
        bytes_matrix = np.zeros((P, P))
        cells_total = 0
        bodies_total = 0
        for i in range(P):
            lroot = local_roots[i]
            if lroot is None:
                continue
            walk_nodes = 0
            for j in range(P):
                if i == j:
                    continue
                c, b = let_count(lroot, los[j], his[j], theta)
                walk_nodes += c
                bytes_matrix[i, j] = c * m.cell_nbytes + b * m.body_nbytes
                cells_total += c
                bodies_total += b
            rt.charge_compute(i, walk_nodes * CELL_COMPUTE)
        alltoallv(rt, bytes_matrix, key="let_exchange")
        # unpack/link received LET nodes into the local tree
        for j in range(P):
            recv = float(bytes_matrix[:, j].sum())
            rt.charge_compute(
                j, recv / m.cell_nbytes * CELL_COMPUTE * 0.5)
        self.let_traffic.append(
            {"cells": cells_total, "bodies": bodies_total,
             "bytes": float(bytes_matrix.sum())})
        self.treebuild_subphases.append(
            {"local": local_times, "merge": np.zeros(P)})

        # The union of all LETs is the canonical global tree; build it
        # functionally (uncharged) so the force phase has exact data,
        # under a record for the compiled flatten when the kernel serves.
        # The local trees are freed first.
        local_roots = lroot = record = None
        self.root = new_root(self.box, home=0)
        record = BuildRecord()
        record.add(self.root)
        glob = insert([(self.root, range(len(bodies)), bodies.assign)],
                      bodies.pos, record=record)
        # a local batch's fallback shows, whatever served the global one
        self.insert_engine = PY_INSERT if PY_INSERT in (
            built.engine, glob.engine) else C_INSERT
        self.flatten(self.root, record)
        self.fill_cofm()

    # ------------------------------------------------------------------ #
    def phase_partition(self) -> None:
        # MPI ranks agree on zones through a reduction of per-zone costs,
        # then each computes the (identical) assignment locally.
        from ...octree.costzones import costzones

        rt = self.rt
        allreduce_vector(rt, self.P, key="partition_reductions")
        for t in range(self.P):
            rt.charge_compute(t, self.P * CELL_COMPUTE)
        if self.rows is not None:  # step 0 keeps the initial distribution
            self.bodies.assign = costzones(self.rows.order,
                                           self.bodies.cost, self.P)

    def phase_redistribution(self) -> None:
        rt = self.rt
        bodies = self.bodies
        moved = bodies.assign != bodies.store
        matrix = np.zeros((self.P, self.P))
        if moved.any():
            np.add.at(matrix, (bodies.store[moved], bodies.assign[moved]),
                      float(rt.machine.body_nbytes))
        alltoallv(rt, matrix, key="body_exchange")
        self.migration_fractions.append(
            float(moved.sum()) / len(bodies) if len(bodies) else 0.0)
        bodies.store[:] = bodies.assign

    def phase_plan(self):
        from ..phases import (
            ADVANCE,
            FORCE,
            PARTITION,
            REDISTRIBUTION,
            TREEBUILD,
        )

        return [
            (PARTITION, self.phase_partition),
            (REDISTRIBUTION, self.phase_redistribution),
            (TREEBUILD, self.phase_treebuild),
            (FORCE, self.phase_force),
            (ADVANCE, self.phase_advance),
        ]

    # ------------------------------------------------------------------ #
    #: the blocking slot walk over the (communication-free) LET data, not
    #: AsyncAgg's frontier engine
    phase_force = VariantBase.phase_force

    def charge_force_walk(self, tid, tree, opens, tally) -> None:
        """Force traversal on LET data: everything is a plain local
        access."""
        rt = self.rt
        rt.charge_compute(tid, self.local_force_words(tally)
                          * rt.machine.local_word_cost)
