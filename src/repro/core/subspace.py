"""Cost-based subspace tree building (paper section 6).

The algorithm (a scalable derivative of Shan & Singh's):

1. **Split loop** -- all threads walk the implicit octree level by level.
   At each level every thread sums the costs of *its* bodies per subspace,
   then one collective reduction produces global subspace costs (ONE vector
   reduction per level when ``vector_reduction`` is on -- the paper's key
   change; one scalar reduction per subspace otherwise, which Figure 10
   shows becoming prohibitive).  Subspaces with global cost above
   ``tau = alpha * Cost / THREADS`` are split into 8 children and their
   bodies re-bucketed.
2. **Leaf allocation** -- leaves, in tree (Morton) order, are assigned to
   threads in contiguous runs of roughly equal cost; every thread computes
   the identical allocation locally.  Because no leaf exceeds tau, no
   thread receives more than (1 + alpha) * Cost / THREADS.
3. **Body exchange** -- one all-to-all ships every body to its owner.
4. **Subforest build + hook** -- each thread builds the subtrees of its
   leaves locally (sequential, lock-free), computes their centers of mass,
   and hooks each subtree into thread 0's top tree with a single remote
   pointer write; the writes touch disjoint slots, so no locks are needed.
5. **Top c-of-m** -- thread 0 finishes the O(#subspaces) top cells.

The simulation charges phases 4-5 from counts: the whole subforest is
one ``insert`` batch, one job per subtree, which returns each subtree's
visited and created cells, and a subtree's local c-of-m pass touches
each of its cells once.  The charges and hooks follow the batch, in
thread then leaf order.
No charge depends on a cell's fields, so the fields themselves come from
one c-of-m pass over the finished tree, after hooking
(``VariantBase.fill_cofm``): ``bh_cofm_rows`` over its one flatten when
the compiled kernel serves (engine ``"c-cofm-rows"``), else
``compute_cofm`` (engine ``"compute-cofm"``).  Both give the same bits as
the per-subtree passes they stand for, and the force phase reads the
flatten and its arrays (``VariantBase.slot_tree``).  The whole
subforest -- top cells, subtrees and hooks -- is built under one
:class:`~repro.octree.build.BuildRecord`, and when the kernel loads the
flatten is ``bh_tree_rows`` over it (``VariantBase.flatten``, engine
``"c-tree-rows"``) instead of a walk over the cells (``"cell-rows"``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..nbody.bbox import RootBox
from ..octree.build import BuildRecord, gc_paused, insert
from ..octree.cell import Cell, Leaf
# the fields come from VariantBase.fill_cofm; the name stays importable
# here, since bench/layers.py attributes time to it in this module
from ..octree.cofm import compute_cofm  # noqa: F401
from ..upc.collectives import allreduce_scalar, allreduce_vector, alltoallv
from ..upc.runtime import UpcRuntime
from .variants.base import CELL_COMPUTE, CELL_VISIT_WORDS

#: local work per body examined in the split loop (cost scan / re-bucket)
SCAN_COST = 10e-9
#: local work per subspace entry handled per level
SUBSPACE_COST = 50e-9
#: guard against pathological splitting (coincident heavy bodies)
MAX_SPLIT_LEVELS = 40


@dataclass
class SubspaceTree:
    """Implicit octree of subspaces shared (structurally) by all threads."""

    centers: np.ndarray  # (N, 3)
    sizes: np.ndarray  # (N,)
    parent: np.ndarray  # (N,)
    oct: np.ndarray  # (N,) child slot in parent
    child_base: np.ndarray  # (N,) index of first child or -1
    global_cost: np.ndarray  # (N,)
    global_count: np.ndarray  # (N,)
    levels: List[np.ndarray] = field(default_factory=list)
    leaves: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))

    @property
    def n_nodes(self) -> int:
        return len(self.sizes)

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    def is_leaf(self, node: int) -> bool:
        return self.child_base[node] < 0

    def leaves_in_order(self) -> np.ndarray:
        """Leaf ids in tree (Morton) order."""
        order: List[int] = []
        stack = [0]
        while stack:
            node = stack.pop()
            base = self.child_base[node]
            if base < 0:
                order.append(node)
            else:
                for o in range(7, -1, -1):
                    stack.append(int(base) + o)
        return np.asarray(order, dtype=np.int64)


#: child-centre offset signs per octant (bit 0: x, bit 1: y, bit 2: z)
_OCTANT_SIGNS = np.array([[1 if o & 1 else -1, 1 if o & 2 else -1,
                           1 if o & 4 else -1] for o in range(8)]) > 0


def split_subspaces(rt: UpcRuntime, pos: np.ndarray, cost: np.ndarray,
                    store: np.ndarray, box: RootBox, alpha: float,
                    vector_reduction: bool) -> "tuple[SubspaceTree, np.ndarray]":
    """Run the split loop; returns the subspace tree and body->leaf map.

    Each level is a few whole-array operations: per-thread counts come
    from one ``bincount``, and all fat subspaces' children from one
    ``centre + offset`` (the float ops of ``centre +- size / 4`` per
    child, so the same bits).
    """
    P = rt.nthreads
    n = len(cost)
    centers = np.asarray(box.center, dtype=np.float64).reshape(1, 3)
    sizes = np.array([float(box.rsize)])
    parent = np.array([-1], dtype=np.int64)
    octs = np.zeros(1, dtype=np.int64)
    child_base = np.array([-1], dtype=np.int64)
    g_cost = np.zeros(1)
    g_count = np.zeros(1, dtype=np.int64)
    body_ss = np.zeros(n, dtype=np.int64)
    level = np.array([0], dtype=np.int64)
    levels: List[np.ndarray] = []
    tau: Optional[float] = None

    depth = 0
    while len(level) and depth < MAX_SPLIT_LEVELS:
        levels.append(level)
        depth += 1
        is_level = np.zeros(len(sizes), dtype=bool)
        is_level[level] = True
        in_level = is_level[body_ss]
        # local cost/count accumulation, then one reduction per level
        lvl_pos = np.searchsorted(level, body_ss[in_level])
        lcost = np.bincount(lvl_pos, weights=cost[in_level],
                            minlength=len(level))
        lcount = np.bincount(lvl_pos, minlength=len(level))
        mine = np.bincount(store[in_level], minlength=P).tolist()
        for t in range(P):
            rt.charge_compute(t, mine[t] * SCAN_COST
                              + len(level) * SUBSPACE_COST)
        if vector_reduction:
            # costs and counts in one vector reduction for the whole level
            allreduce_vector(rt, 2 * len(level))
        else:
            for _ in range(len(level)):
                allreduce_scalar(rt)
        g_cost[level] = lcost
        g_count[level] = lcount
        if tau is None:
            tau = alpha * float(g_cost[0]) / P
        fat = level[(lcost > tau) & (lcount > 1)]
        if not len(fat):
            break
        # 8 children per fat node (contiguous, octant order)
        base = len(sizes) + 8 * np.arange(len(fat), dtype=np.int64)
        child_base[fat] = base
        q = sizes[fat] / 4.0
        off = np.where(_OCTANT_SIGNS, q[:, None, None], -q[:, None, None])
        centers = np.concatenate(
            [centers, (centers[fat][:, None, :] + off).reshape(-1, 3)])
        sizes = np.concatenate([sizes, np.repeat(sizes[fat] / 2.0, 8)])
        parent = np.concatenate([parent, np.repeat(fat, 8)])
        octs = np.concatenate([octs, np.tile(np.arange(8), len(fat))])
        nnew = 8 * len(fat)
        child_base = np.concatenate(
            [child_base, np.full(nnew, -1, dtype=np.int64)])
        g_cost = np.concatenate([g_cost, np.zeros(nnew)])
        g_count = np.concatenate([g_count, np.zeros(nnew, dtype=np.int64)])
        # re-bucket bodies living in fat subspaces (vectorized octant)
        is_fat = np.zeros(len(sizes), dtype=bool)
        is_fat[fat] = True
        sel = is_fat[body_ss]
        if sel.any():
            ss = body_ss[sel]
            ctr = centers[ss]
            p = pos[sel]
            o = ((p[:, 0] > ctr[:, 0]).astype(np.int64)
                 | ((p[:, 1] > ctr[:, 1]).astype(np.int64) << 1)
                 | ((p[:, 2] > ctr[:, 2]).astype(np.int64) << 2))
            body_ss[sel] = child_base[ss] + o
            mine = np.bincount(store[sel], minlength=P).tolist()
            for t in range(P):
                rt.charge_compute(t, mine[t] * 4 * SCAN_COST)
        level = np.arange(base[0], base[0] + nnew, dtype=np.int64)

    tree = SubspaceTree(
        centers=centers,
        sizes=sizes,
        parent=parent,
        oct=octs,
        child_base=child_base,
        global_cost=g_cost,
        global_count=g_count,
        levels=levels,
    )
    tree.leaves = tree.leaves_in_order()
    return tree, body_ss


def allocate_leaves(rt: UpcRuntime, tree: SubspaceTree) -> np.ndarray:
    """Greedy contiguous allocation of leaves to threads by cost.

    Every thread computes the identical allocation from the globally known
    leaf costs (no communication).  Returns ``owner[leaf_rank]``.
    """
    P = rt.nthreads
    leaves = tree.leaves
    costs = tree.global_cost[leaves]
    total = float(costs.sum())
    owner = np.zeros(len(leaves), dtype=np.int32)
    if total <= 0 or P == 1:
        for t in range(P):
            rt.charge_compute(t, len(leaves) * SUBSPACE_COST)
        return owner
    target = total / P
    t = 0
    acc = 0.0
    for i, c in enumerate(costs):
        if acc >= target and t < P - 1:
            t += 1
            acc -= target
        owner[i] = t
        acc += float(c)
    for tt in range(P):
        rt.charge_compute(tt, len(leaves) * SUBSPACE_COST)
    return owner


def exchange_bodies(rt: UpcRuntime, tree: SubspaceTree, body_ss: np.ndarray,
                    leaf_owner: np.ndarray, assign: np.ndarray,
                    store: np.ndarray) -> float:
    """All-to-all body redistribution to leaf owners; returns migration
    fraction.  Mutates ``assign`` and ``store`` in place."""
    P = rt.nthreads
    owner_of_node = np.zeros(tree.n_nodes, dtype=np.int32)
    owner_of_node[tree.leaves] = leaf_owner
    new_assign = owner_of_node[body_ss]
    moved = new_assign != store
    matrix = np.zeros((P, P), dtype=np.float64)
    if moved.any():
        np.add.at(matrix, (store[moved], new_assign[moved]),
                  float(rt.machine.body_nbytes))
    alltoallv(rt, matrix, key="body_exchange")
    frac = float(moved.sum()) / len(body_ss) if len(body_ss) else 0.0
    assign[:] = new_assign
    store[:] = new_assign
    return frac


@gc_paused()
def build_subforest_and_hook(variant, tree: SubspaceTree,
                             body_ss: np.ndarray,
                             leaf_owner: np.ndarray) -> Cell:
    """Phases 4-5: local subforests, lock-free hooking, top c-of-m.

    Returns the global root cell (thread 0's top tree).
    """
    rt: UpcRuntime = variant.rt
    bodies = variant.bodies
    P = rt.nthreads
    m = rt.machine
    # the build's record, for the compiled flatten (module docstring)
    record = BuildRecord()

    # thread 0's top-tree cells, one per internal (split) subspace
    top: Dict[int, Cell] = {}
    internal = np.nonzero(tree.child_base >= 0)[0].tolist()
    centers = tree.centers.tolist()
    sizes = tree.sizes.tolist()
    child_base = tree.child_base.tolist()
    root_cell = Cell(tuple(centers[0]), sizes[0], home=0)
    top[0] = root_cell
    for node in internal:
        if node != 0:
            top[node] = Cell(tuple(centers[node]), sizes[node], home=0)
    for cell in top.values():
        record.add(cell)
    rt.charge_compute(0, len(top) * CELL_COMPUTE)
    for node in internal:
        base = child_base[node]
        for o in range(8):
            ch = top.get(base + o)
            if ch is not None:
                top[node].children[o] = ch
                record.hook(top[node], o, ch)

    # group bodies by leaf: the runs of the stable sort by subspace
    order = np.argsort(body_ss, kind="stable")
    sorted_ss = body_ss[order]
    starts = np.flatnonzero(np.diff(sorted_ss, prepend=-1))
    ends = np.append(starts[1:], len(sorted_ss))
    groups: Dict[int, np.ndarray] = {
        node: order[lo:hi] for node, lo, hi in zip(
            sorted_ss[starts].tolist(), starts.tolist(), ends.tolist())}

    # every subtree of the subforest in one batch, in thread, then leaf
    # order: its root is numbered first, then the cells its insertions
    # make; a leaf holding one body is hooked as that body's leaf
    subtrees = []  # (thread, leaf, node) in that order
    jobs = []
    for t in range(P):
        for leaf in tree.leaves[leaf_owner == t].tolist():
            sel = groups.get(leaf)
            if sel is None or len(sel) == 0:
                continue
            if len(sel) == 1 and leaf != 0:
                subtrees.append((t, leaf, Leaf(int(sel[0]))))
                continue
            if leaf == 0:
                # degenerate: the root itself is a leaf subspace; its
                # subtree is built in place under the root cell, which
                # the top tree already holds and counts
                cell = root_cell
                cell.home = record.homes[cell.seq] = t
            else:
                cell = Cell(tuple(centers[leaf]), sizes[leaf], home=t)
                record.add(cell)
            subtrees.append((t, leaf, cell))
            jobs.append((cell, sel, t))
    built = insert(jobs, bodies.pos, record=record)
    variant.insert_engine = built.engine
    visits_of = iter(built.visits)
    made_of = iter(built.made)

    # each thread's charges, subtree by subtree, then its hook
    local_times = np.zeros(P)
    start = {}
    for t, leaf, node in subtrees:
        if t not in start:
            start[t] = float(rt.clock[t])
        if isinstance(node, Cell):
            visits = next(visits_of)
            # the subtree root and every cell its insertions made
            ncells = next(made_of) + 1
            allocs = ncells - (leaf == 0)
            rt.heap.upc_alloc_count(t, m.cell_nbytes, allocs)
            rt.charge_compute(
                t,
                visits * CELL_VISIT_WORDS * m.local_word_cost
                + ncells * CELL_COMPUTE,
            )
            # local c-of-m for the subtree (no communication): one
            # combine per cell; the fields come from the pass below
            rt.charge_compute(t, ncells * CELL_COMPUTE)
        if leaf != 0:
            par = top[int(tree.parent[leaf])]
            octant = int(tree.oct[leaf])
            par.children[octant] = node
            record.hook(par, octant, node)
            rt.word_access(t, 0, words=1.0, key="subtree_hooks")
        local_times[t] = float(rt.clock[t]) - start[t]

    # thread 0 finishes the top cells: it gathers the (mass, cofm) of all
    # hooked subtree roots -- one indexed gather per source thread, using
    # the same aggregation machinery as the force phase -- then runs a
    # local bottom-up pass over the O(#subspaces) top cells.
    per_source: Dict[int, int] = {}
    nchildren = 0
    for node, cell in top.items():
        for ch in cell.children:
            if ch is None:
                continue
            nchildren += 1
            if isinstance(ch, Cell) and ch.home != 0:
                per_source[ch.home] = per_source.get(ch.home, 0) + 1
    for src, cnt in per_source.items():
        rt.memget_ilist(0, src, cnt, m.cell_nbytes, key="top_cofm_gathers")
    rt.charge_compute(0, (len(top) + nchildren) * CELL_COMPUTE)
    variant.flatten(root_cell, record)
    variant.fill_cofm()
    variant.treebuild_subphases.append(
        {"local": local_times, "merge": np.zeros(P)}
    )
    return root_cell

