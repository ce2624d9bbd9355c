"""Non-blocking communication + message aggregation (paper section 5.5).

Listing 3 of the paper, reproduced at group granularity: each thread keeps a
working set of ``n1`` body groups being force-computed concurrently; per
group, a stack of (tree node, active body set) work items is processed until
it hits a cell whose children are not cached locally.  The cell's children
join a *needed remote nodes* list; once at least ``n3`` nodes are pending
and fewer than ``n2`` gathers are outstanding, one
``bupc_memget_vlist_async`` brings them in.  All children of a cell travel
in the same communication, so one gather handles between n3 and n3+7 nodes
(exactly the paper's accounting) -- and because the children of one cell
were allocated by one subtree creator, most gathers have a single source
thread (the paper measures >95% at 32 threads; the ablation bench measures
ours).  When no group can make progress the thread waits
on its oldest handle -- otherwise computation continues and latency hides.

The physics (per-body interaction sets, accelerations) is identical to the
blocking traversal in :mod:`repro.octree.traverse`.

Two engines serve :func:`frontier_force`, with bit-identical outputs and
charges (``docs/compiled-kernels.md``):

* ``"c-frontier"`` -- ``bh_frontier_walk`` in :mod:`repro.kernels`, one C
  call per thread over the force phase's flattened tree.  It issues the
  gathers itself, with :class:`AsyncEngine`'s charges read from
  :meth:`UpcRuntime.gather_table`, and calls back into the runtime's
  price store only for a piece larger than :data:`GATHER_TABLE_N`
  elements.  It logs its NIC adds instead of making them, so a phase's
  walks run side by side (:func:`frontier_forces`);
* ``"frontier"`` -- :func:`_walk_py`, the loop below: the oracle of the
  compiled loop, and the engine of a box without a compiler (or when the
  compiled loop declines its workspace).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..backends.object_tree import SlotTree, slot_kernel
from ..kernels.loader import CHARGE_FN, FRONTIER_MAX_GROUP
from ..kernels.pool import run_jobs
from ..nbody.constants import G
from ..octree.cell import Cell, Leaf
from ..upc.nonblocking import AsyncEngine
from ..upc.runtime import NicLog
from .variants.base import (
    BODY_LEAF_WORDS,
    CELL_OPEN_WORDS,
    CELL_TEST_WORDS,
)

#: bodies per working group -- the vectorization granularity standing in
#: for one of the paper's "working bodies"; the compiled loop holds a
#: group's active set in a 32-bit mask
GROUP_BODIES = 32
if GROUP_BODIES > FRONTIER_MAX_GROUP:
    raise ValueError(f"GROUP_BODIES must be <= {FRONTIER_MAX_GROUP}")

#: engine names recorded in ``RunResult.variant_stats["force_engine"]``
C_ENGINE = "c-frontier"
PY_ENGINE = "frontier"

#: workspace bytes the compiled loop may allocate per call (0: no limit);
#: above it the call declines and the Python loop serves
C_WORKSPACE_CAP = 0

#: elements per source a gather's charge table covers; the compiled
#: loop asks the price store for a larger piece.  A gather brings the
#: children of about ``n3`` cells, so no piece above 64 was measured on
#: the benchmark's subspace workloads (n3 = 4) or the n1 = n2 = n3 sweep
#: up to 16; the callback is for a larger ``n3`` (it has no upper bound)
#: and for the many-body leaf buckets of coincident bodies
GATHER_TABLE_N = 64

_WORDS = np.array([CELL_TEST_WORDS, CELL_OPEN_WORDS, BODY_LEAF_WORDS],
                  dtype=np.int64)


class _Group:
    __slots__ = ("stack", "parked", "done")

    def __init__(self):
        self.stack: List[Tuple[object, np.ndarray]] = []
        self.parked = 0
        self.done = False


class FrontierStats:
    """Per-call measurements used by tests and the source-count ablation,
    and the engine that served the call."""

    #: the measured fields (equal whichever engine served)
    FIELDS = ("gathers", "forced_gathers", "waits", "cells_requested")

    def __init__(self) -> None:
        self.gathers = 0
        self.forced_gathers = 0
        self.waits = 0
        self.cells_requested = 0
        self.engine = PY_ENGINE

    def counts(self) -> Dict[str, int]:
        return {f: getattr(self, f) for f in self.FIELDS}


def frontier_force(variant, engine: AsyncEngine, tid: int,
                   idx: np.ndarray, tree: Optional[SlotTree] = None
                   ) -> Tuple[np.ndarray, np.ndarray, FrontierStats]:
    """Force computation for thread ``tid``'s bodies, overlap-enabled.

    ``tree`` is the force phase's flattened tree, shared by its threads;
    without one, a tree is flattened here when the kernel can serve.
    """
    return frontier_forces(variant, engine, [(tid, idx)], tree)[0]


def frontier_forces(variant, engine: AsyncEngine,
                    jobs: Sequence[Tuple[int, np.ndarray]],
                    tree: Optional[SlotTree] = None,
                    before: Optional[Callable[[int, np.ndarray],
                                              None]] = None
                    ) -> List[Tuple[np.ndarray, np.ndarray, FrontierStats]]:
    """:func:`frontier_force` of every ``(tid, idx)`` job, in job (thread)
    order, with ``before(tid, idx)`` charged ahead of each.

    The compiled walks run side by side (:mod:`repro.kernels.pool`):
    each thread's charges ahead of its walk are made first, with their
    NIC adds logged, then the walks run, then every thread's NIC log,
    its walk's NIC log and its bookkeeping are applied in job order --
    the adds of a serial phase, in its order.  A walk the kernel
    declines runs the Python loop at its thread's turn.
    """
    rt = variant.rt
    root = variant.root

    def ahead(tid: int, idx: np.ndarray) -> None:
        if before is not None:
            before(tid, idx)
        if len(idx) and root is not None:
            _fetch_root(variant, tid)

    if tree is None and root is not None and slot_kernel() is not None \
            and any(len(idx) for _, idx in jobs):
        tree = SlotTree(root, variant.bodies, variant.cfg)
    # job index -> (NIC log of the charges ahead of its walk, the walk)
    walks: Dict[int, Tuple[NicLog, Optional[_CWalk]]] = {}
    if root is not None and tree is not None and tree.kernel is not None:
        # read-only inputs every walk shares, made on this thread
        shared = (variant.bodies.store[tree.flat.leaf_bodies].astype(
                      np.int64),
                  rt.gather_table(rt.machine.cell_nbytes, GATHER_TABLE_N),
                  rt.class_tables()[0],
                  np.asarray(rt._node_of, dtype=np.int64),
                  tree.prepared_bodies())
        for j, (tid, idx) in enumerate(jobs):
            with rt.deferred_nic() as log:
                ahead(tid, idx)
            walks[j] = (log, _CWalk(variant, tid, idx, tree, shared)
                        if len(idx) else None)
        # a walk's work follows its bodies' interactions last step
        cost = variant.bodies.cost
        run_jobs(_CWalk.run,
                 [walk for _, walk in walks.values() if walk is not None],
                 [float(cost[idx].sum()) for _, idx in jobs if len(idx)])
    out = []
    for j, (tid, idx) in enumerate(jobs):
        stats = FrontierStats()
        k = len(idx)
        walk = None
        if j in walks:
            log, walk = walks[j]
            rt.add_nic_log(log.nodes, log.seconds)
        else:
            ahead(tid, idx)
        if walk is not None and walk.served:
            walk.apply(engine, stats)
            out.append((walk.acc, walk.work, stats))
            continue
        acc = np.zeros((k, 3), dtype=np.float64)
        work = np.zeros(k, dtype=np.float64)
        if k and root is not None:
            _walk_py(variant, engine, tid, idx, acc, work, stats)
        out.append((acc, work, stats))
    return out


def _fetch_root(variant, tid: int) -> None:
    """L_root: localize the root struct itself."""
    rt = variant.rt
    m = rt.machine
    root = variant.root
    if root.home != tid:
        rt.memget(tid, root.home, m.cell_nbytes, key="cache_fetch")
    else:
        rt.charge_compute(tid, 4 * m.local_word_cost)


class _CWalk:
    """One thread's :func:`_walk_py` as one ``bh_frontier_walk`` call.

    Set up on the calling thread; :meth:`run` makes the call, which
    writes only this object's arrays (a copy of the thread's clock among
    them) and logs its NIC adds, so walks of different threads may run
    at once; :meth:`apply` then writes the clock back and makes the NIC
    adds and the bookkeeping, on the calling thread.
    """

    def __init__(self, variant, tid: int, idx: np.ndarray,
                 tree: SlotTree, shared: tuple):
        rt = variant.rt
        self.rt = rt
        self.variant = variant
        self.tid = tid
        self.idx = np.ascontiguousarray(idx, dtype=np.int64)
        self.tree = tree
        k = len(idx)
        self.acc = np.zeros((k, 3), dtype=np.float64)
        self.work = np.zeros(k, dtype=np.float64)
        self.served = False
        (self.leaf_owner, self.gtab, classes, self.node_of,
         self.prepared) = shared
        self.classes = classes[tid]
        counters = rt._counters
        row = None if counters is None \
            else counters._data.get("waitsync_stall")
        self.stall = np.array([0.0 if row is None else row[tid]])
        # charged in a private copy: two walks that charged neighbouring
        # entries of rt.clock would share a cache line
        self.clock = rt.clock[tid:tid + 1].copy()
        self.hist = np.zeros(rt.nthreads + 1, dtype=np.int64)
        self.out = np.zeros(9, dtype=np.int64)
        self.nic_node = self.nic_sec = None

    def run(self) -> None:
        rt = self.rt
        cfg = self.variant.cfg
        m = rt.machine
        tid = self.tid
        tree = self.tree
        px, py, pz, gmass = self.prepared
        # every NIC add is one source of one gather (the C file's bound);
        # only the part written is kept, so a phase holds one bound-sized
        # log per worker, not per thread
        flat = tree.flat
        cap = flat.ncells + len(flat.leaf_bodies)
        nic_node = np.empty(cap, dtype=np.int64)
        nic_sec = np.empty(cap, dtype=np.float64)
        errors: List[BaseException] = []
        nbytes = m.cell_nbytes

        def charge(src: int, n: int, nic) -> float:
            try:
                ch = rt.price(tid, src, ("gather", n, nbytes))
                nic[0] = ch.nic
                return ch.complete
            except BaseException as exc:  # re-raised after the C call
                errors.append(exc)
                return math.nan

        callback = CHARGE_FN(charge)  # referenced until the call returns
        try:
            self.served = tree.kernel.frontier_walk(
                self.idx, tid, rt.nthreads, GROUP_BODIES, px, py, pz, gmass,
                tree.flat, self.leaf_owner, cfg.theta * cfg.theta,
                cfg.eps * cfg.eps, cfg.open_self_cells, _WORDS, cfg.n1,
                cfg.n2, cfg.n3, m.local_word_cost, m.interaction_cost,
                rt.cost.compute(1.0),  # the factor
                m.cpu_overhead * 0.25, self.clock, self.stall,
                rt.cost.async_issue(), self.classes, self.gtab,
                self.node_of, nic_node, nic_sec, self.hist,
                callback, self.acc, self.work, self.out,
                ws_cap=C_WORKSPACE_CAP)
        except RuntimeError:
            if errors:
                raise errors[0]
            raise
        nic_adds = int(self.out[8])
        self.nic_node = nic_node[:nic_adds].copy()
        self.nic_sec = nic_sec[:nic_adds].copy()

    def apply(self, engine: AsyncEngine, stats: FrontierStats) -> None:
        stats.engine = C_ENGINE
        rt = self.rt
        tid = self.tid
        hist = self.hist
        (stats.gathers, stats.forced_gathers, stats.waits,
         stats.cells_requested, interactions, interaction_adds,
         stall_adds, elems, _) = self.out.tolist()
        rt.clock[tid] = self.clock[0]
        rt.add_nic_log(self.nic_node, self.nic_sec)
        # the engine's per-gather bookkeeping, added once (exact integers)
        for nsrc in np.flatnonzero(hist).tolist():
            engine.source_histogram[nsrc] = \
                engine.source_histogram.get(nsrc, 0) + int(hist[nsrc])
        issued = int(hist.sum())
        if issued:
            rt.count(tid, "async_gathers", issued)
            rt.count(tid, "async_elems", elems)
        if interaction_adds:
            rt.count(tid, "interactions", interactions)
        counters = rt._counters
        if stall_adds and counters is not None:
            counters._data["waitsync_stall"][tid] = float(self.stall[0])


def _walk_py(variant, engine: AsyncEngine, tid: int, idx: np.ndarray,
             acc: np.ndarray, work: np.ndarray,
             stats: FrontierStats) -> None:
    """The frontier loop in Python: the oracle of ``bh_frontier_walk``
    and the engine of a box without the kernel."""
    rt = variant.rt
    cfg = variant.cfg
    m = rt.machine
    bodies = variant.bodies
    store = bodies.store
    root = variant.root
    k = len(idx)
    pos = bodies.pos[idx]
    ids = np.asarray(idx, dtype=np.int64)
    eps_sq = cfg.eps * cfg.eps
    theta_sq = cfg.theta * cfg.theta
    open_self = cfg.open_self_cells

    local_word = m.local_word_cost
    interaction = m.interaction_cost

    localized: set = set()
    parked: Dict[int, Tuple[Cell, List[Tuple[_Group, np.ndarray]]]] = {}
    pool: List[Cell] = []  # frontier cells whose children are needed
    pool_nodes = 0  # pending child nodes across the pool (the n3 unit)
    outstanding: Deque[Tuple[object, List[Cell]]] = deque()

    def nchildren(cell: Cell) -> int:
        return sum(1 for ch in cell.children if ch is not None)

    groups: List[_Group] = []
    for lo in range(0, k, GROUP_BODIES):
        g = _Group()
        g.stack.append((root, np.arange(lo, min(lo + GROUP_BODIES, k),
                                        dtype=np.int64)))
        groups.append(g)
    active: Deque[_Group] = deque(groups[: cfg.n1])
    next_group = len(active)
    finished = 0

    # ------------------------------------------------------------------ #
    def children_all_local(cell: Cell) -> bool:
        for ch in cell.children:
            if ch is None:
                continue
            if isinstance(ch, Leaf):
                if any(store[b] != tid for b in ch.indices):
                    return False
            elif ch.home != tid:
                return False
        return True

    def issue(cells: List[Cell], forced: bool) -> None:
        per_source: Dict[int, int] = {}
        for c in cells:
            for ch in c.children:
                if ch is None:
                    continue
                if isinstance(ch, Leaf):
                    for b in ch.indices:
                        o = int(store[b])
                        if o != tid:
                            per_source[o] = per_source.get(o, 0) + 1
                elif ch.home != tid:
                    per_source[ch.home] = per_source.get(ch.home, 0) + 1
        handle = engine.memget_vlist_async(tid, per_source, m.cell_nbytes)
        outstanding.append((handle, cells))
        stats.gathers += 1
        stats.cells_requested += len(cells)
        if forced:
            stats.forced_gathers += 1

    def complete(cells: List[Cell]) -> None:
        for c in cells:
            localized.add(id(c))
            entry = parked.pop(id(c), None)
            if entry is None:
                continue
            for g, active_set in entry[1]:
                g.stack.append((("expand", c), active_set))
                g.parked -= 1

    def drain_ready_handles() -> bool:
        any_done = False
        while outstanding:
            handle, cells = outstanding[0]
            if engine.trysync(tid, handle):
                outstanding.popleft()
                complete(cells)
                any_done = True
            else:
                break
        return any_done

    def issue_ready() -> None:
        """Issue gathers while >= n3 nodes are pending (listing 3)."""
        nonlocal pool_nodes
        while pool_nodes >= cfg.n3 and len(outstanding) < cfg.n2:
            chunk: List[Cell] = []
            cnt = 0
            while pool and cnt < cfg.n3:
                c = pool.pop(0)
                cnt += nchildren(c)
                chunk.append(c)
            pool_nodes -= cnt
            issue(chunk, forced=False)

    # ------------------------------------------------------------------ #
    def process(g: _Group, node, active_set: np.ndarray) -> None:
        nonlocal pool_nodes
        n_active = len(active_set)
        if isinstance(node, tuple):  # ("expand", cell): children now local
            cell = node[1]
            rt.charge_compute(tid, CELL_OPEN_WORDS * n_active * local_word)
            for ch in cell.children:
                if ch is not None:
                    g.stack.append((ch, active_set))
            return
        if isinstance(node, Leaf):
            rt.charge_compute(
                tid,
                BODY_LEAF_WORDS * n_active * len(node.indices) * local_word,
            )
            p_act = pos[active_set]
            n_int = 0
            for b in node.indices:
                d = bodies.pos[b] - p_act
                dsq = np.einsum("ij,ij->i", d, d) + eps_sq
                inv = (G * bodies.mass[b]) / (dsq * np.sqrt(dsq))
                notself = ids[active_set] != b
                inv *= notself
                acc[active_set] += d * inv[:, None]
                work[active_set] += notself
                n_int += int(notself.sum())
            rt.charge_compute(tid, n_int * interaction)
            rt.count(tid, "interactions", n_int)
            return

        cell = node
        rt.charge_compute(tid, CELL_TEST_WORDS * n_active * local_word)
        d = cell.cofm - pos[active_set]
        dsq = np.einsum("ij,ij->i", d, d)
        far = (cell.size * cell.size) < theta_sq * dsq
        if open_self and far.any():
            half = cell.size / 2.0
            inside = np.all(
                np.abs(pos[active_set] - cell.center) <= half, axis=1
            )
            far &= ~inside
        n_far = int(far.sum())
        if n_far:
            sel = active_set[far]
            dd = d[far]
            dq = dsq[far] + eps_sq
            inv = (G * cell.mass) / (dq * np.sqrt(dq))
            acc[sel] += dd * inv[:, None]
            work[sel] += 1.0
            rt.charge_compute(tid, n_far * interaction)
            rt.count(tid, "interactions", n_far)
        if n_far == n_active:
            return
        near = active_set if n_far == 0 else active_set[~far]
        if id(cell) in localized:
            rt.charge_compute(tid, CELL_OPEN_WORDS * len(near) * local_word)
            for ch in cell.children:
                if ch is not None:
                    g.stack.append((ch, near))
            return
        if children_all_local(cell):
            localized.add(id(cell))
            rt.charge_compute(tid, CELL_OPEN_WORDS * len(near) * local_word)
            for ch in cell.children:
                if ch is not None:
                    g.stack.append((ch, near))
            return
        # frontier cell: park this item, request the cell's children
        entry = parked.get(id(cell))
        if entry is None:
            parked[id(cell)] = (cell, [(g, near)])
            pool.append(cell)
            pool_nodes += nchildren(cell)
        else:
            entry[1].append((g, near))
        g.parked += 1

    # ------------------------------------------------------------------ #
    while finished < len(groups):
        progressed = False
        for g in list(active):
            while g.stack:
                node, active_set = g.stack.pop()
                process(g, node, active_set)
                progressed = True
                issue_ready()
            if not g.done and g.parked == 0 and not g.stack:
                g.done = True
                finished += 1
                active.remove(g)
                if next_group < len(groups):
                    active.append(groups[next_group])
                    next_group += 1
                progressed = True
        if drain_ready_handles():
            progressed = True
        if progressed:
            continue
        # stalled: everything active is waiting on data
        if outstanding:
            handle, cells = outstanding.popleft()
            engine.waitsync(tid, handle)
            stats.waits += 1
            complete(cells)
        elif pool:
            chunk = list(pool)
            pool.clear()
            pool_nodes = 0
            issue(chunk, forced=True)
        else:  # pragma: no cover - would be a bookkeeping bug
            raise RuntimeError("frontier force deadlock")
