"""Variant base class + the baseline (L0) implementation.

The baseline is the paper's section 4: a literal SPLASH-2 translation.
Its defining properties, all of which later optimization levels remove one
by one, are:

* shared scalars (``rsize``, ``tol``, ``eps``) live on thread 0 and are read
  remotely by every thread, per insertion / opening test / interaction;
* bodies stay block-distributed forever (``store`` never changes), so a
  thread's assigned bodies are mostly remote;
* the octree is built by concurrent insertion into one global tree under
  per-cell locks;
* center-of-mass computation spins on other threads' ``done`` flags;
* the force traversal dereferences every cell with fine-grained remote
  reads -- no caching, no aggregation, no overlap.

The object-tree force phase computes forces with one slot-order walk per
body (:mod:`repro.backends.object_tree`) and charges every variant's UPC
traffic afterwards from the walk's per-cell open counts
(:meth:`VariantBase.charge_force_walk`).  The tree build's and c-of-m
phase's charges are replayed by the compiled kernel from a recorded
insertion trace (:mod:`repro.core.build_replay`); the hook-driven
phases here are its oracle and its no-compiler path.

Subclasses override the phase methods and/or flip the class flags.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...backends.object_tree import SlotTree, slot_walk
from ...nbody.bbox import RootBox, compute_root
from ...nbody.bodies import BodySoA
from ...nbody.integrator import advance_indices, startup_half_kick
from ...octree.build import gc_paused, insert, new_root
from ...octree.cell import Cell, Leaf
from ...octree.costzones import costzones
from ...octree.flat import CellRows, cell_rows
# the per-group recursion the slot walk reproduces; kept importable where
# the force phase lives, since bench/layers.py attributes time to it here
from ...octree.traverse import gravity_traversal  # noqa: F401
from ...upc.locks import UpcLock
from ...upc.memory import SharedArray
from ...upc.runtime import UpcRuntime
from ..build_replay import (
    C_BUILD,
    C_COFM,
    PY_BUILD,
    PY_COFM,
    replay_build,
    replay_cofm,
    replay_kernel,
)
from ..config import BHConfig
from ..phases import (
    ADVANCE,
    COFM,
    FORCE,
    PARTITION,
    REDISTRIBUTION,
    TREEBUILD,
)

# -- field-granularity constants (words touched per logical access) --------
CELL_VISIT_WORDS = 2   #: child slot + geometry read while descending
CELL_TEST_WORDS = 6    #: cofm (3) + mass + size + type read per opening test
CELL_OPEN_WORDS = 8    #: the subp[] child pointer array
BODY_POS_WORDS = 3     #: position read
BODY_FORCE_WORDS = 6   #: read pos, write back acc
BODY_ADV_WORDS = 12    #: read pos/vel/acc, write pos/vel
BODY_LEAF_WORDS = 2    #: packed pos/mass of a leaf body during traversal
COFM_CHILD_WORDS = 4   #: mass + cofm of a finished child
ATOMIC_COFM_WORDS = 8  #: read-modify-write of (mass, cofm) at merge time

#: local computation charged per tree-cell bookkeeping operation
CELL_COMPUTE = 100e-9
ADVANCE_FLOPS = 60e-9


class VariantBase:
    """One optimization level of the UPC Barnes-Hut application."""

    #: registry name; subclasses override
    name = "baseline"
    #: position in the cumulative optimization ladder (paper section order)
    ladder_level = 0
    #: section 5.1 -- tol/eps private, rsize copied once per phase
    replicate_scalars = False
    #: section 5.2 -- bodies migrate to their assigned thread
    redistribute_bodies = False
    #: section 5.3 -- None, "separate" or "merged"
    cache_mode: Optional[str] = None
    #: section 5.4 -- local tree build + merge
    local_tree_build = False
    #: section 5.5 -- non-blocking + aggregated force traversal
    async_force = False
    #: section 6 -- cost-based subspace tree building
    subspace_build = False

    def __init__(self, rt: UpcRuntime, bodies: BodySoA, cfg: BHConfig):
        self.rt = rt
        self.bodies = bodies
        self.cfg = cfg
        self.P = rt.nthreads
        n = len(bodies)
        bodies.store = SharedArray.block_distributed(self.P, n)
        bodies.assign = bodies.store.copy()
        self.box: RootBox = compute_root(bodies.pos, cfg.initial_rsize)
        self.root: Optional[Cell] = None
        self.mycelltab: List[List[Cell]] = [[] for _ in range(self.P)]
        self._locks: Dict[int, UpcLock] = {}
        #: per step: the tree build's lock (acquires, contended acquires,
        #: sorted nonzero waits); see :meth:`treebuild_locks`
        self.lock_stats: Dict[int, Tuple[int, int, List[float]]] = {}
        #: the c-of-m pass's flatten of ``root`` (octree.flat.cell_rows)
        #: and the per-row FlatTree fields it already holds, by name;
        #: taken by the force phase's SlotTree (:meth:`slot_tree`)
        self.tree_rows: Optional[CellRows] = None
        self.tree_fields: Optional[Dict[str, np.ndarray]] = None
        #: per-step migration fraction (section 5.2 claim)
        self.migration_fractions: List[float] = []
        #: per-step (local, merge) per-thread seconds (figure 8)
        self.treebuild_subphases: List[dict] = []
        self.step_index = 0
        #: cells in the current global tree (set by each build)
        self.ncells = 1
        #: engine that served the latest force phase (RunResult's
        #: ``variant_stats["force_engine"]``)
        self.force_engine: Optional[str] = None
        #: engines of the latest baseline tree build and c-of-m phase
        #: (:mod:`repro.core.build_replay`); None when the phase never ran
        self.treebuild_engine: Optional[str] = None
        self.cofm_engine: Optional[str] = None
        #: resilience mediation (a ResilienceManager, attached by
        #: BarnesHutSimulation when the config enables any of it; None
        #: keeps the unmediated phase loop below)
        self.resilience = None

    # ------------------------------------------------------------------ #
    # plumbing                                                           #
    # ------------------------------------------------------------------ #
    def phase_plan(self) -> List[Tuple[str, Callable[[], None]]]:
        """(phase name, method) pairs executed per step, in order."""
        plan: List[Tuple[str, Callable[[], None]]] = [
            (TREEBUILD, self.phase_treebuild),
            (COFM, self.phase_cofm),
            (PARTITION, self.phase_partition),
        ]
        if self.redistribute_bodies:
            plan.append((REDISTRIBUTION, self.phase_redistribution))
        plan.append((FORCE, self.phase_force))
        plan.append((ADVANCE, self.phase_advance))
        return plan

    def step(self, step_index: int) -> None:
        """Execute one full time-step."""
        self.step_index = step_index
        self.rt.step = step_index
        manager = self.resilience
        for phase_name, method in self.phase_plan():
            if manager is not None:
                manager.run_phase(self, phase_name, method, step_index)
            else:
                with self.rt.phase(phase_name):
                    method()

    def lock_of(self, cell: Cell) -> UpcLock:
        lk = self._locks.get(id(cell))
        if lk is None:
            lk = UpcLock(home=cell.home)
            self._locks[id(cell)] = lk
        return lk

    def assigned(self, tid: int) -> np.ndarray:
        return np.nonzero(self.bodies.assign == tid)[0]

    def record_treebuild_locks(self, acquires: Sequence[int],
                               contended: Sequence[int],
                               waits: Sequence[float]) -> None:
        """Keep this step's tree-build ``upc_lock`` statistics (a
        retried build replaces its failed attempt's)."""
        self.lock_stats[self.step_index] = (
            int(sum(acquires)), int(sum(contended)),
            sorted(float(w) for w in waits if w))

    def record_upc_locks(self) -> None:
        """:meth:`record_treebuild_locks` of every lock in ``_locks``."""
        locks = list(self._locks.values())
        self.record_treebuild_locks(
            [lk.acquires for lk in locks],
            [lk.contended_acquires for lk in locks],
            [lk.total_wait for lk in locks])

    def treebuild_locks(self) -> Optional[dict]:
        """Tree-build lock statistics summed over the measured steps
        (section 5.4's contention), or None when no build took locks.
        ``total_wait`` is an exact ``math.fsum``, so it does not depend
        on the order the waits were recorded in."""
        steps = [v for k, v in sorted(self.lock_stats.items())
                 if k >= self.cfg.warmup_steps]
        if not steps:
            return None
        return {
            "acquires": sum(s[0] for s in steps),
            "contended_acquires": sum(s[1] for s in steps),
            "total_wait": math.fsum(w for s in steps for w in s[2]),
        }

    # -- body access helpers -------------------------------------------------
    def body_ptrs_local(self) -> bool:
        """True when each thread's bodies live in its own shared memory and
        pointers have been cast local (sections 5.2+)."""
        return self.redistribute_bodies

    def charge_body_words(self, tid: int, idx: np.ndarray,
                          words: int) -> None:
        """Charge per-body field accesses for the bodies in ``idx``.

        The baseline reads/writes body structs wherever they are stored;
        redistribution makes them local and castable to plain pointers.
        """
        rt = self.rt
        if len(idx) == 0:
            return
        if self.body_ptrs_local():
            rt.charge_compute(
                tid, len(idx) * words * rt.machine.local_word_cost
            )
            return
        owners = self.bodies.store[idx]
        counts = np.bincount(owners, minlength=self.P)
        for owner in np.nonzero(counts)[0]:
            rt.word_access(tid, int(owner), words=1.0,
                           count=float(counts[owner]) * words,
                           key="body_words")

    def read_shared_scalar(self, tid: int, count: float) -> None:
        """Read a thread-0 shared scalar ``count`` times (unless replicated)."""
        if count <= 0:
            return
        self.rt.word_access(tid, 0, words=1.0, count=count,
                            key="scalar_reads")

    # ------------------------------------------------------------------ #
    # phase: tree build (baseline: global insertion under locks)         #
    # ------------------------------------------------------------------ #
    @gc_paused()
    def phase_treebuild(self) -> None:
        bodies = self.bodies
        idx_lists = []
        for t in range(self.P):
            idx = self.assigned(t)
            idx_lists.append(idx)
            if self.replicate_scalars:
                # one myrsize copy per thread per phase (section 5.1)
                self.read_shared_scalar(t, 1)
            else:
                self.read_shared_scalar(t, float(len(idx)))  # rsize/insert
            self.charge_body_words(t, idx, BODY_POS_WORDS)
        order, tids = _round_robin(idx_lists)
        kernel = replay_kernel()
        if kernel is not None:
            # build once recording the visits; the kernel replays the
            # charges (repro.core.build_replay)
            seq = self._new_tree()
            trace: List[Cell] = []
            visit = trace.append
            for i, t in zip(order, tids):
                insert(self.root, i, bodies.pos, home=t, on_visit=visit,
                       seq_counter=seq)
            done = replay_build(self, kernel, trace, tids, seq[0])
            if done is not None:
                cells, locks = done
                self._set_tree(cells)
                self.record_treebuild_locks(*locks)
                self.treebuild_engine = C_BUILD
                return
        self._build_with_hooks(order, tids)
        self.treebuild_engine = PY_BUILD

    def _new_tree(self) -> List[int]:
        """Start an empty global tree; its creation-sequence counter (the
        root is cell 0)."""
        self.root = new_root(self.box, home=0)
        self._locks.clear()
        self.tree_rows = self.tree_fields = None
        return [1]

    def _set_tree(self, cells: List[Cell]) -> None:
        """Adopt a finished build's cells, in creation order."""
        self.ncells = len(cells)
        self.mycelltab = [[] for _ in range(self.P)]
        for cell in cells:
            self.mycelltab[cell.home].append(cell)

    def _build_with_hooks(self, order: List[int], tids: List[int]) -> None:
        """The insertion build with every UPC charge made by its hooks:
        the oracle of :func:`~repro.core.build_replay.replay_build`."""
        rt = self.rt
        seq = self._new_tree()
        cells = [self.root]

        def make_hooks(t: int):
            def on_visit(cell: Cell) -> None:
                rt.word_access(t, cell.home, words=CELL_VISIT_WORDS,
                               key="cell_visits")

            def on_alloc(cell: Cell) -> None:
                rt.heap.upc_alloc(t, rt.machine.cell_nbytes, cell)
                rt.charge_compute(t, CELL_COMPUTE)
                cells.append(cell)
                rt.count(t, "cells_alloc")

            def on_modify(cell: Cell) -> None:
                lk = self.lock_of(cell)
                rt.lock(t, lk)
                rt.word_access(t, cell.home, words=1.0, key="cell_writes")
                rt.unlock(t, lk)

            return on_visit, on_alloc, on_modify

        hooks = [make_hooks(t) for t in range(self.P)]
        for i, t in zip(order, tids):
            on_visit, on_alloc, on_modify = hooks[t]
            insert(self.root, i, self.bodies.pos, home=t,
                   on_visit=on_visit, on_alloc=on_alloc,
                   on_modify=on_modify, seq_counter=seq)
        self._set_tree(cells)
        self.record_upc_locks()

    # ------------------------------------------------------------------ #
    # phase: center of mass (baseline: spin on done flags)               #
    # ------------------------------------------------------------------ #
    def phase_cofm(self) -> None:
        kernel = replay_kernel()
        if kernel is not None:
            rows = cell_rows(self.root)
            if replay_cofm(self, kernel, rows) is not None:
                self.cofm_engine = C_COFM
                return
        self._cofm_waiting()
        self.cofm_engine = PY_COFM

    def _cofm_waiting(self) -> None:
        """The c-of-m spin under :meth:`UpcRuntime.run_waiting`: the
        oracle of :func:`~repro.core.build_replay.replay_cofm`."""
        rt = self.rt
        bodies = self.bodies
        P = self.P
        ptrs_local = self.body_ptrs_local()

        def worker(t: int):
            for cell in reversed(self.mycelltab[t]):
                mass = 0.0
                cofm = np.zeros(3)
                nb = 0
                cost = 0.0
                for ch in cell.children:
                    rt.word_access(t, cell.home, words=1.0,
                                   key="cofm_slot_reads")
                    if ch is None:
                        continue
                    if isinstance(ch, Leaf):
                        if len(ch.indices) == 1 and not ptrs_local:
                            # charge_body_words of a single-body leaf
                            rt.word_access(
                                t, int(bodies.store[ch.indices[0]]),
                                words=1.0, count=float(BODY_LEAF_WORDS),
                                key="body_words")
                        else:
                            self.charge_body_words(
                                t, np.asarray(ch.indices), BODY_LEAF_WORDS
                            )
                        for b in ch.indices:
                            m = bodies.mass[b]
                            mass += m
                            cofm += m * bodies.pos[b]
                            nb += 1
                            cost += bodies.cost[b]
                    else:
                        if not rt.token_done(ch):
                            yield ch  # spin until the child is done
                        rt.word_access(t, ch.home, words=COFM_CHILD_WORDS,
                                       key="cofm_child_reads")
                        mass += ch.mass
                        cofm += ch.mass * ch.cofm
                        nb += ch.nbodies
                        cost += ch.cost
                rt.charge_compute(t, CELL_COMPUTE)
                cell.mass = mass
                cell.cofm = cofm / mass if mass > 0 else np.array(cell.center)
                cell.nbodies = nb
                cell.cost = cost
                rt.mark_done(cell, t)

        rt.run_waiting({t: worker(t) for t in range(P)},
                       poll_cost=rt.machine.cpu_overhead)

    # ------------------------------------------------------------------ #
    # phase: partitioning (costzones)                                    #
    # ------------------------------------------------------------------ #
    def phase_partition(self) -> None:
        rt = self.rt
        P = self.P
        visits = min(max(self.ncells, 1), 64)
        for t in range(P):
            # the costzone walk touches O(P + depth) cells spread over all
            # owners; charge an even spread
            per_owner = visits * CELL_VISIT_WORDS / P
            for o in range(P):
                rt.word_access(t, o, words=1.0, count=per_owner,
                               key="partition_reads")
        new_assign = costzones(self.root, self.bodies.cost, P)
        changed = int((new_assign != self.bodies.assign).sum())
        rt.count(0, "partition_changed", changed)
        self.bodies.assign = new_assign

    # ------------------------------------------------------------------ #
    # phase: redistribution (no-op here; see redistribute.py)            #
    # ------------------------------------------------------------------ #
    def phase_redistribution(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # phase: force computation                                           #
    # ------------------------------------------------------------------ #
    def slot_tree(self) -> SlotTree:
        """The force phase's :class:`SlotTree` of ``root``, reusing the
        c-of-m pass's flatten (and the fields it holds) when it is of
        this tree."""
        rows, self.tree_rows = self.tree_rows, None
        fields, self.tree_fields = self.tree_fields, None
        if rows is not None and rows[0][0] is not self.root:
            rows = fields = None
        return SlotTree(self.root, self.bodies, self.cfg, rows, fields)

    def phase_force(self) -> None:
        rt = self.rt
        bodies = self.bodies
        tr = rt.tracer
        traced = tr.enabled
        tree = self.slot_tree()
        self.force_engine = tree.engine
        new_cost = bodies.cost.copy()
        for t in range(self.P):
            idx = self.assigned(t)
            if len(idx) == 0:
                continue
            self.charge_body_words(t, idx, BODY_FORCE_WORDS)
            if traced:
                tr.begin("object-tree.traversal", "backend", tid=t,
                         nbodies=len(idx))
            acc, work, opens = slot_walk(tree, idx)
            if traced:
                tr.end(interactions=float(work.sum()))
            self.charge_force_walk(t, tree, opens, len(idx))
            bodies.acc[idx] = acc
            new_cost[idx] = np.maximum(work, 1.0)
            rt.charge_compute(
                t, float(work.sum()) * rt.machine.interaction_cost
            )
            rt.count(t, "interactions", float(work.sum()))
        bodies.cost = new_cost

    def charge_force_walk(self, tid: int, tree: SlotTree,
                          opens: np.ndarray, k: int) -> None:
        """The baseline's fine-grained force traffic for ``k`` bodies of
        thread ``tid``, from the walk's per-cell open counts.

        Every opening test reads the cell's cofm/mass/size fields *and*
        the shared scalar ``tol`` from thread 0; every opened cell reads
        its child pointers; every interaction reads ``eps`` from thread 0
        (section 5.1 explains why this murders scalability).  Words are
        aggregated per owner thread and charged once per traversal.  All
        totals are integer-valued floats far below 2**53, so they equal
        the per-node sums of the group recursion exactly.
        """
        rt = self.rt
        tests = tree.tests(opens, k)
        opened = opens.astype(np.float64)
        leaf = tree.leaf_visits(opens)
        words_to = np.bincount(
            tree.flat.home,
            weights=CELL_TEST_WORDS * tests + CELL_OPEN_WORDS * opened,
            minlength=self.P)
        words_to += np.bincount(
            self.bodies.store[tree.flat.leaf_bodies],
            weights=BODY_LEAF_WORDS * leaf, minlength=self.P)
        for owner in np.flatnonzero(words_to > 0):
            rt.word_access(tid, int(owner), words=1.0,
                           count=float(words_to[owner]), key="force_words")
        if not self.replicate_scalars:
            # tol per test, eps per cell accept and per leaf interaction
            scalar_reads = float(2.0 * tests.sum() - opened.sum()
                                 + leaf.sum())
            if scalar_reads > 0:
                rt.word_access(tid, 0, words=1.0, count=scalar_reads,
                               key="scalar_reads")

    def local_force_words(self, tree: SlotTree, opens: np.ndarray,
                          k: int) -> float:
        """Words a fully local (cached or LET) traversal touches: cell
        fields per test, child pointers per open, leaf bodies per visit."""
        return float(CELL_TEST_WORDS * tree.tests(opens, k).sum()
                     + CELL_OPEN_WORDS * opens.sum()
                     + BODY_LEAF_WORDS * tree.leaf_visits(opens).sum())

    # ------------------------------------------------------------------ #
    # phase: body advance + new bounding box                             #
    # ------------------------------------------------------------------ #
    def phase_advance(self) -> None:
        rt = self.rt
        bodies = self.bodies
        for t in range(self.P):
            idx = self.assigned(t)
            if len(idx) == 0:
                continue
            self.charge_body_words(t, idx, BODY_ADV_WORDS)
            rt.charge_compute(t, len(idx) * ADVANCE_FLOPS)
            if self.step_index == 0:
                startup_half_kick(bodies.vel[idx], bodies.acc[idx],
                                  self.cfg.dt)
            advance_indices(bodies.pos, bodies.vel, bodies.acc, idx,
                            self.cfg.dt)
        # thread 0 gathers per-thread bounding boxes and publishes rsize
        for o in range(1, self.P):
            rt.word_access(0, o, words=6.0, key="bbox_gather")
        rt.charge_compute(0, self.P * ADVANCE_FLOPS)
        self.box = compute_root(bodies.pos, self.cfg.initial_rsize)
        if self.replicate_scalars and self.P > 1:
            # replicas are refreshed with a broadcast (section 5.1)
            from ...upc.collectives import broadcast

            broadcast(rt, rt.machine.word_nbytes)


def _round_robin(idx_lists: List[np.ndarray]) -> Tuple[List[int], List[int]]:
    """(body, thread) lists of the build's insertions: the k-th body of
    every thread in thread order, then every thread's (k+1)-th.

    Threads insert concurrently on the real machine; interleaving the
    insertions round-robin spreads cell creation (and hence cell
    affinity and lock contention) across threads the way a parallel
    build spreads it, instead of thread 0 winning every top cell.
    """
    lengths = [len(idx) for idx in idx_lists]
    tids = np.repeat(np.arange(len(idx_lists)), lengths)
    rank = np.concatenate([np.arange(n) for n in lengths])
    order = np.lexsort((tids, rank))
    return (np.concatenate(idx_lists)[order].tolist(),
            tids[order].tolist())


class Baseline(VariantBase):
    """L0: the shared-memory-style SPLASH-2 translation (section 4)."""

    name = "baseline"
    ladder_level = 0
