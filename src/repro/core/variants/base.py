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
traffic afterwards from the walks' per-cell open counts, tallied for
every thread at once (:func:`force_tally`,
:meth:`VariantBase.charge_force_walk`).  A thread's per-owner words of
one call site are charged in one call
(:meth:`~repro.upc.runtime.UpcRuntime.word_access_many`).  The tree
build's and c-of-m phase's charges are replayed by the compiled kernel
from the build's record (:mod:`repro.core.build_replay`); without the
kernel, a Python mirror replays the same record, and the c-of-m phase
runs under ``run_waiting`` here.

Subclasses override the phase methods and/or flip the class flags.
"""

from __future__ import annotations

import math
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple)

import numpy as np

from ...backends.object_tree import SlotTree, slot_walks
from ...nbody.bbox import RootBox, compute_root
from ...nbody.bodies import BodySoA
from ...nbody.integrator import advance_indices, startup_half_kick
from ...octree.build import BuildRecord, gc_paused, insert, new_root
from ...octree.cell import Cell, Leaf
from ...octree.cofm import compute_cofm
from ...octree.costzones import costzones
from ...octree.flat import TreeRows, cell_rows, cofm_rows, record_rows
# the per-group recursion the slot walk reproduces; kept importable where
# the force phase lives, since bench/layers.py attributes time to it here
from ...octree.traverse import gravity_traversal  # noqa: F401
from ...upc.memory import SharedArray
from ...upc.runtime import UpcRuntime
from ..build_replay import (
    C_BUILD,
    C_COFM,
    PY_BUILD,
    PY_COFM,
    mirror_build,
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

#: walks per chunk of :func:`force_tally`: bounds its transient
#: (walks x cells) arrays, whatever the thread count
TALLY_CHUNK = 4

#: engines of :meth:`VariantBase.fill_cofm` (``variant_stats["cofm_engine"]``)
ROWS_COFM = "c-cofm-rows"
TREE_COFM = "compute-cofm"
#: engines of the tree's flatten (``variant_stats["rows_engine"]``):
#: ``bh_tree_rows`` over the build's record, or ``cell_rows`` over its
#: cells
C_ROWS = "c-tree-rows"
PY_ROWS = "cell-rows"


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
    #: the force walk reads cells and leaf bodies where they live
    #: (:meth:`charge_force_walk`); False where it reads local copies
    remote_force_words = True

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
        #: per step: the tree build's lock (acquires, contended acquires,
        #: sorted nonzero waits); see :meth:`treebuild_locks`
        self.lock_stats: Dict[int, Tuple[int, int, List[float]]] = {}
        #: the one flatten of ``root`` (:meth:`flatten`), from its build
        #: until :meth:`release_tree`: the c-of-m pass fills its c-of-m
        #: arrays, the partition reads its tree order and the force
        #: phase's SlotTree its arrays
        self.rows: Optional[TreeRows] = None
        #: per-step migration fraction (section 5.2 claim)
        self.migration_fractions: List[float] = []
        #: per-step (local, merge) per-thread seconds (figure 8)
        self.treebuild_subphases: List[dict] = []
        self.step_index = 0
        #: engine that served the latest force phase (RunResult's
        #: ``variant_stats["force_engine"]``)
        self.force_engine: Optional[str] = None
        #: engines of the latest baseline tree build and c-of-m phase
        #: (:mod:`repro.core.build_replay`); None when the phase never ran
        self.treebuild_engine: Optional[str] = None
        self.cofm_engine: Optional[str] = None
        #: engine of the latest flatten of the tree (C_ROWS / PY_ROWS)
        self.rows_engine: Optional[str] = None
        #: engine of the latest fresh tree build's ``insert``
        #: (``C_INSERT`` / ``PY_INSERT`` of :mod:`repro.octree.build`)
        self.insert_engine: Optional[str] = None
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

    def assigned(self, tid: int) -> np.ndarray:
        return np.nonzero(self.bodies.assign == tid)[0]

    def assigned_all(self) -> List[np.ndarray]:
        """:meth:`assigned` of every thread, from one stable argsort:
        the same ascending index arrays.  Valid while ``assign`` does
        not change, as within every phase but the partition."""
        assign = self.bodies.assign
        order = np.argsort(assign, kind="stable")
        ends = np.cumsum(np.bincount(assign, minlength=self.P))
        return np.split(order, ends[:-1])

    def owner_counts(self) -> List[Optional[np.ndarray]]:
        """Per thread ``t``, the :meth:`charge_body_words` counts of its
        assigned bodies: ``counts[o]`` of them stored by thread ``o``,
        all from one ``bincount`` (None per thread when body pointers
        are local).  Valid while ``assign`` and ``store`` do not
        change."""
        P = self.P
        if self.body_ptrs_local():
            return [None] * P
        bodies = self.bodies
        return list(np.bincount(bodies.assign * P + bodies.store,
                                minlength=P * P).reshape(P, P))

    def record_treebuild_locks(self, acquires: Sequence[int],
                               contended: Sequence[int],
                               waits: Sequence[float]) -> None:
        """Keep this step's tree-build ``upc_lock`` statistics (a
        retried build replaces its failed attempt's)."""
        self.lock_stats[self.step_index] = (
            int(sum(acquires)), int(sum(contended)),
            sorted(float(w) for w in waits if w))

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

    def charge_body_words(self, tid: int, idx: np.ndarray, words: int,
                          counts: Optional[np.ndarray] = None) -> None:
        """Charge per-body field accesses for the bodies in ``idx``.

        The baseline reads/writes body structs wherever they are stored;
        redistribution makes them local and castable to plain pointers.
        ``counts`` is the thread's :meth:`owner_counts` when the caller
        has them (then ``idx`` must be the thread's assigned bodies).
        """
        rt = self.rt
        if len(idx) == 0:
            return
        if self.body_ptrs_local():
            rt.charge_compute(
                tid, len(idx) * words * rt.machine.local_word_cost
            )
            return
        if counts is None:
            counts = np.bincount(self.bodies.store[idx], minlength=self.P)
        owners = np.flatnonzero(counts)
        rt.word_access_many(tid, owners.tolist(),
                            (counts[owners] * float(words)).tolist(),
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
        idx_lists = self.assigned_all()
        counts = self.owner_counts()
        for t, idx in enumerate(idx_lists):
            if self.replicate_scalars:
                # one myrsize copy per thread per phase (section 5.1)
                self.read_shared_scalar(t, 1)
            else:
                self.read_shared_scalar(t, float(len(idx)))  # rsize/insert
            self.charge_body_words(t, idx, BODY_POS_WORDS, counts[t])
        order, tids = _round_robin(idx_lists)
        # build once recording the structure; the charges are replayed
        # from the record (repro.core.build_replay), in C when the kernel
        # serves, and the kernel flattens the tree from it
        self._new_tree()
        record = BuildRecord()
        record.add(self.root)
        self.insert_engine = insert([(self.root, order, tids)], bodies.pos,
                                    record=record).engine
        ncells = len(record.cells)
        events = record.event_array()
        kernel = replay_kernel()
        locks = None if kernel is None \
            else replay_build(self, kernel, events, tids, ncells)
        if locks is None:
            self.record_treebuild_locks(
                *mirror_build(self, events, tids, ncells))
            self.treebuild_engine = PY_BUILD
        else:
            self.record_treebuild_locks(*locks)
            self.treebuild_engine = C_BUILD
        self.flatten(self.root, record, events)

    def flatten(self, root: Cell, record: Optional[BuildRecord] = None,
                events: Optional[np.ndarray] = None) -> None:
        """Keep the one flatten of a step's tree in :attr:`rows`, made as
        every build ends: ``bh_tree_rows`` over the build's ``record``
        (``events``: its :meth:`~BuildRecord.event_array`, when made)
        when the kernel loads and serves, else ``cell_rows`` over the
        cells."""
        kernel = replay_kernel()
        rows = None if kernel is None or record is None \
            else record_rows(kernel, record, root, len(self.bodies), events)
        self.rows_engine = C_ROWS if rows is not None else PY_ROWS
        self.rows = rows if rows is not None else cell_rows(root)

    @property
    def ncells(self) -> int:
        """Cells in the current tree (0 when there is none)."""
        return len(self.rows.cells) if self.rows is not None else 0

    def release_tree(self) -> None:
        """Drop every reference this variant and its runtime hold to the
        current tree, so that its cells are freed before the next build
        makes any: one step's tree at a time."""
        # the run_waiting c-of-m's done tokens are the cells themselves
        self.rt.clear_done()
        self.root = None
        self.rows = None

    def _new_tree(self) -> None:
        """Release the previous tree and start an empty global tree."""
        self.release_tree()
        self.root = new_root(self.box, home=0)

    def mycelltab(self) -> List[List[Cell]]:
        """Each thread's cells of the global tree in creation order
        (SPLASH-2's ``mycelltab``), from the flatten's ``seq`` and
        ``home``."""
        rows = self.rows
        by_home = np.lexsort((rows.seq, rows.home))
        ends = np.cumsum(np.bincount(rows.home, minlength=self.P))
        cells = rows.cells
        return [[cells[r] for r in part.tolist()]
                for part in np.split(by_home, ends[:-1])]

    # ------------------------------------------------------------------ #
    # phase: center of mass (baseline: spin on done flags)               #
    # ------------------------------------------------------------------ #
    def phase_cofm(self) -> None:
        kernel = replay_kernel()
        if kernel is not None \
                and replay_cofm(self, kernel, self.rows) is not None:
            self.cofm_engine = C_COFM
            return
        self._cofm_waiting()
        self.rows.cofm_from_cells()
        self.cofm_engine = PY_COFM

    def fill_cofm(self) -> None:
        """Fill the c-of-m arrays of :attr:`rows`, uncharged: one
        compiled pass over the flatten, or ``compute_cofm`` over the
        cells, copied into the record, when no kernel serves or the
        kernel declines.  Both give the same bits."""
        bodies = self.bodies
        rows = self.rows
        kernel = replay_kernel()
        if kernel is not None and cofm_rows(kernel, rows, bodies.pos,
                                            bodies.mass, bodies.cost):
            self.cofm_engine = ROWS_COFM
            return
        compute_cofm(rows.cells[0], bodies.pos, bodies.mass, bodies.cost)
        rows.cofm_from_cells()
        self.cofm_engine = TREE_COFM

    def _cofm_waiting(self) -> None:
        """The c-of-m spin under :meth:`UpcRuntime.run_waiting`: the
        oracle of :func:`~repro.core.build_replay.replay_cofm`."""
        rt = self.rt
        bodies = self.bodies
        P = self.P
        ptrs_local = self.body_ptrs_local()
        mycelltab = self.mycelltab()

        def worker(t: int):
            for cell in reversed(mycelltab[t]):
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
        # the costzone walk touches O(P + depth) cells spread over all
        # owners; charge an even spread
        owners = list(range(P))
        spread = [visits * CELL_VISIT_WORDS / P] * P
        for t in range(P):
            rt.word_access_many(t, owners, spread, key="partition_reads")
        new_assign = costzones(self.rows.order, self.bodies.cost, P)
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
        """The force phase's :class:`SlotTree` of the tree's flatten."""
        return SlotTree(self.root, self.bodies, self.cfg, self.rows)

    def phase_force(self) -> None:
        rt = self.rt
        bodies = self.bodies
        tr = rt.tracer
        traced = tr.enabled
        tree = self.slot_tree()
        self.force_engine = tree.engine
        jobs = [(t, idx) for t, idx in enumerate(self.assigned_all())
                if len(idx)]
        counts = self.owner_counts()
        # the walks charge nothing: they run side by side, and every
        # charge follows in thread order
        if traced:
            tr.begin("object-tree.traversal", "backend",
                     nbodies=sum(len(idx) for _, idx in jobs))
        walks = slot_walks(tree, [idx for _, idx in jobs],
                           [float(bodies.cost[idx].sum()) for _, idx in jobs])
        if traced:
            tr.end(interactions=float(sum(w.sum() for _, w, _ in walks)))
        tallies = force_tally(
            tree, [opens for _, _, opens in walks],
            [len(idx) for _, idx in jobs],
            bodies.store[tree.flat.leaf_bodies]
            if self.remote_force_words else None, self.P)
        new_cost = bodies.cost.copy()
        for (t, idx), (acc, work, opens), tally in zip(jobs, walks,
                                                        tallies):
            self.charge_body_words(t, idx, BODY_FORCE_WORDS, counts[t])
            self.charge_force_walk(t, tree, opens, tally)
            bodies.acc[idx] = acc
            new_cost[idx] = np.maximum(work, 1.0)
            rt.charge_compute(
                t, float(work.sum()) * rt.machine.interaction_cost
            )
            rt.count(t, "interactions", float(work.sum()))
        bodies.cost = new_cost

    def charge_force_walk(self, tid: int, tree: SlotTree,
                          opens: np.ndarray, tally: "WalkTally") -> None:
        """The baseline's fine-grained force traffic of one walk of
        thread ``tid``, from its :func:`force_tally` row.

        Every opening test reads the cell's cofm/mass/size fields *and*
        the shared scalar ``tol`` from thread 0; every opened cell reads
        its child pointers; every interaction reads ``eps`` from thread 0
        (section 5.1 explains why this murders scalability).  Words are
        aggregated per owner thread and charged once per traversal.
        """
        rt = self.rt
        words = tally.words
        owners = np.flatnonzero(words > 0)
        rt.word_access_many(tid, owners.tolist(), words[owners].tolist(),
                            key="force_words")
        if not self.replicate_scalars:
            # tol per test, eps per cell accept and per leaf interaction
            scalar_reads = float(2.0 * tally.tests - tally.opens
                                 + tally.leaf)
            if scalar_reads > 0:
                rt.word_access(tid, 0, words=1.0, count=scalar_reads,
                               key="scalar_reads")

    @staticmethod
    def local_force_words(tally: "WalkTally") -> float:
        """Words a fully local (cached or LET) traversal touches: cell
        fields per test, child pointers per open, leaf bodies per visit."""
        return float(CELL_TEST_WORDS * tally.tests
                     + CELL_OPEN_WORDS * tally.opens
                     + BODY_LEAF_WORDS * tally.leaf)

    # ------------------------------------------------------------------ #
    # phase: body advance + new bounding box                             #
    # ------------------------------------------------------------------ #
    def phase_advance(self) -> None:
        rt = self.rt
        bodies = self.bodies
        counts = self.owner_counts()
        for t, idx in enumerate(self.assigned_all()):
            if len(idx) == 0:
                continue
            self.charge_body_words(t, idx, BODY_ADV_WORDS, counts[t])
            rt.charge_compute(t, len(idx) * ADVANCE_FLOPS)
            if self.step_index == 0:
                startup_half_kick(bodies.vel[idx], bodies.acc[idx],
                                  self.cfg.dt)
            advance_indices(bodies.pos, bodies.vel, bodies.acc, idx,
                            self.cfg.dt)
        # thread 0 gathers per-thread bounding boxes and publishes rsize
        rt.word_access_many(0, range(1, self.P), [1.0] * (self.P - 1),
                            words=6.0, key="bbox_gather")
        rt.charge_compute(0, self.P * ADVANCE_FLOPS)
        self.box = compute_root(bodies.pos, self.cfg.initial_rsize)
        if self.replicate_scalars and self.P > 1:
            # replicas are refreshed with a broadcast (section 5.1)
            from ...upc.collectives import broadcast

            broadcast(rt, rt.machine.word_nbytes)


class WalkTally(NamedTuple):
    """One force walk's traffic, from its per-cell open counts:
    ``words[o]``, the cell and leaf-body words it reads at owner ``o``
    (None when the variant reads no remote words), and its opening
    tests, opens and leaf-body visits.  All are integers far below
    2**53, so every sum is exact in any order and as a float."""

    words: Optional[np.ndarray]
    tests: int
    opens: int
    leaf: int


def force_tally(tree: SlotTree, opens: Sequence[np.ndarray],
                ks: Sequence[int], leaf_owner: Optional[np.ndarray],
                nthreads: int) -> List[WalkTally]:
    """The :class:`WalkTally` of every walk of a force phase over
    ``tree``: ``opens[j]`` counts, per row, the bodies of walk ``j``'s
    ``ks[j]`` that opened the cell.  ``leaf_owner`` (aligned with
    ``tree.flat.leaf_bodies``) is the thread that stores each leaf body;
    None skips the per-owner words.

    A cell is tested by its parent's openers (the root by all ``k``
    bodies) and read at its home, :data:`CELL_TEST_WORDS` per test and
    :data:`CELL_OPEN_WORDS` per open; a leaf body is read
    :data:`BODY_LEAF_WORDS` per visit at its owner.  :data:`TALLY_CHUNK`
    walks are tallied at a time, the per-owner words with one weighted
    ``bincount`` over walk-offset owner ids for the cells and one for
    the leaf bodies, added afterwards.
    """
    out: List[WalkTally] = []
    if leaf_owner is not None:
        # walk-offset owner ids of a whole chunk
        off = np.arange(0, TALLY_CHUNK * nthreads, nthreads)[:, None]
        cell_ids, leaf_ids = off + tree.flat.home, off + leaf_owner
    for lo in range(0, len(opens), TALLY_CHUNK):
        opened = np.stack(opens[lo:lo + TALLY_CHUNK])
        n = len(opened)
        # np.take keeps the rows contiguous, unlike opened[:, rows]
        tests = np.take(opened, tree.parent, axis=1)
        tests[:, 0] = ks[lo:lo + n]
        leaf = np.take(opened, tree.leaf_parent, axis=1)
        words = [None] * n
        if leaf_owner is not None:
            size = n * nthreads
            cell_part = np.bincount(
                cell_ids[:n].ravel(),
                weights=(CELL_TEST_WORDS * tests
                         + CELL_OPEN_WORDS * opened).ravel(),
                minlength=size)
            leaf_part = np.bincount(
                leaf_ids[:n].ravel(),
                weights=(BODY_LEAF_WORDS * leaf).ravel(), minlength=size)
            words = list((cell_part + leaf_part).reshape(n, nthreads))
        out += map(WalkTally, words, tests.sum(1).tolist(),
                   opened.sum(1).tolist(), leaf.sum(1).tolist())
    return out


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
