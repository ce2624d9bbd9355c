"""The baseline's tree-build and c-of-m accounting, replayed.

The section-4 baseline builds one global tree by concurrent insertion:
every visited cell is a fine-grained remote read, every child-slot write
happens under the cell's ``upc_lock``, and the c-of-m phase spins on
other threads' ``done`` flags (:meth:`UpcRuntime.run_waiting`).  All of
that is scalar float arithmetic in a fixed order, so it can be replayed
exactly:

* **Tree build.**  :func:`repro.octree.build.insert` stays the one code
  that builds the tree, and keeps its
  :class:`~repro.octree.build.BuildRecord` (the same record
  ``bh_tree_rows`` flattens).  Every insertion ends with exactly one
  body event, into the cell that received its body, and cells are
  numbered in creation order with the root as 0, so an insertion's
  visits are the path from the root down to that cell.  The path implies
  every charge of the concurrent insertion: a cell not seen before is
  one the insertion created (its allocation and a locked write to the
  previous cell come before its visit), and every insertion ends with a
  locked write to its last visited cell.  ``bh_build_replay`` derives
  the paths and charges them in order; :func:`mirror_build` is the same
  replay in Python, for a box without the kernel or a declined call.
* **C-of-m.**  ``bh_cofm_replay`` runs every thread's worker over its
  cells in reverse creation order under ``run_waiting``'s schedule.  It
  reads the build's flatten (:class:`~repro.octree.flat.TreeRows`), with
  each row's ``seq`` as its creation rank, and fills only the record's
  c-of-m arrays: the partition, the force phase's ``SlotTree``, the cache
  replay and the guards read the record, never a ``Cell``.

Both compiled replays read the runtime's price store as relation-class
tables (:meth:`UpcRuntime.class_tables`) and do the Python charges' float
operations in their order, so every clock, NIC time and c-of-m field is
bit-identical.  Counters and heap bookkeeping come back as per-thread
integer totals, added once each (exact: integer-valued floats far below
2**53).  The engines recorded in ``RunResult.variant_stats``:

* ``"c-build-replay"`` / ``"c-cofm-replay"`` -- the compiled replays;
* ``"py-build-replay"`` -- :func:`mirror_build`;
* ``"run-waiting"`` -- the c-of-m phase in
  :mod:`repro.core.variants.base`: the compiled replay's oracle, and the
  engine of a box without the kernel or of a declined call.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..octree.flat import TreeRows
from ..upc.locks import UpcLock

#: engine names recorded in ``RunResult.variant_stats``
C_BUILD = "c-build-replay"
PY_BUILD = "py-build-replay"
C_COFM = "c-cofm-replay"
PY_COFM = "run-waiting"

#: counter keys of the replays' per-thread totals, in the C file's order
BUILD_KEYS = ("cell_visits", "cell_writes", "remote_words", "lock_acquire",
              "cells_alloc")
COFM_KEYS = ("cofm_slot_reads", "body_words", "cofm_child_reads",
             "remote_words")


def replay_kernel():
    """The loaded C kernel, or ``None``."""
    from ..kernels import load_kernel

    return load_kernel()


def _charges(rt) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    classes, table = rt.class_tables()
    return np.asarray(rt._node_of, dtype=np.int64), classes, table


def _add_totals(rt, keys: Sequence[str], totals: np.ndarray) -> None:
    """Add each nonzero per-thread total once: a counter key exists
    exactly when one of the per-event unit adds would have created it."""
    counters = rt._counters
    if counters is None:
        return
    for k, key in enumerate(keys):
        column = totals[:, k].tolist()
        for t, n in enumerate(column):
            if n:
                counters.add(t, key, float(n))


def replay_build(variant, kernel, events: np.ndarray, tids: Sequence[int],
                 ncells: int) -> Optional[Tuple[np.ndarray, ...]]:
    """Charge the insertions of a build's record (``events``:
    :meth:`~repro.octree.build.BuildRecord.event_array` of a build of
    ``ncells`` cells, the root seq 0; ``tids[j]`` inserted the j-th
    body).

    Returns the per-cell lock ``(acquires, contended_acquires,
    total_wait)``, indexed by seq, or ``None``, having touched nothing,
    when the kernel declines.
    """
    from .variants.base import CELL_COMPUTE, CELL_VISIT_WORDS

    rt = variant.rt
    node_of, classes, table = _charges(rt)
    acquires = np.empty(ncells, dtype=np.int64)
    contended = np.empty(ncells, dtype=np.int64)
    total_wait = np.empty(ncells, dtype=np.float64)
    totals = np.empty((rt.nthreads, len(BUILD_KEYS)), dtype=np.int64)
    if not kernel.build_replay(
            events, np.asarray(tids, dtype=np.int64), ncells, node_of,
            classes, table, CELL_VISIT_WORDS, rt.cost.compute(CELL_COMPUTE),
            rt.clock, rt._nic, acquires, contended, total_wait, totals):
        return None
    _add_totals(rt, BUILD_KEYS, totals)
    allocs = totals[:, BUILD_KEYS.index("cells_alloc")]
    rt.heap.allocated += allocs * rt.machine.cell_nbytes
    rt.heap.live_objects += allocs
    return acquires, contended, total_wait


def lock_stats(locks: Iterable[UpcLock]
               ) -> Tuple[List[int], List[int], List[float]]:
    """Each lock's ``(acquires, contended_acquires, total_wait)``, as
    three lists in the order of ``locks``."""
    locks = list(locks)
    return ([lk.acquires for lk in locks],
            [lk.contended_acquires for lk in locks],
            [lk.total_wait for lk in locks])


def locked_write(rt, t: int, lk: UpcLock, key: str) -> None:
    """Thread ``t`` writes one word at ``lk``'s home under ``lk``."""
    rt.lock(t, lk)
    rt.word_access(t, lk.home, words=1.0, key=key)
    rt.unlock(t, lk)


def mirror_build(variant, events: np.ndarray, tids: Sequence[int],
                 ncells: int) -> Tuple[List[int], List[int], List[float]]:
    """:func:`replay_build` in Python: the same charges from the same
    record, through the runtime's word, lock and heap calls, with one
    :class:`~repro.upc.locks.UpcLock` per seq.  Returns the per-cell lock
    statistics, indexed by seq."""
    from .variants.base import CELL_COMPUTE, CELL_VISIT_WORDS

    rt = variant.rt
    word_access = rt.word_access
    parent = [-1] * ncells
    locks = [UpcLock(home=0)]
    tid_of = iter(tids)
    path: List[int] = []
    for p, _, c in events.tolist():
        if c < -1:
            parent[-2 - c] = p
            continue
        if c == -1:
            continue
        t = next(tid_of)
        path.clear()
        while p >= 0:
            path.append(p)
            p = parent[p]
        prev = -1
        for v in reversed(path):
            if v == len(locks):
                # a cell this insertion created, at its home
                locks.append(UpcLock(home=t))
                rt.heap.upc_alloc(t, rt.machine.cell_nbytes)
                rt.charge_compute(t, CELL_COMPUTE)
                rt.count(t, "cells_alloc")
                locked_write(rt, t, locks[prev], "cell_writes")
            word_access(t, locks[v].home, words=CELL_VISIT_WORDS,
                        key="cell_visits")
            prev = v
        locked_write(rt, t, locks[prev], "cell_writes")
    return lock_stats(locks)


def replay_cofm(variant, kernel, rows: TreeRows) -> Optional[np.ndarray]:
    """The c-of-m phase over the build's tree, read from its flatten
    ``rows`` (:class:`~repro.octree.flat.TreeRows`): charges every thread
    and fills the record's c-of-m arrays, which the later phases read.
    No ``Cell`` is read or written.

    Returns each row's done time, or ``None``, having touched nothing,
    when the kernel declines.
    """
    from .variants.base import BODY_LEAF_WORDS, CELL_COMPUTE, COFM_CHILD_WORDS

    rt = variant.rt
    bodies = variant.bodies
    node_of, classes, table = _charges(rt)
    n = len(rows.seq)
    mass = np.empty(n, dtype=np.float64)
    cofm = np.empty((n, 3), dtype=np.float64)
    nbodies = np.empty(n, dtype=np.int64)
    cost = np.empty(n, dtype=np.float64)
    done_at = np.empty(n, dtype=np.float64)
    totals = np.empty((rt.nthreads, len(COFM_KEYS)), dtype=np.int64)
    if not kernel.cofm_replay(
            rows.seq, rows.home.astype(np.int64), rows.child,
            rows.leaf_ptr, rows.leaf_bodies, rows.center,
            np.ascontiguousarray(bodies.store, dtype=np.int64),
            np.ascontiguousarray(bodies.mass, dtype=np.float64),
            np.ascontiguousarray(bodies.pos, dtype=np.float64),
            np.ascontiguousarray(bodies.cost, dtype=np.float64),
            variant.body_ptrs_local(), BODY_LEAF_WORDS, COFM_CHILD_WORDS,
            rt.machine.local_word_cost, rt.cost.compute(1.0),
            rt.cost.compute(CELL_COMPUTE), node_of, classes, table,
            rt.clock, rt._nic, mass, cofm, nbodies, cost, done_at, totals):
        return None
    _add_totals(rt, COFM_KEYS, totals)
    rows.mass, rows.cofm, rows.nbodies, rows.cost = mass, cofm, nbodies, cost
    return done_at
