"""The baseline's tree-build and c-of-m accounting, replayed in C.

The section-4 baseline builds one global tree by concurrent insertion:
every visited cell is a fine-grained remote read, every child-slot write
happens under the cell's ``upc_lock``, and the c-of-m phase spins on
other threads' ``done`` flags (:meth:`UpcRuntime.run_waiting`).  All of
that is scalar float arithmetic in a fixed order, so it can be replayed
exactly:

* **Tree build.**  :func:`repro.octree.build.insert` stays the one code
  that builds the tree.  :meth:`VariantBase.phase_treebuild` records, per
  insertion, the ``Cell.seq`` of every cell it visits.  That trace implies
  every event of the hook-driven build: an insertion starts at the root
  (seq 0), a seq not seen before is a cell the insertion created (its
  allocation and a locked write to the previous cell come before its
  visit), and every insertion ends with a locked write to its last
  visited cell.  ``bh_build_replay`` charges them in trace order.
* **C-of-m.**  ``bh_cofm_replay`` runs every thread's worker over its
  cells in reverse creation order under ``run_waiting``'s schedule.  It
  reads the tree as :func:`repro.octree.flat.cell_rows` flattens it, with
  each row's ``Cell.seq`` as its creation rank; the force phase's
  ``SlotTree`` reuses that flatten and the arrays the replay filled.

Both replays read the runtime's price store as relation-class tables
(:meth:`UpcRuntime.class_tables`) and do the Python hooks' float operations
in their order, so every clock, NIC time and cell field is bit-identical.
Counters and heap bookkeeping come back as per-thread integer totals,
added once each (exact: integer-valued floats far below 2**53).  The
engines recorded in ``RunResult.variant_stats``:

* ``"c-build-replay"`` / ``"c-cofm-replay"`` -- the replays here;
* ``"insert-hooks"`` / ``"run-waiting"`` -- the hook-driven phases in
  :mod:`repro.core.variants.base`: the replays' oracles, and the engines
  of a box without the kernel or of a declined call.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..octree.cell import Cell
from ..octree.flat import CellRows

#: engine names recorded in ``RunResult.variant_stats``
C_BUILD = "c-build-replay"
PY_BUILD = "insert-hooks"
C_COFM = "c-cofm-replay"
PY_COFM = "run-waiting"

#: counter keys of the replays' per-thread totals, in the C file's order
BUILD_KEYS = ("cell_visits", "cell_writes", "remote_words", "lock_acquire",
              "cells_alloc")
COFM_KEYS = ("cofm_slot_reads", "body_words", "cofm_child_reads",
             "remote_words")

_SEQ = attrgetter("seq")


def replay_kernel():
    """The loaded C kernel, or ``None``."""
    from ..kernels import load_kernel

    return load_kernel()


def _charges(rt) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    classes, table = rt.class_tables()
    return np.asarray(rt._node_of, dtype=np.int64), classes, table


def _add_totals(rt, keys: Sequence[str], totals: np.ndarray) -> None:
    """Add each nonzero per-thread total once: a counter key exists
    exactly when one of the hooks' unit adds would have created it."""
    counters = rt._counters
    if counters is None:
        return
    for k, key in enumerate(keys):
        column = totals[:, k].tolist()
        for t, n in enumerate(column):
            if n:
                counters.add(t, key, float(n))


def replay_build(variant, kernel, trace: List[Cell], tids: Sequence[int],
                 ncells: int
                 ) -> Optional[Tuple[List[Cell], Tuple[np.ndarray, ...]]]:
    """Charge the insertions recorded in ``trace`` (every visited cell, in
    order; ``tids[j]`` inserted the j-th body).

    Returns the cells in creation order and their per-cell lock
    ``(acquires, contended_acquires, total_wait)``, or ``None``, having
    touched nothing, when the kernel declines.
    """
    from .variants.base import CELL_COMPUTE, CELL_VISIT_WORDS

    rt = variant.rt
    node_of, classes, table = _charges(rt)
    visits = np.fromiter(map(_SEQ, trace), dtype=np.int64,
                         count=len(trace))
    first = np.empty(ncells, dtype=np.int64)
    acquires = np.empty(ncells, dtype=np.int64)
    contended = np.empty(ncells, dtype=np.int64)
    total_wait = np.empty(ncells, dtype=np.float64)
    totals = np.empty((rt.nthreads, len(BUILD_KEYS)), dtype=np.int64)
    if not kernel.build_replay(
            visits, np.asarray(tids, dtype=np.int64), ncells, node_of,
            classes, table, CELL_VISIT_WORDS, rt.cost.compute(CELL_COMPUTE),
            rt.clock, rt._nic, first, acquires, contended, total_wait,
            totals):
        return None
    _add_totals(rt, BUILD_KEYS, totals)
    allocs = totals[:, BUILD_KEYS.index("cells_alloc")]
    rt.heap.allocated += allocs * rt.machine.cell_nbytes
    rt.heap.live_objects += allocs
    cells = [variant.root] + [trace[i] for i in first[1:].tolist()]
    return cells, (acquires, contended, total_wait)


def replay_cofm(variant, kernel, rows: CellRows,
                fields: Optional[Dict[str, np.ndarray]] = None
                ) -> Optional[np.ndarray]:
    """The c-of-m phase over ``variant.root``, flattened as ``rows``
    (:func:`~repro.octree.flat.cell_rows`): charges every thread and
    fills every cell's ``mass``/``cofm``/``nbodies``/``cost``, and leaves
    ``rows`` and those per-row arrays to the force phase
    (``variant.tree_rows``/``tree_fields``).  Each row's ``seq``,
    ``home`` and ``center`` come from ``fields`` when it holds them (the
    build record's flatten, :func:`~repro.octree.flat.record_rows`),
    else from the cells.

    Returns each row's done time, or ``None``, having touched nothing,
    when the kernel declines.
    """
    from .variants.base import BODY_LEAF_WORDS, CELL_COMPUTE, COFM_CHILD_WORDS

    rt = variant.rt
    bodies = variant.bodies
    cells, child, leaf_ptr, leaf_bodies = rows
    node_of, classes, table = _charges(rt)
    n = len(cells)
    fields = dict(fields) if fields is not None else {
        "seq": np.fromiter(map(_SEQ, cells), dtype=np.int64, count=n),
        "home": np.array([c.home for c in cells], dtype=np.int32),
        "center": np.array([c.center for c in cells], dtype=np.float64)}
    center = fields["center"]
    mass = np.empty(n, dtype=np.float64)
    cofm = np.empty((n, 3), dtype=np.float64)
    nbodies = np.empty(n, dtype=np.int64)
    cost = np.empty(n, dtype=np.float64)
    done_at = np.empty(n, dtype=np.float64)
    totals = np.empty((rt.nthreads, len(COFM_KEYS)), dtype=np.int64)
    if not kernel.cofm_replay(
            fields["seq"], fields["home"].astype(np.int64), child,
            leaf_ptr, leaf_bodies, center,
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
    # the hooks' types: numpy float64 sums, int body counts
    for c, nb in enumerate(nbodies.tolist()):
        cell = cells[c]
        cell.mass = mass[c]
        cell.cofm = cofm[c]
        cell.nbodies = nb
        cell.cost = cost[c]
    # no run_waiting ran: drop the last one's tokens, as it would have
    rt._done_tokens.clear()
    variant.tree_rows = rows
    fields.update(mass=mass, cofm=cofm, nbodies=nbodies, cost=cost)
    variant.tree_fields = fields
    return done_at
