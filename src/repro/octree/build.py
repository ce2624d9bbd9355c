"""Insertion-based octree construction (SPLASH-2 ``loadtree``).

Bodies are inserted one at a time, splitting leaf slots into sub-cells until
every body sits alone (or MAX_DEPTH is hit, where the leaf degrades to a
bucket).

:func:`insert` takes a batch of jobs -- each a target cell, the bodies to
insert into it in order and the homes of the cells they create -- and
inserts them job after job into a :class:`BuildRecord`, which numbers the
cells the batch creates (their ``Cell.seq``) and keeps its splits and
placements as int64 events.  It returns each job's visits and new cells.
A caller that charges every event derives the events from the record or
from the insertion's path (:mod:`repro.core.build_replay`);
``bh_tree_rows`` flattens the same record
(:func:`repro.octree.flat.record_rows`).

Two engines serve a batch, with the same cells, leaves, record and
counts, bit for bit:

* ``"c-insert"`` -- the compiled ``bh_insert_build``, whenever every
  target is empty and the batch is large enough to pay for the call.
  It builds the batch as arrays; the ``Cell``/``Leaf`` objects are then
  made from them in one vectorized pass (:func:`_materialize`);
* ``"py-insert"`` -- the Python loop (:func:`_insert_py`), without a
  kernel and for small batches or targets that already hold bodies (the
  section-5.4 merge's one-body insertions).

Both do the octant test and the child-centre arithmetic with the same
float ops as ``Cell.octant_of`` and ``Cell.child_center``
(:mod:`repro.octree.cell`).
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from itertools import chain
from typing import List, NamedTuple, Sequence, Tuple, Union

import numpy as np

from ..nbody.bbox import RootBox
from .cell import Cell, Leaf, MAX_DEPTH

#: engines of :func:`insert` (``variant_stats["insert_engine"]``)
C_INSERT = "c-insert"
PY_INSERT = "py-insert"

#: fewest bodies a batch sends to the compiled builder: below it the
#: call's fixed cost exceeds the Python loop's
C_MIN_BODIES = 64

#: cells whose children :func:`_materialize` gathers at once
_ROWS_CHUNK = 1024

#: one :func:`insert` job: a target cell, the bodies to insert into it
#: in order (a list of Python ints, an int array or a range), and the
#: home of the cells they create -- one for the job or one per body
Job = Tuple[Cell, Sequence[int], Union[int, Sequence[int]]]


class BuildRecord:
    """What one or more insertion builds did, in order, as int64 events.

    ``cells[s]`` is the cell of seq ``s`` and ``homes[s]`` its home
    thread.  Each event is three ints (``bh_tree_rows`` in
    ``_bh_kernel.c`` reads them):

    * ``(p, o, b)``, ``b >= 0`` -- body ``b`` joins slot ``o`` of cell
      ``p``: a new leaf when the slot is empty, the leaf's bucket
      otherwise;
    * ``(p, o, -2 - s)`` -- cell ``s`` is hooked into slot ``o`` of cell
      ``p``, displacing the leaf that held the slot, if any;
    * ``(s, o, -1)`` -- that displaced leaf moves into slot ``o`` of
      cell ``s``.

    The events are kept as (n, 3) int64 chunks: the compiled builder
    appends its array, and the Python loop and :meth:`hook` fill
    ``pending``, a flat int list that becomes a chunk when the next
    array is appended or the events are read (:meth:`event_array`).
    """

    __slots__ = ("pending", "_chunks", "cells", "homes")

    def __init__(self) -> None:
        self.pending: List[int] = []
        self._chunks: List[np.ndarray] = []
        self.cells: List[Cell] = []
        self.homes: List[int] = []

    def add(self, cell: Cell) -> None:
        """Number a cell no recorded insertion created as the next seq:
        a root, a subtree root, or a cell the section-5.4 merge splits
        off itself."""
        cell.seq = len(self.cells)
        self.cells.append(cell)
        self.homes.append(cell.home)

    def _flush(self) -> None:
        if self.pending:
            self._chunks.append(np.array(self.pending, dtype=np.int64
                                         ).reshape(-1, 3))
            self.pending.clear()

    def append_events(self, events: np.ndarray) -> None:
        """Append an (n, 3) int64 array of events after the ones so
        far."""
        self._flush()
        self._chunks.append(events)

    def event_array(self) -> np.ndarray:
        """Every event so far, in order, as an (n, 3) int64 array."""
        self._flush()
        chunks = self._chunks
        if len(chunks) != 1:
            chunks[:] = [np.concatenate(chunks) if chunks
                         else np.empty((0, 3), dtype=np.int64)]
        return chunks[0]

    def hook(self, parent: Cell, octant: int, node: "Cell | Leaf") -> None:
        """Record ``parent.children[octant] = node`` into an empty slot
        (``node`` a recorded cell or a one-body leaf)."""
        self.pending += (parent.seq, octant,
                         -2 - node.seq if isinstance(node, Cell)
                         else node.indices[0])


class Inserted(NamedTuple):
    """What :func:`insert` did, per job, as lists of ints."""

    #: cells each job's insertions visited (each insertion: its depth
    #: below the target, plus one)
    visits: List[int]
    #: cells each job's insertions created
    made: List[int]
    #: the engine that served the batch (C_INSERT or PY_INSERT)
    engine: str


@contextmanager
def gc_paused():
    """Pause Python's cyclic garbage collector over a tree build (also
    usable as a decorator).

    A build allocates a few objects per cell, and the collector rescans
    the young objects every 700 allocations and the whole growing tree
    every hundredth time; none of it is garbage.  A tree holds no
    reference cycles, so reference counting frees it either way.  The
    collector's state is restored on exit.

    On exit the objects the build made move to the oldest generation
    unscanned (``gc.freeze`` then ``gc.unfreeze``): re-enabled as they
    were, the collector's next young pass would walk the whole new tree
    once.  That is skipped while anything else is frozen, so that no one
    else's frozen objects are thawed.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        if not gc.get_freeze_count():
            gc.freeze()
            gc.unfreeze()
        gc.enable()


def new_root(box: RootBox, home: int = 0) -> Cell:
    """Create an empty root cell from a root box."""
    return Cell(center=tuple(np.asarray(box.center, dtype=np.float64
                                        ).tolist()),
                size=float(box.rsize), home=home)


def insert(jobs: Sequence[Job], positions: np.ndarray, *,
           record: BuildRecord) -> Inserted:
    """Insert each job's bodies (positions looked up in ``positions``)
    into its target cell, job after job, in order.  Every target is a
    cell ``record`` numbers; the cells the batch creates take their
    inserting body's home and the record's next seqs.

    The compiled builder serves the batch when the kernel loads, every
    target is distinct and empty, and the batch holds at least
    :data:`C_MIN_BODIES` bodies; the Python loop otherwise, with the
    same result.
    """
    if (sum(len(job[1]) for job in jobs) >= C_MIN_BODIES
            and all(not any(job[0].children) for job in jobs)
            and len({id(job[0]) for job in jobs}) == len(jobs)):
        from ..kernels.loader import load_kernel

        kernel = load_kernel()
        if kernel is not None:
            done = _insert_c(kernel, jobs, positions, record)
            if done is not None:
                return done
    return _insert_py(jobs, positions, record)


def _insert_py(jobs: Sequence[Job], positions: np.ndarray,
               record: BuildRecord) -> Inserted:
    """The Python loop of :func:`insert`: one body at a time."""
    visits = []
    made = []
    cells = record.cells
    homes = record.homes
    events = record.pending
    for root, idx, home in jobs:
        before = len(cells)
        if not isinstance(idx, list):
            idx = np.asarray(idx, dtype=np.int64).reshape(-1).tolist()
        per_body = not isinstance(home, (int, np.integer))
        if per_body and not isinstance(home, list):
            home = np.asarray(home, dtype=np.int64).tolist()
        nvisits = 0
        for k, b in enumerate(idx):
            h = home[k] if per_body else home
            # one read as Python floats: the octant tests compare the
            # same values
            px, py, pz = positions[b].tolist()
            cur = root
            depth = 0
            while True:
                cx, cy, cz = cur.center
                oct_idx = ((1 if px > cx else 0) | (2 if py > cy else 0)
                           | (4 if pz > cz else 0))
                children = cur.children
                slot = children[oct_idx]
                if slot is None:
                    children[oct_idx] = Leaf(b)
                    events += (cur.seq, oct_idx, b)
                    break
                if isinstance(slot, Leaf):
                    if depth >= MAX_DEPTH:
                        slot.indices.append(b)
                        events += (cur.seq, oct_idx, b)
                        break
                    # Cell.child_center, inline
                    q = cur.size / 4.0
                    sx = cx + q if oct_idx & 1 else cx - q
                    sy = cy + q if oct_idx & 2 else cy - q
                    sz = cz + q if oct_idx & 4 else cz - q
                    sub = Cell((sx, sy, sz), cur.size / 2.0, home=h)
                    ox, oy, oz = positions[slot.indices[0]].tolist()
                    moved = ((1 if ox > sx else 0) | (2 if oy > sy else 0)
                             | (4 if oz > sz else 0))
                    sub.seq = seq = len(cells)
                    cells.append(sub)
                    homes.append(h)
                    events += (cur.seq, oct_idx, -2 - seq, seq, moved, -1)
                    sub.children[moved] = slot
                    children[oct_idx] = sub
                    cur = sub
                else:
                    cur = slot
                depth += 1
            nvisits += depth + 1
        visits.append(nvisits)
        made.append(len(cells) - before)
    return Inserted(visits, made, PY_INSERT)


def _insert_c(kernel, jobs: Sequence[Job], positions: np.ndarray,
              record: BuildRecord) -> "Inserted | None":
    """:func:`insert` by ``bh_insert_build`` into empty targets, or None,
    having touched nothing, when the kernel declines."""
    targets = [job[0] for job in jobs]
    idx = [np.asarray(job[1], dtype=np.int64).reshape(-1) for job in jobs]
    lengths = np.fromiter(map(len, idx), dtype=np.int64, count=len(jobs))
    job_start = np.zeros(len(jobs) + 1, dtype=np.int64)
    np.cumsum(lengths, out=job_start[1:])
    bodies = np.concatenate(idx) if idx else np.empty(0, dtype=np.int64)
    if all(isinstance(job[2], (int, np.integer)) for job in jobs):
        homes = np.repeat(np.fromiter((job[2] for job in jobs),
                                      dtype=np.int64, count=len(jobs)),
                          lengths)
    else:
        homes = np.concatenate([
            np.broadcast_to(np.asarray(home, dtype=np.int64), (n,))
            for (_, _, home), n in zip(jobs, lengths.tolist())])
    out = kernel.insert_build(
        np.fromiter((c.seq for c in targets), dtype=np.int64,
                    count=len(jobs)),
        np.array([c.center for c in targets],
                 dtype=np.float64).reshape(-1, 3),
        np.fromiter((c.size for c in targets), dtype=np.float64,
                    count=len(jobs)),
        job_start, bodies, homes,
        # (n, 3) float64 rows, whatever the caller's layout: the body ids
        # the builder checks are bounded by its row count
        np.ascontiguousarray(positions, dtype=np.float64).reshape(-1, 3),
        len(record.cells), MAX_DEPTH)
    if out is None:
        return None
    _materialize(out, targets, record)
    return Inserted(out["visits"].tolist(), out["made"].tolist(), C_INSERT)


def _materialize(out, targets: List[Cell], record: BuildRecord) -> None:
    """Make the ``Cell``/``Leaf`` objects of a compiled batch (``out``:
    :meth:`~repro.kernels.loader.CKernel.insert_build`), hang them under
    ``targets`` and append them and the events to ``record``."""
    base = len(record.cells)
    homes = out["home"].tolist()
    cells = list(map(Cell, zip(*out["center"].T.tolist()),
                     out["size"].tolist(), homes))
    for cell, seq in zip(cells, range(base, base + len(cells))):
        cell.seq = seq
    leaf_ptr = out["leaf_ptr"]
    leaf_bodies = out["leaf_bodies"]
    leaves = list(map(Leaf, leaf_bodies[leaf_ptr[:-1]].tolist()))
    for lf in np.flatnonzero(np.diff(leaf_ptr) > 1).tolist():
        leaves[lf].indices = leaf_bodies[leaf_ptr[lf]:leaf_ptr[lf + 1]
                                         ].tolist()
    # every slot's object by one gather over [None, leaves, cells], a
    # chunk of cells at a time: the lists Cell() made are freed as they
    # are replaced
    nodes = np.fromiter(chain((None,), leaves, targets, cells),
                        dtype=object,
                        count=1 + len(leaves) + len(targets) + len(cells))
    node = out["node"]
    owners = targets + cells
    for lo in range(0, len(owners), _ROWS_CHUNK):
        for cell, row in zip(owners[lo:lo + _ROWS_CHUNK],
                             nodes[node[lo:lo + _ROWS_CHUNK]].tolist()):
            cell.children = row
    record.cells += cells
    record.homes += homes
    record.append_events(out["events"])


@gc_paused()
def build_tree(positions: np.ndarray, box: RootBox, indices=None,
               home: int = 0) -> Cell:
    """Build a complete octree over ``indices`` (default: all bodies),
    under a record of its own."""
    root = new_root(box, home=home)
    record = BuildRecord()
    record.add(root)
    if indices is None:
        indices = range(len(positions))
    insert([(root, indices, home)], positions, record=record)
    return root
