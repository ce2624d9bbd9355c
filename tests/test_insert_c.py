"""The compiled insertion build: ``bh_insert_build`` vs the Python loop.

:func:`repro.octree.build.insert` serves a batch of jobs with the
compiled builder when every target is empty, and materializes its arrays
as ``Cell``/``Leaf`` objects; the Python loop is the oracle.  Both must
leave, with ``np.array_equal``:

* the same record: events, homes and the cells' seqs, and the same
  visits and new cells per job;
* the same cells: every cell's centre, size (bit for bit), home and seq,
  and every slot's cell or leaf, with each bucket's bodies in order;
* the same :func:`~repro.octree.flat.cell_rows` arrays.

The batches cover the baseline's round-robin global build at every
thread count on three distributions, coincident bodies that share
``MAX_DEPTH`` buckets, a record that already holds cells, and
subforest-style batches of many jobs (single-body jobs, a leaf-subspace
root).  A target that already holds bodies runs the loop, and a declined
call leaves the record and the cells untouched.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.build_replay import replay_kernel
from repro.core.variants.base import _round_robin
from repro.nbody.bbox import compute_root
from repro.nbody.distributions import make_distribution
from repro.octree.build import (C_INSERT, C_MIN_BODIES, PY_INSERT,
                                BuildRecord, _insert_c, _insert_py, insert,
                                new_root)
from repro.octree.cell import MAX_DEPTH, Cell, Leaf
from repro.octree.flat import cell_rows
from repro.octree.validate import check_tree

needs_kernel = pytest.mark.skipif(replay_kernel() is None,
                                  reason="no compiled kernel here")

THREADS = [1, 4, 16, 64, 112]
DISTS = ["plummer", "disk", "uniform"]


def _compiled(jobs, pos, record):
    done = _insert_c(replay_kernel(), jobs, pos, record)
    assert done is not None
    return done


def _positions(dist, n=1024, coincident=False):
    pos = make_distribution(dist, n, seed=11).pos
    if coincident:
        # three groups of coincident bodies (8, 4 and 6): MAX_DEPTH
        # buckets
        pos[100:107] = pos[40]
        pos[n - 3:] = pos[n - 4]
        pos[n // 2:n // 2 + 5] = pos[0]
    return pos


def _snapshot(record, done, roots):
    """Everything both engines must agree on, as arrays and lists."""
    cells = record.cells
    slots, buckets = [], []
    for cell in cells:
        for ch in cell.children:
            if ch is None:
                slots.append(-1)
            elif isinstance(ch, Leaf):
                slots.append(-2 - len(buckets))
                buckets.append(list(ch.indices))
            else:
                slots.append(ch.seq)
    snap = {
        "events": record.event_array(),
        "homes": np.array(record.homes),
        "seqs": np.array([c.seq for c in cells]),
        "visits": np.array(done.visits),
        "made": np.array(done.made),
        "center": np.array([c.center for c in cells]).view(np.uint64),
        "size": np.array([c.size for c in cells]).view(np.uint64),
        "home": np.array([c.home for c in cells]),
        "slots": np.array(slots),
        "buckets": buckets,
    }
    for k, root in enumerate(roots):
        rows = cell_rows(root)
        snap[f"rows{k}.seq"] = np.array([c.seq for c in rows.cells])
        for name in ("child", "leaf_ptr", "leaf_bodies"):
            snap[f"rows{k}.{name}"] = getattr(rows, name)
    return snap


def _assert_same(setup, pos):
    """Run the batch ``setup()`` makes with both engines and compare."""
    snaps = []
    for engine in (_insert_py, _compiled):
        record, jobs, roots = setup()
        done = engine(jobs, pos, record)
        assert done.engine == (PY_INSERT if engine is _insert_py
                               else C_INSERT)
        assert record.homes == [c.home for c in record.cells]
        for root in roots:
            check_tree(root, pos)
        snaps.append(_snapshot(record, done, roots))
    py, c = snaps
    assert py.keys() == c.keys()
    for key in py:
        if key == "buckets":
            assert py[key] == c[key]
        else:
            assert py[key].shape == c[key].shape, key
            assert np.array_equal(py[key], c[key]), key
    return py


def _global_setup(pos, nthreads):
    n = len(pos)
    order, tids = _round_robin(np.array_split(np.arange(n), nthreads))

    def setup():
        root = new_root(compute_root(pos))
        record = BuildRecord()
        record.add(root)
        return record, [(root, order, tids)], [root]
    return setup


@needs_kernel
@pytest.mark.parametrize("dist", DISTS)
@pytest.mark.parametrize("nthreads", THREADS)
def test_round_robin_global_build(dist, nthreads):
    pos = _positions(dist)
    snap = _assert_same(_global_setup(pos, nthreads), pos)
    assert len(snap["events"]) == len(pos) + 2 * snap["made"][0]
    if nthreads > 1:
        assert len(set(snap["home"].tolist())) > 1


@needs_kernel
@pytest.mark.parametrize("dist", DISTS)
def test_coincident_bodies_share_max_depth_buckets(dist):
    pos = _positions(dist, coincident=True)
    snap = _assert_same(_global_setup(pos, 4), pos)
    sizes = sorted(len(b) for b in snap["buckets"] if len(b) > 1)
    assert sizes == [4, 6, 8]
    # each group's cells split MAX_DEPTH times below the root
    assert snap["visits"][0] > len(pos) + MAX_DEPTH


@needs_kernel
def test_a_record_that_already_holds_cells():
    pos = _positions("plummer", coincident=True)
    first = np.arange(0, 600)
    second = np.arange(600, len(pos))

    def setup():
        record = BuildRecord()
        top = new_root(compute_root(pos))
        record.add(top)
        _insert_py([(top, first, 2)], pos, record)
        root = new_root(compute_root(pos[second]), home=1)
        record.add(root)
        return record, [(root, second, 3)], [top, root]

    snap = _assert_same(setup, pos)
    assert snap["seqs"][0] == 0 and snap["made"][0] > 0
    base = len(snap["seqs"]) - snap["made"][0]
    assert (snap["home"][base:] == 3).all()


def _subforest_setup(pos, nthreads, leaf_root=False, levels=3):
    """One job per non-empty cell ``levels`` below the root box, in
    Morton order, owned by the threads in runs (the subspace build's
    subforest); a cell holding one body is a one-body job.  With
    ``leaf_root``, the root itself is the only job."""
    box = compute_root(pos)
    groups = {}
    for b, p in enumerate(pos.tolist()):
        cell, path = new_root(box), ()
        for _ in range(levels):
            o = cell.octant_of(p)
            path += (o,)
            cell = Cell(cell.child_center(o), cell.size / 2.0)
        groups.setdefault(path, []).append(b)
    paths = sorted(groups)

    def setup():
        record = BuildRecord()
        root = new_root(box)
        record.add(root)
        if leaf_root:
            root.home = record.homes[0] = nthreads - 1
            return record, [(root, np.arange(len(pos)), nthreads - 1)], [root]
        jobs = []
        for k, path in enumerate(paths):
            cell = root
            for o in path:
                cell = Cell(cell.child_center(o), cell.size / 2.0)
            t = k * nthreads // len(paths)
            cell.home = t
            record.add(cell)
            jobs.append((cell, np.array(groups[path]), t))
        return record, jobs, [job[0] for job in jobs]
    return setup, [groups[path] for path in paths]


@needs_kernel
@pytest.mark.parametrize("dist", DISTS)
@pytest.mark.parametrize("nthreads", THREADS)
def test_subforest_batch(dist, nthreads):
    pos = _positions(dist, n=400, coincident=True)
    setup, groups = _subforest_setup(pos, nthreads)
    snap = _assert_same(setup, pos)
    assert len(snap["visits"]) == len(groups) > 8
    assert any(len(sel) == 1 for sel in groups)
    assert (snap["visits"] >= [len(sel) for sel in groups]).all()


@needs_kernel
def test_leaf_subspace_root():
    pos = _positions("disk", n=200, coincident=True)
    setup, _ = _subforest_setup(pos, 4, leaf_root=True)
    snap = _assert_same(setup, pos)
    assert snap["home"][0] == 3 and (snap["home"][1:] == 3).all()


@needs_kernel
def test_insert_chooses_the_engine():
    pos = _positions("plummer", n=300)
    record, jobs, (root,) = _global_setup(pos, 4)()
    assert insert(jobs, pos, record=record).engine == C_INSERT
    # the root now holds bodies: the loop serves, into the same record
    more = np.arange(len(pos))
    done = insert([(root, more[:100], 1)], pos, record=record)
    assert done.engine == PY_INSERT
    # a small batch into an empty cell: the loop too
    small = new_root(compute_root(pos))
    record.add(small)
    assert insert([(small, more[:C_MIN_BODIES - 1], 0)], pos,
                  record=record).engine == PY_INSERT
    # the same target twice in one batch: the loop
    twice = new_root(compute_root(pos))
    record.add(twice)
    done = insert([(twice, more[:50], 0), (twice, more[50:100], 1)], pos,
                  record=record)
    assert done.engine == PY_INSERT and len(done.visits) == 2


@needs_kernel
def test_the_loop_continues_a_compiled_build_exactly():
    pos = _positions("uniform", n=400, coincident=True)
    snaps = []
    for first in (_insert_py, _compiled):
        root = new_root(compute_root(pos))
        record = BuildRecord()
        record.add(root)
        a = first([(root, np.arange(250), 0)], pos, record)
        b = insert([(root, np.arange(250, 400), 1)], pos, record=record)
        assert b.engine == PY_INSERT
        snaps.append(_snapshot(record, a._replace(
            visits=a.visits + b.visits, made=a.made + b.made), [root]))
    for key in snaps[0]:
        if key != "buckets":
            assert np.array_equal(snaps[0][key], snaps[1][key]), key
    assert snaps[0]["buckets"] == snaps[1]["buckets"]


@needs_kernel
@pytest.mark.parametrize("bad", ["body", "seq"])
def test_a_declined_batch_touches_nothing(bad):
    pos = _positions("plummer", n=300)
    record, jobs, _ = _global_setup(pos, 4)()
    insert(jobs, pos, record=record)
    record.add(Cell((0.0, 0.0, 0.0), 1.0))
    record.hook(record.cells[-1], 3, Leaf(5))   # left in the pending buffer
    events = record.event_array().copy()
    record.hook(record.cells[-1], 4, Leaf(6))
    cells, homes = list(record.cells), list(record.homes)
    pending = list(record.pending)
    target = new_root(compute_root(pos))
    idx = np.arange(100)
    if bad == "body":
        record.add(target)
        idx[7] = len(pos)
    else:   # a target the record does not number
        target.seq = len(record.cells) + 3
    assert _insert_c(replay_kernel(), [(target, idx, 0)], pos,
                     record) is None
    assert target.children == [None] * 8
    assert record.cells[:len(cells)] == cells
    assert record.homes[:len(homes)] == homes
    assert len(record.cells) == len(cells) + (bad == "body")
    assert record.pending == pending
    assert np.array_equal(record.event_array()[:len(events)], events)
    assert len(record.event_array()) == len(events) + 1
