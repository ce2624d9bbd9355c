"""Float-tuple cell geometry and the counted ``insert``.

``Cell.center`` is a tuple of three Python floats, and
:func:`repro.octree.build.insert` runs the octant test and the child-centre
arithmetic inline on it.  Every centre must carry the same bits as the
numpy 3-vector chain it replaced (``center + off``) and as
:mod:`repro.octree.morton_build`'s per-level centres; ``insert`` must
return the number of cells it visited on every path (empty slot, split,
``MAX_DEPTH`` bucket) and add the cells it made to its record; and
a NaN centre injected after a tree build must still be caught.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import BHConfig, BarnesHutSimulation, SimulationFault
from repro.core.phases import TREEBUILD
from repro.nbody.bbox import compute_root
from repro.nbody.distributions import distribution_names, make_distribution
from repro.octree.build import BuildRecord, build_tree, insert, new_root
from repro.octree.cell import MAX_DEPTH, Cell, Leaf
from repro.octree.flat import FlatTree
from repro.octree.morton_build import build_flat_tree
from repro.resilience import FaultInjector, HealthGuards
from repro.resilience.faults import CAUSE_NON_FINITE


def _hex(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("dist", distribution_names())
def test_child_centres_match_the_numpy_chain(dist):
    bodies = make_distribution(dist, 700, seed=3)
    root = build_tree(bodies.pos, compute_root(bodies.pos))
    assert type(root.center) is tuple
    stack = [(root, np.asarray(root.center, dtype=np.float64))]
    checked = 0
    while stack:
        cell, ctr = stack.pop()
        assert all(type(c) is float for c in cell.center)
        assert _hex(cell.center) == _hex(ctr)
        q = cell.size / 4.0
        for o in range(8):
            off = np.array([q if o & 1 else -q, q if o & 2 else -q,
                            q if o & 4 else -q], dtype=np.float64)
            assert _hex(cell.child_center(o)) == _hex(ctr + off)
            ch = cell.children[o]
            if isinstance(ch, Cell):
                stack.append((ch, ctr + off))
                checked += 1
    assert checked > 100


@pytest.mark.parametrize("dist", distribution_names())
def test_centres_match_morton_build_bit_for_bit(dist):
    bodies = make_distribution(dist, 700, seed=5)
    box = compute_root(bodies.pos)
    ref = FlatTree.from_cell(build_tree(bodies.pos, box))
    got = build_flat_tree(bodies.pos, bodies.mass, box)
    assert got.center.shape == ref.center.shape
    assert np.array_equal(got.center.view(np.uint64),
                          ref.center.view(np.uint64))


def test_octant_of_matches_insert():
    bodies = make_distribution("plummer", 300, seed=9)
    root = build_tree(bodies.pos, compute_root(bodies.pos))
    for cell in root.iter_cells():
        for o, ch in enumerate(cell.children):
            if isinstance(ch, Leaf):
                for b in ch.indices:
                    assert cell.octant_of(bodies.pos[b]) == o
                    assert cell.octant_of(bodies.pos[b].tolist()) == o


def _insert_counted(root, idx, pos, record):
    """``insert``'s visits and the cells it added to ``record``, checked
    against the record: the body lands in the last visited cell, and the
    new cells are the last ones on the root-to-cell path."""
    start = len(record.cells)
    nevents = len(record.event_array())
    (visits,), (allocs,), _ = insert([(root, [idx], 0)], pos, record=record)
    assert allocs == len(record.cells) - start
    events = record.event_array()[nevents:].ravel().tolist()
    assert events[-1] == idx
    path = [record.cells[events[-3]]]
    while path[-1] is not root:
        path.append(next(c for c in record.cells
                         if path[-1] in c.children))
    assert visits == len(path)
    assert [c.seq for c in path[:allocs]] \
        == list(range(len(record.cells) - 1, start - 1, -1))
    return visits, allocs


def test_insert_counts_the_empty_slot_and_split_paths():
    pos = np.array([[0.5, 0.5, 0.5], [0.25, 0.25, 0.25], [-0.5, 0.5, 0.5],
                    [1.5, 1.5, 1.5]])
    root = Cell((0.0, 0.0, 0.0), 4.0)
    record = BuildRecord()
    record.add(root)
    assert _insert_counted(root, 0, pos, record) == (1, 0)   # empty slot
    assert _insert_counted(root, 2, pos, record) == (1, 0)   # empty slot
    # body 1 shares body 0's cell down to size 0.5: three splits
    assert _insert_counted(root, 1, pos, record) == (4, 3)
    # body 3 lands in an empty slot of the first split cell
    assert _insert_counted(root, 3, pos, record) == (2, 0)
    assert sorted(c.seq for c in root.iter_cells()) == [0, 1, 2, 3]


def test_insert_counts_the_bucket_path():
    pos = np.tile([[0.1, -0.2, 0.3]], (4, 1))
    pos = np.vstack([pos, [[-0.4, 0.4, -0.4]]])
    root = new_root(compute_root(pos))
    record = BuildRecord()
    record.add(root)
    _insert_counted(root, 0, pos, record)
    visits, allocs = _insert_counted(root, 1, pos, record)
    # coincident bodies split down to MAX_DEPTH, then share a bucket
    assert allocs == MAX_DEPTH and visits == MAX_DEPTH + 1
    for b in (2, 3):
        assert _insert_counted(root, b, pos, record) == (MAX_DEPTH + 1, 0)
    buckets = [ch for c in root.iter_cells() for ch in c.children
               if isinstance(ch, Leaf) and len(ch.indices) > 1]
    assert [b.indices for b in buckets] == [[0, 1, 2, 3]]


def test_nan_centre_injected_after_a_build_is_caught():
    cfg = BHConfig(nbodies=128, nsteps=3, warmup_steps=1, seed=7)
    sim = BarnesHutSimulation(cfg, 2, variant="subspace")
    v = sim.variant
    v.step(0)
    inj = FaultInjector.from_specs([f"{TREEBUILD}:1:corrupt"], seed=3)
    assert inj.after_phase(TREEBUILD, 1, v)
    # the damage lands in row 0 of the tree's record, which the later
    # phases and the guards read; the root cell is left alone
    assert np.isnan(v.rows.center[0]).sum() == 1
    assert not np.isnan(v.root.center).any()
    with pytest.raises(SimulationFault) as ei:
        HealthGuards().check_phase(TREEBUILD, 1, v)
    assert ei.value.cause == CAUSE_NON_FINITE
