"""The compiled flatten of a recorded build: ``bh_tree_rows`` vs
``cell_rows``.

``insert`` records its splits and placements, and the subspace build its
hooks, in a :class:`~repro.octree.build.BuildRecord`;
:func:`~repro.octree.flat.record_rows` turns the record into the rows
:func:`~repro.octree.flat.cell_rows` reads off the finished tree.  The
two must agree with ``np.array_equal`` on the slot codes and leaf
spans, map every row to the very same ``Cell``, and give each row the
cell's ``center``, ``size``, ``home`` and ``seq``; the tree-order body
sequence must be ``bodies_in_order``'s.  A malformed record is declined
with every output untouched, and a declined call leaves the build on the
``cell_rows`` path with the same charges and cells.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core.app import BarnesHutSimulation, run_variant
from repro.core.build_replay import replay_kernel
from repro.core.config import BHConfig
from repro.core.phases import TREEBUILD
from repro.core.variants.base import C_ROWS, PY_ROWS
from repro.kernels.loader import CKernel
from repro.nbody.bbox import compute_root
from repro.nbody.distributions import make_distribution
from repro.octree.build import BuildRecord, insert, new_root
from repro.octree.cell import Leaf
from repro.octree.flat import cell_rows, record_rows
from repro.octree.morton import bodies_in_order
from repro.upc.params import paper_section5_machine

needs_kernel = pytest.mark.skipif(replay_kernel() is None,
                                  reason="no compiled kernel here")


def _assert_rows_of(root, rows):
    """``rows`` are ``cell_rows(root)``: the same structure, the cells'
    geometry, homes and seqs, and ``bodies_in_order(root)``."""
    want = cell_rows(root)
    cells = rows.cells
    assert len(cells) == len(want.cells)
    assert all(a is b for a, b in zip(cells, want.cells))
    for name in ("child", "leaf_ptr", "leaf_bodies"):
        got, ref = getattr(rows, name), getattr(want, name)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), name
    assert np.array_equal(rows.center, np.array([c.center for c in cells]))
    assert np.array_equal(rows.size, np.array([c.size for c in cells]))
    assert rows.home.dtype == np.int32
    assert np.array_equal(rows.home, [c.home for c in cells])
    assert np.array_equal(rows.seq, [c.seq for c in cells])
    assert np.array_equal(rows.order, bodies_in_order(root))


def _bodies(dist, nbodies=512, coincident=False):
    bodies = make_distribution(dist, nbodies, seed=7)
    if coincident:
        # nine bodies moving as one: a MAX_DEPTH bucket leaf every step
        bodies.pos[50:58] = bodies.pos[40]
        bodies.vel[50:58] = bodies.vel[40]
    return bodies


def _at_build(variant, build, nthreads, dist="plummer", alpha=2.0 / 3.0,
              coincident=False):
    """A ``variant`` after step 0 and step 1's phases before its tree
    build ``build``, with that TREEBUILD open."""
    cfg = BHConfig(nbodies=512, nsteps=2, warmup_steps=1, seed=7,
                   distribution=dist, alpha=alpha)
    sim = BarnesHutSimulation(cfg, nthreads, machine=paper_section5_machine(),
                              variant=variant,
                              bodies=_bodies(dist, coincident=coincident))
    v = sim.variant
    v.step(0)
    v.step_index = v.rt.step = 1
    for name, method in v.phase_plan():
        if method.__name__ == build:
            break
        with v.rt.phase(name):
            method()
    v.rt.begin_phase(TREEBUILD)
    return v


def _built(variant, nthreads, *args, **kw):
    build = "phase_subforest" if variant == "subspace" else \
        "phase_treebuild"
    v = _at_build(variant, build, nthreads, *args, **kw)
    getattr(v, build)()
    return v


CASES = [(p, dist) for p in (1, 4, 16, 64, 112)
         for dist in ("plummer", "disk")]
IDS = [f"{p}-{d}" for p, d in CASES]


@needs_kernel
class TestRowsMatchCellRows:
    @pytest.mark.parametrize("nthreads,dist", CASES, ids=IDS)
    def test_baseline_global_build(self, nthreads, dist):
        v = _built("baseline", nthreads, dist)
        assert v.rows_engine == C_ROWS
        assert v.rows.cells[0] is v.root
        _assert_rows_of(v.root, v.rows)
        if nthreads > 1:
            assert len(set(v.rows.home.tolist())) > 1

    @pytest.mark.parametrize("nthreads,dist", CASES, ids=IDS)
    def test_subspace_subforest(self, nthreads, dist):
        v = _built("subspace", nthreads, dist)
        assert v.rows_engine == C_ROWS
        _assert_rows_of(v.root, v.rows)

    @pytest.mark.parametrize("variant", ["baseline", "subspace"])
    def test_max_depth_bucket(self, variant):
        v = _built(variant, 16, coincident=True)
        cells = v.rows.cells
        assert any(isinstance(ch, Leaf) and len(ch.indices) > 1
                   for c in cells for ch in c.children)
        _assert_rows_of(v.root, v.rows)

    def test_root_is_a_leaf_subspace(self):
        # alpha = 1 on one thread: the root's cost never exceeds tau
        v = _built("subspace", 1, alpha=1.0)
        assert v._ss_tree.n_nodes == 1
        _assert_rows_of(v.root, v.rows)

    @pytest.mark.parametrize("dist", ["plummer", "uniform", "disk"])
    def test_plain_recorded_build(self, dist):
        bodies = _bodies(dist, 700, coincident=True)
        pos = bodies.pos
        root = new_root(compute_root(pos))
        record = BuildRecord()
        record.add(root)
        insert([(root, range(len(pos)), np.arange(len(pos)) % 3)], pos,
               record=record)
        _assert_rows_of(root, record_rows(replay_kernel(), record, root,
                                          len(pos)))


def _record(pos):
    """A recorded build of ``pos`` and its root."""
    root = new_root(compute_root(pos))
    record = BuildRecord()
    record.add(root)
    insert([(root, range(len(pos)), 0)], pos, record=record)
    return root, record


@needs_kernel
class TestDeclined:
    def _call(self, events, ncells, nbodies=64, root=0):
        out = [np.full((ncells, 8), -7, dtype=np.int64),
               np.full(nbodies + 1, -7, dtype=np.int64),
               np.full(nbodies, -7, dtype=np.int64),
               np.full((ncells, 3), -7.0), np.full(ncells, -7.0),
               np.full(ncells, -7, dtype=np.int32),
               np.full(ncells, -7, dtype=np.int64),
               np.full(nbodies, -7, dtype=np.int64),
               np.full(3, -7, dtype=np.int64)]
        ok = replay_kernel().tree_rows(
            np.asarray(events, dtype=np.int64).reshape(-1, 3),
            np.zeros(ncells, dtype=np.int64), root, np.zeros(3), 1.0,
            nbodies, *out)
        return ok, out

    def test_well_formed_record_is_served(self):
        ok, out = self._call([0, 3, 5, 0, 3, -3, 1, 2, -1, 1, 6, 9], 2)
        assert ok
        assert out[-1].tolist() == [2, 2, 2]
        assert out[0][0].tolist() == [-1, -1, -1, 1, -1, -1, -1, -1]

    @pytest.mark.parametrize("events,ncells", [
        ([0, 3, 64], 1),                  # a body id past nbodies
        ([0, 3, -1], 1),                  # a move with no displaced leaf
        ([0, 3, 5, 0, 3, -3], 2),         # a displaced leaf never moved
        ([0, 3, -3, 0, 4, -3], 2),        # a cell hooked twice
        ([0, 3, -3, 0, 3, 5], 2),         # a body added where a cell is
        ([0, 3, -3, 0, 3, -4], 3),        # a cell hooked over a cell
        ([0, 1, -2], 1),                  # the root hooked under itself
        ([2, 3, 5], 2),                   # a parent past the cells
        ([0, 8, 5], 1),                   # an octant past 7
        ([0, 3, -9], 2),                  # a hooked seq past the cells
    ])
    def test_malformed_record_untouched(self, events, ncells):
        ok, out = self._call(events, ncells)
        assert not ok
        assert all((a == -7).all() for a in out)

    def test_too_many_bodies_untouched(self):
        pos = make_distribution("plummer", 40, seed=3).pos
        root, record = _record(pos)
        assert record_rows(replay_kernel(), record, root, 40) is not None
        assert record_rows(replay_kernel(), record, root, 39) is None

    def test_declined_build_flattens_the_cells(self, monkeypatch):
        v = _at_build("subspace", "phase_subforest", 16)
        got = copy.deepcopy(v)
        want = copy.deepcopy(v)
        got.phase_subforest()
        with monkeypatch.context() as mp:
            mp.setattr(CKernel, "tree_rows", lambda self, *a: False)
            want.phase_subforest()
        assert got.rows_engine == C_ROWS and want.rows_engine == PY_ROWS
        assert np.array_equal(got.rt.clock, want.rt.clock)
        assert np.array_equal(got.rt._nic, want.rt._nic)
        assert got.ncells == want.ncells
        for key in ("child", "leaf_ptr", "leaf_bodies", "order", "center",
                    "mass", "cofm", "nbodies", "cost"):
            assert np.array_equal(getattr(got.rows, key),
                                  getattr(want.rows, key)), key


def test_rows_engine_stat():
    cfg = BHConfig(nbodies=128, nsteps=2, warmup_steps=1)
    want = C_ROWS if replay_kernel() is not None else PY_ROWS
    assert run_variant("baseline", cfg, 4).variant_stats["rows_engine"] \
        == want
    assert run_variant("localbuild", cfg, 4).variant_stats["rows_engine"] \
        == PY_ROWS


def test_rows_engine_stat_without_kernel(monkeypatch):
    monkeypatch.setattr("repro.kernels.load_kernel", lambda: None)
    cfg = BHConfig(nbodies=128, nsteps=2, warmup_steps=1)
    stats = run_variant("baseline", cfg, 4).variant_stats
    assert stats["rows_engine"] == PY_ROWS
