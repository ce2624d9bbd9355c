"""The one-pass c-of-m fill of a finished tree: compiled ``bh_cofm_rows``
vs ``compute_cofm``.

:func:`repro.core.subspace.build_subforest_and_hook` charges its
subtrees from counts and fills its record's c-of-m arrays in one pass
over the finished tree (``VariantBase.fill_cofm``): ``bh_cofm_rows``
over its flatten when the kernel serves, ``compute_cofm`` otherwise.
The local build's merged tree and the LET variant's global tree are
filled the same way.  One tree build run both ways from deep-copied
state must agree with ``np.array_equal`` on the tree, its record's
``mass``/``cofm``/``nbodies``/``cost`` arrays (and their dtypes), every
thread clock and NIC time, every counter row, the shared-heap
bookkeeping, the cell count and the sub-phase times.  The force phase's
``SlotTree`` built from the compiled pass's flatten and arrays must
equal one flattened afresh from the oracle's cells.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.backends.object_tree import SlotTree
from repro.core.app import BarnesHutSimulation
from repro.core.build_replay import replay_kernel
from repro.core.config import BHConfig
from repro.core.phases import TREEBUILD
from repro.core.variants.base import ROWS_COFM, TREE_COFM
from repro.kernels.loader import CKernel
from repro.nbody.distributions import make_distribution
from repro.octree.cell import Leaf
from repro.octree.flat import cell_rows
from repro.upc.params import paper_section5_machine

needs_kernel = pytest.mark.skipif(replay_kernel() is None,
                                  reason="no compiled kernel here")

FLAT_FIELDS = ("center", "size", "mass", "cofm", "nbodies", "cost", "home",
               "child", "leaf_ptr", "leaf_bodies", "cell_ptr", "cell_data",
               "lb_ptr", "lb_data", "gmass", "cx", "cy", "cz")


def _at_build(variant, build, nthreads, dist="plummer", nbodies=512,
              alpha=2.0 / 3.0, coincident=False):
    """A ``variant`` after step 0 and step 1's phases before its tree
    build ``build`` (a phase method name), with that TREEBUILD open."""
    cfg = BHConfig(nbodies=nbodies, nsteps=2, warmup_steps=1, seed=7,
                   distribution=dist, alpha=alpha)
    bodies = make_distribution(dist, nbodies, seed=7)
    if coincident:
        # nine bodies moving as one: a MAX_DEPTH bucket leaf every step
        bodies.pos[50:58] = bodies.pos[40]
        bodies.vel[50:58] = bodies.vel[40]
    sim = BarnesHutSimulation(cfg, nthreads, machine=paper_section5_machine(),
                              variant=variant, bodies=bodies)
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


def _at_subforest(nthreads, *args, **kw):
    """A subspace variant after step 0 and step 1's split, leaf
    allocation and exchange, with the subforest's TREEBUILD open."""
    return _at_build("subspace", "phase_subforest", nthreads, *args, **kw)


def _run(v, monkeypatch, compiled: bool, build="phase_subforest"):
    """The tree build ``build`` on a deep copy of ``v``, with or without
    the kernel."""
    v = copy.deepcopy(v)
    if compiled:
        getattr(v, build)()
    else:
        with monkeypatch.context() as mp:
            mp.setattr("repro.kernels.load_kernel", lambda: None)
            getattr(v, build)()
    return v


def _assert_same_charges(got, want):
    assert np.array_equal(got.rt.clock, want.rt.clock)
    assert np.array_equal(got.rt._nic, want.rt._nic)
    rows = got.rt._counters._data
    want_rows = want.rt._counters._data
    assert sorted(rows) == sorted(want_rows)
    for key in rows:
        assert np.array_equal(rows[key], want_rows[key]), key
    assert np.array_equal(got.rt.heap.allocated, want.rt.heap.allocated)
    assert np.array_equal(got.rt.heap.live_objects,
                          want.rt.heap.live_objects)
    assert got.ncells == want.ncells
    sub, want_sub = got.treebuild_subphases, want.treebuild_subphases
    assert len(sub) == len(want_sub)
    for a, b in zip(sub, want_sub):
        assert sorted(a) == sorted(b)
        for key in a:
            assert np.array_equal(a[key], b[key]), key


def _assert_same_cells(got, want):
    """Both builds made the same tree, and their records hold the same
    c-of-m arrays; the tree's cells, in row order."""
    rows, want_rows = cell_rows(got.root), cell_rows(want.root)
    for name in ("child", "leaf_ptr", "leaf_bodies", "center", "size",
                 "home"):
        assert np.array_equal(getattr(rows, name),
                              getattr(want_rows, name)), name
    for name in ("mass", "cofm", "nbodies", "cost"):
        a, b = getattr(got.rows, name), getattr(want.rows, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.rows.cofm.shape == (len(rows.cells), 3)
    return rows.cells


def _assert_compiled_matches_oracle(v, monkeypatch, build="phase_subforest"):
    got = _run(v, monkeypatch, True, build)
    want = _run(v, monkeypatch, False, build)
    assert got.cofm_engine == ROWS_COFM
    assert want.cofm_engine == TREE_COFM
    _assert_same_charges(got, want)
    cells = _assert_same_cells(got, want)
    # every variant here counts the tree it fills: the subspace build's
    # and the merge's cells, not the local cells the merge folds into
    # global ones, and mpi-let's uncharged global tree, not its local
    # trees' allocations
    assert v.name in ("localbuild", "async", "subspace", "mpi-let")
    assert len(cells) == got.ncells
    if v.subspace_build:
        # the shared heap books every subtree cell; thread 0's top cells
        # (one per split subspace, or the root alone) are not booked there
        top = max(1, int((v._ss_tree.child_base >= 0).sum()))
        booked = got.rt.heap.live_objects.sum() \
            - v.rt.heap.live_objects.sum()
        assert booked == len(cells) - top
    # the force phase reads the pass's flatten and arrays; without the
    # kernel, compute_cofm's fields copied into the flatten are the same
    rows = got.rows
    assert rows.cells == cells
    reused = got.slot_tree()
    assert reused.cells is rows.cells
    # the oracle's cells hold compute_cofm's fields
    fresh = SlotTree(want.root, want.bodies, want.cfg)
    for name in FLAT_FIELDS:
        a, b = getattr(reused.flat, name), getattr(fresh.flat, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
        c = getattr(want.slot_tree().flat, name)
        assert c.dtype == b.dtype and np.array_equal(c, b), name
    return got


CASES = [(p, dist) for p in (1, 4, 16, 64) for dist in ("plummer", "disk")]


@needs_kernel
class TestCompiledMatchesOracle:
    @pytest.mark.parametrize("nthreads,dist", CASES,
                             ids=[f"{p}-{d}" for p, d in CASES])
    def test_subforest_bit_identical(self, monkeypatch, nthreads, dist):
        v = _at_subforest(nthreads, dist)
        got = _assert_compiled_matches_oracle(v, monkeypatch)
        if nthreads > 1:
            # the top tree gathers hooked roots from other threads
            assert got.rt._counters.total("subtree_hooks") > 0
            assert len({c.home for c in cell_rows(got.root).cells}) > 1

    @pytest.mark.parametrize("nthreads", [4, 64])
    def test_max_depth_bucket(self, monkeypatch, nthreads):
        v = _at_subforest(nthreads, coincident=True)
        got = _assert_compiled_matches_oracle(v, monkeypatch)
        buckets = [ch for c in cell_rows(got.root).cells for ch in c.children
                   if isinstance(ch, Leaf) and len(ch.indices) > 1]
        assert buckets

    def test_root_is_a_leaf_subspace(self, monkeypatch):
        # alpha = 1 on one thread: the root's cost never exceeds tau
        v = _at_subforest(1, alpha=1.0)
        assert v._ss_tree.n_nodes == 1
        got = _assert_compiled_matches_oracle(v, monkeypatch)
        assert got.rows.nbodies[0] == len(got.bodies)

    @pytest.mark.parametrize("variant", ["localbuild", "async", "mpi-let"])
    @pytest.mark.parametrize("nthreads", [1, 16])
    def test_merged_and_let_trees_filled_alike(self, monkeypatch, variant,
                                               nthreads):
        # the local build's merged tree and the LET variant's uncharged
        # global tree take their fields from the same one-pass fill
        v = _at_build(variant, "phase_treebuild", nthreads)
        _assert_compiled_matches_oracle(v, monkeypatch, "phase_treebuild")

    def test_declined_call_runs_compute_cofm(self, monkeypatch):
        v = _at_subforest(16)
        want = _run(v, monkeypatch, compiled=False)
        with monkeypatch.context() as mp:
            mp.setattr(CKernel, "cofm_rows", lambda self, *a: False)
            got = _run(v, monkeypatch, compiled=True)
        assert got.cofm_engine == want.cofm_engine == TREE_COFM
        _assert_same_charges(got, want)
        _assert_same_cells(got, want)

    def test_malformed_rows_decline_untouched(self):
        kernel = replay_kernel()
        v = _at_subforest(4)
        v.phase_subforest()
        rows = v.rows
        child, leaf_ptr, leaf_bodies = rows.child, rows.leaf_ptr, \
            rows.leaf_bodies
        bodies = v.bodies
        n = len(rows.cells)
        center = np.zeros((n, 3))

        def run(child=child, leaf_ptr=leaf_ptr, leaf_bodies=leaf_bodies,
                nbodies=len(bodies)):
            out = [np.full(n, -7.0), np.full((n, 3), -7.0),
                   np.full(n, -7, dtype=np.int64), np.full(n, -7.0)]
            ok = kernel.cofm_rows(
                child, leaf_ptr, leaf_bodies, center,
                bodies.mass[:nbodies].copy(), bodies.pos[:nbodies].copy(),
                bodies.cost[:nbodies].copy(), *out)
            return ok, out

        ok, out = run()
        assert ok and out[0][0] == v.rows.mass[0]
        rows, slots = np.nonzero(child >= 0)
        upward = child.copy()
        upward[rows[-1], slots[-1]] = rows[-1]  # a child not below its row
        bad_leaf = child.copy()
        bad_leaf[child <= -2] = -(len(leaf_ptr) + 1)  # leaf id past the end
        empty_leaf = leaf_ptr.copy()
        empty_leaf[1] = empty_leaf[0]
        for kwargs in ({"child": upward}, {"child": bad_leaf},
                       {"leaf_ptr": empty_leaf},
                       {"nbodies": int(leaf_bodies.max())}):
            ok, out = run(**kwargs)
            assert not ok, kwargs
            assert all((a == -7).all() for a in out), kwargs

