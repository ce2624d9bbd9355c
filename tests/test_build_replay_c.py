"""The baseline's tree build and c-of-m phase: compiled replays vs hooks.

``bh_build_replay`` charges the insertion build from its visit trace and
``bh_cofm_replay`` replays ``run_waiting``'s c-of-m schedule, so one
phase run both ways from deep-copied state must agree with
``np.array_equal`` on everything it touches: every thread clock and NIC
time, every counter row and the key set, the shared-heap bookkeeping,
every cell's lock statistics, the creation order (``mycelltab`` by
``Cell.seq``), the cell count, every cell's ``mass``/``cofm``/
``nbodies``/``cost`` and every c-of-m done time.  The oracle runs with
the kernel lookup patched away, as on a box without a compiler.  The
force phase's ``SlotTree`` built from the c-of-m replay's flatten must
equal one flattened afresh.

The run-level tests at the bottom (``variant_stats`` engines and lock
statistics, metrics export) hold with or without a kernel.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

import repro.core.build_replay as build_replay
import repro.core.variants.base as variant_base
from repro.backends.object_tree import SlotTree
from repro.core.app import BarnesHutSimulation, run_variant
from repro.core.build_replay import replay_cofm, replay_kernel
from repro.core.config import BHConfig
from repro.core.phases import COFM, TREEBUILD
from repro.kernels.loader import CKernel
from repro.nbody.distributions import make_distribution
from repro.octree.cell import Leaf
from repro.octree.flat import cell_rows
from repro.upc.params import paper_section5_machine, paper_section6_machine

needs_kernel = pytest.mark.skipif(replay_kernel() is None,
                                  reason="no compiled replay here")

MACHINES = {
    "section5": paper_section5_machine,
    "section6-tpn4": lambda: paper_section6_machine(4),
}

#: the variants that build with VariantBase.phase_treebuild/phase_cofm
VARIANTS = ("baseline", "replicate", "redistribute", "cache",
            "cache-merged")


def _at_phase(variant, nthreads, phase, dist="plummer", machine="section5",
              nbodies=384, coincident=False):
    """A variant after step 0 and step 1's phases before ``phase``, with
    ``phase`` open: the second step's build runs on the bodies the first
    step partitioned (and, for the section 5.2+ variants, migrated)."""
    cfg = BHConfig(nbodies=nbodies, nsteps=2, warmup_steps=1, seed=7,
                   distribution=dist)
    bodies = make_distribution(dist, nbodies, seed=7)
    if coincident:
        # nine bodies moving as one: a MAX_DEPTH bucket leaf every step
        bodies.pos[50:58] = bodies.pos[40]
        bodies.vel[50:58] = bodies.vel[40]
    sim = BarnesHutSimulation(cfg, nthreads, machine=MACHINES[machine](),
                              variant=variant, bodies=bodies)
    v = sim.variant
    v.step(0)
    v.step_index = v.rt.step = 1
    for name, method in v.phase_plan():
        if name == phase:
            break
        with v.rt.phase(name):
            method()
    v.rt.begin_phase(phase)
    return v


def _run(v, method: str, monkeypatch, compiled: bool):
    """``method`` on a deep copy of ``v``, with or without the kernel."""
    v = copy.deepcopy(v)
    if compiled:
        getattr(v, method)()
    else:
        with monkeypatch.context() as mp:
            mp.setattr("repro.kernels.load_kernel", lambda: None)
            getattr(v, method)()
    return v


def _cells(v):
    """The global tree's cells in creation order."""
    return sorted((c for tab in v.mycelltab for c in tab),
                  key=lambda c: c.seq)


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


def _assert_treebuild_identical(v, monkeypatch):
    replayed = []

    def record(*args):
        out = build_replay.replay_build(*args)
        replayed.append(out)
        return out

    with monkeypatch.context() as mp:
        mp.setattr(variant_base, "replay_build", record)
        got = _run(v, "phase_treebuild", monkeypatch, compiled=True)
    want = _run(v, "phase_treebuild", monkeypatch, compiled=False)
    assert got.treebuild_engine == build_replay.C_BUILD
    assert want.treebuild_engine == build_replay.PY_BUILD
    _assert_same_charges(got, want)
    cells, want_cells = _cells(got), _cells(want)
    assert got.ncells == want.ncells == len(cells)
    assert [c.seq for c in cells] == list(range(got.ncells))
    assert [[c.seq for c in tab] for tab in got.mycelltab] \
        == [[c.seq for c in tab] for tab in want.mycelltab]
    assert [c.home for c in cells] == [c.home for c in want_cells]
    # per-cell lock statistics against the hooks' UpcLock objects
    (replay_cells, locks), = replayed
    assert [c.seq for c in replay_cells] == list(range(got.ncells))
    hook = [want._locks.get(id(c)) for c in want_cells]
    for arr, field, dtype in zip(
            locks, ("acquires", "contended_acquires", "total_wait"),
            (np.int64, np.int64, np.float64)):
        assert arr.dtype == dtype
        assert np.array_equal(
            arr, [getattr(lk, field) if lk else 0 for lk in hook]), field
    assert got.lock_stats == want.lock_stats
    return got


def _assert_cofm_identical(v, monkeypatch):
    got = copy.deepcopy(v)
    rows = cell_rows(got.root)
    done_at = replay_cofm(got, replay_kernel(), rows)
    assert done_at is not None
    want = _run(v, "phase_cofm", monkeypatch, compiled=False)
    assert want.cofm_engine == build_replay.PY_COFM
    _assert_same_charges(got, want)
    want_cells = _cells(want)
    want_done = [want.rt._done_tokens[want_cells[c.seq]] for c in rows[0]]
    assert np.array_equal(done_at, want_done)
    for a, b in zip(_cells(got), want_cells):
        assert a.seq == b.seq
        assert a.mass == b.mass and type(a.mass) is type(b.mass)
        assert np.array_equal(a.cofm, b.cofm)
        assert a.nbodies == b.nbodies
        assert a.cost == b.cost
    # the force phase's tree from the replay's flatten is a fresh one's
    reused = SlotTree(got.root, got.bodies, got.cfg, rows).flat
    fresh = SlotTree(got.root, got.bodies, got.cfg).flat
    for name in ("center", "size", "mass", "cofm", "nbodies", "cost",
                 "home", "child", "leaf_ptr", "leaf_bodies", "cell_ptr",
                 "cell_data", "lb_ptr", "lb_data", "gmass"):
        a, b = getattr(reused, name), getattr(fresh, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    return got


CASES = [
    # variant, P, distribution, machine
    ("baseline", 1, "plummer", "section5"),
    ("baseline", 4, "uniform", "section6-tpn4"),
    ("baseline", 16, "disk", "section5"),
    ("baseline", 64, "plummer", "section6-tpn4"),
    ("baseline", 112, "plummer", "section5"),
    ("replicate", 4, "plummer", "section5"),
    ("replicate", 16, "uniform", "section6-tpn4"),
    ("redistribute", 16, "plummer", "section5"),
    ("redistribute", 64, "disk", "section6-tpn4"),
    ("cache", 4, "disk", "section6-tpn4"),
    ("cache", 112, "uniform", "section6-tpn4"),
    ("cache-merged", 16, "plummer", "section6-tpn4"),
    ("cache-merged", 1, "uniform", "section5"),
]
IDS = ["-".join(map(str, c)) for c in CASES]


@needs_kernel
class TestCompiledMatchesOracle:
    @pytest.mark.parametrize("variant,nthreads,dist,machine", CASES,
                             ids=IDS)
    def test_treebuild_bit_identical(self, monkeypatch, variant, nthreads,
                                     dist, machine):
        v = _at_phase(variant, nthreads, TREEBUILD, dist, machine)
        got = _assert_treebuild_identical(v, monkeypatch)
        if nthreads > 1:
            # the case exercises lock contention and remote cells
            assert got.lock_stats[got.step_index][1] > 0
            assert got.rt._counters.total("remote_words") > 0

    @pytest.mark.parametrize("variant,nthreads,dist,machine", CASES,
                             ids=IDS)
    def test_cofm_bit_identical(self, monkeypatch, variant, nthreads, dist,
                                machine):
        v = _at_phase(variant, nthreads, COFM, dist, machine)
        _assert_cofm_identical(v, monkeypatch)
        # the phase keeps its flatten for the force phase, which takes it
        ran = _run(v, "phase_cofm", monkeypatch, compiled=True)
        assert ran.cofm_engine == build_replay.C_COFM
        rows = ran.tree_rows
        assert rows[0][0] is ran.root
        # the build record's flatten (geometry, home, seq) plus the pass's
        assert sorted(ran.tree_fields) == ["center", "cofm", "cost", "home",
                                           "mass", "nbodies", "seq", "size"]
        reused = ran.slot_tree()
        assert reused.cells is rows[0]
        assert ran.tree_rows is None and ran.tree_fields is None
        fresh = SlotTree(ran.root, ran.bodies, ran.cfg).flat
        for name in ("center", "mass", "cofm", "nbodies", "cost", "gmass",
                     "cx", "cy", "cz", "ctx", "cty", "ctz"):
            a, b = getattr(reused.flat, name), getattr(fresh, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name

    @pytest.mark.parametrize("variant", ["baseline", "redistribute"])
    def test_max_depth_bucket(self, monkeypatch, variant):
        v = _at_phase(variant, 16, TREEBUILD, coincident=True)
        got = _assert_treebuild_identical(v, monkeypatch)
        buckets = [ch for c in _cells(got) for ch in c.children
                   if isinstance(ch, Leaf) and len(ch.indices) > 1]
        assert buckets
        if not got.body_ptrs_local():
            # the per-owner bincount path: a bucket spanning owners
            assert any(len(set(got.bodies.store[b.indices])) > 1
                       for b in buckets)
        got.rt.end_phase()
        got.rt.begin_phase(COFM)
        _assert_cofm_identical(got, monkeypatch)

    def test_declined_calls_run_the_hooks(self, monkeypatch):
        v = _at_phase("baseline", 16, TREEBUILD)
        monkeypatch.setattr(CKernel, "build_replay",
                            lambda self, *a: False)
        monkeypatch.setattr(CKernel, "cofm_replay", lambda self, *a: False)
        got = copy.deepcopy(v)
        got.phase_treebuild()
        assert got.treebuild_engine == build_replay.PY_BUILD
        want = _run(v, "phase_treebuild", monkeypatch, compiled=False)
        _assert_same_charges(got, want)
        assert got.lock_stats == want.lock_stats
        got.phase_cofm()
        want.phase_cofm()
        assert got.cofm_engine == want.cofm_engine == build_replay.PY_COFM
        assert got.tree_rows is None
        _assert_same_charges(got, want)

    def test_malformed_trace_declines_untouched(self):
        kernel = replay_kernel()
        rt = _at_phase("baseline", 4, TREEBUILD).rt
        node_of = np.asarray(rt._node_of, dtype=np.int64)
        classes, table = rt.class_tables()
        clock, nic = rt.clock.copy(), rt._nic.copy()

        def replay(visits, visit_words=2):
            out = [np.zeros(3, dtype=np.int64) for _ in range(3)]
            return kernel.build_replay(
                np.array(visits, dtype=np.int64),
                np.array([0, 1], dtype=np.int64), 3, node_of, classes,
                table, visit_words, 1e-7, rt.clock, rt._nic, out[0],
                out[1], out[2], np.zeros(3),
                np.zeros((4, 5), dtype=np.int64))

        # the second insertion visits cell 3 before cell 2 exists
        assert not replay([0, 1, 0, 3])
        # no class table holds a 3-word access
        assert not replay([0, 1, 0, 2], visit_words=3)
        assert np.array_equal(rt.clock, clock)
        assert np.array_equal(rt._nic, nic)
        assert replay([0, 1, 0, 2])  # the well-formed trace replays

    def test_malformed_cofm_input_declines_untouched(self):
        kernel = replay_kernel()
        rt = _at_phase("baseline", 4, COFM).rt
        node_of = np.asarray(rt._node_of, dtype=np.int64)
        classes, table = rt.class_tables()
        clock, nic = rt.clock.copy(), rt._nic.copy()

        def replay(seq, child, child_words=4):
            # one body (0, on thread 1) in cell 1's first slot
            z = np.zeros(2)
            return kernel.cofm_replay(
                np.array(seq, dtype=np.int64),
                np.array([0, 1], dtype=np.int64),
                np.array(child, dtype=np.int64),
                np.array([0, 1], dtype=np.int64),
                np.zeros(1, dtype=np.int64), np.zeros((2, 3)),
                np.ones(1, dtype=np.int64), np.ones(1), np.zeros((1, 3)),
                np.ones(1), False, 2, child_words, 1e-9, 1.0, 1e-7,
                node_of, classes, table, rt.clock, rt._nic, z.copy(),
                np.zeros((2, 3)), np.zeros(2, dtype=np.int64), z.copy(),
                z.copy(), np.zeros((4, 4), dtype=np.int64))

        good = [[1] + [-1] * 7, [-2] + [-1] * 7]
        assert not replay([0, 2], good)       # a rank out of range
        assert not replay([1, 1], good)       # a repeated rank
        assert not replay([0, 1], good, 3)    # no 3-word class table
        for slot in (2, -3):                  # no cell 2, no leaf 1
            bad = [row[:] for row in good]
            bad[1][1] = slot
            assert not replay([0, 1], bad)
        assert np.array_equal(rt.clock, clock)
        assert np.array_equal(rt._nic, nic)
        assert replay([0, 1], good)  # the well-formed tree replays

    def test_cofm_deadlock_raises(self):
        # two threads whose cells each wait on the other's
        kernel = replay_kernel()
        rt = _at_phase("baseline", 2, COFM).rt
        node_of = np.asarray(rt._node_of, dtype=np.int64)
        classes, table = rt.class_tables()
        child = np.full((2, 8), -1, dtype=np.int64)
        child[0, 0], child[1, 0] = 1, 0
        z = np.zeros(2)
        with pytest.raises(RuntimeError, match="deadlock"):
            kernel.cofm_replay(
                np.array([0, 1], dtype=np.int64),
                np.array([0, 1], dtype=np.int64), child,
                np.zeros(1, dtype=np.int64), np.zeros(0, dtype=np.int64),
                np.zeros((2, 3)), np.zeros(0, dtype=np.int64), np.zeros(0),
                np.zeros((0, 3)), np.zeros(0), False, 2, 4, 1e-9, 1.0,
                1e-7, node_of, classes, table, rt.clock, rt._nic, z.copy(),
                np.zeros((2, 3)), np.zeros(2, dtype=np.int64), z.copy(),
                z.copy(), np.zeros((2, 4), dtype=np.int64))


STATS = ("treebuild_engine", "cofm_engine", "treebuild_locks")


@pytest.mark.parametrize("variant", VARIANTS)
def test_variant_stats_equal_without_kernel(monkeypatch, variant):
    cfg = BHConfig(nbodies=256, nsteps=3, warmup_steps=1)
    res = run_variant(variant, cfg, 16)
    got = {k: res.variant_stats[k] for k in STATS}
    with monkeypatch.context() as mp:
        mp.setattr("repro.kernels.load_kernel", lambda: None)
        ref = run_variant(variant, cfg, 16)
    want = {k: ref.variant_stats[k] for k in STATS}
    assert want["treebuild_engine"] == build_replay.PY_BUILD
    assert want["cofm_engine"] == build_replay.PY_COFM
    compiled = replay_kernel() is not None
    assert got["treebuild_engine"] == (build_replay.C_BUILD if compiled
                                       else build_replay.PY_BUILD)
    assert got["cofm_engine"] == (build_replay.C_COFM if compiled
                                  else build_replay.PY_COFM)
    assert got["treebuild_locks"] == want["treebuild_locks"]
    locks = got["treebuild_locks"]
    assert sorted(locks) == ["acquires", "contended_acquires", "total_wait"]
    assert locks["contended_acquires"] > 0 and locks["total_wait"] > 0
    # the whole run agrees, not just the statistics
    assert res.log.total_time() == ref.log.total_time()
    # metrics export carries the lock statistics
    assert res.metric("treebuild_lock_acquires_total") == locks["acquires"]
    assert res.metric("treebuild_lock_contended_total") \
        == locks["contended_acquires"]
    assert res.metric("treebuild_lock_wait_seconds_total") \
        == locks["total_wait"]
    assert res.metric("upc_lock_acquire_total") \
        == res.counter("lock_acquire")


def test_lock_totals_cover_measured_steps(monkeypatch):
    cfg = BHConfig(nbodies=256, nsteps=3, warmup_steps=1)
    sim = BarnesHutSimulation(cfg, 8, variant="baseline")
    res = sim.run()
    steps = sim.variant.lock_stats
    assert sorted(steps) == [0, 1, 2]
    locks = res.variant_stats["treebuild_locks"]
    assert locks["acquires"] == steps[1][0] + steps[2][0]
    assert locks["contended_acquires"] == steps[1][1] + steps[2][1]
    # every build takes one lock per insertion-ending write and per split
    assert locks["acquires"] == res.counter("lock_acquire", TREEBUILD) \
        - steps[0][0]


def test_stats_are_none_without_the_phases():
    cfg = BHConfig(nbodies=128, nsteps=2, warmup_steps=1)
    res = run_variant("subspace", cfg, 4)
    # the subspace build has no baseline tree build; its own c-of-m pass
    # records its engine (tests/test_subforest_cofm_c.py)
    assert res.variant_stats["treebuild_engine"] is None
    assert res.variant_stats["treebuild_locks"] is None
    fill_engine = variant_base.ROWS_COFM if replay_kernel() is not None \
        else variant_base.TREE_COFM
    assert res.variant_stats["cofm_engine"] == fill_engine
    # the local build's merge locks are section 5.4's evidence; its
    # merged tree's c-of-m fields come from the same one-pass fill
    res = run_variant("localbuild", cfg, 4)
    assert res.variant_stats["treebuild_engine"] is None
    assert res.variant_stats["cofm_engine"] == fill_engine
    assert res.variant_stats["treebuild_locks"]["acquires"] > 0
