"""The baseline's tree build and c-of-m phase: the replays vs the hooks.

``bh_build_replay`` and its Python mirror (``mirror_build``) charge the
insertion build from its record; ``tests/hook_oracle.py`` keeps the
hook-driven build they replaced, which charged every event as ``insert``
made it.  One phase run each way from deep-copied state must agree with
``np.array_equal`` on everything it touches: every thread clock and NIC
time, every counter row and the key set, the shared-heap bookkeeping,
every cell's lock statistics, the creation order (the derived
``mycelltab()`` by ``Cell.seq``) and the cell count.  ``bh_cofm_replay``
replays ``run_waiting``'s c-of-m schedule and must agree with it the same
way, and on every cell's ``mass``/``cofm``/``nbodies``/``cost`` and every
c-of-m done time.  The Python engines run with the kernel lookup patched
away, as on a box without a compiler.  The force phase's ``SlotTree``
built from the c-of-m replay's flatten must equal one flattened afresh.

The run-level tests at the bottom (``variant_stats`` engines and lock
statistics, metrics export) hold with or without a kernel.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

import repro.core.build_replay as build_replay
import repro.core.variants.base as variant_base
from hook_oracle import hook_insert, treebuild_with_hooks
from repro.backends.object_tree import SlotTree
from repro.core.app import BarnesHutSimulation, run_variant
from repro.core.build_replay import replay_cofm, replay_kernel
from repro.core.config import BHConfig
from repro.core.phases import COFM, TREEBUILD
from repro.kernels.loader import CKernel
from repro.nbody.distributions import make_distribution
from repro.octree.build import BuildRecord, new_root
from repro.octree.cell import Leaf
from repro.octree.cofm import compute_cofm
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
    return sorted((c for tab in v.mycelltab() for c in tab),
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


def _assert_treebuild_identical(v, monkeypatch, compiled=(True, False)):
    """The build's replays (the C one, the Python mirror, or both) against
    the hook-driven build; returns the first replayed variant."""
    want = copy.deepcopy(v)
    hook = treebuild_with_hooks(want)
    want_cells = _cells(want)
    replays = []
    for c in compiled:
        name = "replay_build" if c else "mirror_build"
        replay = getattr(build_replay, name)
        replayed = []

        def record(*args):
            out = replay(*args)
            replayed.append(out)
            return out

        with monkeypatch.context() as mp:
            mp.setattr(variant_base, name, record)
            got = _run(v, "phase_treebuild", monkeypatch, compiled=c)
        assert got.treebuild_engine == (build_replay.C_BUILD if c
                                        else build_replay.PY_BUILD)
        _assert_same_charges(got, want)
        cells = _cells(got)
        assert got.ncells == want.ncells == len(cells)
        assert [c.seq for c in cells] == list(range(got.ncells))
        assert [[c.seq for c in tab] for tab in got.mycelltab()] \
            == [[c.seq for c in tab] for tab in want.mycelltab()]
        # the flatten's mycelltab is the cells' own, by home and seq
        walked = sorted(want.root.iter_cells(), key=lambda c: c.seq)
        assert [[c.seq for c in tab] for tab in want.mycelltab()] \
            == [[c.seq for c in walked if c.home == t]
                for t in range(want.P)]
        assert [c.home for c in cells] == [c.home for c in want_cells]
        # per-cell lock statistics (by seq) against the hooks' UpcLocks
        locks, = replayed
        if c:
            assert [a.dtype for a in locks] == [np.int64, np.int64,
                                                np.float64]
        for arr, field in zip(locks, ("acquires", "contended_acquires",
                                      "total_wait")):
            assert np.array_equal(
                arr, [getattr(lk, field) if lk else 0 for lk in hook]), field
        assert got.lock_stats == want.lock_stats
        replays.append(got)
    return replays[0]


def _assert_cofm_identical(v, monkeypatch):
    got = copy.deepcopy(v)
    rows = cell_rows(got.root)
    done_at = replay_cofm(got, replay_kernel(), rows)
    assert done_at is not None
    got.rows = rows
    want = _run(v, "phase_cofm", monkeypatch, compiled=False)
    assert want.cofm_engine == build_replay.PY_COFM
    _assert_same_charges(got, want)
    want_cells = _cells(want)
    want_done = [want.rt._done_tokens[want_cells[s]]
                 for s in rows.seq.tolist()]
    assert np.array_equal(done_at, want_done)
    # the replay fills the record alone, with the oracle's cell fields
    assert all(c.mass == 0.0 for c in _cells(got))
    want_rows = cell_rows(want.root).cofm_from_cells()
    for name in ("mass", "cofm", "nbodies", "cost"):
        a, b = getattr(rows, name), getattr(want_rows, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    # the force phase's tree from the replay's flatten is a fresh one's
    reused = got.slot_tree().flat
    fresh = SlotTree(want.root, want.bodies, want.cfg).flat
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
        # the phase fills the build's flatten for the force phase
        ran = _run(v, "phase_cofm", monkeypatch, compiled=True)
        assert ran.cofm_engine == build_replay.C_COFM
        rows = ran.rows
        assert rows.cells[0] is ran.root
        assert ran.rows_engine == variant_base.C_ROWS
        reused = ran.slot_tree()
        assert reused.cells is rows.cells
        assert ran.rows is rows
        # the cells' fields from the sequential pass: the same bits
        compute_cofm(ran.root, ran.bodies.pos, ran.bodies.mass,
                     ran.bodies.cost)
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
        """Declined compiled calls fall back to the Python engines: the
        build's mirror replay and the c-of-m phase's ``run_waiting``."""
        v = _at_phase("baseline", 16, TREEBUILD)
        monkeypatch.setattr(CKernel, "build_replay",
                            lambda self, *a: False)
        monkeypatch.setattr(CKernel, "cofm_replay", lambda self, *a: False)
        got = copy.deepcopy(v)
        got.phase_treebuild()
        assert got.treebuild_engine == build_replay.PY_BUILD
        # the build is still flattened from its record
        assert got.rows_engine == variant_base.C_ROWS
        want = copy.deepcopy(v)
        treebuild_with_hooks(want)
        _assert_same_charges(got, want)
        assert got.lock_stats == want.lock_stats
        got.phase_cofm()
        want.phase_cofm()
        assert got.cofm_engine == want.cofm_engine == build_replay.PY_COFM
        _assert_same_charges(got, want)
        # run_waiting's fields, copied into each flatten
        for name in ("mass", "cofm", "nbodies", "cost"):
            assert np.array_equal(getattr(got.rows, name),
                                  getattr(want.rows, name)), name

    def test_malformed_record_declines_untouched(self):
        kernel = replay_kernel()
        rt = _at_phase("baseline", 4, TREEBUILD).rt
        node_of = np.asarray(rt._node_of, dtype=np.int64)
        classes, table = rt.class_tables()
        clock, nic = rt.clock.copy(), rt._nic.copy()
        # thread 0 puts body 0 in the root's slot 0; thread 1's body 1
        # splits it twice (cells 1 and 2) and lands in cell 2's slot 1
        good = [(0, 0, 0), (0, 0, -3), (1, 7, -1), (1, 7, -4), (2, 0, -1),
                (2, 1, 1)]

        def replay(events, tids=(0, 1), ncells=3, visit_words=2):
            out = [np.zeros(ncells, dtype=np.int64) for _ in range(2)]
            return kernel.build_replay(
                np.array(events, dtype=np.int64).reshape(-1, 3),
                np.array(tids, dtype=np.int64), ncells, node_of, classes,
                table, visit_words, 1e-7, rt.clock, rt._nic, out[0],
                out[1], np.zeros(ncells), np.zeros((4, 5), dtype=np.int64))

        def swap(i, event):
            return good[:i] + [event] + good[i + 1:]

        assert not replay(swap(1, (0, 0, -4)))    # cell 2 before cell 1
        assert not replay(swap(5, (1, 1, 1)))     # body not at the chain end
        assert not replay(swap(4, (1, 0, -1)))    # moved to an older cell
        assert not replay(swap(0, (0, 8, 0)))     # no slot 8
        assert not replay(swap(0, (3, 0, 0)))     # no cell 3 yet
        assert not replay(good + [(2, 2, -5)], ncells=4)  # a cell left over
        assert not replay(good, tids=(0, 1, 2))   # one insertion too many
        assert not replay(good, tids=(0, 4))      # no thread 4
        assert not replay(good, visit_words=3)    # no 3-word class table
        assert np.array_equal(rt.clock, clock)
        assert np.array_equal(rt._nic, nic)
        assert replay(good)  # the well-formed record replays
        assert not np.array_equal(rt.clock, clock)

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


def _record_paths(events: np.ndarray):
    """Every insertion's visits derived from its build record: the path
    from the root down to the cell its body event names."""
    parent = {0: None}
    visits = []
    for p, _, c in events.tolist():
        if c <= -2:
            parent[-2 - c] = p
        elif c >= 0:
            path = []
            while p is not None:
                path.append(p)
                p = parent[p]
            visits += reversed(path)
    return visits


@pytest.mark.parametrize("coincident", [False, True],
                         ids=["plain", "bucket"])
@pytest.mark.parametrize("dist", ["plummer", "disk"])
@pytest.mark.parametrize("nthreads", [1, 4, 16, 64, 112])
def test_record_paths_are_the_visit_trace(monkeypatch, nthreads, dist,
                                          coincident):
    """The replays' derivation holds: each insertion visits exactly the
    root-to-receiving-cell path of its record, and the replays from the
    record (the C one with a kernel, the mirror always) charge what the
    hooks charge."""
    v = _at_phase("baseline", nthreads, TREEBUILD, dist,
                  coincident=coincident)
    order, tids = variant_base._round_robin(v.assigned_all())
    root = new_root(v.box, home=0)
    record = BuildRecord()
    record.add(root)
    trace = []
    for i, t in zip(order, tids):
        hook_insert(root, i, v.bodies.pos, home=t, on_visit=trace.append,
                    record=record)
    assert _record_paths(record.event_array()) == [c.seq for c in trace]
    assert record.cells == sorted(set(trace), key=lambda c: c.seq)
    if coincident:
        assert any(isinstance(ch, Leaf) and len(ch.indices) > 1
                   for c in record.cells for ch in c.children)
    _assert_treebuild_identical(
        v, monkeypatch, (True, False) if replay_kernel() else (False,))


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
