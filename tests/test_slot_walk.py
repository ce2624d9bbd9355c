"""The object-tree force phase: slot walk and open-count accounting.

Two oracles, both held with exact equality:

* ``gravity_traversal`` (the per-group recursion) for the walk itself --
  accelerations, interaction counts and per-cell open counts;
* the per-node ``TraversalPolicy`` hooks below -- the UPC force accounting
  as the variants charged it before it was derived from open counts --
  for every simulated clock, NIC time and counter of a whole run.

Each accounting comparison runs with the compiled walk and again with the
kernel forced off (the Python traversal serves ``slot_walk`` then).
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

import repro.kernels.pool as pool
from repro.backends import make_backend
from repro.backends.object_tree import (
    C_ENGINE,
    PY_ENGINE,
    SlotTree,
    slot_walk,
    slot_walks,
)
from repro.core.app import BarnesHutSimulation, run_variant
from repro.core.cache import CellCache
from repro.core.config import BHConfig
from repro.core.variants.base import (
    BODY_FORCE_WORDS,
    BODY_LEAF_WORDS,
    BODY_POS_WORDS,
    CELL_OPEN_WORDS,
    CELL_TEST_WORDS,
)
from repro.core.variants.registry import get_variant
from repro.kernels import load_kernel
from repro.nbody.bbox import compute_root
from repro.nbody.bodies import BodySoA
from repro.nbody.distributions import distribution_names, make_distribution
from repro.octree.build import build_tree
from repro.octree.cell import Cell, Leaf
from repro.octree.cofm import compute_cofm
from repro.octree.traverse import TraversalPolicy, gravity_traversal
from repro.upc.params import paper_section5_machine

needs_kernel = pytest.mark.skipif(load_kernel() is None,
                                  reason="no compiled slot walk here")


@pytest.fixture()
def no_kernel(monkeypatch):
    """Every kernel lookup sees a box without a compiler."""
    monkeypatch.setattr("repro.kernels.load_kernel", lambda: None)


def _tree(bodies: BodySoA) -> Cell:
    root = build_tree(bodies.pos, compute_root(bodies.pos))
    compute_cofm(root, bodies.pos, bodies.mass, bodies.cost)
    return root


class _RecordOpens(TraversalPolicy):
    def __init__(self, cells):
        self.row = {id(c): r for r, c in enumerate(cells)}
        self.opens = np.zeros(len(cells), dtype=np.int64)

    def on_open(self, cell, n_near):
        self.opens[self.row[id(cell)]] += n_near


def _assert_walk_matches_traversal(bodies, idx, theta, open_self):
    cfg = BHConfig(nbodies=len(bodies), theta=theta,
                   open_self_cells=open_self)
    root = _tree(bodies)
    tree = SlotTree(root, bodies, cfg)
    assert tree.engine == C_ENGINE
    acc, work, opens = slot_walk(tree, idx)
    rec = _RecordOpens(tree.cells)
    ref_acc, ref_work = gravity_traversal(
        root, idx, bodies.pos, bodies.mass, theta, cfg.eps, rec,
        open_self_cells=open_self)
    assert np.array_equal(acc, ref_acc)
    assert np.array_equal(work, ref_work)
    assert np.array_equal(opens, rec.opens)
    return tree


@needs_kernel
class TestWalkParity:
    @pytest.mark.parametrize("dist", distribution_names())
    @pytest.mark.parametrize("theta", [0.5, 1.0])
    @pytest.mark.parametrize("open_self", [False, True])
    def test_bit_identical_to_group_traversal(self, dist, theta,
                                              open_self):
        bodies = make_distribution(dist, 400, seed=11)
        idx = np.sort(np.random.default_rng(3).choice(400, 150,
                                                      replace=False))
        _assert_walk_matches_traversal(bodies, idx, theta, open_self)

    @pytest.mark.parametrize("open_self", [False, True])
    def test_max_depth_buckets(self, open_self):
        bodies = make_distribution("plummer", 200, seed=5)
        bodies.pos[50:58] = bodies.pos[40]      # 9 coincident bodies
        bodies.pos[100:103] = bodies.pos[99]    # and 4 more
        tree = _assert_walk_matches_traversal(
            bodies, np.arange(200), 1.0, open_self)
        assert np.diff(tree.flat.leaf_ptr).max() == 9

    def test_one_body_and_empty_groups(self, bodies256):
        _assert_walk_matches_traversal(bodies256, np.array([17]), 1.0,
                                       False)
        tree = SlotTree(_tree(bodies256), bodies256, BHConfig())
        acc, work, opens = slot_walk(tree, np.array([], dtype=np.int64))
        assert acc.shape == (0, 3) and work.shape == (0,)
        assert not opens.any()


class TestOpenCountAggregates:
    """tests / leaf visits / first-open order follow from ``opens``."""

    @pytest.fixture()
    def walked(self, bodies256):
        root = _tree(bodies256)
        tree = SlotTree(root, bodies256, BHConfig())
        idx = np.arange(0, 256, 3)
        _, _, opens = slot_walk(tree, idx)
        return root, tree, idx, opens

    def test_hook_inputs(self, walked, bodies256):
        root, tree, idx, opens = walked
        row = {id(c): r for r, c in enumerate(tree.cells)}
        leaf_row = {id(ch): r for r, c in enumerate(tree.cells)
                    for ch in c.children if isinstance(ch, Leaf)}
        tests = tree.tests(opens, len(idx))
        visits = dict(zip(tree.flat.leaf_bodies.tolist(),
                          tree.leaf_visits(opens)))
        seen = {"test": 0, "accept": 0, "open": 0, "leaf": 0}

        class Check(TraversalPolicy):
            def on_test(self, cell, n):
                seen["test"] += 1
                assert tests[row[id(cell)]] == n

            def on_accept(self, cell, n):
                seen["accept"] += 1
                assert tests[row[id(cell)]] - opens[row[id(cell)]] == n

            def on_open(self, cell, n):
                seen["open"] += 1
                assert opens[row[id(cell)]] == n

            def on_leaf(self, leaf, n):
                seen["leaf"] += 1
                assert opens[leaf_row[id(leaf)]] == n
                assert all(visits[b] == n for b in leaf.indices)

        gravity_traversal(root, idx, bodies256.pos, bodies256.mass, 1.0,
                          0.05, Check())
        assert seen["test"] == int((tests > 0).sum())
        assert seen["open"] == int((opens > 0).sum())
        assert min(seen.values()) > 0

    def test_open_order_is_first_open_order(self, walked, bodies256):
        root, tree, idx, opens = walked
        seen = []

        class Order(TraversalPolicy):
            def on_open(self, cell, n):
                seen.append(cell)

        gravity_traversal(root, idx, bodies256.pos, bodies256.mass, 1.0,
                          0.05, Order())
        got = tree.open_order(opens)
        assert [id(tree.cells[r]) for r in got] == [id(c) for c in seen]


# ---------------------------------------------------------------------- #
# the per-node oracle policies (the accounting before open counts)       #
# ---------------------------------------------------------------------- #
class BaselinePolicy(TraversalPolicy):
    """Fine-grained remote words per owner, tol/eps from thread 0."""

    def __init__(self, variant, tid):
        self.v = variant
        self.tid = tid
        self.words_to = [0.0] * variant.P
        self.scalar_reads = 0.0

    def on_test(self, cell, n_active):
        self.words_to[cell.home] += CELL_TEST_WORDS * n_active
        if not self.v.replicate_scalars:
            self.scalar_reads += n_active

    def on_accept(self, cell, n_far):
        if not self.v.replicate_scalars:
            self.scalar_reads += n_far

    def on_open(self, cell, n_near):
        self.words_to[cell.home] += CELL_OPEN_WORDS * n_near

    def on_leaf(self, leaf, n_active):
        store = self.v.bodies.store
        for b in leaf.indices:
            self.words_to[store[b]] += BODY_LEAF_WORDS * n_active
        if not self.v.replicate_scalars:
            self.scalar_reads += n_active * len(leaf.indices)

    def flush(self):
        rt = self.v.rt
        for owner, words in enumerate(self.words_to):
            if words > 0:
                rt.word_access(self.tid, owner, words=1.0, count=words,
                               key="force_words")
        if self.scalar_reads > 0:
            rt.word_access(self.tid, 0, words=1.0, count=self.scalar_reads,
                           key="scalar_reads")


class LocalPolicy(TraversalPolicy):
    """Every touch is a local word (LET data)."""

    def __init__(self, variant, tid):
        self.v = variant
        self.tid = tid
        self.local_words = 0.0

    def on_test(self, cell, n_active):
        self.local_words += CELL_TEST_WORDS * n_active

    def on_open(self, cell, n_near):
        self.local_words += CELL_OPEN_WORDS * n_near

    def on_leaf(self, leaf, n_active):
        self.local_words += BODY_LEAF_WORDS * n_active * len(leaf.indices)

    def flush(self):
        rt = self.v.rt
        rt.charge_compute(self.tid,
                          self.local_words * rt.machine.local_word_cost)


class CachedPolicy(LocalPolicy):
    """Local words plus a CellCache fetch on every open."""

    def __init__(self, variant, tid):
        super().__init__(variant, tid)
        rows = variant.rows
        self.row = {id(c): r for r, c in enumerate(rows.cells)}
        self.cache = CellCache(variant.rt, tid, variant.bodies.store,
                               variant.cache_mode == "merged", rows)
        self.cache.localize_root()

    def on_open(self, cell, n_near):
        self.cache.ensure_children(self.row[id(cell)])
        super().on_open(cell, n_near)

    def flush(self):
        super().flush()
        rt = self.v.rt
        rt.count(self.tid, "cache_misses", self.cache.misses)
        rt.count(self.tid, "cache_hits", self.cache.hits)
        rt.count(self.tid, "cache_local_copies", self.cache.local_copies)


def oracle_phase_force(self):
    """The object-tree force phase driven by the per-node hooks."""
    rt = self.rt
    bodies = self.bodies
    if self.name == "mpi-let":
        make = LocalPolicy
    elif self.cache_mode is not None:
        make = CachedPolicy
    else:
        make = BaselinePolicy
    body_words = BODY_POS_WORDS * 2 if make is LocalPolicy \
        else BODY_FORCE_WORDS
    # the hooks walk the cells; with the kernel only the record holds
    # the c-of-m, so fill the cells' fields (the same bits) first
    compute_cofm(self.root, bodies.pos, bodies.mass, bodies.cost)
    new_cost = bodies.cost.copy()
    for t in range(self.P):
        idx = self.assigned(t)
        if len(idx) == 0:
            continue
        self.charge_body_words(t, idx, body_words)
        policy = make(self, t)
        acc, work = gravity_traversal(
            self.root, idx, bodies.pos, bodies.mass, self.cfg.theta,
            self.cfg.eps, policy, open_self_cells=self.cfg.open_self_cells)
        policy.flush()
        bodies.acc[idx] = acc
        new_cost[idx] = np.maximum(work, 1.0)
        rt.charge_compute(t, float(work.sum()) * rt.machine.interaction_cost)
        rt.count(t, "interactions", float(work.sum()))
    bodies.cost = new_cost


ACCOUNTED = ("baseline", "replicate", "redistribute", "cache",
             "cache-merged", "localbuild", "mpi-let")


def _simulate(variant_cls, nthreads):
    cfg = BHConfig(nbodies=192, nsteps=2, warmup_steps=1)
    sim = BarnesHutSimulation(cfg, nthreads,
                              machine=paper_section5_machine(),
                              variant=variant_cls)
    sim.run()
    return sim


def _assert_same_simulation(got, want):
    assert np.array_equal(got.rt.clock, want.rt.clock)
    assert np.array_equal(got.rt._nic, want.rt._nic)
    assert np.array_equal(got.bodies.pos, want.bodies.pos)
    assert len(got.rt.log.records) == len(want.rt.log.records)
    for a, b in zip(got.rt.log, want.rt.log):
        assert (a.name, a.step, a.duration) == (b.name, b.step, b.duration)
        assert np.array_equal(a.thread_times, b.thread_times)
        assert np.array_equal(a.nic_times, b.nic_times)
        assert dict(a.counters._data) == dict(b.counters._data), a.name


def _check_against_oracle(variant, nthreads):
    cls = get_variant(variant)
    oracle = type(f"Oracle{cls.__name__}", (cls,),
                  {"phase_force": oracle_phase_force})
    _assert_same_simulation(_simulate(cls, nthreads),
                            _simulate(oracle, nthreads))


@pytest.mark.parametrize("nthreads", [1, 4, 16])
@pytest.mark.parametrize("variant", ACCOUNTED)
class TestAccountingMatchesPerNodeOracle:
    @needs_kernel
    def test_compiled_walk(self, variant, nthreads):
        _check_against_oracle(variant, nthreads)

    def test_kernel_forced_off(self, variant, nthreads, no_kernel):
        _check_against_oracle(variant, nthreads)


@needs_kernel
class TestWalkWorkers:
    """The force phase's walks run side by side; no output may depend
    on the worker count."""

    def test_walks_equal_serial_calls(self, monkeypatch, bodies256):
        tree = SlotTree(_tree(bodies256), bodies256, BHConfig())
        groups = np.array_split(np.arange(256), 7)
        want = [slot_walk(tree, idx) for idx in groups]
        for workers in (1, 2):
            monkeypatch.setattr(pool, "_WORKERS", workers)
            got = slot_walks(tree, groups, [1.0, 9.0, 3.0, 3.0, 0.0, 2.0,
                                            5.0])
            for (acc, work, opens), (r_acc, r_work, r_opens) in zip(got,
                                                                    want):
                assert np.array_equal(acc, r_acc)
                assert np.array_equal(work, r_work)
                assert np.array_equal(opens, r_opens)

    @pytest.mark.parametrize("nthreads", [4, 16])
    @pytest.mark.parametrize("variant", ACCOUNTED)
    def test_runs_equal_on_one_and_two_workers(self, monkeypatch, variant,
                                               nthreads):
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(pool, "_WORKERS", workers)
            runs.append(_simulate(get_variant(variant), nthreads))
        _assert_same_simulation(*runs)
        assert np.array_equal(runs[0].bodies.acc, runs[1].bodies.acc)
        assert np.array_equal(runs[0].bodies.cost, runs[1].bodies.cost)


def _run_jobs_in_child() -> None:
    assert pool._POOL is None
    assert pool.run_jobs(abs, [-4, -5, -6], [3, 2, 1]) == [4, 5, 6]


class TestWalkPool:
    def test_results_in_job_order(self, monkeypatch):
        monkeypatch.setattr(pool, "_WORKERS", 2)
        jobs = list(range(23))
        assert pool.run_jobs(lambda j: j * j, jobs, jobs[::-1]) \
            == [j * j for j in jobs]
        assert pool.worker_count(1) == 1
        assert pool.worker_count(5) == 2

    def test_every_job_claimed_once_under_stress(self, monkeypatch):
        # more workers than cores, threads switched as often as possible:
        # a claim taken twice or lost shows up as a wrong count
        monkeypatch.setattr(pool, "_WORKERS", 6)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                ran = []
                jobs = list(range(200))
                got = pool.run_jobs(lambda j: ran.append(j) or -j, jobs,
                                    [j % 7 for j in jobs])
                assert got == [-j for j in jobs]
                assert sorted(ran) == jobs
        finally:
            sys.setswitchinterval(interval)

    def test_first_error_is_raised(self, monkeypatch):
        monkeypatch.setattr(pool, "_WORKERS", 2)

        def job(j):
            if j == 3:
                raise ValueError("job 3")
            return j

        with pytest.raises(ValueError, match="job 3"):
            pool.run_jobs(job, list(range(8)), [1.0] * 8)

    @pytest.mark.skipif(not hasattr(__import__("os"), "fork"),
                        reason="no fork here")
    def test_forked_child_starts_its_own_workers(self, monkeypatch):
        # the parent's worker threads do not survive a fork: a child that
        # reused their pool would wait forever on its first phase
        import multiprocessing

        monkeypatch.setattr(pool, "_WORKERS", 2)
        assert pool.run_jobs(abs, [-1, -2, -3], [1, 2, 3]) == [1, 2, 3]
        assert pool._POOL is not None
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=_run_jobs_in_child)
        child.start()
        child.join(timeout=60)
        alive = child.is_alive()
        if alive:
            child.kill()
        assert not alive and child.exitcode == 0

    def test_no_worker_starts_at_import(self):
        code = ("import threading, repro, repro.kernels.pool as p; "
                "from repro.core.app import run_variant; "
                "assert p._POOL is None, p._POOL; "
                "assert threading.active_count() == 1")
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={"PYTHONPATH": ":".join(sys.path)})


class TestForceEngineStat:
    def _engine(self, variant="baseline", backend="object-tree"):
        cfg = BHConfig(nbodies=128, nsteps=2, warmup_steps=1,
                       force_backend=backend)
        return run_variant(variant, cfg, 4).variant_stats["force_engine"]

    @needs_kernel
    def test_object_tree_served_by_c_walk(self):
        assert self._engine() == C_ENGINE
        assert self._engine("mpi-let") == C_ENGINE

    def test_object_tree_without_kernel(self, no_kernel):
        assert self._engine() == PY_ENGINE

    def test_frontier_variants(self):
        want = "c-frontier" if load_kernel() is not None else "frontier"
        assert self._engine("subspace") == want
        assert self._engine("async") == want

    def test_flat_c_without_kernel(self, no_kernel):
        # force_backend is read by no variant: the slot walk serves
        assert self._engine(backend="flat-c") == PY_ENGINE
        assert make_backend("flat-c", BHConfig()).served_by \
            == "flat (numpy fallback)"

    @needs_kernel
    def test_flat_c_with_kernel(self):
        assert self._engine(backend="flat-c") == C_ENGINE
        assert make_backend("flat-c", BHConfig()).served_by == "flat-c"

    def test_object_tree_backend_rung(self, bodies256):
        backend = make_backend("object-tree", BHConfig())
        backend.begin_step(_tree(bodies256), bodies256)
        assert backend.served_by in (C_ENGINE, PY_ENGINE)
        res = backend.accelerations(np.arange(256), bodies256)
        ref, work = gravity_traversal(backend.tree.root, np.arange(256),
                                      bodies256.pos, bodies256.mass, 1.0,
                                      0.05)
        assert np.array_equal(res.acc, ref)
        assert np.array_equal(res.work, work)
