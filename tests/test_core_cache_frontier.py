"""Cell cache accounting (section 5.3) and the frontier engine (5.5)."""

import numpy as np
import pytest

from repro.backends.object_tree import slot_walk
from repro.core.app import BarnesHutSimulation
from repro.core.cache import CellCache
from repro.core.config import BHConfig
from repro.core.frontier import frontier_force
from repro.nbody.bbox import compute_root
from repro.octree.build import build_tree
from repro.octree.cofm import compute_cofm
from repro.octree.flat import EMPTY, cell_rows, decode_leaf
from repro.upc.nonblocking import AsyncEngine
from repro.upc.params import MachineConfig, paper_section5_machine
from repro.upc.runtime import UpcRuntime


def _two_thread_tree(bodies):
    """A tree whose cells alternate between two homes, and its record."""
    box = compute_root(bodies.pos)
    root = build_tree(bodies.pos, box, home=0)
    for i, cell in enumerate(root.iter_cells()):
        cell.home = i % 2
    root.home = 0
    compute_cofm(root, bodies.pos, bodies.mass, bodies.cost)
    return root, cell_rows(root)


class TestCellCache:
    def test_first_open_fetches_then_hits(self, bodies256):
        _, rows = _two_thread_tree(bodies256)
        rt = UpcRuntime(2, MachineConfig())
        store = np.zeros(256, dtype=np.int32)
        cache = CellCache(rt, 0, store, False, rows)
        with rt.phase("f"):
            cache.localize_root()
            cache.ensure_children(0)
            m0 = cache.misses
            cache.ensure_children(0)  # second open: hit
        assert m0 > 0
        assert cache.misses == m0
        assert cache.hits == 1

    def test_merged_skips_local_copies(self, bodies256):
        _, rows = _two_thread_tree(bodies256)
        store = np.zeros(256, dtype=np.int32)
        rt1 = UpcRuntime(2, MachineConfig())
        sep = CellCache(rt1, 0, store, False, rows)
        rt2 = UpcRuntime(2, MachineConfig())
        mrg = CellCache(rt2, 0, store, True, rows)
        with rt1.phase("f"):
            sep.localize_root()
            for r in range(len(rows.cells)):
                sep.ensure_children(r)
        with rt2.phase("f"):
            mrg.localize_root()
            for r in range(len(rows.cells)):
                mrg.ensure_children(r)
        # same remote misses, but the merged scheme makes no local copies
        assert sep.misses == mrg.misses
        assert mrg.local_copies == 0
        assert sep.local_copies > 0

    def test_remote_misses_bounded_by_remote_cells(self, bodies256):
        root, rows = _two_thread_tree(bodies256)
        rt = UpcRuntime(2, MachineConfig())
        store = np.zeros(256, dtype=np.int32)  # bodies local to thread 0
        cache = CellCache(rt, 0, store, True, rows)
        with rt.phase("f"):
            cache.localize_root()
            for r in range(len(rows.cells)):
                cache.ensure_children(r)
        remote_cells = sum(
            1 for c in root.iter_cells() if c.home != 0 and c is not root
        )
        assert cache.misses == remote_cells

    def test_localized_count(self, bodies256):
        _, rows = _two_thread_tree(bodies256)
        rt = UpcRuntime(2, MachineConfig())
        cache = CellCache(rt, 0, np.zeros(256, dtype=np.int32), False, rows)
        with rt.phase("f"):
            cache.ensure_children(0)
        assert cache.localized_count == 1


def _ensure_children_one_alloc_each(self, row):
    """``CellCache.ensure_children`` as it booked every fetched or copied
    cell: one ``heap.upc_alloc`` (and its discarded pointer) per cell."""
    if row in self._localized:
        self.hits += 1
        return
    rt = self.rt
    tid = self.tid
    m = rt.machine
    for code in self.child[row].tolist():
        if code == EMPTY:
            continue
        if code < 0:
            leaf = decode_leaf(code)
            for owner in self.leaf_owner[self.leaf_ptr[leaf]:
                                         self.leaf_ptr[leaf + 1]]:
                if owner != tid:
                    rt.memget(tid, owner, m.body_nbytes, key="cache_fetch")
                    self.misses += 1
                elif not self.merged:
                    rt.memget(tid, tid, m.body_nbytes,
                              key="cache_local_copy")
                    self.local_copies += 1
                else:
                    rt.charge_compute(tid, m.local_word_cost)
            continue
        home = self.home[code]
        if home != tid:
            rt.memget(tid, home, m.cell_nbytes, key="cache_fetch")
            rt.heap.upc_alloc(tid, m.cell_nbytes, code)
            self.misses += 1
        elif self.merged:
            rt.charge_compute(tid, m.local_word_cost)
        else:
            rt.memget(tid, tid, m.cell_nbytes, key="cache_local_copy")
            rt.heap.upc_alloc(tid, m.cell_nbytes, code)
            self.local_copies += 1
    self._localized.add(row)


@pytest.mark.parametrize("variant", ["cache", "cache-merged"])
@pytest.mark.parametrize("nthreads", [4, 16])
def test_cache_books_allocations_by_count(monkeypatch, variant, nthreads):
    # counting the copies gives the heap totals of one upc_alloc each
    cfg = BHConfig(nbodies=384, nsteps=2, warmup_steps=1, seed=3)
    sims = []
    for oracle in (False, True):
        with monkeypatch.context() as mp:
            if oracle:
                mp.setattr(CellCache, "ensure_children",
                           _ensure_children_one_alloc_each)
            sim = BarnesHutSimulation(cfg, nthreads, variant=variant,
                                      machine=paper_section5_machine())
            sim.run()
        sims.append(sim)
    got, want = (s.rt for s in sims)
    assert want.heap.live_objects.sum() > 0
    assert np.array_equal(got.heap.allocated, want.heap.allocated)
    assert np.array_equal(got.heap.live_objects, want.heap.live_objects)
    assert np.array_equal(got.clock, want.clock)
    for a, b in zip(got.log, want.log):
        assert a.duration == b.duration
        assert np.array_equal(a.thread_times, b.thread_times)
        assert np.array_equal(a.nic_times, b.nic_times)
        assert dict(a.counters._data) == dict(b.counters._data)


class TestFrontier:
    def _variant(self, nthreads=4, n=192, **cfg_kw):
        cfg = BHConfig(nbodies=n, nsteps=2, warmup_steps=1, seed=11,
                       **cfg_kw)
        sim = BarnesHutSimulation(cfg, nthreads, variant="async")
        # run tree build phases of step 0 so a merged tree exists
        v = sim.variant
        v.step(0)
        return sim, v

    def test_matches_blocking_traversal(self):
        sim, v = self._variant()
        rt = v.rt
        engine = AsyncEngine(rt)
        idx = v.assigned(1)
        with rt.phase("f"):
            acc, work, stats = frontier_force(v, engine, 1, idx)
        ref, ref_work, _ = slot_walk(v.slot_tree(), idx)
        assert np.allclose(acc, ref, rtol=1e-9, atol=1e-12)
        assert np.array_equal(work, ref_work)

    def test_aggregation_respects_n3_minimum(self):
        sim, v = self._variant(n3=4)
        rt = v.rt
        engine = AsyncEngine(rt)
        idx = v.assigned(2)
        with rt.phase("f"):
            _, _, stats = frontier_force(v, engine, 2, idx)
        if stats.gathers > stats.forced_gathers:
            # non-forced gathers carry at least n3 cells on average
            assert stats.cells_requested >= stats.gathers

    def test_empty_assignment(self):
        sim, v = self._variant()
        rt = v.rt
        engine = AsyncEngine(rt)
        with rt.phase("f"):
            acc, work, stats = frontier_force(
                v, engine, 0, np.array([], dtype=np.int64))
        assert acc.shape == (0, 3)
        assert stats.gathers == 0

    @pytest.mark.parametrize("nval", [1, 2, 8])
    def test_n_parameters_do_not_change_physics(self, nval):
        sim, v = self._variant(n1=nval, n2=nval, n3=nval)
        rt = v.rt
        engine = AsyncEngine(rt)
        idx = v.assigned(1)
        with rt.phase("f"):
            acc, work, _ = frontier_force(v, engine, 1, idx)
        ref, _, _ = slot_walk(v.slot_tree(), idx)
        assert np.allclose(acc, ref, rtol=1e-9, atol=1e-12)

    def test_outstanding_bounded_by_n2(self):
        sim, v = self._variant(n2=2)
        rt = v.rt

        class SpyEngine(AsyncEngine):
            max_seen = 0

            def memget_vlist_async(self, tid, per_source, nb):
                h = super().memget_vlist_async(tid, per_source, nb)
                SpyEngine.max_seen = max(
                    SpyEngine.max_seen, self.outstanding_count(tid))
                return h

        engine = SpyEngine(rt)
        idx = v.assigned(3)
        with rt.phase("f"):
            frontier_force(v, engine, 3, idx)
        assert SpyEngine.max_seen <= 2
