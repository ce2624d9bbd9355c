"""Subspace tree building (section 6): splitting, allocation, exchange."""

from typing import List, Optional

import numpy as np
import pytest

from repro.core.app import BarnesHutSimulation
from repro.core.config import BHConfig
from repro.core.subspace import (
    MAX_SPLIT_LEVELS,
    SCAN_COST,
    SUBSPACE_COST,
    SubspaceTree,
    allocate_leaves,
    exchange_bodies,
    split_subspaces,
)
from repro.nbody.distributions import make_distribution
from repro.upc.collectives import allreduce_scalar, allreduce_vector
from repro.nbody.bbox import compute_root
from repro.nbody.plummer import plummer
from repro.upc.memory import SharedArray
from repro.upc.params import MachineConfig, paper_section5_machine
from repro.upc.runtime import UpcRuntime


@pytest.fixture()
def split_setup():
    bodies = plummer(400, seed=21)
    P = 8
    rt = UpcRuntime(P, MachineConfig())
    store = SharedArray.block_distributed(P, 400)
    cost = np.ones(400)
    box = compute_root(bodies.pos)
    with rt.phase("s"):
        tree, body_ss = split_subspaces(rt, bodies.pos, cost, store, box,
                                        alpha=2 / 3,
                                        vector_reduction=True)
    return rt, bodies, tree, body_ss, cost, store


class TestSplit:
    def test_no_leaf_exceeds_tau(self, split_setup):
        rt, bodies, tree, body_ss, cost, store = split_setup
        tau = (2 / 3) * cost.sum() / rt.nthreads
        for leaf in tree.leaves:
            c = tree.global_cost[leaf]
            if tree.global_count[leaf] > 1:
                assert c <= tau + 1e-9

    def test_bodies_land_in_leaves(self, split_setup):
        rt, bodies, tree, body_ss, cost, store = split_setup
        leaf_set = set(int(l) for l in tree.leaves)
        assert all(int(s) in leaf_set for s in body_ss)

    def test_costs_counts_consistent(self, split_setup):
        rt, bodies, tree, body_ss, cost, store = split_setup
        assert tree.global_cost[0] == pytest.approx(cost.sum())
        assert tree.global_count[0] == 400
        counts = np.bincount(body_ss, minlength=tree.n_nodes)
        for leaf in tree.leaves:
            assert counts[leaf] == tree.global_count[leaf]

    def test_geometry_halves(self, split_setup):
        rt, bodies, tree, body_ss, cost, store = split_setup
        for node in range(tree.n_nodes):
            par = tree.parent[node]
            if par >= 0:
                assert tree.sizes[node] == pytest.approx(
                    tree.sizes[par] / 2.0)

    def test_bodies_inside_their_subspace(self, split_setup):
        rt, bodies, tree, body_ss, cost, store = split_setup
        ctr = tree.centers[body_ss]
        half = tree.sizes[body_ss][:, None] / 2.0 * (1 + 1e-9)
        assert np.all(np.abs(bodies.pos - ctr) <= half)

    def test_vector_reduction_counts_levels(self):
        bodies = plummer(400, seed=22)
        P = 8
        rt = UpcRuntime(P, MachineConfig())
        store = SharedArray.block_distributed(P, 400)
        box = compute_root(bodies.pos)
        with rt.phase("s"):
            tree, _ = split_subspaces(rt, bodies.pos, np.ones(400), store,
                                      box, 2 / 3, vector_reduction=True)
        rec = rt.log.records[-1]
        assert rec.counters.total("vector_reductions") == tree.n_levels
        assert rec.counters.total("scalar_reductions") == 0

    def test_scalar_reduction_counts_subspaces(self):
        bodies = plummer(400, seed=22)
        P = 8
        rt = UpcRuntime(P, MachineConfig())
        store = SharedArray.block_distributed(P, 400)
        box = compute_root(bodies.pos)
        with rt.phase("s"):
            tree, _ = split_subspaces(rt, bodies.pos, np.ones(400), store,
                                      box, 2 / 3, vector_reduction=False)
        rec = rt.log.records[-1]
        examined = sum(len(lvl) for lvl in tree.levels)
        assert rec.counters.total("scalar_reductions") == examined
        assert examined > tree.n_levels

    def test_smaller_alpha_more_subspaces(self):
        bodies = plummer(400, seed=23)
        box = compute_root(bodies.pos)
        store = SharedArray.block_distributed(8, 400)
        counts = []
        for alpha in (2.0, 2 / 3, 0.2):
            rt = UpcRuntime(8, MachineConfig())
            with rt.phase("s"):
                tree, _ = split_subspaces(rt, bodies.pos, np.ones(400),
                                          store, box, alpha, True)
            counts.append(tree.n_nodes)
        assert counts[0] <= counts[1] <= counts[2]

    def test_leaves_in_morton_order(self, split_setup):
        rt, bodies, tree, body_ss, cost, store = split_setup
        leaves = tree.leaves
        # octant-ordered DFS: leaf sequence visits each parent's children
        # in increasing octant order
        seen_parent_oct = {}
        for leaf in leaves:
            par = int(tree.parent[leaf])
            o = int(tree.oct[leaf])
            last = seen_parent_oct.get(par, -1)
            assert o > last
            seen_parent_oct[par] = o


def _split_loop(rt, pos, cost, store, box, alpha, vector_reduction):
    """The split loop before it was vectorized: per-thread and per-child
    Python loops, ``np.isin`` membership."""
    P = rt.nthreads
    n = len(cost)
    centers = [np.asarray(box.center, dtype=np.float64)]
    sizes = [float(box.rsize)]
    parent = [-1]
    octs = [0]
    child_base = [-1]
    g_cost = [0.0]
    g_count = [0]
    body_ss = np.zeros(n, dtype=np.int64)
    level = np.array([0], dtype=np.int64)
    levels: List[np.ndarray] = []
    tau: Optional[float] = None

    depth = 0
    while len(level) and depth < MAX_SPLIT_LEVELS:
        levels.append(level)
        depth += 1
        in_level = np.isin(body_ss, level)
        # local cost/count accumulation, then one reduction per level
        lvl_pos = np.searchsorted(level, body_ss[in_level])
        lcost = np.bincount(lvl_pos, weights=cost[in_level],
                            minlength=len(level))
        lcount = np.bincount(lvl_pos, minlength=len(level))
        for t in range(P):
            mine = int((store[in_level] == t).sum())
            rt.charge_compute(t, mine * SCAN_COST
                              + len(level) * SUBSPACE_COST)
        if vector_reduction:
            # costs and counts in one vector reduction for the whole level
            allreduce_vector(rt, 2 * len(level))
        else:
            for _ in range(len(level)):
                allreduce_scalar(rt)
        for j, node in enumerate(level):
            g_cost[node] = float(lcost[j])
            g_count[node] = int(lcount[j])
        if tau is None:
            total = g_cost[0]
            tau = alpha * total / P
        fat = [int(nd) for j, nd in enumerate(level)
               if lcost[j] > tau and lcount[j] > 1]
        if not fat:
            break
        # allocate 8 children per fat node (contiguous, octant order)
        base_of = np.full(len(centers) + 8 * len(fat), -1, dtype=np.int64)
        new_level = np.empty(8 * len(fat), dtype=np.int64)
        for j, f in enumerate(fat):
            base = len(centers)
            child_base[f] = base
            base_of[f] = base
            cf = centers[f]
            q = sizes[f] / 4.0
            for o in range(8):
                off = np.array([q if (o & 1) else -q,
                                q if (o & 2) else -q,
                                q if (o & 4) else -q])
                centers.append(cf + off)
                sizes.append(sizes[f] / 2.0)
                parent.append(f)
                octs.append(o)
                child_base.append(-1)
                g_cost.append(0.0)
                g_count.append(0)
            new_level[8 * j: 8 * j + 8] = np.arange(base, base + 8)
        # re-bucket bodies living in fat subspaces (vectorized octant)
        fat_arr = np.asarray(fat, dtype=np.int64)
        sel = np.isin(body_ss, fat_arr)
        if sel.any():
            ctr = np.asarray(centers)[body_ss[sel]]
            p = pos[sel]
            o = ((p[:, 0] > ctr[:, 0]).astype(np.int64)
                 | ((p[:, 1] > ctr[:, 1]).astype(np.int64) << 1)
                 | ((p[:, 2] > ctr[:, 2]).astype(np.int64) << 2))
            body_ss[sel] = base_of[body_ss[sel]] + o
            for t in range(P):
                mine = int((store[sel] == t).sum())
                rt.charge_compute(t, mine * 4 * SCAN_COST)
        level = new_level

    tree = SubspaceTree(
        centers=np.asarray(centers),
        sizes=np.asarray(sizes),
        parent=np.asarray(parent, dtype=np.int64),
        oct=np.asarray(octs, dtype=np.int64),
        child_base=np.asarray(child_base, dtype=np.int64),
        global_cost=np.asarray(g_cost),
        global_count=np.asarray(g_count, dtype=np.int64),
        levels=levels,
    )
    tree.leaves = tree.leaves_in_order()
    return tree, body_ss


class TestVectorizedSplit:
    """``split_subspaces`` against the per-thread/per-child loop it
    replaced: the same tree, body map and charges, bit for bit."""

    @pytest.mark.parametrize("nthreads", [4, 16, 64])
    @pytest.mark.parametrize("dist", ["plummer", "disk"])
    @pytest.mark.parametrize("vector", [True, False])
    def test_equals_the_loop(self, nthreads, dist, vector):
        bodies = make_distribution(dist, 3000, seed=5)
        cost = np.random.default_rng(5).integers(1, 400, 3000) * 1.0
        store = SharedArray.block_distributed(nthreads, 3000)
        box = compute_root(bodies.pos)
        runs = []
        for split in (split_subspaces, _split_loop):
            rt = UpcRuntime(nthreads, paper_section5_machine())
            with rt.phase("s"):
                tree, body_ss = split(rt, bodies.pos, cost, store, box,
                                      2 / 3, vector)
                nic = rt._nic.copy()
                counters = dict(rt._counters._data)
            runs.append((rt, tree, body_ss, nic, counters))
        (rt, tree, body_ss, nic, counters), want = runs[0], runs[1]
        assert np.array_equal(body_ss, want[2])
        assert body_ss.dtype == want[2].dtype
        for name in ("centers", "sizes", "parent", "oct", "child_base",
                     "global_cost", "global_count", "leaves"):
            a, b = getattr(tree, name), getattr(want[1], name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert len(tree.levels) == len(want[1].levels)
        for a, b in zip(tree.levels, want[1].levels):
            assert np.array_equal(a, b)
        assert tree.n_levels > 2
        assert np.array_equal(rt.clock, want[0].clock)
        assert np.array_equal(nic, want[3])
        assert counters == want[4]


class TestAllocation:
    def test_load_balance_bound(self, split_setup):
        """The paper's bound: <= (1 + alpha) * Cost / THREADS per thread."""
        rt, bodies, tree, body_ss, cost, store = split_setup
        owner = allocate_leaves(rt, tree)
        leaf_costs = tree.global_cost[tree.leaves]
        per_thread = np.bincount(owner, weights=leaf_costs,
                                 minlength=rt.nthreads)
        bound = (1 + 2 / 3) * cost.sum() / rt.nthreads
        assert per_thread.max() <= bound + 1e-9

    def test_owners_contiguous(self, split_setup):
        rt, bodies, tree, body_ss, cost, store = split_setup
        owner = allocate_leaves(rt, tree)
        assert np.all(np.diff(owner) >= 0)

    def test_single_thread_owns_all(self):
        bodies = plummer(100, seed=30)
        rt = UpcRuntime(1, MachineConfig())
        store = np.zeros(100, dtype=np.int32)
        box = compute_root(bodies.pos)
        with rt.phase("s"):
            tree, _ = split_subspaces(rt, bodies.pos, np.ones(100), store,
                                      box, 2 / 3, True)
            owner = allocate_leaves(rt, tree)
        assert np.all(owner == 0)


class TestExchange:
    def test_store_follows_owner(self, split_setup):
        rt, bodies, tree, body_ss, cost, store = split_setup
        owner = allocate_leaves(rt, tree)
        assign = store.copy()
        with rt.phase("x"):
            frac = exchange_bodies(rt, tree, body_ss, owner, assign, store)
        assert np.array_equal(assign, store)
        owner_of_node = np.zeros(tree.n_nodes, dtype=np.int32)
        owner_of_node[tree.leaves] = owner
        assert np.array_equal(assign, owner_of_node[body_ss])
        assert 0.0 <= frac <= 1.0

    def test_second_exchange_is_noop(self, split_setup):
        rt, bodies, tree, body_ss, cost, store = split_setup
        owner = allocate_leaves(rt, tree)
        assign = store.copy()
        with rt.phase("x"):
            exchange_bodies(rt, tree, body_ss, owner, assign, store)
        with rt.phase("x2"):
            frac = exchange_bodies(rt, tree, body_ss, owner, assign, store)
        assert frac == 0.0


class TestEndToEnd:
    def test_variant_tree_matches_bodies(self):
        cfg = BHConfig(nbodies=300, nsteps=2, warmup_steps=1, seed=5)
        sim = BarnesHutSimulation(cfg, 8, variant="subspace")
        res = sim.run()
        # every body advanced (positions changed from ICs)
        ics = plummer(300, seed=5)
        assert not np.allclose(res.bodies.pos, ics.pos)
        # subspace stats recorded per step
        assert len(res.variant_stats["subspace_counts"]) == 2
        assert all(c >= 1 for c in res.variant_stats["subspace_counts"])
