"""Property-based tests (hypothesis) on core data structures/invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.nbody.bbox import RootBox, compute_root
from repro.nbody.direct import direct_acc
from repro.octree.build import build_tree
from repro.octree.cofm import compute_cofm
from repro.octree.costzones import costzones, zone_costs
from repro.octree.morton import bodies_in_order
from repro.octree.traverse import gravity_traversal
from repro.octree.validate import check_tree
from repro.upc.costmodel import CostModel
from repro.upc.locks import UpcLock
from repro.upc.memory import SharedArray, distribution_counts
from repro.upc.params import MachineConfig


finite_positions = lambda n: hnp.arrays(  # noqa: E731
    np.float64, (n, 3),
    elements=st.floats(-10.0, 10.0, allow_nan=False, width=64),
)


class TestOctreeProperties:
    @given(pos=st.integers(2, 60).flatmap(finite_positions))
    @settings(max_examples=40, deadline=None)
    def test_build_preserves_bodies(self, pos):
        """Any finite body set (duplicates included) builds a tree that
        holds every body exactly once, inside its cell."""
        box = compute_root(pos)
        root = build_tree(pos, box)
        check_tree(root, pos, expected_indices=np.arange(len(pos)))

    @given(pos=st.integers(2, 40).flatmap(finite_positions))
    @settings(max_examples=25, deadline=None)
    def test_cofm_mass_conserved(self, pos):
        mass = np.full(len(pos), 1.0 / len(pos))
        box = compute_root(pos)
        root = build_tree(pos, box)
        compute_cofm(root, pos, mass)
        assert root.mass == pytest.approx(1.0)
        # cofm inside the root cell
        assert np.all(np.abs(root.cofm - root.center)
                      <= root.size / 2 + 1e-9)

    @given(pos=st.integers(3, 32).flatmap(finite_positions),
           theta=st.floats(0.2, 1.5))
    @settings(max_examples=20, deadline=None)
    def test_traversal_work_bounded(self, pos, theta):
        """Interactions per body never exceed n-1 (direct summation) and
        are at least 1 for separated bodies."""
        n = len(pos)
        if len(np.unique(pos, axis=0)) < n:
            return  # coincident bodies interact with fewer partners
        mass = np.ones(n)
        box = compute_root(pos)
        root = build_tree(pos, box)
        compute_cofm(root, pos, mass)
        _, work = gravity_traversal(root, np.arange(n), pos, mass,
                                    theta, eps=0.05)
        assert np.all(work <= n - 1)
        assert np.all(work >= 1)

    @given(pos=st.integers(4, 32).flatmap(finite_positions))
    @settings(max_examples=15, deadline=None)
    def test_theta_zero_equals_direct(self, pos):
        n = len(pos)
        if len(np.unique(pos, axis=0)) < n:
            return
        mass = np.full(n, 0.5)
        box = compute_root(pos)
        root = build_tree(pos, box)
        compute_cofm(root, pos, mass)
        acc, _ = gravity_traversal(root, np.arange(n), pos, mass,
                                   theta=1e-12, eps=0.1)
        ref = direct_acc(pos, mass, eps=0.1)
        assert np.allclose(acc, ref, rtol=1e-8, atol=1e-10)


class TestCostzonesProperties:
    @given(pos=st.integers(8, 64).flatmap(finite_positions),
           nthreads=st.integers(1, 9),
           data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_partition_is_total_and_balanced(self, pos, nthreads, data):
        n = len(pos)
        costs = np.array(data.draw(st.lists(
            st.floats(0.1, 100.0), min_size=n, max_size=n)))
        box = compute_root(pos)
        root = build_tree(pos, box)
        assign = costzones(bodies_in_order(root), costs, nthreads)
        assert assign.min() >= 0 and assign.max() < nthreads
        z = zone_costs(assign, costs, nthreads)
        assert z.sum() == pytest.approx(costs.sum())
        # no zone exceeds mean + the heaviest single body
        assert z.max() <= costs.sum() / nthreads + costs.max() + 1e-9

    @given(pos=st.integers(8, 48).flatmap(finite_positions))
    @settings(max_examples=20, deadline=None)
    def test_tree_order_is_permutation(self, pos):
        box = compute_root(pos)
        root = build_tree(pos, box)
        order = bodies_in_order(root)
        assert sorted(order) == list(range(len(pos)))


class TestUpcProperties:
    @given(words=st.floats(0.0, 1e4), src=st.integers(0, 7),
           dst=st.integers(0, 7), tpn=st.integers(1, 8),
           mode=st.sampled_from(["process", "pthread"]))
    @settings(max_examples=60, deadline=None)
    def test_costs_non_negative_and_remote_dominates(self, words, src,
                                                     dst, tpn, mode):
        cm = CostModel(MachineConfig(threads_per_node=tpn, mode=mode))
        ch = cm.word_access(src, dst, words)
        assert ch.issuer >= 0 and ch.nic >= 0
        local = cm.word_access(src, src, words)
        assert ch.issuer >= local.issuer * 0.99 or \
            cm.machine.shared_memory_path(src, dst)

    @given(seq=st.lists(st.tuples(st.integers(0, 3),
                                  st.floats(0.0, 1.0),
                                  st.floats(0.0, 1.0)),
                        min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_lock_grants_never_overlap(self, seq):
        """For any acquire schedule, the lock's critical sections are
        serialized: each grant is at or after the previous release."""
        lk = UpcLock(0)
        last_release = 0.0
        for tid, arrive, hold in seq:
            grant = lk.acquire_at(tid, arrive, 0.01)
            assert grant >= last_release - 1e-12
            last_release = lk.release_at(tid, grant + hold, 0.01)

    @given(nthreads=st.integers(1, 16), nelems=st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_block_distribution_total_and_contiguous(self, nthreads,
                                                     nelems):
        owner = SharedArray.block_distributed(nthreads, nelems)
        assert len(owner) == nelems
        counts = distribution_counts(owner, nthreads)
        assert counts.sum() == nelems
        if nelems:
            assert np.all(np.diff(owner) >= 0)  # contiguous chunks

    @given(n=st.integers(2, 256), nbytes=st.integers(8, 1 << 20))
    @settings(max_examples=40, deadline=None)
    def test_reductions_monotone_in_size(self, n, nbytes):
        cm = CostModel(MachineConfig())
        assert cm.reduce_vector(n, nbytes) >= cm.reduce_vector(n, 8) - 1e-15
        assert cm.barrier(n) <= cm.reduce_vector(n, nbytes)


class TestSubspaceProperties:
    @given(seed=st.integers(0, 1000), nthreads=st.sampled_from([2, 4, 8]),
           alpha=st.floats(0.3, 2.0))
    @settings(max_examples=15, deadline=None)
    def test_balance_bound(self, seed, nthreads, alpha):
        """(1+alpha) Cost/THREADS holds for every seed/alpha."""
        from repro.core.subspace import allocate_leaves, split_subspaces
        from repro.nbody.plummer import plummer
        from repro.upc.runtime import UpcRuntime

        bodies = plummer(200, seed=seed)
        rt = UpcRuntime(nthreads, MachineConfig())
        store = SharedArray.block_distributed(nthreads, 200)
        cost = np.ones(200)
        box = compute_root(bodies.pos)
        with rt.phase("s"):
            tree, _ = split_subspaces(rt, bodies.pos, cost, store, box,
                                      alpha, True)
            owner = allocate_leaves(rt, tree)
        per = np.bincount(owner, weights=tree.global_cost[tree.leaves],
                          minlength=nthreads)
        bound = (1 + alpha) * cost.sum() / nthreads
        assert per.max() <= bound + 1e-9
