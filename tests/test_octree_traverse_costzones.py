"""Force traversal vs direct summation; costzones partitioning."""

import numpy as np
import pytest

from repro.nbody.bbox import compute_root
from repro.nbody.direct import direct_acc
from repro.octree.build import build_tree
from repro.octree.cell import Cell, Leaf
from repro.octree.cofm import compute_cofm
from repro.octree.costzones import costzones, zone_costs
from repro.octree.morton import bodies_in_order
from repro.octree.traverse import TraversalPolicy, gravity_traversal


EPS = 0.05


class TestAccuracy:
    def test_theta_zero_equals_direct(self, bodies256, tree256):
        """theta -> 0 opens everything: exact pairwise forces."""
        acc, work = gravity_traversal(
            tree256, np.arange(256), bodies256.pos, bodies256.mass,
            theta=1e-9, eps=EPS)
        ref = direct_acc(bodies256.pos, bodies256.mass, EPS)
        assert np.allclose(acc, ref, rtol=1e-10, atol=1e-12)
        assert np.all(work == 255)

    def test_theta_one_within_tolerance(self, bodies256, tree256):
        acc, _ = gravity_traversal(
            tree256, np.arange(256), bodies256.pos, bodies256.mass,
            theta=1.0, eps=EPS)
        ref = direct_acc(bodies256.pos, bodies256.mass, EPS)
        err = np.linalg.norm(acc - ref, axis=1)
        scale = np.linalg.norm(ref, axis=1) + 1e-12
        assert np.median(err / scale) < 0.05

    def test_smaller_theta_more_accurate_more_work(self, bodies256,
                                                   tree256):
        ref = direct_acc(bodies256.pos, bodies256.mass, EPS)
        errs, works = [], []
        for theta in (1.2, 0.8, 0.4):
            acc, w = gravity_traversal(
                tree256, np.arange(256), bodies256.pos, bodies256.mass,
                theta=theta, eps=EPS)
            errs.append(np.median(
                np.linalg.norm(acc - ref, axis=1)
                / (np.linalg.norm(ref, axis=1) + 1e-12)))
            works.append(w.mean())
        assert errs[0] >= errs[1] >= errs[2]
        assert works[0] < works[1] < works[2]

    def test_subset_matches_full(self, bodies256, tree256):
        sub = np.array([3, 50, 120, 200])
        acc_sub, w_sub = gravity_traversal(
            tree256, sub, bodies256.pos, bodies256.mass, 1.0, EPS)
        acc_all, w_all = gravity_traversal(
            tree256, np.arange(256), bodies256.pos, bodies256.mass,
            1.0, EPS)
        assert np.allclose(acc_sub, acc_all[sub])
        assert np.array_equal(w_sub, w_all[sub])

    def test_open_self_cells_option_no_worse(self, bodies256, tree256):
        ref = direct_acc(bodies256.pos, bodies256.mass, EPS)
        acc_a, _ = gravity_traversal(tree256, np.arange(256),
                                     bodies256.pos, bodies256.mass,
                                     1.0, EPS, open_self_cells=False)
        acc_b, _ = gravity_traversal(tree256, np.arange(256),
                                     bodies256.pos, bodies256.mass,
                                     1.0, EPS, open_self_cells=True)
        err = lambda a: np.median(  # noqa: E731
            np.linalg.norm(a - ref, axis=1)
            / (np.linalg.norm(ref, axis=1) + 1e-12))
        assert err(acc_b) <= err(acc_a) * 1.01

    def test_empty_index_set(self, bodies256, tree256):
        acc, work = gravity_traversal(
            tree256, np.array([], dtype=np.int64), bodies256.pos,
            bodies256.mass, 1.0, EPS)
        assert acc.shape == (0, 3) and work.shape == (0,)


class TestPolicyHooks:
    def test_hooks_see_consistent_counts(self, bodies256, tree256):
        class Probe(TraversalPolicy):
            def __init__(self):
                self.tests = 0
                self.accepts = 0
                self.opens = 0
                self.leaf_visits = 0

            def on_test(self, cell, n):
                self.tests += n

            def on_accept(self, cell, n):
                self.accepts += n

            def on_open(self, cell, n):
                self.opens += n

            def on_leaf(self, leaf, n):
                self.leaf_visits += n

        p = Probe()
        _, work = gravity_traversal(tree256, np.arange(256),
                                    bodies256.pos, bodies256.mass,
                                    1.0, EPS, policy=p)
        assert p.tests == p.accepts + p.opens
        # every interaction is either a cell accept or a leaf visit
        assert p.accepts + p.leaf_visits >= work.sum()
        assert p.accepts > 0 and p.opens > 0 and p.leaf_visits > 0

    def test_children_of_redirection(self, bodies256, tree256):
        """A policy can reroute the traversal (the caching mechanism)."""
        calls = []

        class Reroute(TraversalPolicy):
            def children_of(self, cell):
                calls.append(cell)
                return cell.children

        gravity_traversal(tree256, np.arange(16), bodies256.pos,
                          bodies256.mass, 1.0, EPS, policy=Reroute())
        assert calls  # invoked on every open


class TestCostzones:
    def test_balanced_when_uniform(self, tree256):
        costs = np.ones(256)
        assign = costzones(bodies_in_order(tree256), costs, 8)
        z = zone_costs(assign, costs, 8)
        assert z.max() <= 1.5 * z.mean()

    def test_balanced_with_skewed_costs(self, bodies256, tree256):
        rng = np.random.default_rng(3)
        costs = rng.exponential(1.0, 256)
        assign = costzones(bodies_in_order(tree256), costs, 4)
        z = zone_costs(assign, costs, 4)
        assert z.max() <= 2.0 * z.mean()

    def test_single_thread(self, tree256):
        assign = costzones(bodies_in_order(tree256), np.ones(256), 1)
        assert np.all(assign == 0)

    def test_zones_contiguous_in_tree_order(self, tree256):
        assign = costzones(bodies_in_order(tree256), np.ones(256), 8)
        in_order = assign[bodies_in_order(tree256)]
        assert np.all(np.diff(in_order) >= 0)

    def test_zero_costs_fall_back_to_counts(self, tree256):
        assign = costzones(bodies_in_order(tree256), np.zeros(256), 4)
        counts = np.bincount(assign, minlength=4)
        assert counts.max() - counts.min() <= 1

    def test_all_threads_used(self, tree256):
        assign = costzones(bodies_in_order(tree256), np.ones(256), 16)
        assert len(np.unique(assign)) == 16

    def test_rejects_zero_threads(self, tree256):
        with pytest.raises(ValueError):
            costzones(bodies_in_order(tree256), np.ones(256), 0)

    def test_spatial_locality_of_zones(self, bodies256, tree256):
        """Zone members are spatially clustered -- the property that makes
        redistribution (section 5.2) pay off."""
        assign = costzones(bodies_in_order(tree256), np.ones(256), 8)
        spread_zone = []
        for t in range(8):
            sel = bodies256.pos[assign == t]
            spread_zone.append(np.linalg.norm(sel - sel.mean(0),
                                              axis=1).mean())
        global_spread = np.linalg.norm(
            bodies256.pos - bodies256.pos.mean(0), axis=1).mean()
        assert np.median(spread_zone) < global_spread
