"""Center-of-mass computation, merge commutativity, Morton ordering."""

import numpy as np
import pytest

from repro.nbody.bbox import RootBox, compute_root
from repro.octree.build import build_tree
from repro.octree.cell import Leaf
from repro.octree.cofm import compute_cofm
from repro.octree.morton import (
    bodies_in_order,
    leaves_in_order,
    morton_key,
    morton_keys,
)
from repro.octree.validate import check_tree


class TestCofm:
    def test_root_mass_and_cofm(self, bodies256, tree256):
        assert tree256.mass == pytest.approx(bodies256.mass.sum())
        expect = bodies256.center_of_mass()
        assert np.allclose(tree256.cofm, expect, atol=1e-12)

    def test_full_tree_consistency(self, bodies256, tree256):
        check_tree(tree256, bodies256.pos, bodies256.mass,
                   expected_indices=np.arange(256), check_cofm=True)

    def test_costs_accumulate(self, bodies256):
        box = compute_root(bodies256.pos)
        root = build_tree(bodies256.pos, box)
        costs = np.arange(256, dtype=np.float64)
        compute_cofm(root, bodies256.pos, bodies256.mass, costs)
        assert root.cost == pytest.approx(costs.sum())

    def test_on_cell_fires_once_per_cell(self, bodies256):
        box = compute_root(bodies256.pos)
        root = build_tree(bodies256.pos, box)
        seen = []
        compute_cofm(root, bodies256.pos, bodies256.mass,
                     on_cell=seen.append)
        assert len(seen) == root.count_cells()
        assert len(set(map(id, seen))) == len(seen)

    def test_children_finish_before_parents(self, bodies256):
        box = compute_root(bodies256.pos)
        root = build_tree(bodies256.pos, box)
        order = {}
        compute_cofm(root, bodies256.pos, bodies256.mass,
                     on_cell=lambda c: order.setdefault(id(c), len(order)))
        for cell in root.iter_cells():
            for ch in cell.children:
                if ch is not None and not isinstance(ch, Leaf):
                    assert order[id(ch)] < order[id(cell)]

    def test_nbodies_counts(self, tree256):
        assert tree256.nbodies == 256

    @staticmethod
    def _vector_cofm(root, pos, mass, costs):
        """The 3-vector update order compute_cofm's scalar sums follow."""
        for c in reversed(list(root.iter_cells())):
            m_c, cofm, cost = 0.0, np.zeros(3), 0.0
            for ch in c.children:
                if isinstance(ch, Leaf):
                    for i in ch.indices:
                        m_c += mass[i]
                        cofm += mass[i] * pos[i]
                        cost += costs[i]
                elif ch is not None:
                    m_c += ch.mass
                    cofm += ch.mass * ch.cofm
                    cost += ch.cost
            c.mass, c.cost = m_c, cost
            c.cofm = cofm / m_c if m_c > 0 else np.array(c.center)

    @staticmethod
    def _bits(root):
        return [(float(c.mass).hex(), float(c.cost).hex(),
                 [float(v).hex() for v in c.cofm]) for c in root.iter_cells()]

    def test_bits_match_the_vector_update(self, bodies256):
        pos = bodies256.pos.copy()
        pos[:5] = pos[0]  # a coincident-body bucket leaf
        costs = np.random.default_rng(3).random(256)
        box = compute_root(pos)
        root = build_tree(pos, box)
        assert any(isinstance(ch, Leaf) and len(ch.indices) > 1
                   for c in root.iter_cells() for ch in c.children)
        compute_cofm(root, pos, bodies256.mass, costs)
        got = self._bits(root)
        self._vector_cofm(root, pos, bodies256.mass, costs)
        assert got == self._bits(root)

    def test_done_cells_are_read_not_recomputed(self, bodies256):
        box = compute_root(bodies256.pos)
        root = build_tree(bodies256.pos, box)
        compute_cofm(root, bodies256.pos, bodies256.mass)
        want = self._bits(root)
        sub = next(ch for ch in root.children
                   if ch is not None and not isinstance(ch, Leaf))
        inside = {id(c) for c in sub.iter_cells()}
        seen = []
        compute_cofm(root, bodies256.pos, bodies256.mass,
                     on_cell=seen.append, done={sub})
        assert seen and not inside & {id(c) for c in seen}
        assert self._bits(root) == want
        # the parent sums what the done cell holds
        sub.mass += 1.0
        compute_cofm(root, bodies256.pos, bodies256.mass, done={sub})
        assert root.mass == pytest.approx(bodies256.mass.sum() + 1.0)


class TestMorton:
    def test_keys_distinguish_octants(self):
        box = RootBox(np.zeros(3), 2.0)
        k0 = morton_key(np.array([-0.5, -0.5, -0.5]), box)
        k7 = morton_key(np.array([0.5, 0.5, 0.5]), box)
        assert k0 != k7

    def test_vectorized_matches_scalar(self, bodies256):
        box = compute_root(bodies256.pos)
        keys = morton_keys(bodies256.pos, box)
        for i in [0, 17, 99, 255]:
            assert keys[i] == morton_key(bodies256.pos[i], box)

    def test_leaves_cover_all_bodies(self, tree256):
        got = sorted(
            i for l in leaves_in_order(tree256) for i in l.indices
        )
        assert got == list(range(256))

    def test_tree_order_groups_spatially(self, bodies256, tree256):
        """Consecutive bodies in tree order are close in space (the
        locality property costzones and the subspace allocation rely on)."""
        order = bodies_in_order(tree256)
        pos = bodies256.pos[order]
        consecutive = np.linalg.norm(np.diff(pos, axis=0), axis=1)
        rng = np.random.default_rng(0)
        random_pairs = np.linalg.norm(
            pos[rng.permutation(255)] - pos[:255], axis=1)
        assert np.median(consecutive) < 0.5 * np.median(random_pairs)

    def test_keys_clip_outside_box(self):
        box = RootBox(np.zeros(3), 2.0)
        k_out = morton_key(np.array([100.0, 100.0, 100.0]), box)
        k_corner = morton_key(np.array([1.0, 1.0, 1.0]), box)
        assert k_out == k_corner  # clamped to the top corner cell
