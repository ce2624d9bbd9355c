"""Octree construction: invariants, the build record, degenerate inputs."""

import numpy as np
import pytest

from repro.nbody.bbox import RootBox, compute_root
from repro.octree.build import BuildRecord, build_tree, insert, new_root
from repro.octree.cell import MAX_DEPTH, Cell, Leaf
from repro.octree.validate import TreeInvariantError, check_tree


class TestBuild:
    def test_all_bodies_in_leaves(self, bodies256):
        box = compute_root(bodies256.pos)
        root = build_tree(bodies256.pos, box)
        check_tree(root, bodies256.pos,
                   expected_indices=np.arange(len(bodies256)))

    def test_single_body(self):
        pos = np.array([[0.1, 0.2, 0.3]])
        root = build_tree(pos, RootBox(np.zeros(3), 2.0))
        leaves = list(root.iter_leaves())
        assert len(leaves) == 1 and leaves[0].indices == [0]

    def test_two_close_bodies_split_until_separated(self):
        pos = np.array([[0.001, 0.001, 0.001], [0.002, 0.002, 0.002]])
        root = build_tree(pos, RootBox(np.zeros(3), 2.0))
        check_tree(root, pos, expected_indices=np.arange(2))
        # separation requires several levels
        depth = 0
        node = root
        while isinstance(node, Cell):
            depth += 1
            kids = [c for c in node.children if c is not None]
            if len(kids) == 1 and isinstance(kids[0], Cell):
                node = kids[0]
            else:
                break
        assert depth >= 5

    def test_coincident_bodies_bucket_at_max_depth(self):
        pos = np.array([[0.1, 0.1, 0.1]] * 3)
        root = build_tree(pos, RootBox(np.zeros(3), 2.0))
        leaves = list(root.iter_leaves())
        all_indices = sorted(i for l in leaves for i in l.indices)
        assert all_indices == [0, 1, 2]

    def test_tree_shape_independent_of_insertion_order(self, bodies256):
        """The BH octree is canonical: splitting only depends on
        positions, so every build order gives the same shape."""
        box = compute_root(bodies256.pos)
        a = build_tree(bodies256.pos, box, indices=range(256))
        b = build_tree(bodies256.pos, box,
                       indices=list(reversed(range(256))))

        def shape(cell):
            out = []
            for ch in cell.children:
                if ch is None:
                    out.append("-")
                elif isinstance(ch, Leaf):
                    out.append(tuple(sorted(ch.indices)))
                else:
                    out.append(shape(ch))
            return tuple(out)

        assert shape(a) == shape(b)

    def test_home_follows_inserter(self, bodies256):
        box = compute_root(bodies256.pos)
        root = new_root(box, home=0)
        record = BuildRecord()
        record.add(root)
        insert([(root, range(64), 3)], bodies256.pos, record=record)
        assert record.homes == [0] + [3] * (len(record.cells) - 1)
        for c in root.iter_cells():
            if c is not root:
                assert c.home == 3


class TestCellGeometry:
    def test_octant_of(self):
        c = Cell(np.zeros(3), 2.0)
        assert c.octant_of(np.array([1.0, 1.0, 1.0])) == 7
        assert c.octant_of(np.array([-1.0, -1.0, -1.0])) == 0
        assert c.octant_of(np.array([1.0, -1.0, -1.0])) == 1
        assert c.octant_of(np.array([-1.0, 1.0, -1.0])) == 2
        assert c.octant_of(np.array([-1.0, -1.0, 1.0])) == 4

    def test_child_center_offsets(self):
        c = Cell(np.zeros(3), 4.0)
        assert c.child_center(7) == pytest.approx([1, 1, 1])
        assert c.child_center(0) == pytest.approx([-1, -1, -1])

    def test_count_cells(self, tree256):
        n = tree256.count_cells()
        assert n == sum(1 for _ in tree256.iter_cells())
        assert n > 10


class TestValidator:
    def test_detects_misplaced_body(self, bodies256):
        box = compute_root(bodies256.pos)
        root = build_tree(bodies256.pos, box)
        # corrupt: move a body far away without rebuilding
        pos = bodies256.pos.copy()
        pos[0] = [1e6, 1e6, 1e6]
        with pytest.raises(TreeInvariantError):
            check_tree(root, pos)

    def test_detects_missing_body(self, bodies256):
        box = compute_root(bodies256.pos)
        root = build_tree(bodies256.pos, box, indices=range(255))
        with pytest.raises(TreeInvariantError):
            check_tree(root, bodies256.pos,
                       expected_indices=np.arange(256))

    def test_detects_wrong_mass(self, bodies256, tree256):
        tree256.mass = 123.0
        with pytest.raises(TreeInvariantError):
            check_tree(tree256, bodies256.pos, bodies256.mass,
                       check_cofm=True)


class TestGcPaused:
    """``gc_paused`` restores the collector, and moves what the build
    made to the oldest generation without a scan."""

    def test_build_objects_skip_the_young_scans(self, bodies256):
        import gc

        from repro.octree.build import gc_paused

        assert gc.isenabled() and not gc.get_freeze_count()
        with gc_paused():
            assert not gc.isenabled()
            root = build_tree(bodies256.pos, compute_root(bodies256.pos))
        assert gc.isenabled()
        # in the oldest generation already: no young pass walks the tree
        assert any(o is root for o in gc.get_objects(generation=2))
        assert not gc.get_freeze_count()
        check_tree(root, bodies256.pos,
                   expected_indices=np.arange(len(bodies256)))

    def test_foreign_frozen_objects_stay_frozen(self, bodies256):
        import gc

        from repro.octree.build import gc_paused

        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            with gc_paused():
                build_tree(bodies256.pos, compute_root(bodies256.pos))
            assert gc.get_freeze_count() == frozen
            assert gc.isenabled()
        finally:
            gc.unfreeze()

    def test_disabled_collector_stays_disabled(self, bodies256):
        import gc

        from repro.octree.build import gc_paused

        gc.disable()
        try:
            with gc_paused():
                build_tree(bodies256.pos, compute_root(bodies256.pos))
            assert not gc.isenabled()
        finally:
            gc.enable()
