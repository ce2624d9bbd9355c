"""The section-5.4 merge algorithm, case by case.

The merge of a local tree into the global tree has four structural cases
(empty slot / cell-cell / cell-leaf / leaf-cell / leaf-leaf); these tests
construct workloads that force each case and verify the merged tree is the
canonical octree regardless.
"""

import numpy as np
import pytest

from repro.core.app import BarnesHutSimulation
from repro.core.config import BHConfig
from repro.nbody.bbox import compute_root
from repro.nbody.plummer import plummer
from repro.octree.build import build_tree
from repro.octree.cell import Cell, Leaf
from repro.octree.validate import check_tree


def _merged_tree(nbodies, nthreads, seed=3, steps=1, build_only=False):
    """Run ``steps`` full steps; with ``build_only`` stop right after the
    last tree build so the tree matches the *current* positions."""
    cfg = BHConfig(nbodies=nbodies, nsteps=max(steps, 2),
                   warmup_steps=1, seed=seed)
    sim = BarnesHutSimulation(cfg, nthreads, variant="localbuild")
    for s in range(steps - 1):
        sim.variant.step(s)
    if build_only:
        name, fn = sim.variant.phase_plan()[0]
        sim.rt.step = steps - 1
        with sim.rt.phase(name):
            fn()
    else:
        sim.variant.step(steps - 1)
    return sim


def _with_record_cofm(v):
    """The merged tree's root, every cell given the c-of-m fields of the
    variant's record: the one copy of them the build leaves."""
    rows = v.rows
    for r, cell in enumerate(rows.cells):
        cell.mass = float(rows.mass[r])
        cell.cofm = rows.cofm[r]
        cell.nbodies = int(rows.nbodies[r])
    return v.root


class TestMergeProducesCanonicalTree:
    @pytest.mark.parametrize("nthreads", [2, 3, 7, 16])
    def test_merged_equals_sequential_build(self, nthreads):
        sim = _merged_tree(200, nthreads, build_only=True)
        v = sim.variant
        check_tree(_with_record_cofm(v), v.bodies.pos, v.bodies.mass,
                   expected_indices=np.arange(200), check_cofm=True)
        # canonical shape: compare against a fresh sequential build
        ref = build_tree(v.bodies.pos, v.box)

        def shape(cell):
            out = []
            for ch in cell.children:
                if ch is None:
                    out.append(None)
                elif isinstance(ch, Leaf):
                    out.append(tuple(sorted(ch.indices)))
                else:
                    out.append(shape(ch))
            return tuple(out)

        assert shape(v.root) == shape(ref)

    def test_two_bodies_same_octant_different_threads(self):
        """Forces the leaf-leaf split case across threads."""
        sim = _merged_tree(2, 2, build_only=True)
        v = sim.variant
        check_tree(_with_record_cofm(v), v.bodies.pos, v.bodies.mass,
                   expected_indices=np.arange(2), check_cofm=True)

    def test_cell_homes_preserved_after_merge(self):
        """Hooked subtrees keep their creator's affinity -- the property
        the later force-phase accounting depends on."""
        sim = _merged_tree(300, 4, build_only=True)
        v = sim.variant
        homes = {c.home for c in v.root.iter_cells()}
        assert homes <= set(range(4))
        assert len(homes) > 1  # several threads contributed cells

    def test_merge_counters_present(self):
        sim = _merged_tree(300, 4, steps=2)
        log = sim.rt.log
        assert log.counter_total("merge_hooks") > 0
        assert log.counter_total("merge_cofm_updates") > 0

    def test_winner_pays_less_than_losers(self):
        """The section-6 observation: the first thread to merge hooks its
        subtrees cheaply; later threads walk deeper."""
        sim = _merged_tree(800, 8, steps=2)
        sub = sim.variant.treebuild_subphases[-1]
        merge = sub["merge"]
        assert merge[0] < merge.max()

    def test_local_phase_balanced(self):
        sim = _merged_tree(800, 8, steps=2)
        sub = sim.variant.treebuild_subphases[-1]
        local = sub["local"]
        assert local.max() <= 3.0 * max(local.mean(), 1e-15)


class TestDegenerateTraversals:
    def test_multibody_bucket_forces(self):
        """Coincident bodies share a bucket leaf; forces must still sum
        over all partners exactly once, excluding self."""
        pos = np.array([
            [0.1, 0.1, 0.1],
            [0.1, 0.1, 0.1],   # coincident with body 0
            [-0.5, -0.5, -0.5],
        ])
        mass = np.array([1.0, 2.0, 3.0])
        from repro.nbody.bbox import RootBox
        from repro.nbody.direct import direct_acc
        from repro.octree.build import build_tree as bt
        from repro.octree.cofm import compute_cofm
        from repro.octree.traverse import gravity_traversal

        root = bt(pos, RootBox(np.zeros(3), 2.0))
        compute_cofm(root, pos, mass)
        acc, work = gravity_traversal(root, np.arange(3), pos, mass,
                                      theta=1e-9, eps=0.05)
        ref = direct_acc(pos, mass, 0.05)
        assert np.allclose(acc, ref)
        assert list(work) == [2, 2, 2]

    def test_empty_thread_in_every_variant(self):
        """More threads than bodies leaves some threads with no work in
        every phase; nothing may crash or mis-time."""
        cfg = BHConfig(nbodies=5, nsteps=2, warmup_steps=1)
        for name in ("baseline", "redistribute", "localbuild", "async",
                     "subspace"):
            sim = BarnesHutSimulation(cfg, 12, variant=name)
            res = sim.run()
            assert res.total_time > 0, name

    def test_collision_distribution_through_ladder(self):
        """The bimodal collision workload exercises deep trees and heavy
        migration; the ladder must stay physics-identical on it."""
        cfg = BHConfig(nbodies=128, nsteps=3, warmup_steps=1,
                       distribution="collision", seed=2)
        from repro.core.app import run_variant

        ref = run_variant("baseline", cfg, 4)
        for name in ("localbuild", "subspace", "mpi-let"):
            res = run_variant(name, cfg, 4)
            assert np.allclose(res.bodies.pos, ref.bodies.pos,
                               rtol=1e-9, atol=1e-9), name
