"""Force-backend subsystem: registry, parity matrix, simulation wiring.

Parity contract (the tentpole guarantee):

* ``flat`` vs ``object-tree``: identical interaction sets (exact ``work``
  equality) and float64 round-off accelerations -- across every registered
  distribution and both opening rules;
* tree backends vs ``direct``: theta-bounded approximation error.
"""

import numpy as np
import pytest

from repro import BHConfig, run_variant
from repro.backends import (
    BACKENDS,
    DEFAULT_BACKEND,
    DirectBackend,
    FlatBackend,
    ForceBackend,
    ForceResult,
    ObjectTreeBackend,
    backend_names,
    get_backend,
    make_backend,
)
from repro.backends.flat import TREE_NBYTES_HISTORY
from repro.nbody.bbox import compute_root
from repro.nbody.distributions import (
    DISTRIBUTIONS,
    distribution_names,
    make_distribution,
)
from repro.octree.build import build_tree
from repro.octree.cofm import compute_cofm
from repro.octree.morton_build import build_flat_tree


def _tree_for(bodies):
    box = compute_root(bodies.pos)
    root = build_tree(bodies.pos, box)
    compute_cofm(root, bodies.pos, bodies.mass, bodies.cost)
    return root


def _forces(backend_cls, cfg, root, bodies, idx):
    backend = backend_cls(cfg)
    backend.begin_step(root if backend.needs_tree else None, bodies)
    return backend.accelerations(idx, bodies)


class TestRegistry:
    def test_names(self):
        assert backend_names() == ["direct", "flat", "flat-c",
                                   "object-tree"]
        assert DEFAULT_BACKEND == "object-tree"
        assert BHConfig().force_backend == DEFAULT_BACKEND

    def test_get_and_make(self):
        assert get_backend("flat") is FlatBackend
        assert get_backend("direct") is DirectBackend
        assert get_backend("object-tree") is ObjectTreeBackend
        cfg = BHConfig()
        b = make_backend("flat", cfg)
        assert isinstance(b, ForceBackend) and b.cfg is cfg

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError, match="unknown force backend"):
            get_backend("cuda")
        with pytest.raises(ValueError, match="unknown force backend"):
            BHConfig(force_backend="cuda")

    def test_registry_classes_expose_contract(self):
        for cls in BACKENDS.values():
            assert isinstance(cls.name, str)
            assert isinstance(cls.needs_tree, bool)


class TestDistributionRegistry:
    def test_all_four_scenarios_registered(self):
        assert distribution_names() == ("collision", "disk", "plummer",
                                        "uniform")
        assert set(DISTRIBUTIONS) == set(distribution_names())

    def test_config_validates_from_registry(self):
        for name in distribution_names():
            assert BHConfig(distribution=name).distribution == name
        with pytest.raises(ValueError, match="unknown distribution"):
            BHConfig(distribution="ring")
        with pytest.raises(KeyError, match="unknown distribution"):
            make_distribution("ring", 16)

    def test_disk_scenario_physics(self):
        disk = make_distribution("disk", 1024, seed=3)
        assert disk.total_mass() == pytest.approx(1.0)
        assert np.abs(disk.center_of_mass()).max() < 1e-12
        assert np.abs(disk.momentum()).max() < 1e-12
        # strongly flattened: vertical extent well below radial extent
        r_cyl = np.hypot(disk.pos[:, 0], disk.pos[:, 1])
        assert np.median(np.abs(disk.pos[:, 2])) < 0.2 * np.median(r_cyl)
        # rotation-dominated about +z
        L = (disk.mass[:, None]
             * np.cross(disk.pos, disk.vel)).sum(axis=0)
        assert L[2] > 5.0 * max(abs(L[0]), abs(L[1]))
        assert L[2] > 0.2  # bulk of the circular motion survives dispersion

    def test_disk_deterministic_per_seed(self):
        a = make_distribution("disk", 128, seed=7)
        b = make_distribution("disk", 128, seed=7)
        c = make_distribution("disk", 128, seed=8)
        assert np.array_equal(a.pos, b.pos)
        assert not np.array_equal(a.pos, c.pos)


class TestBackendParity:
    @pytest.mark.parametrize("dist", ["plummer", "uniform", "collision",
                                      "disk"])
    @pytest.mark.parametrize("open_self", [False, True])
    def test_flat_matches_object_tree(self, dist, open_self):
        cfg = BHConfig(nbodies=256, open_self_cells=open_self,
                       distribution=dist, seed=42)
        bodies = make_distribution(dist, 256, seed=42)
        root = _tree_for(bodies)
        idx = np.arange(256)
        obj = _forces(ObjectTreeBackend, cfg, root, bodies, idx)
        flat = _forces(FlatBackend, cfg, root, bodies, idx)
        assert np.array_equal(obj.work, flat.work)
        assert np.abs(obj.acc - flat.acc).max() < 1e-10
        assert flat.counters["cell_tests"] > 0

    @pytest.mark.parametrize("dist", ["plummer", "uniform", "collision",
                                      "disk"])
    @pytest.mark.parametrize("open_self", [False, True])
    def test_tree_backends_theta_bounded_vs_direct(self, dist, open_self):
        cfg = BHConfig(nbodies=256, open_self_cells=open_self,
                       distribution=dist, seed=42)
        bodies = make_distribution(dist, 256, seed=42)
        root = _tree_for(bodies)
        idx = np.arange(256)
        ref = _forces(DirectBackend, cfg, None, bodies, idx)
        assert np.all(ref.work == 255.0)
        scale = np.linalg.norm(ref.acc, axis=1)
        floor = np.median(scale)
        for cls in (ObjectTreeBackend, FlatBackend):
            res = _forces(cls, cfg, root, bodies, idx)
            rel = (np.linalg.norm(res.acc - ref.acc, axis=1)
                   / np.maximum(scale, floor))
            assert np.median(rel) < 0.08, cls.name
            assert np.percentile(rel, 95) < 0.25, cls.name
            assert rel.max() < 1.5, cls.name

    def test_acceptance_n4096_plummer(self):
        # the PR's headline bar: 1e-10 max-abs at the paper's body count
        cfg = BHConfig(nbodies=4096)
        bodies = make_distribution("plummer", 4096, seed=123)
        root = _tree_for(bodies)
        idx = np.arange(4096)
        obj = _forces(ObjectTreeBackend, cfg, root, bodies, idx)
        flat = _forces(FlatBackend, cfg, root, bodies, idx)
        assert np.array_equal(obj.work, flat.work)
        assert np.abs(obj.acc - flat.acc).max() < 1e-10

    def test_direct_slices_are_consistent(self, bodies256):
        cfg = BHConfig(nbodies=256)
        backend = DirectBackend(cfg)
        backend.begin_step(None, bodies256)
        full = backend.accelerations(np.arange(256), bodies256)
        part = backend.accelerations(np.arange(10, 50), bodies256)
        assert np.array_equal(full.acc[10:50], part.acc)

    def test_direct_requires_begin_step(self, bodies256):
        backend = DirectBackend(BHConfig(nbodies=256))
        with pytest.raises(RuntimeError, match="begin_step"):
            backend.accelerations(np.arange(4), bodies256)


class TestSimulationWiring:
    @pytest.mark.parametrize("variant", ["baseline", "subspace", "async",
                                         "mpi-let"])
    def test_flat_backend_preserves_trajectories(self, tiny_cfg, variant):
        res_obj = run_variant(variant, tiny_cfg, 4)
        res_flat = run_variant(
            variant, tiny_cfg.with_(force_backend="flat"), 4)
        assert np.abs(res_obj.bodies.pos - res_flat.bodies.pos).max() < 1e-9
        assert (res_flat.counter("interactions")
                == pytest.approx(res_obj.counter("interactions")))

    def test_flat_backend_reports_counters(self, tiny_cfg):
        res = run_variant("subspace",
                          tiny_cfg.with_(force_backend="flat"), 4)
        assert res.counter("backend_cell_tests") > 0
        assert res.counter("backend_leaf_interactions") > 0
        assert res.counter("backend_levels") > 0

    def test_direct_backend_runs(self, tiny_cfg):
        res = run_variant("baseline",
                          tiny_cfg.with_(force_backend="direct"), 4)
        n = tiny_cfg.nbodies
        # per measured+warmup step: every body against all others
        assert res.counter("interactions") == pytest.approx(
            tiny_cfg.nsteps * n * (n - 1))

    def test_disk_scenario_runs_on_every_backend(self, tiny_cfg):
        for backend in backend_names():
            cfg = tiny_cfg.with_(distribution="disk",
                                 force_backend=backend)
            res = run_variant("subspace", cfg, 4)
            assert res.total_time > 0
            assert np.isfinite(res.bodies.pos).all()

    def test_scale_overrides_reach_config(self):
        from repro.experiments import SCALES

        scale = SCALES["test"].with_(
            overrides=(("force_backend", "flat"),
                       ("distribution", "disk")))
        cfg = scale.config()
        assert cfg.force_backend == "flat"
        assert cfg.distribution == "disk"
        # explicit kwargs still beat campaign overrides
        assert scale.config(force_backend="direct").force_backend == "direct"

    def test_force_result_interactions_property(self):
        res = ForceResult(acc=np.zeros((2, 3)),
                          work=np.array([3.0, 4.0]))
        assert res.interactions == 7.0


class TestRootNoneRegression:
    """The Morton path needs no object tree; insertion does."""

    def test_morton_path_accepts_root_none(self):
        cfg = BHConfig(force_backend="flat", flat_build="morton")
        be = FlatBackend(cfg)
        bodies = make_distribution("plummer", 200, seed=6)
        be.begin_step(None, bodies)
        assert be.tree is not None
        fresh = build_flat_tree(bodies.pos, bodies.mass,
                                compute_root(bodies.pos,
                                             cfg.initial_rsize))
        assert np.array_equal(be.tree.child, fresh.child)
        res = be.accelerations(np.arange(200), bodies)
        assert np.isfinite(res.acc).all()

    def test_insertion_path_rejects_root_none(self):
        cfg = BHConfig(force_backend="flat", flat_build="insertion")
        be = FlatBackend(cfg)
        bodies = make_distribution("plummer", 64, seed=6)
        with pytest.raises(ValueError, match="insertion"):
            be.begin_step(None, bodies)

    def test_accelerations_before_begin_step_raises(self):
        cfg = BHConfig(force_backend="flat")
        be = FlatBackend(cfg)
        bodies = make_distribution("plummer", 64, seed=6)
        with pytest.raises(RuntimeError, match="begin_step"):
            be.accelerations(np.arange(64), bodies)


class TestNbytesHistoryCap:
    """Bounded per-step tree-size history."""

    def test_history_is_capped(self):
        cfg = BHConfig(force_backend="flat")
        be = FlatBackend(cfg)
        hist = be.tree_nbytes_per_step
        assert hist.maxlen == TREE_NBYTES_HISTORY
        hist.extend(range(TREE_NBYTES_HISTORY + 500))
        assert len(hist) == TREE_NBYTES_HISTORY

    def test_run_metrics_output_unchanged(self):
        cfg = BHConfig(nbodies=128, nsteps=3, warmup_steps=1,
                       force_backend="flat")
        res = run_variant("baseline", cfg, 4)
        nbytes = res.variant_stats["flat_tree_nbytes"]
        assert isinstance(nbytes, list)
        assert len(nbytes) == 3
        assert all(b > 0 for b in nbytes)
