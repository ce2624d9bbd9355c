"""One fresh Morton build per step: the flat engine carries no tree state.

Like the paper's SPLASH-2 code, every step rebuilds the octree from
scratch.  The contract pinned here: the tree a Morton-path backend
serves on any step is byte-identical to :func:`build_flat_tree` over
that step's positions and a root box derived from them alone -- whatever
bodies, boxes or trees earlier steps saw.  The options that used to
carry state between steps (the incremental rebuild, order reuse, the
sticky root box) and the ``flat-numba`` backend are gone from every
public surface, and asking for them fails loudly instead of being
silently ignored.
"""

import numpy as np
import pytest

from repro import BHConfig
from repro.backends import make_backend
from repro.backends.flat import FlatBackend
from repro.nbody.bbox import compute_root
from repro.nbody.bodies import BodySoA
from repro.nbody.distributions import distribution_names, make_distribution
from repro.obs.trace import Tracer
from repro.octree.build import build_tree
from repro.octree.cofm import compute_cofm
from repro.octree.flat import FlatTree, check_flat_tree, flat_gravity
from repro.octree.morton_build import build_flat_tree

ALL_FIELDS = ("child", "leaf_ptr", "leaf_bodies", "nbodies", "cell_ptr",
              "cell_data", "lb_ptr", "lb_data", "center", "size", "mass",
              "cofm", "cost")


def _assert_bitwise_same(got, ref):
    for f in ALL_FIELDS:
        assert np.array_equal(getattr(got, f), getattr(ref, f)), f


def _fresh(bodies, cfg):
    """The tree a stateless Morton build serves for ``bodies``."""
    return build_flat_tree(bodies.pos, bodies.mass,
                           compute_root(bodies.pos, cfg.initial_rsize),
                           costs=bodies.cost)


def _drift(bodies, rng, scale):
    """One pseudo-timestep: small random displacement of every body."""
    bodies.pos[:] = bodies.pos + rng.normal(scale=scale,
                                            size=bodies.pos.shape)


def _bodies_from(pos):
    n = len(pos)
    return BodySoA.from_arrays(np.ascontiguousarray(pos), np.zeros((n, 3)),
                               np.full(n, 1.0 / n))


class TestFreshBuildEveryStep:
    @pytest.mark.parametrize("dist", distribution_names())
    def test_backend_tree_is_fresh_build_over_drift_steps(self, dist):
        cfg = BHConfig()
        be = FlatBackend(cfg)
        bodies = make_distribution(dist, 400, seed=7)
        rng = np.random.default_rng(99)
        for _ in range(4):
            be.begin_step(None, bodies)
            _assert_bitwise_same(be.tree, _fresh(bodies, cfg))
            check_flat_tree(be.tree, bodies.pos, bodies.mass)
            _drift(bodies, rng, 2e-3)

    @pytest.mark.parametrize("dist", distribution_names())
    def test_build_is_repeatable_and_leaves_inputs_alone(self, dist):
        bodies = make_distribution(dist, 300, seed=5)
        box = compute_root(bodies.pos)
        pos0, mass0 = bodies.pos.copy(), bodies.mass.copy()
        first = build_flat_tree(bodies.pos, bodies.mass, box,
                                costs=bodies.cost)
        again = build_flat_tree(bodies.pos, bodies.mass, box,
                                costs=bodies.cost)
        _assert_bitwise_same(again, first)
        assert np.array_equal(bodies.pos, pos0)
        assert np.array_equal(bodies.mass, mass0)

    def test_root_box_shrinks_with_the_bodies(self):
        # a sticky box would keep the first step's (larger) root
        cfg = BHConfig()
        be = FlatBackend(cfg)
        bodies = make_distribution("plummer", 200, seed=6)
        be.begin_step(None, bodies)
        wide = float(be.tree.size[0])
        assert wide > cfg.initial_rsize
        bodies.pos[:] = bodies.pos * 1e-3
        be.begin_step(None, bodies)
        assert float(be.tree.size[0]) == cfg.initial_rsize
        _assert_bitwise_same(be.tree, _fresh(bodies, cfg))

    def test_root_box_follows_translated_bodies(self):
        cfg = BHConfig()
        be = FlatBackend(cfg)
        bodies = make_distribution("uniform", 200, seed=6)
        be.begin_step(None, bodies)
        c0 = be.tree.center[0].copy()
        bodies.pos[:] = bodies.pos + np.array([50.0, -20.0, 5.0])
        be.begin_step(None, bodies)
        assert not np.array_equal(be.tree.center[0], c0)
        _assert_bitwise_same(be.tree, _fresh(bodies, cfg))
        check_flat_tree(be.tree, bodies.pos, bodies.mass)

    def test_root_cell_box_is_reused_exactly(self):
        # with an object tree at hand the Morton path keys over its box
        cfg = BHConfig()
        be = FlatBackend(cfg)
        bodies = make_distribution("disk", 256, seed=2)
        root = build_tree(bodies.pos, compute_root(bodies.pos, 4.0))
        compute_cofm(root, bodies.pos, bodies.mass, bodies.cost)
        be.begin_step(root, bodies)
        assert float(be.tree.size[0]) == float(root.size)
        assert np.array_equal(be.tree.center[0], root.center)
        assert np.array_equal(be.tree.child, FlatTree.from_cell(root).child)

    def test_duplicate_positions_bucket_in_body_order(self):
        rng = np.random.default_rng(8)
        pos = rng.uniform(-1, 1, size=(200, 3))
        pos[50:58] = pos[40]          # 9-body coincident cluster
        bodies = _bodies_from(pos)
        cfg = BHConfig()
        be = FlatBackend(cfg)
        be.begin_step(None, bodies)
        bodies.pos[0] += 1e-3         # move one body elsewhere
        be.begin_step(None, bodies)
        _assert_bitwise_same(be.tree, _fresh(bodies, cfg))
        check_flat_tree(be.tree, bodies.pos, bodies.mass)
        lb = be.tree.leaf_bodies
        members = [b for b in lb if b == 40 or 50 <= b < 58]
        assert members == [40, *range(50, 58)]

    @pytest.mark.parametrize("backend", ["flat", "flat-c"])
    def test_new_body_set_of_same_size_builds_fresh(self, backend):
        # sorted key order of A is the reverse of body-id order; B's
        # keys all tie, so its bucket order is the stable tie-break
        n = 32
        pos_a = np.zeros((n, 3))
        pos_a[:, 0] = np.linspace(1.0, -1.0, n)
        a = _bodies_from(pos_a)
        b = _bodies_from(np.full((n, 3), 0.25))
        cfg = BHConfig()
        be = make_backend(backend, cfg)
        be.begin_step(None, a)
        be.begin_step(None, b)
        _assert_bitwise_same(be.tree, _fresh(b, cfg))
        np.testing.assert_array_equal(be.tree.leaf_bodies[-n:],
                                      np.arange(n))

    def test_leapfrog_steps_keep_force_parity_with_insertion(self):
        from repro.nbody.integrator import advance_indices, \
            startup_half_kick

        n, dt = 600, 0.002
        bodies = make_distribution("disk", n, seed=123)
        pos, vel, mass = bodies.pos, bodies.vel, bodies.mass
        idx = np.arange(n)
        acc = None
        for step in range(4):
            box = compute_root(pos, 4.0)
            tree = build_flat_tree(pos, mass, box)
            root = build_tree(pos, box)
            compute_cofm(root, pos, mass)
            ref = FlatTree.from_cell(root)
            a_m, w_m, c_m = flat_gravity(tree, idx, pos, mass, 1.0, 0.05)
            a_i, w_i, c_i = flat_gravity(ref, idx, pos, mass, 1.0, 0.05)
            assert np.array_equal(w_m, w_i)
            assert c_m == c_i
            assert np.abs(a_m - a_i).max() <= 1e-13
            if step == 0:
                startup_half_kick(vel, a_m, dt)
            else:
                advance_indices(pos, vel, acc, idx, dt)
            acc = a_m

    def test_no_reuse_telemetry(self):
        bodies = make_distribution("uniform", 256, seed=3)
        box = compute_root(bodies.pos)
        tracer = Tracer()
        for _ in range(2):
            build_flat_tree(bodies.pos, bodies.mass, box, tracer=tracer)
        assert tracer.open_depth == 0
        names = {s.name for s in tracer.spans}
        assert "morton.sort" in names
        assert not names & {"build.reuse", "build.classify"}


class TestRemovedSurface:
    @pytest.mark.parametrize("field,value", [
        ("flat_reuse_depth", 3),
        ("flat_build_reuse_order", True),
    ])
    def test_config_drops_reuse_fields(self, field, value):
        assert not hasattr(BHConfig(), field)
        with pytest.raises(TypeError, match=field):
            BHConfig(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("flat_build", "insertion"),
        ("kernel_threads", 2),
        ("max_backend_fallbacks", 3),
    ])
    def test_config_drops_detour_fields(self, field, value):
        # knobs that only tuned a non-object-tree force phase in the
        # variants, or the fallback ladder around it
        assert not hasattr(BHConfig(), field)
        with pytest.raises(TypeError, match=field):
            BHConfig(**{field: value})

    def test_config_rejects_flat_numba(self):
        with pytest.raises(ValueError, match="unknown force backend"):
            BHConfig(force_backend="flat-numba")

    def test_registry_rejects_flat_numba(self):
        with pytest.raises(KeyError, match="flat-numba"):
            make_backend("flat-numba", BHConfig())

    def test_build_flat_tree_takes_no_state(self):
        bodies = make_distribution("uniform", 32, seed=1)
        box = compute_root(bodies.pos)
        with pytest.raises(TypeError, match="state"):
            build_flat_tree(bodies.pos, bodies.mass, box, state=object())

    @pytest.mark.parametrize("module,name", [
        ("repro.octree.morton_build", "build_flat_tree_incremental"),
        ("repro.octree.morton_build", "MortonBuildState"),
        ("repro.backends", "NumbaFlatBackend"),
        ("repro.kernels", "numba_gravity"),
        ("repro.kernels", "MIN_CHUNK"),
        ("repro.kernels", "_chunk_bounds"),
        ("repro.backends.flat", "TREE_NBYTES_HISTORY"),
        ("repro.resilience", "ResilientBackend"),
    ])
    def test_removed_names_are_gone(self, module, name):
        import importlib

        assert not hasattr(importlib.import_module(module), name)

    @pytest.mark.parametrize("name", ["force_backend", "backend_force_active",
                                      "phase_force_backend"])
    def test_variants_hold_no_backend(self, name):
        from repro import BarnesHutSimulation

        sim = BarnesHutSimulation(BHConfig(nbodies=16, nsteps=1,
                                           warmup_steps=0,
                                           force_backend="flat"), 2)
        assert not hasattr(sim.variant, name)

    def test_backends_declare_no_fallback(self):
        from repro.backends import BACKENDS

        assert not any(hasattr(cls, "fallback_name")
                       for cls in BACKENDS.values())

    def test_flat_tree_has_no_from_morton(self):
        assert not hasattr(FlatTree, "from_morton")

    def test_numba_kernel_module_is_gone(self):
        with pytest.raises(ImportError):
            import repro.kernels.numba_kernel  # noqa: F401

    @pytest.mark.parametrize("argv", [
        ["--flat-reuse-depth", "3", "table2"],
        ["--flat-build-reuse-order", "table2"],
        ["--flat-build", "incremental", "table2"],
    ])
    def test_experiments_cli_rejects_reuse_flags(self, argv, capsys):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == 2
        assert argv[0] in capsys.readouterr().err

    def test_resilience_cli_drops_flat_build(self, capsys):
        from repro.resilience.cli import main

        with pytest.raises(SystemExit) as ei:
            main(["run", "--flat-build", "morton"])
        assert ei.value.code == 2
        assert "--flat-build" in capsys.readouterr().err

    @pytest.mark.parametrize("module", ["repro.experiments.bench_backends",
                                        "repro.resilience.degrade"])
    def test_removed_modules_are_gone(self, module):
        import importlib

        with pytest.raises(ImportError):
            importlib.import_module(module)

    def test_resilience_cli_drops_backend(self, capsys):
        from repro.resilience.cli import main

        with pytest.raises(SystemExit) as ei:
            main(["run", "--backend", "flat"])
        assert ei.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_isolated_backend_bench_is_gone(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        assert not (root / "BENCH_backends.json").exists()
        assert not (root / "benchmarks" / "bench_backends.py").exists()
        assert "repro-bench" not in (root / "pyproject.toml").read_text()
