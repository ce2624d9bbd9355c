"""Compiled force-kernel subsystem: loader, parity, splitting, degradation.

The parity contract mirrors the flat-vs-object-tree matrix: the C walk
must visit exactly the numpy traversal's interaction sets (bit-exact
``work`` arrays and aggregate counters) with accelerations differing
only in summation order (<= 1e-12 absolute), across every registered
distribution, both theta values, and both opening rules.  The walk is
per-body independent: however the bodies are split over calls (one call
per simulated thread, say), the arrays are bit-identical.

Everything that needs a loaded kernel is skipped on a box where neither
the built extension nor a C compiler exists -- the degradation tests
below are precisely about that box staying green.
"""

import warnings

import numpy as np
import pytest

from repro import BHConfig, run_variant
from repro.backends import (
    CompiledFlatBackend,
    FlatBackend,
    backend_names,
    get_backend,
    make_backend,
)
from repro.kernels import c_kernel_available, kernel_gravity
from repro.nbody.bbox import compute_root
from repro.nbody.distributions import make_distribution
from repro.octree.build import build_tree
from repro.octree.cofm import compute_cofm
from repro.octree.flat import flat_gravity
from repro.octree.morton_build import build_flat_tree

needs_kernel = pytest.mark.skipif(
    not c_kernel_available(),
    reason="no compiled kernel (no built extension, no C toolchain)")


def _tree_and_bodies(dist, n, seed=42):
    bodies = make_distribution(dist, n, seed=seed)
    box = compute_root(bodies.pos, 4.0)
    tree = build_flat_tree(bodies.pos, bodies.mass, box)
    return tree, bodies


class TestRegistry:
    def test_compiled_backends_registered(self):
        assert backend_names() == ["direct", "flat", "flat-c",
                                   "object-tree"]
        assert get_backend("flat-c") is CompiledFlatBackend
        # it inherits every FlatTree build path from the flat engine
        assert issubclass(CompiledFlatBackend, FlatBackend)

    def test_config_accepts_compiled_names(self):
        assert BHConfig(force_backend="flat-c").force_backend == "flat-c"
        with pytest.raises(TypeError, match="kernel_threads"):
            BHConfig(kernel_threads=1)

    def test_selection_never_errors_without_kernel(self):
        # soft availability gate: construction works on every box; the
        # instance either runs the kernel or serves the numpy engine
        b = make_backend("flat-c", BHConfig(nbodies=64))
        assert b.kernel_active == c_kernel_available()


@needs_kernel
class TestParityMatrix:
    @pytest.mark.parametrize("dist", ["collision", "disk", "plummer",
                                      "uniform"])
    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_bit_exact_interactions_and_accel(self, dist, theta):
        tree, bodies = _tree_and_bodies(dist, 384)
        idx = np.arange(384)
        ref_acc, ref_work, ref_c = flat_gravity(
            tree, idx, bodies.pos, bodies.mass, theta, 0.05)
        acc, work, c = kernel_gravity(
            tree, idx, bodies.pos, bodies.mass, theta, 0.05)
        assert np.array_equal(work, ref_work)
        assert c == ref_c
        assert np.abs(acc - ref_acc).max() <= 1e-12

    @pytest.mark.parametrize("open_self", [False, True])
    def test_opening_rule_parity(self, open_self):
        tree, bodies = _tree_and_bodies("plummer", 256)
        idx = np.arange(256)
        ref_acc, ref_work, ref_c = flat_gravity(
            tree, idx, bodies.pos, bodies.mass, 1.0, 0.05,
            open_self_cells=open_self)
        acc, work, c = kernel_gravity(
            tree, idx, bodies.pos, bodies.mass, 1.0, 0.05,
            open_self_cells=open_self)
        assert np.array_equal(work, ref_work)
        assert c == ref_c
        assert np.abs(acc - ref_acc).max() <= 1e-12

    def test_subset_and_empty_groups(self):
        tree, bodies = _tree_and_bodies("plummer", 256)
        sub = np.arange(31, 200, 7)
        ref_acc, ref_work, _ = flat_gravity(
            tree, sub, bodies.pos, bodies.mass, 1.0, 0.05)
        acc, work, _ = kernel_gravity(
            tree, sub, bodies.pos, bodies.mass, 1.0, 0.05)
        assert np.array_equal(work, ref_work)
        assert np.abs(acc - ref_acc).max() <= 1e-12
        empty_acc, empty_work, empty_c = kernel_gravity(
            tree, np.empty(0, dtype=np.int64), bodies.pos, bodies.mass,
            1.0, 0.05)
        assert empty_acc.shape == (0, 3) and empty_work.shape == (0,)
        assert empty_c["levels"] == 0.0

    def test_max_depth_bucket_leaves(self):
        # near-coincident bodies drive the build into MAX_DEPTH bucket
        # leaves (multi-body spans); the kernel must walk them exactly
        bodies = make_distribution("plummer", 128, seed=1)
        pos = bodies.pos.copy()
        pos[3] = pos[2] + 1e-14
        pos[4] = pos[2]
        box = compute_root(pos, 4.0)
        tree = build_flat_tree(pos, bodies.mass, box)
        idx = np.arange(128)
        ref_acc, ref_work, ref_c = flat_gravity(
            tree, idx, pos, bodies.mass, 1.0, 0.05)
        acc, work, c = kernel_gravity(tree, idx, pos, bodies.mass,
                                      1.0, 0.05)
        assert np.array_equal(work, ref_work)
        assert c == ref_c
        assert np.abs(acc - ref_acc).max() <= 1e-12


@needs_kernel
class TestThreadChunking:
    @pytest.mark.parametrize("threads", [2, 4, 7])
    def test_thread_count_invariance_is_exact(self, threads):
        # one call over every body == one call per thread's share
        tree, bodies = _tree_and_bodies("plummer", 2048)
        idx = np.arange(2048)
        acc1, work1, c1 = kernel_gravity(
            tree, idx, bodies.pos, bodies.mass, 1.0, 0.05)
        parts = [kernel_gravity(tree, part, bodies.pos, bodies.mass,
                                1.0, 0.05)
                 for part in np.array_split(idx, threads)]
        assert np.array_equal(acc1, np.concatenate([p[0] for p in parts]))
        assert np.array_equal(work1, np.concatenate([p[1] for p in parts]))
        for key in ("cell_tests", "cell_accepts", "cell_opens",
                    "leaf_interactions"):
            assert c1[key] == sum(p[2][key] for p in parts)
        assert c1["levels"] == max(p[2]["levels"] for p in parts)


@needs_kernel
class TestCompiledBackend:
    def test_matches_flat_backend_through_contract(self):
        cfg = BHConfig(nbodies=512)
        bodies = make_distribution("plummer", 512, seed=42)
        idx = np.arange(512)
        compiled = make_backend("flat-c", cfg)
        flat = make_backend("flat", cfg)
        compiled.begin_step(None, bodies)
        flat.begin_step(None, bodies)
        res_c = compiled.accelerations(idx, bodies)
        res_f = flat.accelerations(idx, bodies)
        assert np.array_equal(res_c.work, res_f.work)
        assert res_c.counters == res_f.counters
        assert np.abs(res_c.acc - res_f.acc).max() <= 1e-12

    def test_inherits_all_build_paths(self):
        # with a root cell (its box) and without (a box from positions)
        bodies = make_distribution("plummer", 256, seed=42)
        idx = np.arange(256)
        root = build_tree(bodies.pos, compute_root(bodies.pos, 4.0))
        compute_cofm(root, bodies.pos, bodies.mass, bodies.cost)
        cfg = BHConfig(nbodies=256)
        for given in (root, None):
            compiled = make_backend("flat-c", cfg)
            flat = make_backend("flat", cfg)
            compiled.begin_step(given, bodies)
            flat.begin_step(given, bodies)
            assert np.array_equal(compiled.tree.child, flat.tree.child)
            assert np.array_equal(compiled.tree.center, flat.tree.center)
            res_c = compiled.accelerations(idx, bodies)
            res_f = flat.accelerations(idx, bodies)
            assert np.array_equal(res_c.work, res_f.work)
            assert np.abs(res_c.acc - res_f.acc).max() <= 1e-12

    def test_accelerations_before_begin_step_raises(self):
        b = make_backend("flat-c", BHConfig(nbodies=64))
        bodies = make_distribution("plummer", 64, seed=1)
        with pytest.raises(RuntimeError, match="begin_step"):
            b.accelerations(np.arange(64), bodies)

    def test_telemetry_spans_match_flat(self):
        from repro.obs.trace import Tracer

        cfg = BHConfig(nbodies=128)
        bodies = make_distribution("plummer", 128, seed=42)
        tracer = Tracer()
        b = make_backend("flat-c", cfg, tracer=tracer)
        b.begin_step(None, bodies)
        b.accelerations(np.arange(128), bodies)
        names = {(s.name, s.cat) for s in tracer.spans}
        assert ("flat.begin_step", "backend") in names
        assert ("flat.accelerations", "backend") in names
        span = [s for s in tracer.spans
                if s.name == "flat.accelerations"][-1]
        assert span.args.get("kernel") == "c"
        assert span.args.get("interactions") > 0

    def test_run_variant_end_to_end_parity(self):
        # the variant's step-0 interactions (object-tree walk) equal the
        # standalone compiled engine's over the same initial bodies
        cfg = BHConfig(nbodies=384, nsteps=3, warmup_steps=1)
        res = run_variant("baseline", cfg, 4)
        step0 = sum(rec.counters.total("interactions") for rec in res.log
                    if rec.name == "force" and rec.step == 0)
        bodies = make_distribution("plummer", 384, seed=cfg.seed)
        b = make_backend("flat-c", cfg)
        b.begin_step(None, bodies)
        assert b.accelerations(np.arange(384), bodies).interactions \
            == step0


class TestGracefulDegradation:
    @pytest.fixture()
    def fresh_loader(self, monkeypatch):
        """Un-memoize the kernel for one test; monkeypatch restores the
        real memoized state afterwards (teardown must not re-load while
        the env gates are still patched)."""
        from repro.kernels import loader

        monkeypatch.setattr(loader, "_KERNEL", "unset")
        monkeypatch.setattr(loader, "_WARNED", False)
        saved_status = list(loader._STATUS)
        yield loader
        loader._STATUS[:] = saved_status

    def test_env_disable_serves_flat_with_single_warning(
            self, fresh_loader, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_KERNELS", "1")
        cfg = BHConfig(nbodies=128)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            b1 = make_backend("flat-c", cfg)
            b2 = make_backend("flat-c", cfg)
        relevant = [w for w in caught
                    if "compiled force kernel unavailable"
                    in str(w.message)]
        assert len(relevant) == 1  # warned once, not per construction
        assert issubclass(relevant[0].category, RuntimeWarning)
        assert b1.kernel is None and b2.kernel is None
        assert not b1.kernel_active
        # the instance serves the numpy flat engine bit-identically
        bodies = make_distribution("plummer", 128, seed=42)
        idx = np.arange(128)
        b1.begin_step(None, bodies)
        flat = make_backend("flat", cfg)
        flat.begin_step(None, bodies)
        res = b1.accelerations(idx, bodies)
        ref = flat.accelerations(idx, bodies)
        assert np.array_equal(res.acc, ref.acc)
        assert np.array_equal(res.work, ref.work)
        assert res.counters == ref.counters

    def test_no_compiler_no_extension_never_raises(
            self, fresh_loader, monkeypatch, tmp_path):
        # simulate a box with no built artifact and a broken toolchain
        monkeypatch.setattr(fresh_loader, "_built_extension_path",
                            lambda: None)
        monkeypatch.setenv("REPRO_KERNEL_CC", str(tmp_path / "no-cc"))
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "cache"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            kernel = fresh_loader.load_kernel()
        assert kernel is None
        assert any("compiled force kernel unavailable" in str(w.message)
                   for w in caught)
        assert fresh_loader.kernel_status()  # diagnostics recorded
        # the full selection path still works
        b = make_backend("flat-c", BHConfig(nbodies=64))
        bodies = make_distribution("plummer", 64, seed=1)
        b.begin_step(None, bodies)
        res = b.accelerations(np.arange(64), bodies)
        assert np.isfinite(res.acc).all()


@needs_kernel
@pytest.mark.parametrize("variant", ["baseline", "cache", "subspace"])
def test_kernel_calls_leave_no_cyclic_garbage(variant):
    # arrays go to the kernel as plain addresses; ctypes.data_as would
    # leave a pointer in a reference cycle per array, holding it alive
    # until the cyclic collector ran
    import gc

    cfg = BHConfig(nbodies=256, nsteps=3, warmup_steps=1)
    run_variant(variant, cfg, 4)
    gc.collect()
    gc.disable()
    try:
        run_variant(variant, cfg, 4)
        assert gc.collect() == 0
    finally:
        gc.enable()
