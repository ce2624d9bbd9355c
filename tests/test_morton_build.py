"""Morton-direct FlatTree construction: parity matrix, edge cases, wiring.

The tentpole contract: :func:`build_flat_tree` must produce *the same
tree* as insertion build + ``compute_cofm`` + ``FlatTree.from_cell`` --
byte-identical arrays on bucket-free inputs, float64-roundoff-equivalent
accelerations (<= 1e-13) and identical interaction sets always, across
every registered distribution and the MAX_DEPTH bucket degradation.
"""

import numpy as np
import pytest

from repro import BHConfig, run_variant
from repro.nbody.bbox import RootBox, compute_root
from repro.nbody.distributions import distribution_names, make_distribution
from repro.obs.trace import Tracer
from repro.octree.build import build_tree
from repro.octree.cell import MAX_DEPTH
from repro.octree.cofm import compute_cofm
from repro.octree.flat import FlatTree, check_flat_tree, flat_gravity
from repro.octree.morton import morton_key, morton_keys
from repro.octree.morton_build import (
    KEY_LEVELS,
    build_flat_tree,
    octant_keys,
)

STRUCT_FIELDS = ("child", "leaf_ptr", "leaf_bodies", "nbodies",
                 "cell_ptr", "cell_data", "lb_ptr", "lb_data")
FLOAT_FIELDS = ("center", "size", "mass", "cofm", "cost")


def _reference(pos, mass, box, cost=None):
    root = build_tree(pos, box)
    compute_cofm(root, pos, mass, cost)
    return FlatTree.from_cell(root)


def _assert_same_tree(got, ref, bitwise_floats=True):
    for f in STRUCT_FIELDS:
        assert np.array_equal(getattr(got, f), getattr(ref, f)), f
    for f in FLOAT_FIELDS:
        if bitwise_floats:
            assert np.array_equal(getattr(got, f), getattr(ref, f)), f
        else:
            assert np.allclose(getattr(got, f), getattr(ref, f),
                               rtol=1e-12, atol=1e-13), f


class TestOctantKeys:
    def test_matches_quantized_morton_keys_away_from_boundaries(
            self, bodies256):
        # both encode the same octant digits; random positions never sit
        # within ulps of a cell boundary, so the two agree here
        box = compute_root(bodies256.pos)
        assert np.array_equal(octant_keys(bodies256.pos, box),
                              morton_keys(bodies256.pos, box))

    def test_sort_by_keys_is_tree_order(self, bodies256, tree256):
        from repro.octree.morton import bodies_in_order

        box = compute_root(bodies256.pos)
        keys = octant_keys(bodies256.pos, box)
        order = np.argsort(keys, kind="stable")
        assert np.array_equal(order, bodies_in_order(tree256))

    def test_levels_param(self):
        box = RootBox(np.zeros(3), 2.0)
        pos = np.array([[-0.5, -0.5, -0.5], [0.5, 0.5, 0.5]])
        k1 = octant_keys(pos, box, levels=1)
        assert list(k1) == [0, 7]
        # the full key's leading digit is the levels=1 digit
        k = octant_keys(pos, box)
        assert np.array_equal(k >> (3 * (KEY_LEVELS - 1)), k1)


class TestMagicMortonKeys:
    def test_equals_scalar_on_random_positions(self):
        rng = np.random.default_rng(9)
        pos = rng.uniform(-1.9, 1.9, size=(512, 3))
        box = RootBox(np.zeros(3), 4.0)
        keys = morton_keys(pos, box)
        for i in range(512):
            assert keys[i] == morton_key(pos[i], box), i

    def test_equals_scalar_at_reduced_bits(self):
        rng = np.random.default_rng(10)
        pos = rng.uniform(-0.9, 0.9, size=(64, 3))
        box = RootBox(np.zeros(3), 2.0)
        for bits in (1, 8, 16, 21):
            keys = morton_keys(pos, box, bits=bits)
            for i in range(64):
                assert keys[i] == morton_key(pos[i], box, bits=bits), \
                    (bits, i)


class TestParityMatrix:
    @pytest.mark.parametrize("dist", distribution_names())
    @pytest.mark.parametrize("n", [64, 500])
    def test_bitwise_equal_to_insertion_build(self, dist, n):
        bodies = make_distribution(dist, n, seed=42)
        box = compute_root(bodies.pos)
        ref = _reference(bodies.pos, bodies.mass, box, bodies.cost)
        got = build_flat_tree(bodies.pos, bodies.mass, box,
                              costs=bodies.cost)
        _assert_same_tree(got, ref)
        check_flat_tree(got, bodies.pos, bodies.mass)

    @pytest.mark.parametrize("dist", distribution_names())
    @pytest.mark.parametrize("open_self", [False, True])
    def test_acceleration_parity(self, dist, open_self):
        bodies = make_distribution(dist, 256, seed=7)
        box = compute_root(bodies.pos)
        ref = _reference(bodies.pos, bodies.mass, box)
        got = build_flat_tree(bodies.pos, bodies.mass, box)
        idx = np.arange(256)
        a_ref, w_ref, c_ref = flat_gravity(
            ref, idx, bodies.pos, bodies.mass, 1.0, 0.05,
            open_self_cells=open_self)
        a_got, w_got, c_got = flat_gravity(
            got, idx, bodies.pos, bodies.mass, 1.0, 0.05,
            open_self_cells=open_self)
        assert np.array_equal(w_ref, w_got)       # identical sets
        assert c_ref == c_got                     # identical counters
        assert np.abs(a_ref - a_got).max() <= 1e-13

    def test_home_is_bookkeeping_zero(self, bodies256):
        box = compute_root(bodies256.pos)
        got = build_flat_tree(bodies256.pos, bodies256.mass, box)
        assert got.home.dtype == np.int32
        assert not got.home.any()

    def test_costs_optional(self, bodies256):
        box = compute_root(bodies256.pos)
        got = build_flat_tree(bodies256.pos, bodies256.mass, box)
        assert not got.cost.any()
        withc = build_flat_tree(bodies256.pos, bodies256.mass, box,
                                costs=bodies256.cost)
        assert withc.cost[0] == pytest.approx(bodies256.cost.sum())


class TestEdgeCases:
    def test_empty(self):
        box = RootBox(np.zeros(3), 4.0)
        pos = np.empty((0, 3))
        got = build_flat_tree(pos, np.empty(0), box)
        ref = _reference(pos, np.empty(0), box)
        _assert_same_tree(got, ref)
        assert got.ncells == 1 and got.nleaves == 0
        assert got.mass[0] == 0.0
        assert np.array_equal(got.cofm[0], box.center)

    def test_single_body(self):
        box = RootBox(np.zeros(3), 4.0)
        pos = np.array([[0.3, -0.2, 0.9]])
        mass = np.array([2.5])
        got = build_flat_tree(pos, mass, box)
        _assert_same_tree(got, _reference(pos, mass, box))
        assert got.ncells == 1 and got.nleaves == 1
        assert got.mass[0] == 2.5

    def test_two_identical_positions_bucket(self):
        # identical keys all the way down: MAX_DEPTH bucket degradation
        box = RootBox(np.zeros(3), 4.0)
        pos = np.array([[0.1, 0.1, 0.1], [0.1, 0.1, 0.1]])
        mass = np.array([1.0, 3.0])
        got = build_flat_tree(pos, mass, box)
        ref = _reference(pos, mass, box)
        _assert_same_tree(got, ref)
        assert got.nleaves == 1
        assert np.array_equal(got.leaf_slice(0), [0, 1])
        # the bucket chain reaches the subdivision guard
        assert got.ncells == MAX_DEPTH + 1

    def test_near_coincident_cluster_stresses_max_depth(self):
        rng = np.random.default_rng(0)
        pos = rng.normal(size=(200, 3))
        pos[:50] = pos[0]                               # exact duplicates
        pos[50:60] = pos[50] + 1e-13 * rng.normal(size=(10, 3))
        mass = np.full(200, 1.0 / 200)
        box = compute_root(pos)
        ref = _reference(pos, mass, box)
        got = build_flat_tree(pos, mass, box)
        # structure exact; bucket summation order may differ at round-off
        _assert_same_tree(got, ref, bitwise_floats=False)
        check_flat_tree(got, pos, mass)
        idx = np.arange(200)
        a_ref, w_ref, _ = flat_gravity(ref, idx, pos, mass, 1.0, 0.05)
        a_got, w_got, _ = flat_gravity(got, idx, pos, mass, 1.0, 0.05)
        assert np.array_equal(w_ref, w_got)
        assert np.abs(a_ref - a_got).max() <= 1e-13


class TestBuildTelemetry:
    def test_per_level_build_spans(self, bodies256):
        box = compute_root(bodies256.pos)
        tracer = Tracer()
        build_flat_tree(bodies256.pos, bodies256.mass, box, tracer=tracer)
        assert tracer.open_depth == 0
        cats = {s.cat for s in tracer.spans}
        assert cats == {"build"}
        names = [s.name for s in tracer.spans]
        assert "morton.keys" in names
        assert "morton.sort" in names
        assert "morton.aggregate" in names
        levels = [s for s in tracer.spans if s.name == "build.level"]
        assert len(levels) >= 3
        assert [s.args["level"] for s in
                sorted(levels, key=lambda s: s.wall_ts)] \
            == list(range(len(levels)))
        emitted = sum(s.args["new_cells"] for s in levels) + 1
        tree = build_flat_tree(bodies256.pos, bodies256.mass, box)
        assert emitted == tree.ncells


class TestSimulationWiring:
    def test_default_flat_build_is_morton(self):
        assert BHConfig().flat_build == "morton"
        for path in ("hash", "incremental"):
            with pytest.raises(ValueError, match="unknown flat build path"):
                BHConfig(flat_build=path)

    def test_morton_build_preserves_trajectories(self, tiny_cfg):
        base = tiny_cfg.with_(force_backend="flat",
                              flat_build="insertion")
        cfg = tiny_cfg.with_(force_backend="flat", flat_build="morton")
        res_ins = run_variant("subspace", base, 4)
        res_mor = run_variant("subspace", cfg, 4)
        assert res_mor.counter("interactions") \
            == res_ins.counter("interactions")
        assert np.abs(res_mor.bodies.pos
                      - res_ins.bodies.pos).max() < 1e-12

    def test_backend_reports_build_path(self, tiny_cfg):
        from repro.backends import make_backend

        assert make_backend(
            "flat", tiny_cfg.with_(force_backend="flat")).build_path \
            == "morton"
        assert make_backend(
            "flat", tiny_cfg.with_(force_backend="flat",
                                   flat_build="insertion")).build_path \
            == "insertion"

    def test_bench_reports_morton_rows(self):
        from repro.experiments.bench_backends import bench_backends

        report = bench_backends(sizes=[256], repeats=1, verbose=False)
        rows = {r["backend"]: r for r in report["results"]}
        assert "flat-morton" in rows
        m = rows["flat-morton"]
        assert m["interactions"] == rows["flat"]["interactions"]
        assert m["max_abs_acc_diff_vs_object"] <= 1e-13
        assert m["build_speedup_vs_insertion"] > 0
