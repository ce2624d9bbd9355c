"""Span tracer: nesting/ordering, ambient management, zero-overhead path."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.backends import make_backend
from repro.core.app import run_variant
from repro.core.config import BHConfig
from repro.nbody.bbox import compute_root
from repro.nbody.plummer import plummer
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)
from repro.octree.build import build_tree
from repro.octree.cofm import compute_cofm
from repro.octree.flat import FlatTree, flat_gravity
from repro.upc.params import MachineConfig
from repro.upc.runtime import UpcRuntime


class TestSpanNesting:
    def test_begin_end_records_depth_and_order(self):
        clock = iter(range(100)).__next__
        tr = Tracer(clock=lambda: float(clock()))
        tr.begin("outer", "run")
        tr.begin("inner", "phase")
        inner = tr.end()
        outer = tr.end()
        assert inner.depth == 1 and outer.depth == 0
        # children close first ...
        assert tr.spans == [inner, outer]
        # ... but ordered() puts parents before children
        assert tr.ordered() == [outer, inner]
        assert outer.wall_ts <= inner.wall_ts
        assert outer.wall_end >= inner.wall_end

    def test_span_context_manager_closes_on_error(self):
        tr = Tracer()
        with pytest.raises(ValueError):
            with tr.span("a"):
                with tr.span("b"):
                    raise ValueError("boom")
        assert tr.open_depth == 0
        assert [s.name for s in tr.spans] == ["b", "a"]

    def test_end_without_begin_raises(self):
        with pytest.raises(RuntimeError):
            Tracer().end()

    def test_late_args_merge_and_sim_times(self):
        tr = Tracer()
        tr.begin("p", "phase", sim_ts=1.5, step=3)
        sp = tr.end(sim_dur=0.25, extra=7)
        assert sp.sim_ts == 1.5 and sp.sim_dur == 0.25
        assert sp.args == {"step": 3, "extra": 7}

    def test_close_all(self):
        tr = Tracer()
        tr.begin("a")
        tr.begin("b")
        tr.close_all()
        assert tr.open_depth == 0 and len(tr.spans) == 2

    def test_strict_nesting_over_a_run(self):
        """Every span of a traced run nests inside its parent's interval."""
        tr = Tracer()
        cfg = BHConfig(nbodies=128, nsteps=2, warmup_steps=1)
        run_variant("redistribute", cfg, 4, tracer=tr)
        assert tr.open_depth == 0
        stack = []
        for sp in tr.ordered():
            while stack and sp.wall_ts >= stack[-1].wall_end:
                stack.pop()
            if stack:
                parent = stack[-1]
                assert sp.wall_end <= parent.wall_end + 1e-12
                assert sp.depth == parent.depth + 1
            else:
                assert sp.depth == 0
            stack.append(sp)


class TestAmbientTracer:
    def test_default_is_null(self):
        assert get_tracer() is NULL_TRACER
        assert not get_tracer().enabled

    def test_use_tracer_restores(self):
        tr = Tracer()
        with use_tracer(tr):
            assert get_tracer() is tr
            with use_tracer(None):
                assert get_tracer() is NULL_TRACER
            assert get_tracer() is tr
        assert get_tracer() is NULL_TRACER

    def test_set_tracer_none_means_null(self):
        tr = Tracer()
        set_tracer(tr)
        try:
            assert get_tracer() is tr
        finally:
            set_tracer(None)
        assert get_tracer() is NULL_TRACER

    def test_runtime_picks_up_ambient(self):
        tr = Tracer()
        with use_tracer(tr):
            rt = UpcRuntime(2, MachineConfig())
            with rt.phase("force"):
                rt.charge(0, 1.0)
        (sp,) = tr.spans
        assert sp.name == "force" and sp.cat == "phase"
        assert sp.sim_dur == rt.log.records[0].duration


class TestRunSpans:
    def test_run_step_phase_hierarchy(self):
        tr = Tracer()
        cfg = BHConfig(nbodies=128, nsteps=3, warmup_steps=1)
        run_variant("baseline", cfg, 4, tracer=tr)
        assert len(tr.by_cat("run")) == 1
        assert len(tr.by_cat("step")) == 3
        # one phase span per phase per step (baseline: 5 phases)
        phases = tr.by_cat("phase")
        assert len(phases) == 3 * 5
        per_step = {}
        for sp in phases:
            per_step.setdefault(sp.args["step"], []).append(sp.name)
        assert set(per_step) == {0, 1, 2}
        for names in per_step.values():
            assert names.count("force") == 1
            assert names.count("treebuild") == 1
        # phase spans carry the simulated duration of their StatsLog record
        assert all(sp.sim_dur is not None and sp.sim_dur > 0
                   for sp in phases)

    def test_backend_call_spans_all_backends(self):
        # a run's force phase is the object-tree walk, whatever
        # force_backend names; each standalone engine spans its calls
        bodies = plummer(96, seed=4)
        for backend, expect in (
            ("flat", "flat.accelerations"),
            ("flat-c", "flat.accelerations"),
            ("direct", "direct.accelerations"),
            ("object-tree", "object-tree.accelerations"),
        ):
            tr = Tracer()
            cfg = BHConfig(nbodies=96, nsteps=2, warmup_steps=1,
                           force_backend=backend)
            run_variant("baseline", cfg, 2, tracer=tr)
            names = {s.name for s in tr.by_cat("backend")}
            assert names == {"object-tree.traversal"}, (backend, names)
            be = make_backend(backend, cfg, tracer=tr)
            be.begin_step(_root(bodies) if be.needs_tree else None, bodies)
            be.accelerations(np.arange(96), bodies)
            names = {s.name for s in tr.by_cat("backend")}
            assert expect in names, (backend, names)

    def test_flat_backend_emits_traversal_level_spans(self):
        tr = Tracer()
        bodies = plummer(128, seed=6)
        be = make_backend("flat", BHConfig(nbodies=128), tracer=tr)
        be.begin_step(None, bodies)
        be.accelerations(np.arange(64), bodies)
        be.accelerations(np.arange(64, 128), bodies)
        levels = tr.by_cat("traversal")
        assert levels, "flat backend must emit per-level spans"
        for sp in levels:
            assert sp.name == "level"
            assert sp.args["frontier"] > 0
            assert sp.args["level"] >= 0
            assert "accepts" in sp.args and "leaf_interactions" in sp.args
        # level indices restart at 0 for every accelerations call
        starts = [sp for sp in levels if sp.args["level"] == 0]
        assert len(starts) == 2


def _root(bodies):
    root = build_tree(bodies.pos, compute_root(bodies.pos))
    compute_cofm(root, bodies.pos, bodies.mass, bodies.cost)
    return root


class TestZeroOverheadPath:
    def test_null_tracer_span_is_singleton(self):
        cm = NULL_TRACER.span("anything")
        for _ in range(16):
            assert NULL_TRACER.span("x", "cat", sim_ts=1.0, k=2) is cm
        assert NULL_TRACER.begin("x") is None
        assert NULL_TRACER.end() is None
        assert NULL_TRACER.instant("x") is None

    def test_disabled_tracer_no_per_step_allocations(self):
        """The no-op path must not accumulate memory across steps."""
        t = NullTracer()
        # warm up any lazy internals
        for _ in range(4):
            with t.span("s"):
                t.begin("x")
                t.end()
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        for _ in range(1000):
            with t.span("s", "phase", sim_ts=0.0, step=1):
                t.begin("x", "backend", nbodies=10)
                t.end(interactions=1.0)
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        growth = sum(st.size_diff for st in
                     after.compare_to(before, "filename")
                     if st.size_diff > 0)
        # nothing retained: allow only noise from tracemalloc itself
        assert growth < 4096, f"disabled tracer grew {growth} bytes"

    def test_flat_gravity_untraced_identical(self):
        """tracer=None must not change results (exact same arithmetic)."""
        bodies = plummer(256, seed=3)
        box = compute_root(bodies.pos)
        tree = FlatTree.from_bodies(bodies.pos, bodies.mass, box)
        idx = np.arange(len(bodies))
        acc0, work0, c0 = flat_gravity(tree, idx, bodies.pos, bodies.mass,
                                       1.0, 0.05)
        tr = Tracer()
        acc1, work1, c1 = flat_gravity(tree, idx, bodies.pos, bodies.mass,
                                       1.0, 0.05, tracer=tr)
        assert np.array_equal(acc0, acc1)
        assert np.array_equal(work0, work1)
        assert c0 == c1
        assert len(tr.spans) == c0["levels"]

    def test_flat_gravity_disabled_tracer_records_nothing(self):
        bodies = plummer(64, seed=5)
        box = compute_root(bodies.pos)
        tree = FlatTree.from_bodies(bodies.pos, bodies.mass, box)
        idx = np.arange(len(bodies))
        nt = NullTracer()
        flat_gravity(tree, idx, bodies.pos, bodies.mass, 1.0, 0.05,
                     tracer=nt)
        assert nt.spans == ()

    def test_per_level_span_args_sum_to_counters(self):
        bodies = plummer(200, seed=9)
        box = compute_root(bodies.pos)
        tree = FlatTree.from_bodies(bodies.pos, bodies.mass, box)
        idx = np.arange(len(bodies))
        tr = Tracer()
        _, _, counters = flat_gravity(tree, idx, bodies.pos, bodies.mass,
                                      1.0, 0.05, tracer=tr)
        spans = tr.by_cat("traversal")
        assert sum(s.args["frontier"] for s in spans) \
            == counters["cell_tests"]
        assert sum(s.args["accepts"] for s in spans) \
            == counters["cell_accepts"]
        assert sum(s.args["leaf_interactions"] for s in spans) \
            == counters["leaf_interactions"]
        assert [s.args["level"] for s in sorted(spans,
                                                key=lambda s: s.wall_ts)] \
            == list(range(int(counters["levels"])))
