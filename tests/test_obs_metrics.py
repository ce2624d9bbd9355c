"""Metrics registry + collectors: totals must match the StatsLog exactly."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import make_backend
from repro.core.app import run_variant
from repro.core.config import BHConfig
from repro.nbody.plummer import plummer
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    collect_run_metrics,
    collect_span_metrics,
    get_registry,
    use_registry,
)
from repro.obs.trace import Tracer


class TestRegistry:
    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total")
        c.add()
        c.add(2.5)
        assert reg.value("requests_total") == 3.5
        with pytest.raises(ValueError):
            c.add(-1)

    def test_get_or_create_by_name_and_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("x", phase="force")
        b = reg.counter("x", phase="force")
        c = reg.counter("x", phase="build")
        assert a is b and a is not c
        assert len(reg) == 2

    def test_kind_collision_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        g = reg.gauge("mem")
        g.set(10)
        g.set(7)
        assert reg.value("mem") == 7.0

    def test_histogram_summary_and_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("sizes", bounds=[1, 10, 100])
        for v in (0.5, 5, 50, 500):
            h.observe(v)
        assert h.count == 4
        assert h.sum == 555.5
        assert h.min == 0.5 and h.max == 500
        assert h.bucket_counts == [1, 1, 1, 1]
        assert h.mean == pytest.approx(555.5 / 4)

    def test_snapshot_stable_and_json_ready(self):
        import json

        reg = MetricsRegistry()
        reg.counter("b").add(1)
        reg.counter("a", phase="force").add(2)
        reg.histogram("h").observe(3)
        snap = reg.snapshot()
        assert [e["name"] for e in snap] == ["a", "b", "h"]
        json.dumps(snap)  # must serialize
        empty_hist = MetricsRegistry().histogram("e")
        assert empty_hist.as_dict()["min"] == 0.0

    def test_ambient_registry_default_none(self):
        assert get_registry() is None
        reg = MetricsRegistry()
        with use_registry(reg):
            assert get_registry() is reg
        assert get_registry() is None


class TestCollectRunMetrics:
    @pytest.fixture(scope="class")
    def run_result(self):
        cfg = BHConfig(nbodies=192, nsteps=2, warmup_steps=1)
        return run_variant("redistribute", cfg, 4)

    def test_upc_counter_totals_exact(self, run_result):
        """Every StatsLog counter key must round-trip bit-for-bit."""
        res = run_result
        metrics = res.telemetry.metrics
        keys = set()
        for rec in res.log:
            keys.update(rec.counters.keys())
        assert keys, "run recorded no counters?"
        for key in keys:
            assert metrics.value(f"upc_{key}_total") \
                == res.log.counter_total(key), key
        # per-phase labels too
        for rec in res.log:
            for key in rec.counters.keys():
                assert metrics.value(f"upc_{key}_total", phase=rec.name) \
                    == res.log.counter_total(key, phase=rec.name)

    def test_interactions_bytes_migrations_exact(self, run_result):
        res = run_result
        m = res.telemetry.metrics
        assert m.value("upc_interactions_total") \
            == res.counter("interactions") > 0
        assert m.value("upc_remote_bytes_total") \
            == res.counter("remote_bytes") > 0
        migr = m.get("migration_fraction")
        assert migr is not None
        assert migr.count == len(res.variant_stats["migration_fractions"])
        assert migr.sum == pytest.approx(
            sum(res.variant_stats["migration_fractions"]))

    def test_phase_sim_seconds_match_statslog(self, run_result):
        res = run_result
        m = res.telemetry.metrics
        for name in {rec.name for rec in res.log}:
            assert m.value("phase_sim_seconds_total", phase=name) \
                == res.log.phase_time(name)
        assert m.value("sim_seconds_total") == res.log.total_time()

    def test_ambient_registry_accumulates_across_runs(self):
        cfg = BHConfig(nbodies=96, nsteps=2, warmup_steps=1)
        reg = MetricsRegistry()
        with use_registry(reg):
            r1 = run_variant("baseline", cfg, 2)
            r2 = run_variant("baseline", cfg, 4)
        assert reg.value("upc_interactions_total") \
            == r1.counter("interactions") + r2.counter("interactions")
        # per-run registries stay per-run
        assert r1.telemetry.metrics.value("upc_interactions_total") \
            == r1.counter("interactions")


class TestCollectSpanMetrics:
    def test_wall_clock_and_traversal_profile(self):
        tr = Tracer()
        cfg = BHConfig(nbodies=128, nsteps=2, warmup_steps=1)
        res = run_variant("baseline", cfg, 2, tracer=tr)
        # the run walks the object tree: no per-level traversal spans
        assert res.telemetry.metrics.get("traversal_frontier_size") is None
        # a standalone flat-engine call records them
        bodies = plummer(128, seed=123)
        flat = make_backend("flat", cfg, tracer=tr)
        flat.begin_step(None, bodies)
        flat.accelerations(np.arange(128), bodies)
        reg = MetricsRegistry()
        collect_span_metrics(reg, tr.spans)
        for name in {s.name for s in tr.by_cat("phase")}:
            wall = reg.value("phase_wall_seconds_total", phase=name)
            assert wall > 0
        assert reg.value("steps_total") == cfg.nsteps
        levels = tr.by_cat("traversal")
        front = reg.get("traversal_frontier_size")
        assert front.count == len(levels)
        assert front.sum == sum(s.args["frontier"] for s in levels)
        assert front.count > 0
        assert reg.value("backend_calls_total",
                         call="flat.accelerations") == 1
        assert reg.value("backend_calls_total",
                         call="object-tree.traversal") > 0

    def test_metric_lookup_helper(self):
        cfg = BHConfig(nbodies=96, nsteps=2, warmup_steps=1)
        res = run_variant("baseline", cfg, 2)
        assert res.metric("upc_interactions_total") \
            == res.counter("interactions")
        assert res.metric("nonexistent") == 0.0


class TestTypes:
    def test_public_classes(self):
        assert Counter("c", {}).kind == "counter"
        assert Gauge("g", {}).kind == "gauge"
        assert Histogram("h", {}).kind == "histogram"

    def test_collect_run_metrics_empty_log(self):
        from repro.upc.stats import StatsLog

        reg = MetricsRegistry()
        collect_run_metrics(reg, StatsLog())
        assert reg.value("sim_seconds_total") == 0.0
