"""Exporters: Chrome trace-event schema, metrics JSONL, CLI wiring."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.backends import make_backend
from repro.core.app import run_variant
from repro.core.config import BHConfig
from repro.nbody.distributions import make_distribution
from repro.obs import telemetry_session
from repro.obs.export import (
    chrome_trace,
    chrome_trace_events,
    load_and_validate_chrome_trace,
    phase_summary_markdown,
    read_metrics_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics_jsonl,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, Tracer


def _traced_run(variant="baseline", nbodies=128):
    tr = Tracer()
    cfg = BHConfig(nbodies=nbodies, nsteps=2, warmup_steps=1)
    run_variant(variant, cfg, 2, tracer=tr)
    return tr


def _traced_flat_call(tr, nbodies=128):
    """Per-level ``traversal`` spans: a standalone flat-engine call (no
    variant runs the flat engine)."""
    bodies = make_distribution("plummer", nbodies, seed=3)
    be = make_backend("flat", BHConfig(nbodies=nbodies), tracer=tr)
    be.begin_step(None, bodies)
    be.accelerations(np.arange(nbodies), bodies)


class TestChromeTraceExport:
    def test_events_schema_and_validation(self, tmp_path):
        tr = _traced_run()
        _traced_flat_call(tr)
        path = write_chrome_trace(tmp_path / "t.json", tr,
                                  metadata={"who": "test"})
        n = load_and_validate_chrome_trace(path)
        assert n == len(tr.spans)
        doc = json.loads(path.read_text())
        assert doc["otherData"]["who"] == "test"
        by_cat = {}
        for ev in doc["traceEvents"]:
            by_cat.setdefault(ev["cat"], []).append(ev)
        # the run hierarchy and the flat engine's levels are present
        for cat in ("run", "step", "phase", "backend", "traversal"):
            assert cat in by_cat, cat
        # phase events carry simulated time in args
        for ev in by_cat["phase"]:
            assert ev["args"]["sim_dur_s"] > 0
        # traversal events carry the per-level profile
        for ev in by_cat["traversal"]:
            assert ev["name"] == "level"
            assert ev["args"]["frontier"] > 0

    def test_one_span_per_phase_per_step(self, tmp_path):
        tr = _traced_run()
        doc = chrome_trace(tr)
        phase_events = [e for e in doc["traceEvents"]
                        if e["cat"] == "phase"]
        seen = {}
        for ev in phase_events:
            key = (ev["name"], ev["args"]["step"])
            seen[key] = seen.get(key, 0) + 1
        assert all(v == 1 for v in seen.values())
        # baseline: 5 phases x 2 steps
        assert len(seen) == 10

    def test_ts_relative_and_sorted(self):
        tr = _traced_run()
        events = chrome_trace_events(tr)
        assert events[0]["ts"] == 0.0
        assert all(e["ts"] >= 0 for e in events)
        assert [e["ts"] for e in events] \
            == sorted(e["ts"] for e in events)

    def test_empty_tracer_valid(self):
        doc = chrome_trace(Tracer())
        assert validate_chrome_trace(doc) == 0

    def test_validator_rejects_bad_documents(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"nope": []})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"name": "x"}]})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [
                {"name": "x", "cat": "c", "ph": "X", "ts": 0.0,
                 "pid": 1, "tid": 1}]})  # missing dur
        # partial overlap on one track is not nesting
        ev = {"cat": "c", "ph": "X", "pid": 1, "tid": 1}
        with pytest.raises(ValueError, match="overlaps"):
            validate_chrome_trace({"traceEvents": [
                dict(ev, name="a", ts=0.0, dur=10.0),
                dict(ev, name="b", ts=5.0, dur=10.0)]})
        # proper nesting and disjoint intervals are fine
        assert validate_chrome_trace({"traceEvents": [
            dict(ev, name="a", ts=0.0, dur=10.0),
            dict(ev, name="b", ts=2.0, dur=3.0),
            dict(ev, name="c", ts=12.0, dur=1.0)]}) == 3

    def test_manual_spans_round_trip(self, tmp_path):
        spans = [
            Span(name="outer", cat="run", wall_ts=1.0, depth=0,
                 wall_dur=2.0, sim_ts=0.0, sim_dur=5.0),
            Span(name="inner", cat="phase", wall_ts=1.5, depth=1,
                 wall_dur=0.5, args={"step": 0}),
        ]
        path = write_chrome_trace(tmp_path / "m.json", spans)
        assert load_and_validate_chrome_trace(path) == 2


class TestMetricsJsonl:
    def test_write_and_read(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("a_total", phase="force").add(3)
        reg.gauge("g").set(1.5)
        reg.histogram("h").observe(2)
        path = write_metrics_jsonl(tmp_path / "m.jsonl", reg,
                                   run_info={"nbodies": 64})
        lines = read_metrics_jsonl(path)
        assert lines[0]["schema"] == "repro-metrics/1"
        assert lines[0]["run"] == {"nbodies": 64}
        by_name = {e["name"]: e for e in lines[1:]}
        assert by_name["a_total"]["value"] == 3
        assert by_name["a_total"]["labels"] == {"phase": "force"}
        assert by_name["g"]["type"] == "gauge"
        assert by_name["h"]["count"] == 1


class TestPhaseSummary:
    def test_markdown_table(self):
        tr = _traced_run()
        md = phase_summary_markdown(tr, title="T")
        assert md.startswith("### T")
        for label in ("treebuild", "force", "advance", "Total"):
            assert label in md


class TestTelemetrySession:
    def test_writes_both_files(self, tmp_path):
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.jsonl"
        cfg = BHConfig(nbodies=96, nsteps=2, warmup_steps=1)
        with telemetry_session(trace=str(trace), metrics=str(metrics),
                               run_info={"k": 1}) as (tracer, registry):
            res = run_variant("baseline", cfg, 2)
        assert load_and_validate_chrome_trace(trace) > 0
        lines = read_metrics_jsonl(metrics)
        by_key = {(e["name"], tuple(sorted(e["labels"].items()))): e
                  for e in lines[1:]}
        key = ("upc_interactions_total", ())
        assert by_key[key]["value"] == res.counter("interactions")
        # span-derived wall metrics folded in on exit
        assert any(e["name"] == "phase_wall_seconds_total"
                   for e in lines[1:])

    def test_metrics_only_no_tracer(self, tmp_path):
        metrics = tmp_path / "m.jsonl"
        cfg = BHConfig(nbodies=96, nsteps=2, warmup_steps=1)
        with telemetry_session(metrics=str(metrics)) as (tracer, _):
            assert not tracer.enabled
            run_variant("baseline", cfg, 2)
        assert read_metrics_jsonl(metrics)

    def test_trace_written_even_on_error(self, tmp_path):
        trace = tmp_path / "t.json"
        with pytest.raises(RuntimeError):
            with telemetry_session(trace=str(trace)) as (tracer, _):
                tracer.begin("orphan")
                raise RuntimeError("boom")
        assert load_and_validate_chrome_trace(trace) == 1


class TestExperimentsCliTelemetry:
    def test_table2_trace_and_metrics(self, tmp_path):
        from repro.experiments.cli import main

        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.jsonl"
        rc = main(["table2", "--scale", "test",
                   "--out", str(tmp_path / "res"),
                   "--trace", str(trace), "--metrics", str(metrics)])
        assert rc == 0
        n = load_and_validate_chrome_trace(trace)
        assert n > 0
        doc = json.loads(trace.read_text())
        cats = {e["cat"] for e in doc["traceEvents"]}
        assert {"run", "step", "phase", "backend"} <= cats
        assert read_metrics_jsonl(metrics)[0]["schema"] == "repro-metrics/1"

    def test_trace_and_metrics_never_change_the_tables(self, tmp_path):
        """table2 CSVs are byte-identical with and without telemetry."""
        from repro.experiments.cli import main

        plain, traced = tmp_path / "plain", tmp_path / "traced"
        assert main(["table2", "--scale", "test", "--out", str(plain)]) == 0
        assert main(["table2", "--scale", "test", "--out", str(traced),
                     "--trace", str(tmp_path / "t.json"),
                     "--metrics", str(tmp_path / "m.jsonl")]) == 0
        csv = (plain / "table2.csv").read_bytes()
        assert csv and csv == (traced / "table2.csv").read_bytes()
