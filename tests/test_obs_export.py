"""Exporters: Chrome trace-event schema, metrics JSONL, CLI/bench wiring."""

from __future__ import annotations

import json

import pytest

from repro.core.app import run_variant
from repro.core.config import BHConfig
from repro.experiments.bench_backends import compare_to_baseline
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


def _traced_run(backend="flat", variant="baseline", nbodies=128):
    tr = Tracer()
    cfg = BHConfig(nbodies=nbodies, nsteps=2, warmup_steps=1,
                   force_backend=backend)
    run_variant(variant, cfg, 2, tracer=tr)
    return tr


class TestChromeTraceExport:
    def test_events_schema_and_validation(self, tmp_path):
        tr = _traced_run()
        path = write_chrome_trace(tmp_path / "t.json", tr,
                                  metadata={"who": "test"})
        n = load_and_validate_chrome_trace(path)
        assert n == len(tr.spans)
        doc = json.loads(path.read_text())
        assert doc["otherData"]["who"] == "test"
        by_cat = {}
        for ev in doc["traceEvents"]:
            by_cat.setdefault(ev["cat"], []).append(ev)
        # the full hierarchy is present
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
        tr = _traced_run(backend="object-tree")
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
        tr = _traced_run(backend="object-tree")
        md = phase_summary_markdown(tr, title="T")
        assert md.startswith("### T")
        for label in ("treebuild", "force", "advance", "Total"):
            assert label in md


class TestTelemetrySession:
    def test_writes_both_files(self, tmp_path):
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.jsonl"
        cfg = BHConfig(nbodies=96, nsteps=2, warmup_steps=1,
                       force_backend="flat")
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
        rc = main(["table2", "--scale", "test", "--backend", "flat",
                   "--out", str(tmp_path / "res"),
                   "--trace", str(trace), "--metrics", str(metrics)])
        assert rc == 0
        n = load_and_validate_chrome_trace(trace)
        assert n > 0
        doc = json.loads(trace.read_text())
        cats = {e["cat"] for e in doc["traceEvents"]}
        # the flat backend records per-level traversal spans
        assert {"run", "step", "phase", "backend", "traversal"} <= cats
        assert read_metrics_jsonl(metrics)[0]["schema"] == "repro-metrics/1"

    def test_trace_and_metrics_never_change_the_tables(self, tmp_path):
        """table2 CSVs are byte-identical with and without telemetry: the
        trace flag must not switch the force backend."""
        from repro.experiments.cli import main

        plain, traced = tmp_path / "plain", tmp_path / "traced"
        assert main(["table2", "--scale", "test", "--out", str(plain)]) == 0
        assert main(["table2", "--scale", "test", "--out", str(traced),
                     "--trace", str(tmp_path / "t.json"),
                     "--metrics", str(tmp_path / "m.jsonl")]) == 0
        csv = (plain / "table2.csv").read_bytes()
        assert csv and csv == (traced / "table2.csv").read_bytes()


class TestBenchRegressionCheck:
    BASE = {
        "schema": "repro-bench-backends/1",
        "results": [
            {"n": 1024, "backend": "flat", "build_s": 0.10,
             "force_s": 0.20, "interactions": 1000.0},
            {"n": 1024, "backend": "direct", "build_s": 0.0,
             "force_s": 0.05, "interactions": 2000.0},
            {"n": 4096, "backend": "direct",
             "skipped": "n > ... (O(n^2))"},
        ],
    }

    def _current(self, **patch):
        cur = json.loads(json.dumps(self.BASE))
        for row in cur["results"]:
            if (row.get("n"), row.get("backend")) == \
                    (patch.get("n"), patch.get("backend")):
                row.update(patch.get("set", {}))
        return cur

    def test_clean_comparison(self):
        assert compare_to_baseline(self.BASE, self.BASE) == []

    def test_within_tolerance_passes(self):
        cur = self._current(n=1024, backend="flat",
                            set={"force_s": 0.24})  # +20% < 25%
        assert compare_to_baseline(cur, self.BASE) == []

    def test_wall_clock_regression_fails(self):
        cur = self._current(n=1024, backend="flat",
                            set={"force_s": 0.26})  # +30%
        failures = compare_to_baseline(cur, self.BASE)
        assert len(failures) == 1 and "force_s regressed" in failures[0]

    def test_build_regression_detected(self):
        cur = self._current(n=1024, backend="flat",
                            set={"build_s": 0.2})
        assert any("build_s regressed" in f
                   for f in compare_to_baseline(cur, self.BASE))

    def test_interaction_drift_fails(self):
        cur = self._current(n=1024, backend="flat",
                            set={"interactions": 1001.0})
        failures = compare_to_baseline(cur, self.BASE)
        assert len(failures) == 1 and "drifted" in failures[0]

    def test_speedup_never_fails(self):
        cur = self._current(n=1024, backend="flat",
                            set={"force_s": 0.01, "build_s": 0.01})
        assert compare_to_baseline(cur, self.BASE) == []

    def test_missing_rows_ignored(self):
        cur = self._current()
        cur["results"].append({"n": 9999, "backend": "flat",
                               "build_s": 1.0, "force_s": 1.0,
                               "interactions": 5.0})
        with pytest.warns(UserWarning, match="n=9999"):
            assert compare_to_baseline(cur, self.BASE) == []

    def test_zero_matches_fails(self):
        cur = {"schema": "repro-bench-backends/1",
               "results": [{"n": 9999, "backend": "flat",
                            "build_s": 1.0, "force_s": 1.0,
                            "interactions": 5.0}]}
        with pytest.warns(UserWarning):
            failures = compare_to_baseline(cur, self.BASE)
        assert len(failures) == 1 and "no current row matched" in failures[0]

    def test_single_distribution_matches_committed_baseline(self):
        # every committed row carries a distribution tag, so a default
        # (single-distribution) report must carry one too or nothing
        # matches; wall time is not gated here, interaction counts are
        from pathlib import Path

        from repro.experiments.bench_backends import bench_backends

        committed = json.loads(
            (Path(__file__).resolve().parents[1]
             / "BENCH_backends.json").read_text())
        report = bench_backends(sizes=[1024], repeats=1, verbose=False)
        assert all(r["distribution"] == "plummer"
                   for r in report["results"])
        assert compare_to_baseline(report, committed,
                                   tolerance=float("inf")) == []
        for row in report["results"]:
            if row["backend"] == "flat-morton":
                row["interactions"] += 1
        failures = compare_to_baseline(report, committed,
                                       tolerance=float("inf"))
        assert len(failures) == 1
        assert "n=1024 flat-morton: interaction count drifted" \
            in failures[0]

    def test_bench_cli_check_mode(self, tmp_path, capsys):
        from repro.experiments.bench_backends import main

        baseline = tmp_path / "base.json"
        # produce a real (tiny) baseline, then check against itself:
        # wall-clock jitters but stays far inside 25%; interactions are
        # deterministic, so the self-check must pass
        rc = main(["--sizes", "256", "--repeats", "1",
                   "--out", str(baseline)])
        assert rc == 0 and baseline.exists()
        rc = main(["--sizes", "256", "--repeats", "1",
                   "--baseline", str(baseline), "--check"])
        out = capsys.readouterr().out
        assert "drifted" not in out
        # drift injection must flip the exit code
        doc = json.loads(baseline.read_text())
        for row in doc["results"]:
            if "interactions" in row:
                row["interactions"] += 1
        baseline.write_text(json.dumps(doc))
        rc = main(["--sizes", "256", "--repeats", "1",
                   "--baseline", str(baseline), "--check"])
        assert rc == 1
        assert "REGRESSION CHECK FAILED" in capsys.readouterr().out

    def test_check_requires_baseline(self):
        from repro.experiments.bench_backends import main

        with pytest.raises(SystemExit):
            main(["--check"])
