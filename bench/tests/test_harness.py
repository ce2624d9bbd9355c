"""Tests of the end-to-end benchmark harness, at smoke size (n=256,
P in {1,4}, 2 steps) for every workload's variant and backend."""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
from layers import LayerTracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    compare_outputs,
    independent_step0,
    make_bodies,
    run_pass,
)

SEED = run.DEFAULT_SEED
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _attributes():
    """Every attribute the tracer replaces, as currently stored."""
    from repro.upc.runtime import UpcRuntime

    found, _ = layers._resolve_targets()
    found += [("phase", UpcRuntime, "begin_phase"),
              ("phase", UpcRuntime, "end_phase")]
    return {(owner, name): layers._raw(owner, name)
            for _, owner, name in found}


def test_wrappers_restore_originals():
    before = _attributes()
    assert not layers._resolve_targets()[1], "a traced function is gone"
    with LayerTracer():
        during = _attributes()
        assert all(during[k] is not v for k, v in before.items())
    assert all(_attributes()[k] is v for k, v in before.items())
    with pytest.raises(ZeroDivisionError):
        with LayerTracer():
            1 / 0
    assert all(_attributes()[k] is v for k, v in before.items())


@pytest.fixture(scope="module")
def smoke_runs():
    """name -> (untraced outputs, traced outputs, tracer, traced wall,
    independent step-0 interactions)."""
    runs = {}
    for name, w in WORKLOADS.items():
        w = w.smoke()
        bodies = make_bodies(w, SEED)
        _, plain = run_pass(w, SEED, bodies)
        with LayerTracer() as lt:
            wall, traced = run_pass(w, SEED, bodies, on_run=lt.run)
        runs[name] = (plain, traced, lt, wall, independent_step0(
            w, SEED, bodies))
    return runs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_outputs_identical(smoke_runs, name, tmp_path):
    plain, traced, lt, wall, independent = smoke_runs[name]
    assert json.dumps(traced) == json.dumps(plain)
    ref = run.reference_for(name, SEED, smoke=True)
    failed, err = compare_outputs(plain, ref,
                                  WORKLOADS[name].object_tree)
    assert failed == []
    if WORKLOADS[name].object_tree:
        assert err <= 1e-12
    assert all(o["step0_interactions"] == independent
               for o in plain.values())
    summary = lt.summary(wall)
    assert summary["layers"]["glue"]["self_s"] >= 0
    assert summary["layers"]["octree.insert"]["calls"] > 0
    from repro.obs.export import load_and_validate_chrome_trace

    path = lt.write_chrome_trace(tmp_path / "trace.json")
    assert load_and_validate_chrome_trace(path) == summary["spans"] > 0


def test_perturbed_reference_fails(smoke_runs):
    name = "table2-object"
    plain, traced, _, _, independent = smoke_runs[name]
    passes = [{"outputs": plain, "independent_step0": independent}]
    ref = run.reference_for(name, SEED, smoke=True)
    ok = run.check(name, passes, {"outputs": traced}, ref)
    assert ok["attempted"] == 4 and ok["failed_fraction"] == 0
    assert ok["sim_rel_err"] <= 1e-12

    more = copy.deepcopy(ref)
    more["4"]["interactions"] += 1
    bad = run.check(name, passes, None, more)
    assert bad["failed"] == 1 and bad["failed_fraction"] > 0

    drift = copy.deepcopy(ref)
    drift["1"]["sim_s"]["force"] *= 1 + 1e-9
    bad = run.check(name, passes, None, drift)
    assert bad["failed_fraction"] > 0 and bad["sim_rel_err"] > 1e-12

    wrong_engine = [dict(passes[0], independent_step0=independent + 1)]
    assert run.check(name, wrong_engine, None, ref)["failed_fraction"] == 1

    changed = copy.deepcopy(traced)
    changed["1"]["sim_s"]["advance"] += 1e-15
    bad = run.check(name, passes, {"outputs": changed}, None)
    assert bad["failed"] == 1 and bad["reference"] == "none"


def test_emitted_metrics_are_declared(tmp_path):
    spec = run.load_spec()
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert all(NAME_RE.fullmatch(n) for n in declared)
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--workload",
         "subspace-disk-16k", "--trace", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert set(line["metrics"]) == {m["name"] for m in spec["per_layer"]}
    entry = json.loads(out.read_text())["workloads"]["subspace-disk-16k"]
    assert set(entry["metrics"]) == declared
    assert entry["checks"]["failed_fraction"] == 0


def test_compare_flags_regressions(tmp_path):
    spec = run.load_spec()

    def doc(wall):
        metric = run.distribution(wall)
        return {"workloads": {"w": {
            "seed": SEED, "metrics": {"wall_s": metric},
            "checks": {"failed_fraction": 0.0, "sim_rel_err": 0.0}}}}

    bound = next(m["bound"] for m in spec["end_to_end"]
                 if m["name"] == "wall_s")
    base = [10.0, 10.1, 10.05]
    a, same, slow = (tmp_path / f for f in ("a.json", "b.json", "c.json"))
    a.write_text(json.dumps(doc(base)))
    same.write_text(json.dumps({"sets": [doc([10.02, 10.08, 10.0])]}))
    slow.write_text(json.dumps(doc([x * (1 + 2 * bound) for x in base])))
    assert run.compare(a, same, SEED, spec) == 0
    assert run.compare(a, slow, SEED, spec) == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "table2-flatc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
