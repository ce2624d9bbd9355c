"""End-to-end and per-layer wall-clock benchmark of the simulator.

    python bench/run.py [--workload NAME ...] [--seed S] [--repeats R]
                        [--seconds T] [--trace [0|1]] [--smoke] [--out FILE]
    python bench/run.py --compare A.json B.json
    python bench/run.py --write-reference [--workload NAME ...]

The workloads are measured as a closed loop -- one client, one run at a
time -- each probe and pass in a fresh interpreter (``worker.py``):
set-up probes, untraced passes in rounds for the end-to-end metrics, one
traced pass per workload for the per-layer metrics, more set-up probes.
Every pass's simulated outputs are checked (see README.md,
"Correctness").  The last line printed for a workload is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics (``--trace 0``) or the per-layer ones (``--trace 1``) that
``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = BENCH / "reference.json"
OUT = BENCH / "out"
#: compiled kernels are cached inside the checkout
KERNEL_CACHE = ROOT / ".bench_build" / "kernels"

sys.path.insert(0, str(SRC))

from layers import GLUE, LAYERS  # noqa: E402
from workloads import (  # noqa: E402
    COUNTERS,
    PHASES,
    SIM_REL_TOL,
    WORKLOADS,
    Workload,
    compare_outputs,
)

DEFAULT_SEED = 123
HELD_OUT_SEED = 7
#: fresh-interpreter set-up measurements per workload (median reported)
SETUP_PROBES = 7
#: a worker that runs longer than this is killed and the run fails
WORKER_TIMEOUT_S = 900


def load_spec() -> dict:
    return json.loads(SPEC.read_text())


# ---------------------------------------------------------------------- #
# measuring                                                              #
# ---------------------------------------------------------------------- #
def worker(cmd: str, workload: str, seed: int, smoke: bool,
           *extra: str) -> dict:
    """Run ``worker.py`` in a fresh interpreter; return its JSON."""
    env = dict(os.environ, REPRO_KERNEL_CACHE=str(KERNEL_CACHE))
    argv = [sys.executable, str(BENCH / "worker.py"), cmd, workload,
            str(seed), *(["--smoke"] if smoke else []), *extra]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {cmd} {workload} failed "
                           f"({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def distribution(samples: List[float]) -> dict:
    """Median, quartiles and count of timing samples."""
    med = statistics.median(samples)
    q1, _, q3 = (statistics.quantiles(samples, n=4) if len(samples) > 1
                 else (med, med, med))
    return {"value": med, "q1": q1, "q3": q3, "n": len(samples),
            "samples": list(samples)}


def reference_for(name: str, seed: int, smoke: bool) -> Optional[dict]:
    ref = json.loads(REFERENCE.read_text())
    return ref["smoke" if smoke else "workloads"].get(name, {}) \
        .get(str(seed))


def check(name: str, passes: List[dict], traced: Optional[dict],
          reference: Optional[dict]) -> dict:
    """Count the runs whose simulated outputs are wrong.

    One attempted run is one ``run_variant`` call.  It fails if it
    raised, if its outputs differ from the first untraced pass's (every
    pass, traced or not, must reproduce them exactly), if its step-0
    interactions differ from the independent engine's, or -- for a seed
    with pinned reference outputs -- if ``compare_outputs`` rejects it.
    """
    w = WORKLOADS[name]
    independent = passes[0]["independent_step0"]
    if any(p["independent_step0"] != independent for p in passes):
        raise RuntimeError(f"{name}: the independent engine is not "
                           "deterministic; no reference to check against")
    outputs = [p["outputs"] for p in passes]
    if traced is not None:
        outputs.append(traced["outputs"])
    first = outputs[0]
    attempted = failed = 0
    worst: Optional[float] = 0.0 if reference is not None else None
    for out in outputs:
        bad = {p for p, o in out.items()
               if "error" in o or o != first[p]
               or o["step0_interactions"] != independent}
        if reference is not None:
            ok = {p: o for p, o in out.items() if "error" not in o}
            rejected, err = compare_outputs(ok, reference, w.object_tree)
            bad.update(rejected)
            worst = max(worst, err)
        attempted += len(out)
        failed += len(bad)
    return {"attempted": attempted, "failed": failed,
            "failed_fraction": failed / attempted,
            "sim_rel_err": worst,
            "reference": "pinned" if reference is not None else "none",
            "independent_step0": independent}


def layer_metrics(traced: dict, untraced_wall: float,
                  w: Workload) -> Dict[str, float]:
    """Flat per-layer metric table of one traced pass."""
    out: Dict[str, float] = {}
    trace = traced["trace"]
    layers = trace["layers"]
    runs = [o for o in traced["outputs"].values() if "error" not in o]
    counters = {k: sum(o["counters"][k] for o in runs) for k in COUNTERS}
    counters["interactions"] = sum(o["interactions"] for o in runs)
    for layer in LAYERS + (GLUE,):
        for key, val in layers[layer].items():
            out[f"{layer}.{key}"] = val
    for phase in PHASES:
        agg = trace["phases"].get(phase, {})
        out[f"phase.{phase}.wall_s"] = agg.get("wall_s", 0.0)
        out[f"phase.{phase}.sim_s"] = agg.get("sim_s", 0.0)
    kernel = layers["force.kernel"]
    access = layers["upc.access"]
    # every step evaluates the force on every body once per run
    out["force.kernel.bodies_per_call"] = (
        w.nbodies * w.nsteps * len(w.threads) / kernel["calls"]
        if kernel["calls"] else 0.0)
    out["force.kernel.interactions_per_s"] = (
        counters["interactions"] / kernel["self_s"]
        if kernel["calls"] and kernel["self_s"] > 0 else 0.0)
    out["upc.access.ns_per_call"] = (
        access["self_s"] / access["calls"] * 1e9 if access["calls"] else 0.0)
    out["force.interactions"] = counters["interactions"]
    out["upc.remote_words"] = counters["remote_words"]
    out["upc.lock_acquire"] = counters["lock_acquire"]
    lookups = counters["cache_hits"] + counters["cache_misses"]
    out["cache.hit_ratio"] = counters["cache_hits"] / lookups \
        if lookups else 0.0
    out["trace_overhead"] = traced["wall"] / untraced_wall - 1.0
    return out


def measure(names: List[str], seed: int, smoke: bool, repeats: int,
            seconds: float, trace: bool, spec: dict) -> Dict[str, dict]:
    """Measure the workloads; returns their result entries by name.

    Untraced passes run in rounds, one pass of every workload per round,
    until each workload has ``repeats`` passes and ``seconds`` of pass
    time.  Set-up probes run before the first round and after the traced
    passes.  A slow spell of the machine therefore hits one pass or probe
    of each workload rather than all of one workload's.
    """
    def probes(name: str, count: int) -> List[float]:
        return [worker("setup", name, seed, smoke)["setup_s"]
                for _ in range(count)]

    setups: Dict[str, List[float]] = {}
    for name in names:
        worker("setup", name, seed, smoke)  # warm: kernel build, .pyc files
        setups[name] = probes(name, SETUP_PROBES // 2)
    passes: Dict[str, List[dict]] = {name: [] for name in names}
    pending = list(names)
    while pending:
        for name in pending:
            passes[name].append(worker("pass", name, seed, smoke))
        pending = [n for n in pending if len(passes[n]) < repeats
                   or sum(p["wall"] for p in passes[n]) < seconds]
    traced = {name: worker("traced", name, seed, smoke, "--trace-out",
                           str(trace_path(name, smoke))) if trace else None
              for name in names}
    for name in names:
        setups[name] += probes(name, SETUP_PROBES - len(setups[name]))
    return {name: result_entry(name, seed, smoke, setups[name], passes[name],
                               traced[name], spec) for name in names}


def result_entry(name: str, seed: int, smoke: bool, setups: List[float],
                 passes: List[dict], traced: Optional[dict],
                 spec: dict) -> dict:
    """One workload's result: metrics, checks and layer breakdown."""
    w = WORKLOADS[name].smoke() if smoke else WORKLOADS[name]
    checks = check(name, passes, traced, reference_for(name, seed, smoke))
    wall = distribution([p["wall"] for p in passes])
    e2e = {"wall_s": wall, "setup_s": distribution(setups),
           "peak_rss_mb": distribution([p["peak_rss_mb"] for p in passes])}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]
             + spec["per_layer"]}
    metrics = {k: dict(v, unit=units[k]) for k, v in e2e.items()}
    breakdown = {}
    if traced is not None:
        t = traced["trace"]
        table = layer_metrics(traced, wall["value"], w)
        for k, v in table.items():
            if k in units:
                metrics[k] = {"value": v, "unit": units[k]}
        breakdown = {"layers": table, "by_phase": t["by_phase"],
                     "missing_targets": t["missing"],
                     "trace_file": str(trace_path(name, smoke)
                                       .relative_to(ROOT)),
                     "trace_events": t["trace_events"]}
    return {"workload": name, "seed": seed, "smoke": smoke,
            "traced": traced is not None, "metrics": metrics,
            "checks": checks, "breakdown": breakdown}


def trace_path(name: str, smoke: bool) -> Path:
    return OUT / f"trace-{name}{'-smoke' if smoke else ''}.json"


def contract_line(entry: dict, trace: bool, spec: dict) -> dict:
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    checks = entry["checks"]
    return {"correct": checks["failed"] == 0,
            "attempted": checks["attempted"], "failed": checks["failed"],
            "metrics": {n: {"value": entry["metrics"][n]["value"],
                            "unit": entry["metrics"][n]["unit"]}
                        for n in names}}


def print_entry(entry: dict, spec: dict) -> None:
    """Human-readable report: end-to-end metrics with quartiles, checks,
    and (when traced) the layer table and the remaining traced values."""
    print(f"== {entry['workload']} (seed {entry['seed']}"
          f"{', smoke' if entry['smoke'] else ''})")
    for m in spec["end_to_end"]:
        d = entry["metrics"][m["name"]]
        print(f"  {m['name']:32s} {d['value']:12.6g} {m['unit']:8s}"
              f" q1 {d['q1']:.6g}  q3 {d['q3']:.6g}  n={d['n']}")
    c = entry["checks"]
    err = "n/a" if c["sim_rel_err"] is None else f"{c['sim_rel_err']:.3g}"
    print(f"  failed {c['failed']}/{c['attempted']} runs "
          f"(failed_fraction {c['failed_fraction']:g}, reference "
          f"{c['reference']}, sim_rel_err {err})")
    table = entry["breakdown"].get("layers")
    if not table:
        return
    print(f"  {'layer':22s} {'self_s':>9s} {'calls':>10s} {'share':>7s}")
    shown = set()
    for layer in sorted(LAYERS + (GLUE,),
                        key=lambda l: -table[f"{l}.share"]):
        keys = [f"{layer}.{k}" for k in ("self_s", "calls", "share")]
        shown.update(keys)
        print(f"  {layer:22s} {table[keys[0]]:9.3f} "
              f"{table.get(keys[1], '')!s:>10} {table[keys[2]]:7.3f}")
    for key, val in table.items():
        if key not in shown:
            print(f"  {key:32s} {val:12.6g}")


def host_info() -> dict:
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(),
            "platform": platform.platform()}


# ---------------------------------------------------------------------- #
# comparing                                                              #
# ---------------------------------------------------------------------- #
def _sets(doc: dict) -> List[dict]:
    return doc["sets"] if "sets" in doc else [doc]


def _pooled(doc: dict, seed: int) -> Dict[str, dict]:
    """workload -> {"metrics": metric -> samples, "checks": [...]} over
    every set of ``doc`` measured at ``seed``."""
    pooled: Dict[str, dict] = {}
    for s in _sets(doc):
        for name, entry in s["workloads"].items():
            if entry["seed"] != seed:
                continue
            slot = pooled.setdefault(name, {"metrics": {}, "checks": []})
            for metric, m in entry["metrics"].items():
                slot["metrics"].setdefault(metric, []).extend(
                    m.get("samples", [m["value"]]))
            slot["checks"].append(entry["checks"])
    return pooled


def verdict(a: List[float], b: List[float], bound: float,
            lower_is_better: bool) -> str:
    """regressed / improved / unchanged, or unresolved when either side's
    quartile spread is wider than ``bound`` (unless every B sample beats
    every A sample)."""
    sign = 1.0 if lower_is_better else -1.0
    da, db = distribution(a), distribution(b)
    spread = max((d["q3"] - d["q1"]) / abs(d["value"]) if d["value"] else 0
                 for d in (da, db))
    if spread > bound:
        every_better = max(sign * x for x in b) < min(sign * y for y in a)
        return "improved" if every_better else "unresolved"
    change = sign * (db["value"] - da["value"]) / abs(da["value"])
    if change > bound:
        return "regressed"
    return "improved" if change < -bound else "unchanged"


def compare(path_a: Path, path_b: Path, seed: int, spec: dict) -> int:
    a = _pooled(json.loads(Path(path_a).read_text()), seed)
    b = _pooled(json.loads(Path(path_b).read_text()), seed)
    rows = []
    for name in sorted(set(a) & set(b)):
        for m in spec["end_to_end"]:
            sa = a[name]["metrics"].get(m["name"])
            sb = b[name]["metrics"].get(m["name"])
            if not sa or not sb:
                continue
            rows.append((m["name"], name, distribution(sa), distribution(sb),
                         verdict(sa, sb, m["bound"], m["better"] == "lower")))
        fa = max(c["failed_fraction"] for c in a[name]["checks"])
        fb = max(c["failed_fraction"] for c in b[name]["checks"])
        rows.append(("failed_fraction", name, {"value": fa}, {"value": fb},
                     "regressed" if fb > fa else "unchanged"))
        ea = [c["sim_rel_err"] for c in a[name]["checks"]
              if c["sim_rel_err"] is not None]
        eb = [c["sim_rel_err"] for c in b[name]["checks"]
              if c["sim_rel_err"] is not None]
        if ea and eb:
            rows.append(("sim_rel_err", name, {"value": max(ea)},
                         {"value": max(eb)},
                         "regressed" if max(eb) > max(ea) + SIM_REL_TOL
                         else "unchanged"))
    if not rows:
        print("no (metric, workload) pair in common", file=sys.stderr)
        return 2

    def cell(d):
        q = f"{d['q1']:.4g}..{d['q3']:.4g}" if "q1" in d else "-"
        return f"{d['value']:12.6g} {q:>23s}"

    print(f"{'metric':16s} {'workload':18s} {'A median':>12s} "
          f"{'A q1..q3':>23s} {'B median':>12s} {'B q1..q3':>23s}  verdict")
    for metric, name, da, db, v in rows:
        print(f"{metric:16s} {name:18s} {cell(da)} {cell(db)}  {v}")
    return 1 if any(r[4] == "regressed" for r in rows) else 0


# ---------------------------------------------------------------------- #
# pinned reference                                                       #
# ---------------------------------------------------------------------- #
REFERENCE_TOLERANCE = {
    "interactions": "exact: an integer-valued count far below 2**53, fixed "
                    "by the positions and the opening test; any difference "
                    "is a real change in the tree or the traversal, and "
                    "flat-c reproduces the object tree's counts exactly",
    "sim_s": f"{SIM_REL_TOL:g} relative, object-tree workloads only: "
             "reproduced exactly today; the margin admits float64 sums of "
             "the same charges in another order, while any change to what "
             "is charged moves a phase by far more; flat-c charges forces "
             "as local compute, so its sim_s is recorded, not gated",
    "source": "python bench/run.py --write-reference (object-tree backend "
              "for every workload, seeds 123 and 7, bench and smoke size)",
}


def write_reference(names: List[str], smoke_only: bool) -> None:
    """Pin object-tree outputs for seeds 123 and 7, at smoke size and (unless
    ``smoke_only``) at bench size.

    The ``object-tree`` backend runs for every workload, also the
    ``flat-c`` ones: it is the path whose simulated seconds are the
    paper's numbers.  Workloads with the same variant, size and thread
    counts share one computation.
    """
    from workloads import run_pass

    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    ref["tolerance"] = REFERENCE_TOLERANCE
    memo: Dict[tuple, dict] = {}
    sections = [("smoke", True)] + ([] if smoke_only
                                    else [("workloads", False)])
    for section, smoke in sections:
        table = ref.setdefault(section, {})
        for name in names:
            w = WORKLOADS[name].smoke() if smoke else WORKLOADS[name]
            for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                key = (w.variant, w.nbodies, w.distribution, w.threads,
                       w.nsteps, seed)
                if key not in memo:
                    print(f"reference: {section} {name} seed {seed}",
                          flush=True)
                    _, outputs = run_pass(w, seed, backend="object-tree")
                    memo[key] = {p: {"interactions": o["interactions"],
                                     "sim_s": o["sim_s"]}
                                 for p, o in outputs.items()}
                table.setdefault(name, {})[str(seed)] = memo[key]
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------- #
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="End-to-end + per-layer wall-clock benchmark")
    ap.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS),
                    default=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--repeats", type=int, default=None,
                    help="minimum untraced passes (default 3, or 1 with "
                         "--seconds)")
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="keep running untraced passes until this many "
                         "seconds have gone by")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=1,
                    choices=(0, 1),
                    help="add one traced pass (default 1); the printed "
                         "JSON line holds the per-layer metrics when 1")
    ap.add_argument("--smoke", action="store_true",
                    help="n=256, P in {1,4}, 2 steps: a harness check")
    ap.add_argument("--out", type=Path, default=OUT / "result.json")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"no simulator sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, args.seed, spec)
    if args.write_reference:
        write_reference(args.workload, args.smoke)
        return 0

    repeats = args.repeats or (1 if args.seconds else 3)
    entries = measure(args.workload, args.seed, args.smoke, repeats,
                      args.seconds, bool(args.trace), spec)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(
        {"schema": "repro-e2e-bench/1", "host": host_info(),
         "seed": args.seed, "workloads": entries}, indent=1) + "\n")
    for e in entries.values():
        print_entry(e, spec)
        print(json.dumps(contract_line(e, bool(args.trace), spec)),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
