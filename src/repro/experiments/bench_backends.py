"""Wall-clock benchmark of the force backends (the perf trajectory).

Unlike everything else under :mod:`repro.experiments` -- which reports
*simulated* PGAS time from the cost model -- this measures real wall-clock
seconds of the engines themselves: tree build (insertion + c-of-m, plus
flattening for the flat backend; the Morton-direct CSR construction for
the ``flat-morton`` rows) and the force phase (accelerations for all
bodies in one group), per backend, per body count.

Writes ``BENCH_backends.json`` (repo root by default) so successive PRs
can track the trajectory::

    repro-bench                      # or: python -m repro.experiments.bench_backends
    repro-bench --sizes 1024 4096 --repeats 5 --out BENCH_backends.json

Regression-check mode compares a fresh run against the stored trajectory
and exits non-zero on a >25% wall-clock regression or any
interaction-count drift::

    repro-bench --baseline BENCH_backends.json --check

``--trace FILE`` / ``--metrics FILE`` capture span traces (Chrome
trace-event JSON) and a metrics JSONL of the benchmark itself.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

import numpy as np

from ..nbody.bbox import compute_root
from ..nbody.constants import DEFAULT_EPS, DEFAULT_THETA
from ..nbody.direct import direct_acc
from ..nbody.distributions import make_distribution
from ..octree.build import build_tree
from ..octree.cofm import compute_cofm
from ..octree.flat import FlatTree, flat_gravity
from ..octree.morton_build import build_flat_tree
from ..octree.traverse import gravity_traversal

#: direct summation is O(n^2); skip it above this size to keep runs short
DIRECT_MAX_N = 4096


def _best(fn, repeats: int) -> "tuple[float, object]":
    """Minimum wall-clock over ``repeats`` calls, plus the last result."""
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def bench_backends(sizes: "List[int]" = (1024, 4096, 16384),
                   repeats: int = 3, seed: int = 123,
                   theta: float = DEFAULT_THETA, eps: float = DEFAULT_EPS,
                   distribution: str = "plummer", kernel_threads: int = 4,
                   verbose: bool = True, tracer=None) -> dict:
    """Time tree build + force phase per backend; return the report dict.

    ``tracer`` (optional :class:`repro.obs.trace.Tracer`) records one
    ``backend``-category span per timed section plus the flat engine's
    per-level traversal spans.  Every row carries its ``distribution``,
    so ``--check`` matches rows of multi- and single-distribution
    reports alike.

    When the compiled kernel is usable, the ``flat-c`` rows time the
    native walk over the same Morton-built tree, single-threaded
    (``force_s``) and chunked across
    ``kernel_threads`` workers (``force_s_threads<T>``), with parity
    columns vs the numpy flat engine (``speedup_vs_flat``,
    ``interactions_match_flat``, ``max_abs_acc_diff_vs_flat``).  On a
    box without it the rows are marked skipped, exactly like the
    O(n^2) ``direct`` rows above :data:`DIRECT_MAX_N`.
    """
    from ..obs.metrics import get_registry
    from ..obs.trace import NULL_TRACER

    tr = tracer if tracer is not None else NULL_TRACER
    registry = get_registry()
    report = {
        "schema": "repro-bench-backends/1",
        "config": {"sizes": list(sizes), "repeats": repeats, "seed": seed,
                   "theta": theta, "eps": eps,
                   "distribution": distribution},
        "results": [],
    }
    for n in sizes:
        bodies = make_distribution(distribution, n, seed=seed)
        box = compute_root(bodies.pos, 4.0)
        idx = np.arange(n)

        def build_object():
            root = build_tree(bodies.pos, box)
            compute_cofm(root, bodies.pos, bodies.mass, bodies.cost)
            return root

        with tr.span("bench.build.object", "backend", n=n):
            obj_build_s, root = _best(build_object, repeats)
        with tr.span("bench.flatten", "backend", n=n):
            flatten_s, ftree = _best(lambda: FlatTree.from_cell(root),
                                     repeats)
        with tr.span("bench.build.morton", "backend", n=n):
            morton_build_s, mtree = _best(
                lambda: build_flat_tree(bodies.pos, bodies.mass, box,
                                        costs=bodies.cost,
                                        tracer=tr if tr.enabled else None),
                repeats)
        with tr.span("bench.force.object", "backend", n=n):
            obj_force_s, (obj_acc, obj_work) = _best(
                lambda: gravity_traversal(root, idx, bodies.pos,
                                          bodies.mass, theta, eps), repeats)
        with tr.span("bench.force.flat", "backend", n=n):
            flat_force_s, (flat_acc, flat_work, _) = _best(
                lambda: flat_gravity(ftree, idx, bodies.pos, bodies.mass,
                                     theta, eps,
                                     tracer=tr if tr.enabled else None),
                repeats)
        with tr.span("bench.force.flat-morton", "backend", n=n):
            morton_force_s, (morton_acc, morton_work, _) = _best(
                lambda: flat_gravity(mtree, idx, bodies.pos, bodies.mass,
                                     theta, eps), repeats)
        insertion_build_s = obj_build_s + flatten_s
        rows = [
            {"n": n, "backend": "object-tree", "build_s": obj_build_s,
             "force_s": obj_force_s,
             "interactions": float(obj_work.sum())},
            {"n": n, "backend": "flat",
             "build_s": insertion_build_s, "flatten_s": flatten_s,
             "force_s": flat_force_s,
             "interactions": float(flat_work.sum()),
             "speedup_vs_object": obj_force_s / flat_force_s,
             "max_abs_acc_diff_vs_object":
                 float(np.abs(obj_acc - flat_acc).max())},
            # same engine, tree built Morton-direct (no Cell objects):
            # build_s here is the whole keys+sort+structure+aggregate
            # pipeline, comparable against the flat row's insertion
            # build+flatten total
            {"n": n, "backend": "flat-morton",
             "build_s": morton_build_s,
             "force_s": morton_force_s,
             "interactions": float(morton_work.sum()),
             "build_speedup_vs_insertion":
                 insertion_build_s / morton_build_s,
             "speedup_vs_object": obj_force_s / morton_force_s,
             "max_abs_acc_diff_vs_object":
                 float(np.abs(obj_acc - morton_acc).max())},
        ]
        # compiled kernels: native per-body walk over the same
        # Morton-built tree (parity columns vs the numpy flat engine)
        from ..kernels import c_kernel_available, kernel_gravity

        if c_kernel_available():
            with tr.span("bench.force.flat-c", "backend", n=n):
                c_force_s, (c_acc, c_work, _) = _best(
                    lambda: kernel_gravity(mtree, idx, bodies.pos,
                                           bodies.mass, theta, eps,
                                           threads=1), repeats)
            cT_force_s, (cT_acc, cT_work, _) = _best(
                lambda: kernel_gravity(mtree, idx, bodies.pos,
                                       bodies.mass, theta, eps,
                                       threads=kernel_threads), repeats)
            rows.append(
                {"n": n, "backend": "flat-c", "build_s": morton_build_s,
                 "force_s": c_force_s,
                 f"force_s_threads{kernel_threads}": cT_force_s,
                 "thread_speedup": c_force_s / cT_force_s,
                 "kernel_threads": kernel_threads,
                 "interactions": float(c_work.sum()),
                 "speedup_vs_flat": morton_force_s / c_force_s,
                 "speedup_vs_object": obj_force_s / c_force_s,
                 "interactions_match_flat":
                     bool(np.array_equal(c_work, morton_work)),
                 "max_abs_acc_diff_vs_flat":
                     float(np.abs(morton_acc - c_acc).max()),
                 "threads_bit_identical":
                     bool(np.array_equal(c_acc, cT_acc)
                          and np.array_equal(c_work, cT_work))})
        else:
            rows.append({"n": n, "backend": "flat-c",
                         "skipped": "compiled kernel unavailable "
                                    "(no built extension, no C "
                                    "toolchain)"})
        if n <= DIRECT_MAX_N:
            direct_s, direct = _best(
                lambda: direct_acc(bodies.pos, bodies.mass, eps), repeats)
            rel = (np.linalg.norm(obj_acc - direct, axis=1)
                   / np.maximum(np.linalg.norm(direct, axis=1), 1e-300))
            rows.append(
                {"n": n, "backend": "direct", "build_s": 0.0,
                 "force_s": direct_s,
                 "interactions": float(n * (n - 1)),
                 "bh_median_rel_err": float(np.median(rel))})
        else:
            rows.append({"n": n, "backend": "direct", "skipped":
                         f"n > {DIRECT_MAX_N} (O(n^2))"})
        for r in rows:
            r["distribution"] = distribution
        report["results"].extend(rows)
        if registry is not None:
            for r in rows:
                if "force_s" not in r:
                    continue
                labels = {"n": r["n"], "backend": r["backend"]}
                registry.gauge("bench_build_seconds", **labels) \
                    .set(r["build_s"])
                registry.gauge("bench_force_seconds", **labels) \
                    .set(r["force_s"])
                registry.gauge("bench_interactions", **labels) \
                    .set(r["interactions"])
        if verbose:
            for r in rows:
                if "skipped" in r:
                    print(f"n={r['n']:>6} {r['backend']:<12} skipped "
                          f"({r['skipped']})")
                    continue
                extra = ""
                if "speedup_vs_object" in r:
                    extra = f"  {r['speedup_vs_object']:.2f}x vs object"
                if "max_abs_acc_diff_vs_object" in r:
                    extra += (f", max|da|="
                              f"{r['max_abs_acc_diff_vs_object']:.1e}")
                if "speedup_vs_flat" in r:
                    extra += (f", {r['speedup_vs_flat']:.2f}x vs flat, "
                              f"max|da|="
                              f"{r['max_abs_acc_diff_vs_flat']:.1e}")
                if "build_speedup_vs_insertion" in r:
                    extra += (f", build "
                              f"{r['build_speedup_vs_insertion']:.1f}x "
                              f"vs insertion")
                print(f"n={r['n']:>6} {r['backend']:<16} "
                      f"build {r['build_s']:.4f}s  "
                      f"force {r['force_s']:.4f}s{extra}")
    return report


#: --check fails on wall-clock regressions beyond this fraction
WALL_REGRESSION_TOLERANCE = 0.25


def compare_to_baseline(current: dict, baseline: dict,
                        tolerance: float = WALL_REGRESSION_TOLERANCE
                        ) -> "List[str]":
    """Regression findings of ``current`` vs ``baseline`` (empty = clean).

    A finding is either a wall-clock regression (``build_s``/``force_s``
    more than ``tolerance`` above the stored value) or *any* drift in the
    deterministic interaction counts -- those depend only on (seed, theta,
    distribution), so a change means the traversal semantics changed.
    Rows are matched on ``(n, backend)`` plus the row's distribution tag
    when both sides carry one; a current row with no baseline match (a
    newly added backend, size, or distribution the stored trajectory
    predates) is skipped with a :class:`UserWarning` rather than failed
    -- and never crashes the check.  Malformed rows missing the ``n`` /
    ``backend`` match keys are likewise warned about and skipped.  A
    report of which *no* row matched compared nothing, and is a finding.
    """
    import warnings

    failures: List[str] = []
    matched = 0
    base = {}
    for r in baseline.get("results", []):
        if "force_s" not in r:
            continue
        if "n" not in r or "backend" not in r:
            warnings.warn(
                f"baseline row missing match keys (n/backend), "
                f"skipping: {sorted(r)}", stacklevel=2)
            continue
        base[(r["n"], r["backend"], r.get("distribution"))] = r
    for r in current.get("results", []):
        if "force_s" not in r:
            continue
        if "n" not in r or "backend" not in r:
            warnings.warn(
                f"current row missing match keys (n/backend), "
                f"skipping: {sorted(r)}", stacklevel=2)
            continue
        # rows match on their distribution tag; baselines without the
        # tag still match via the None fallback
        b = base.get((r["n"], r["backend"], r.get("distribution"))) \
            or base.get((r["n"], r["backend"], None))
        if b is None:
            warnings.warn(
                f"baseline has no row for n={r['n']} "
                f"backend={r['backend']!r} "
                f"distribution={r.get('distribution')!r}; skipping "
                f"(re-run without --check to refresh the baseline)",
                stacklevel=2)
            continue
        matched += 1
        tag = f"n={r['n']} {r['backend']}"
        for clock in ("build_s", "force_s"):
            if clock in b and clock in r and b[clock] > 0:
                ratio = r[clock] / b[clock]
                if ratio > 1.0 + tolerance:
                    failures.append(
                        f"{tag}: {clock} regressed {ratio:.2f}x "
                        f"({b[clock]:.4f}s -> {r[clock]:.4f}s, "
                        f"tolerance {1 + tolerance:.2f}x)")
        if "interactions" in b and "interactions" in r \
                and r["interactions"] != b["interactions"]:
            failures.append(
                f"{tag}: interaction count drifted "
                f"({b['interactions']:.0f} -> {r['interactions']:.0f})")
    if not matched:
        failures.append(
            "no current row matched a baseline row on (n, backend, "
            "distribution); nothing was compared")
    return failures


def main(argv: "Optional[List[str]]" = None) -> int:
    ap = argparse.ArgumentParser(
        prog="repro-bench",
        description="Wall-clock force-backend benchmark "
                    "(writes BENCH_backends.json).")
    ap.add_argument("--sizes", type=int, nargs="+",
                    default=[1024, 4096, 16384])
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=123)
    ap.add_argument("--theta", type=float, default=DEFAULT_THETA)
    ap.add_argument("--eps", type=float, default=DEFAULT_EPS)
    ap.add_argument("--distribution", nargs="+", default=["plummer"],
                    help="one or more distributions; each gets its own "
                         "set of result rows in the same report")
    ap.add_argument("--kernel-threads", type=int, default=4, metavar="T",
                    help="worker count of the flat-c multi-threaded "
                         "timing row (default 4; the single-threaded "
                         "force_s is always recorded)")
    ap.add_argument("--out", default=None,
                    help="output JSON path (default: BENCH_backends.json; "
                         "in --check mode the report is only written when "
                         "--out is given explicitly)")
    ap.add_argument("--baseline", default=None, metavar="FILE",
                    help="stored trajectory to compare against (with "
                         "--check)")
    ap.add_argument("--check", action="store_true",
                    help="regression-check mode: compare against "
                         "--baseline; exit non-zero on a >25%% wall-clock "
                         "regression or any interaction-count drift")
    ap.add_argument("--trace", default=None, metavar="FILE",
                    help="write a Chrome trace-event JSON of the "
                         "benchmark (open in Perfetto)")
    ap.add_argument("--metrics", default=None, metavar="FILE",
                    help="write benchmark metrics as JSONL")
    args = ap.parse_args(argv)
    if args.check and not args.baseline:
        ap.error("--check requires --baseline FILE")

    from ..obs import telemetry_session

    with telemetry_session(trace=args.trace, metrics=args.metrics,
                           run_info={"tool": "repro-bench",
                                     "sizes": list(args.sizes)}
                           ) as (tracer, _):
        parts = [bench_backends(
            sizes=args.sizes, repeats=args.repeats, seed=args.seed,
            theta=args.theta, eps=args.eps, distribution=dist,
            kernel_threads=args.kernel_threads,
            tracer=tracer if tracer.enabled else None)
            for dist in args.distribution]
        report = parts[0]
        for part in parts[1:]:
            report["results"].extend(part["results"])
        if len(parts) > 1:
            report["config"]["distribution"] = list(args.distribution)

    if args.check:
        baseline = json.loads(Path(args.baseline).read_text())
        failures = compare_to_baseline(report, baseline)
        if args.out is not None:
            Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        if failures:
            print(f"REGRESSION CHECK FAILED vs {args.baseline}:")
            for f in failures:
                print(f"  - {f}")
            return 1
        print(f"regression check passed vs {args.baseline} "
              f"(wall tolerance {WALL_REGRESSION_TOLERANCE:.0%}, "
              f"interaction counts exact)")
        return 0

    out = Path(args.out if args.out is not None else "BENCH_backends.json")
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
