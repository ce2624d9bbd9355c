"""Command-line runner: regenerate every table and figure of the paper.

Usage::

    python -m repro.experiments --all                 # everything, BENCH scale
    python -m repro.experiments table2 table5 fig8    # selected experiments
    python -m repro.experiments --scale full --out results fig13

Writes ``results/<id>.md`` (measured values interleaved with the paper's)
and ``results/<id>.csv``, plus a ``results/SHAPES.md`` summary of the
shape checks.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Dict, List

from .ablations import (
    run_alpha_ablation,
    run_buffer_ablation,
    run_cache_ablation,
    run_n123_ablation,
    run_source_histogram,
)
from .anecdotes import run_mode_comparison, run_pthread_anecdote
from .common import SCALES, Scale, SeriesResult, TableResult
from .figures import FIGURE_RUNNERS, run_fig5, run_fig6
from .paper_data import PAPER_TABLES
from .shapes import run_all_shape_checks
from .tables import TABLE_RUNNERS, run_all_tables

ALL_TABLE_IDS = list(TABLE_RUNNERS)
ALL_FIGURE_IDS = list(FIGURE_RUNNERS)
ALL_ABLATIONS = ["abl-n123", "abl-alpha", "abl-cache", "abl-sources",
                 "abl-buffer", "abl-mpi", "anecdote"]
ALL_IDS = ALL_TABLE_IDS + ALL_FIGURE_IDS + ALL_ABLATIONS


def _write(out: Path, name: str, text: str) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{name}.md").write_text(text)
    print(text)


def run_one(exp_id: str, scale: Scale, out: Path,
            table_cache: Dict[str, TableResult]) -> None:
    t0 = time.time()
    if exp_id in TABLE_RUNNERS:
        res = table_cache.get(exp_id) or TABLE_RUNNERS[exp_id](scale)
        table_cache[exp_id] = res
        md = res.to_markdown(paper=PAPER_TABLES.get(exp_id),
                             title=f"{exp_id} ({res.variant}), "
                                   f"{scale.nbodies} bodies, simulated s")
        _write(out, exp_id, md)
        res.to_csv(out / f"{exp_id}.csv")
    elif exp_id in ("fig5", "fig6"):
        needed = ["table2", "table3", "table4", "table5", "table6",
                  "table7", "table8"]
        for tid in needed:
            if tid not in table_cache:
                table_cache[tid] = TABLE_RUNNERS[tid](scale)
        fn = run_fig5 if exp_id == "fig5" else run_fig6
        res = fn(scale, tables={k: table_cache[k] for k in needed})
        _write(out, exp_id, res.to_markdown(title=exp_id)
               + "\n```\n" + res.ascii_plot() + "\n```\n")
        res.to_csv(out / f"{exp_id}.csv")
    elif exp_id in FIGURE_RUNNERS:
        res = FIGURE_RUNNERS[exp_id](scale)
        _write(out, exp_id, res.to_markdown(title=exp_id)
               + "\n```\n" + res.ascii_plot() + "\n```\n")
        res.to_csv(out / f"{exp_id}.csv")
    elif exp_id == "abl-n123":
        res = run_n123_ablation(scale)
        _write(out, exp_id, res.to_markdown(title="n1=n2=n3 sweep"))
    elif exp_id == "abl-alpha":
        res = run_alpha_ablation(scale)
        _write(out, exp_id, res.to_markdown(title="alpha sweep"))
    elif exp_id == "abl-cache":
        d = run_cache_ablation(scale)
        lines = [f"- {k}: {v}" for k, v in d.items()]
        _write(out, exp_id, "### separate vs merged cache\n\n"
               + "\n".join(lines) + "\n")
    elif exp_id == "abl-sources":
        d = run_source_histogram(scale)
        lines = [f"- {k} source(s): {100 * v:.1f}%" for k, v in d.items()]
        _write(out, exp_id, "### gather source histogram (32 threads)\n\n"
               + "\n".join(lines) + "\n")
    elif exp_id == "abl-buffer":
        res = run_buffer_ablation(scale)
        _write(out, exp_id, res.to_markdown(title="buffer factor sweep"))
    elif exp_id == "abl-mpi":
        from ..core.app import run_variant
        from ..upc.params import paper_section5_machine

        cfg = scale.config()
        machine = paper_section5_machine()
        upc = run_variant("subspace", cfg, 64, machine=machine)
        mpi = run_variant("mpi-let", cfg, 64, machine=machine)
        _write(out, exp_id,
               "### UPC (all optimizations) vs MPI/LET, 64 threads\n\n"
               f"- UPC subspace total: {upc.total_time:.5f} s\n"
               f"- MPI LET total:      {mpi.total_time:.5f} s\n"
               f"- ratio (MPI/UPC):    "
               f"{mpi.total_time / upc.total_time:.2f}\n")
    elif exp_id == "anecdote":
        a = run_pthread_anecdote(scale)
        _write(out, exp_id,
               "### section 4.1 anecdote (16 threads, one node)\n\n"
               f"- pthread mode total: {a.pthread_total:.4f} s\n"
               f"- process mode total: {a.process_total:.4f} s\n"
               f"- slowdown: {a.slowdown:.0f}x (paper: ~1385x)\n")
    else:
        raise SystemExit(f"unknown experiment id {exp_id!r}; "
                         f"choose from {ALL_IDS}")
    print(f"[{exp_id}] done in {time.time() - t0:.1f}s wall\n")


def main(argv: "List[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures "
                    "(simulated-time reproduction).")
    from ..nbody.distributions import distribution_names

    ap.add_argument("ids", nargs="*", help=f"experiment ids: {ALL_IDS}")
    ap.add_argument("--all", action="store_true", help="run everything")
    ap.add_argument("--scale", default="bench", choices=list(SCALES))
    ap.add_argument("--out", default="results", help="output directory")
    ap.add_argument("--distribution", default=None,
                    choices=list(distribution_names()),
                    help="initial conditions for every run "
                         "(default: plummer)")
    ap.add_argument("--guards", action="store_true",
                    help="run the numerical-health guards after every "
                         "phase of every run (NaN/Inf scans, energy-"
                         "drift and escape checks; see docs/resilience.md)")
    ap.add_argument("--inject", action="append", default=[],
                    metavar="SPEC",
                    help="arm a deterministic fault at a phase boundary "
                         "(PHASE[:STEP[:KIND]], repeatable; kinds: "
                         "raise, corrupt, delay)")
    ap.add_argument("--checkpoint-every", type=int, default=None,
                    metavar="N",
                    help="write a resilience checkpoint every N steps "
                         "of every run (requires --checkpoint-dir)")
    ap.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                    help="directory for ckpt_step*.npz files")
    ap.add_argument("--max-phase-retries", type=int, default=None,
                    metavar="K",
                    help="bounded replays of an idempotent phase per "
                         "fault (default 2)")
    ap.add_argument("--trace", default=None, metavar="FILE",
                    help="capture wall-clock span traces of every run to "
                         "FILE (Chrome trace-event JSON; open in Perfetto). "
                         "Never changes any result.")
    ap.add_argument("--metrics", default=None, metavar="FILE",
                    help="export the unified metrics registry (phase "
                         "times, UPC counters) as JSONL to FILE")
    args = ap.parse_args(argv)

    scale = SCALES[args.scale]
    overrides = []
    if args.distribution is not None:
        overrides.append(("distribution", args.distribution))
    if args.guards:
        overrides.append(("guards", True))
    if args.inject:
        overrides.append(("inject", tuple(args.inject)))
    if args.checkpoint_every is not None:
        overrides.append(("checkpoint_every", args.checkpoint_every))
    if args.checkpoint_dir is not None:
        overrides.append(("checkpoint_dir", args.checkpoint_dir))
    if args.max_phase_retries is not None:
        overrides.append(("max_phase_retries", args.max_phase_retries))
    if overrides:
        scale = scale.with_(overrides=tuple(overrides))
    ids = ALL_IDS if args.all else args.ids
    if not ids:
        ap.print_help()
        return 2
    out = Path(args.out)
    cache: Dict[str, TableResult] = {}
    from ..obs import phase_summary_markdown, telemetry_session

    with telemetry_session(trace=args.trace, metrics=args.metrics,
                           run_info={"ids": list(ids),
                                     "scale": scale.name}) as (tracer, _):
        for exp_id in ids:
            run_one(exp_id, scale, out, cache)

    # shape-check summary when we have all tables
    if all(t in cache for t in ALL_TABLE_IDS):
        checks = run_all_shape_checks(cache)
        lines = ["# Shape checks\n"]
        for c in checks:
            mark = "PASS" if c.ok else "FAIL"
            lines.append(f"- [{mark}] {c.name} -- {c.detail}")
        _write(out, "SHAPES", "\n".join(lines) + "\n")
    if args.trace:
        print(phase_summary_markdown(tracer))
        print(f"wrote trace to {args.trace} "
              f"(open at https://ui.perfetto.dev)")
    if args.metrics:
        print(f"wrote metrics to {args.metrics}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
