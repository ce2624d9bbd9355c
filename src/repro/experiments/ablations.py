"""Ablations of the paper's design choices (paper sections 5.5 and 6).

* ``n1 = n2 = n3`` sensitivity -- the paper: "results are not very
  sensitive to that choice, and performance is good even with
  n1 = n2 = n3 = 1" (section 5.5).
* split-threshold alpha -- the paper uses 2/3; the load-balance bound is
  (1 + alpha) * Cost / THREADS (section 6).
* separate vs merged cache -- "little performance improvement"
  (section 5.3.2).
* gather source counts -- ">95% of the requests have only one source
  thread" at 32 threads (section 5.5).
* redistribution double-buffer capacity -- buffer copying is rare
  (section 5.2).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..core.app import run_variant
from ..upc.params import paper_section5_machine
from .common import BENCH, Scale, SeriesResult


def run_n123_ablation(scale: Scale = BENCH, nthreads: int = 32,
                      values: "List[int] | None" = None) -> SeriesResult:
    """Sweep n1 = n2 = n3 over the async variant's force phase."""
    values = values or [1, 2, 4, 8, 16]
    force, total = [], []
    for v in values:
        cfg = scale.config(n1=v, n2=v, n3=v)
        res = run_variant("async", cfg, nthreads,
                          machine=paper_section5_machine())
        force.append(res.phase_times["force"])
        total.append(res.phase_times.total)
    return SeriesResult(figure_id="abl-n123", x_label="n1=n2=n3",
                        x=[float(v) for v in values],
                        series={"force": force, "total": total},
                        notes={"nthreads": nthreads})


def run_alpha_ablation(scale: Scale = BENCH, nthreads: int = 32,
                       alphas: "List[float] | None" = None) -> SeriesResult:
    """Sweep the subspace split threshold alpha; records the load-balance
    bound check max_thread_cost <= (1 + alpha) * Cost / THREADS."""
    alphas = alphas or [1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0, 2.0]
    total, treebuild, bound_ratio, nsubspaces = [], [], [], []
    for a in alphas:
        cfg = scale.config(alpha=a)
        res = run_variant("subspace", cfg, nthreads,
                          machine=paper_section5_machine())
        total.append(res.phase_times.total)
        treebuild.append(res.phase_times["treebuild"])
        nsubspaces.append(res.variant_stats["subspace_counts"][-1])
        costs = np.bincount(res.bodies.assign, weights=res.bodies.cost,
                            minlength=nthreads)
        bound = (1.0 + a) * res.bodies.cost.sum() / nthreads
        bound_ratio.append(float(costs.max()) / bound)
    return SeriesResult(
        figure_id="abl-alpha", x_label="alpha",
        x=[float(a) for a in alphas],
        series={"total": total, "treebuild": treebuild,
                "max_cost/bound": bound_ratio,
                "subspaces": [float(s) for s in nsubspaces]},
        notes={"nthreads": nthreads},
    )


def run_cache_ablation(scale: Scale = BENCH, nthreads: int = 32) -> Dict:
    """Separate local tree (5.3.1) vs merged shadow-pointer tree (5.3.2)."""
    cfg = scale.config()
    machine = paper_section5_machine()
    sep = run_variant("cache", cfg, nthreads, machine=machine)
    mrg = run_variant("cache-merged", cfg, nthreads, machine=machine)
    return {
        "separate_force": sep.phase_times["force"],
        "merged_force": mrg.phase_times["force"],
        "separate_total": sep.total_time,
        "merged_total": mrg.total_time,
        "separate_local_copies": sep.counter("cache_local_copies"),
        "merged_local_copies": mrg.counter("cache_local_copies"),
        "separate_misses": sep.counter("cache_misses"),
        "merged_misses": mrg.counter("cache_misses"),
    }


def run_source_histogram(scale: Scale = BENCH,
                         nthreads: int = 32) -> Dict[int, float]:
    """Fraction of aggregated gathers per source-thread count."""
    cfg = scale.config()
    res = run_variant("async", cfg, nthreads,
                      machine=paper_section5_machine())
    return res.variant_stats["gather_source_fractions"]


def run_buffer_ablation(scale: Scale = BENCH, nthreads: int = 16,
                        factors: "List[float] | None" = None) -> SeriesResult:
    """Double-buffer capacity sweep: copies should be rare above ~1.1x."""
    factors = factors or [1.05, 1.25, 1.5, 2.0, 4.0]
    copies, redist = [], []
    for f in factors:
        cfg = scale.config(buffer_factor=f)
        res = run_variant("redistribute", cfg, nthreads,
                          machine=paper_section5_machine())
        copies.append(res.counter("buffer_copies"))
        redist.append(res.phase_times["redistribution"])
    return SeriesResult(figure_id="abl-buffer", x_label="buffer_factor",
                        x=[float(f) for f in factors],
                        series={"buffer_copies": copies,
                                "redistribution_s": redist},
                        notes={"nthreads": nthreads})
