"""Benches: design-choice ablations (paper sections 5.5 and 6).

* n1/n2/n3 sensitivity (paper: insensitive, good even at 1),
* subspace alpha sweep (paper: alpha=2/3, bound (1+alpha)Cost/P),
* separate vs merged cache (paper: little difference),
* gather source-thread histogram (paper: >95% single-source at 32 threads),
* redistribution buffer capacity (paper: copies are rare),
* section 4.1 single-node pthread-vs-process anecdote.
"""

import numpy as np

from repro.experiments.ablations import (
    run_alpha_ablation,
    run_buffer_ablation,
    run_cache_ablation,
    run_n123_ablation,
    run_source_histogram,
)
from repro.experiments.anecdotes import run_pthread_anecdote


def test_ablation_n123(benchmark, results_dir, scale):
    res = benchmark.pedantic(lambda: run_n123_ablation(scale),
                             rounds=1, iterations=1)
    md = res.to_markdown(title="Ablation: n1=n2=n3 sweep at 32 threads")
    print("\n" + md)
    (results_dir / "abl-n123.md").write_text(md)
    force = res.series["force"]
    # paper: "results are not very sensitive ... good even with 1"
    assert max(force) <= 4.0 * min(force)


def test_ablation_alpha(benchmark, results_dir, scale):
    res = benchmark.pedantic(lambda: run_alpha_ablation(scale),
                             rounds=1, iterations=1)
    md = res.to_markdown(title="Ablation: subspace alpha sweep")
    print("\n" + md)
    (results_dir / "abl-alpha.md").write_text(md)
    assert all(r <= 1.0 + 1e-9 for r in res.series["max_cost/bound"])
    # smaller alpha -> more subspaces
    assert res.series["subspaces"][0] >= res.series["subspaces"][-1]


def test_ablation_cache_variants(benchmark, results_dir, scale):
    d = benchmark.pedantic(lambda: run_cache_ablation(scale),
                           rounds=1, iterations=1)
    lines = [f"- {k}: {v}" for k, v in d.items()]
    text = "### separate vs merged cache\n\n" + "\n".join(lines) + "\n"
    print("\n" + text)
    (results_dir / "abl-cache.md").write_text(text)
    # same remote traffic, no local copies in the merged scheme,
    # and "little performance improvement" overall
    assert d["merged_misses"] == d["separate_misses"]
    assert d["merged_local_copies"] == 0
    assert 0.7 <= d["merged_total"] / d["separate_total"] <= 1.05


def test_ablation_gather_sources(benchmark, results_dir, scale):
    fr = benchmark.pedantic(lambda: run_source_histogram(scale),
                            rounds=1, iterations=1)
    lines = [f"- {k} source(s): {100 * v:.1f}%" for k, v in fr.items()]
    text = ("### gather source histogram at 32 threads "
            "(paper: >95% single-source at 2M bodies)\n\n"
            + "\n".join(lines) + "\n")
    print("\n" + text)
    (results_dir / "abl-sources.md").write_text(text)
    # shape at our scale: few-source gathers dominate
    few = sum(v for k, v in fr.items() if k <= 2)
    assert few >= 0.5


def test_ablation_buffer(benchmark, results_dir, scale):
    res = benchmark.pedantic(lambda: run_buffer_ablation(scale),
                             rounds=1, iterations=1)
    md = res.to_markdown(title="Ablation: redistribution buffer factor")
    print("\n" + md)
    (results_dir / "abl-buffer.md").write_text(md)
    copies = res.series["buffer_copies"]
    assert copies[-1] == 0  # roomy buffers never copy (paper's setting)


def test_anecdote_pthreads(benchmark, results_dir, scale):
    a = benchmark.pedantic(lambda: run_pthread_anecdote(scale),
                           rounds=1, iterations=1)
    text = ("### section 4.1 anecdote (baseline, 16 threads, ONE node)\n\n"
            f"- 16 pthreads: {a.pthread_total:.4f} simulated s\n"
            f"- 16 processes: {a.process_total:.4f} simulated s\n"
            f"- slowdown: {a.slowdown:.0f}x (paper: 26s vs >36000s, "
            "~1385x)\n")
    print("\n" + text)
    (results_dir / "anecdote.md").write_text(text)
    assert a.slowdown > 20.0
