"""Benchmark fixtures: workload scales and a cross-bench table cache.

Every benchmark regenerates one table or figure of the paper at BENCH scale
(4096 bodies, the paper's thread counts; see
``repro.experiments.common.Scale`` for the scaling substitution).  Figures
5/6 reuse the tables produced by the table benches through a session cache
so the suite doesn't recompute them.

Run with ``pytest benchmarks/ --benchmark-only``; add ``-s`` to see the
reproduced tables printed next to the paper's values.  Markdown/CSV copies
land in ``results/``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import Scale
from repro.experiments.tables import TABLE_RUNNERS

#: strong-scaling benches (tables 2-9, figs 5/6/13)
BENCH_SCALE = Scale(
    name="bench", nbodies=4096, nsteps=3, warmup_steps=1,
    thread_counts=[1, 2, 4, 8, 16, 32, 64, 96, 112],
    weak_bodies_per_thread=64,
    weak_thread_counts=[16, 32, 64, 128, 256],
)

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def scale() -> Scale:
    return BENCH_SCALE


@pytest.fixture(scope="session")
def table_cache():
    return {}


@pytest.fixture(scope="session")
def get_table(table_cache, scale):
    def _get(tid: str):
        if tid not in table_cache:
            table_cache[tid] = TABLE_RUNNERS[tid](scale)
        return table_cache[tid]

    return _get


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR
