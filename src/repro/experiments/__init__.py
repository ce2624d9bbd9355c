"""Evaluation harness: one runner per table and figure of the paper.

``python -m repro.experiments --help`` lists the experiment ids.  The CLI
(``python -m repro.experiments --all``) regenerates everything into
``results/``.
"""

from .ablations import (
    run_alpha_ablation,
    run_buffer_ablation,
    run_cache_ablation,
    run_n123_ablation,
    run_source_histogram,
)
from .anecdotes import run_mode_comparison, run_pthread_anecdote
from .common import (
    BENCH,
    FULL,
    SCALES,
    TEST,
    Scale,
    SeriesResult,
    TableResult,
    run_strong_table,
)
from .figures import (
    FIGURE_RUNNERS,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig10,
    run_fig11,
    run_fig12,
    run_fig13,
)
from .paper_data import PAPER_CLAIMS, PAPER_TABLES, PAPER_THREADS
from .shapes import ShapeCheck, run_all_shape_checks
from .tables import (
    TABLE_RUNNERS,
    run_all_tables,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
    run_table6,
    run_table7,
    run_table8,
    run_table9,
)

__all__ = [
    "BENCH",
    "FIGURE_RUNNERS",
    "FULL",
    "PAPER_CLAIMS",
    "PAPER_TABLES",
    "PAPER_THREADS",
    "SCALES",
    "Scale",
    "SeriesResult",
    "ShapeCheck",
    "TABLE_RUNNERS",
    "TEST",
    "TableResult",
    "run_all_shape_checks",
    "run_all_tables",
    "run_alpha_ablation",
    "run_buffer_ablation",
    "run_cache_ablation",
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "run_fig13",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_mode_comparison",
    "run_n123_ablation",
    "run_pthread_anecdote",
    "run_source_histogram",
    "run_strong_table",
    "run_table2",
    "run_table3",
    "run_table4",
    "run_table5",
    "run_table6",
    "run_table7",
    "run_table8",
    "run_table9",
]
