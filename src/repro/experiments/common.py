"""Shared experiment machinery: scaling presets, table runners, rendering.

Every experiment runs at a :class:`Scale` -- the paper's 2M-body, 112-node
workloads are scaled down (:class:`Scale` below) but keep the paper's thread
counts, because threads are simulated.  ``TEST`` is for the test suite,
``BENCH`` for the pytest-benchmark harness and the CLI default, ``FULL`` for
slower, higher-fidelity runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..core.app import run_variant
from ..core.config import BHConfig
from ..core.phases import ALL_PHASES, PHASE_LABELS, PhaseTimes
from ..upc.params import MachineConfig
from ..util.tables import format_markdown_table, format_seconds, write_csv
from .paper_data import PAPER_TABLES, PAPER_THREADS


@dataclass(frozen=True)
class Scale:
    """Workload sizing for one experiment campaign."""

    name: str
    nbodies: int
    nsteps: int
    warmup_steps: int
    thread_counts: Sequence[int]
    #: bodies per thread for weak-scaling experiments
    weak_bodies_per_thread: int
    weak_thread_counts: Sequence[int]
    seed: int = 123
    #: extra BHConfig fields applied to every run of the campaign, e.g.
    #: (("distribution", "disk"), ("guards", True)) -- how the CLI
    #: retargets all experiments onto another scenario or arms resilience
    overrides: Sequence = ()

    def config(self, **kw) -> BHConfig:
        base = dict(nbodies=self.nbodies, nsteps=self.nsteps,
                    warmup_steps=self.warmup_steps, seed=self.seed)
        base.update(dict(self.overrides))
        base.update(kw)
        return BHConfig(**base)

    def with_(self, **kw) -> "Scale":
        return replace(self, **kw)


TEST = Scale(
    name="test", nbodies=512, nsteps=2, warmup_steps=1,
    thread_counts=[1, 4, 16], weak_bodies_per_thread=64,
    weak_thread_counts=[4, 16, 64],
)

BENCH = Scale(
    name="bench", nbodies=4096, nsteps=3, warmup_steps=1,
    thread_counts=list(PAPER_THREADS), weak_bodies_per_thread=128,
    weak_thread_counts=[16, 32, 64, 128, 256, 512],
)

FULL = Scale(
    name="full", nbodies=16384, nsteps=4, warmup_steps=2,
    thread_counts=list(PAPER_THREADS), weak_bodies_per_thread=256,
    weak_thread_counts=[16, 32, 64, 128, 256, 512, 1024],
)

SCALES = {s.name: s for s in (TEST, BENCH, FULL)}


@dataclass
class TableResult:
    """One reproduced strong-scaling table (measured, simulated seconds)."""

    table_id: str
    variant: str
    thread_counts: List[int]
    #: phase -> seconds per thread count
    phases: Dict[str, List[float]]
    totals: List[float]
    #: auxiliary per-run stats (migration fractions etc.)
    extras: Dict[int, dict] = field(default_factory=dict)

    def phase_row(self, phase: str) -> List[float]:
        return self.phases.get(phase, [0.0] * len(self.thread_counts))

    def total(self, nthreads: int) -> float:
        return self.totals[self.thread_counts.index(nthreads)]

    def to_markdown(self, paper: Optional[Dict[str, List[float]]] = None,
                    title: str = "") -> str:
        """Render in the paper's layout (phases as rows, threads as cols),
        interleaving the paper's reference values when provided."""
        headers = ["phase"] + [str(p) for p in self.thread_counts]
        rows: List[List[object]] = []
        phases = [p for p in ALL_PHASES if p in self.phases]
        for ph in phases:
            rows.append([PHASE_LABELS[ph]] + list(self.phase_row(ph)))
            if paper and ph in paper:
                ref = _subset(paper[ph], self.thread_counts)
                rows.append([f"  (paper {PHASE_LABELS[ph]})"] + ref)
        rows.append(["Total"] + list(self.totals))
        if paper and "total" in paper:
            rows.append(["  (paper Total)"]
                        + _subset(paper["total"], self.thread_counts))
        text = format_markdown_table(headers, rows)
        if title:
            text = f"### {title}\n\n{text}"
        return text

    def to_csv(self, path) -> None:
        headers = ["phase"] + [str(p) for p in self.thread_counts]
        rows = [[ph] + list(vals) for ph, vals in self.phases.items()]
        rows.append(["total"] + list(self.totals))
        write_csv(path, headers, rows)


def _subset(values: List[float], threads: Sequence[int]) -> List[object]:
    out: List[object] = []
    for t in threads:
        if t in PAPER_THREADS:
            out.append(values[PAPER_THREADS.index(t)])
        else:
            out.append("-")
    return out


def run_strong_table(table_id: str, variant: str, scale: Scale,
                     machine_factory: Optional[
                         Callable[[int], MachineConfig]] = None,
                     config: Optional[BHConfig] = None) -> TableResult:
    """Run ``variant`` over the scale's thread counts; collect phase rows."""
    cfg = config if config is not None else scale.config()
    if machine_factory is None:
        machine_factory = lambda p: MachineConfig()  # noqa: E731
    threads = list(scale.thread_counts)
    extras: Dict[int, dict] = {}
    pts: List[PhaseTimes] = []
    for p in threads:
        res = run_variant(variant, cfg, p, machine=machine_factory(p))
        pts.append(res.phase_times)
        extras[p] = res.variant_stats
    phases = {}
    for ph in ALL_PHASES:
        row = [pt[ph] for pt in pts]
        if any(v > 0 for v in row):
            phases[ph] = row
    totals = [pt.total for pt in pts]
    return TableResult(table_id=table_id, variant=variant,
                       thread_counts=threads, phases=phases, totals=totals,
                       extras=extras)


@dataclass
class SeriesResult:
    """A figure-style result: named series over an x axis."""

    figure_id: str
    x_label: str
    x: List[float]
    series: Dict[str, List[float]]
    notes: Dict[str, object] = field(default_factory=dict)

    def to_markdown(self, title: str = "") -> str:
        headers = [self.x_label] + list(self.series)
        rows = []
        for i, xv in enumerate(self.x):
            rows.append([xv] + [self.series[k][i] for k in self.series])
        text = format_markdown_table(headers, rows)
        if title:
            text = f"### {title}\n\n{text}"
        return text

    def to_csv(self, path) -> None:
        headers = [self.x_label] + list(self.series)
        rows = [[xv] + [self.series[k][i] for k in self.series]
                for i, xv in enumerate(self.x)]
        write_csv(path, headers, rows)

    def ascii_plot(self, width: int = 60) -> str:
        """Log-scale ascii rendering of the series (figure stand-in)."""
        import math

        lines = []
        vals = [v for s in self.series.values() for v in s if v > 0]
        if not vals:
            return "(empty)"
        lo, hi = math.log10(min(vals)), math.log10(max(vals))
        span = max(hi - lo, 1e-9)
        for name, s in self.series.items():
            lines.append(name)
            for xv, v in zip(self.x, s):
                if v <= 0:
                    bar = 0
                else:
                    bar = int((math.log10(v) - lo) / span * width)
                lines.append(
                    f"  {str(xv):>8} | {'#' * max(bar, 1)} {format_seconds(v)}"
                )
        return "\n".join(lines)
