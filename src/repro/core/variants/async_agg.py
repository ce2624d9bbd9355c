"""L5 -- non-blocking communication and message aggregation (section 5.5).

Force computation moves to the frontier framework of
:mod:`repro.core.frontier`: cache misses no longer stall the thread; they
are pooled (n3 cells per gather), fetched concurrently (up to n2
outstanding ``bupc_memget_vlist_async`` gathers), and hidden behind the
force computation of other working bodies (n1 of them in flight).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ...backends.object_tree import slot_kernel
from ...upc.nonblocking import AsyncEngine, source_fractions
# frontier_force is a single thread's frontier_forces; the name stays
# importable here, since bench/layers.py attributes time to it here
from ..frontier import (  # noqa: F401
    C_ENGINE,
    PY_ENGINE,
    FrontierStats,
    frontier_force,
    frontier_forces,
)
from .base import BODY_FORCE_WORDS
from .local_build import LocalBuild


class AsyncAgg(LocalBuild):
    """L4 + overlap and aggregation in the force phase."""

    name = "async"
    ladder_level = 5
    async_force = True

    def __init__(self, rt, bodies, cfg):
        super().__init__(rt, bodies, cfg)
        #: engine of the most recent force phase
        self.async_engine: "AsyncEngine | None" = None
        #: gathers by number of source threads, over the measured steps
        self.source_histogram: Dict[int, int] = {}
        #: FrontierStats fields summed over the measured steps
        self.frontier_totals = dict.fromkeys(FrontierStats.FIELDS, 0)

    def phase_force(self) -> None:
        rt = self.rt
        bodies = self.bodies
        engine = AsyncEngine(rt)
        self.async_engine = engine
        # one flattened tree for every thread, when the kernel serves:
        # the subspace c-of-m pass's, or a fresh flatten
        tree = self.slot_tree() \
            if self.root is not None and slot_kernel() is not None else None
        measured = self.step_index >= self.cfg.warmup_steps
        jobs = [(t, idx) for t, idx in enumerate(map(self.assigned,
                                                     range(self.P)))
                if len(idx)]

        def body_words(t: int, idx: np.ndarray) -> None:
            self.charge_body_words(t, idx, BODY_FORCE_WORDS)

        tr = rt.tracer
        if tr.enabled:
            tr.begin("async.frontier_force", "backend",
                     nbodies=sum(len(idx) for _, idx in jobs))
        results = frontier_forces(self, engine, jobs, tree, body_words)
        if tr.enabled:
            tr.end(interactions=float(sum(w.sum() for _, w, _ in results)))
        compiled = tree is not None
        new_cost = bodies.cost.copy()
        for (t, idx), (acc, work, stats) in zip(jobs, results):
            bodies.acc[idx] = acc
            new_cost[idx] = np.maximum(work, 1.0)
            compiled &= stats.engine == C_ENGINE
            if measured:
                for key, val in stats.counts().items():
                    self.frontier_totals[key] += val
        bodies.cost = new_cost
        if measured:
            for nsrc, n in engine.source_histogram.items():
                self.source_histogram[nsrc] = \
                    self.source_histogram.get(nsrc, 0) + n
        self.force_engine = C_ENGINE if compiled else PY_ENGINE

    def gather_source_fractions(self) -> Dict[int, float]:
        """Fraction of the measured steps' gathers by number of distinct
        source threads (the paper's section-5.5 ">95% single source")."""
        return source_fractions(self.source_histogram)
