"""L5 -- non-blocking communication and message aggregation (section 5.5).

Force computation moves to the frontier framework of
:mod:`repro.core.frontier`: cache misses no longer stall the thread; they
are pooled (n3 cells per gather), fetched concurrently (up to n2
outstanding ``bupc_memget_vlist_async`` gathers), and hidden behind the
force computation of other working bodies (n1 of them in flight).
"""

from __future__ import annotations

import numpy as np

from ...upc.nonblocking import AsyncEngine
from ..frontier import frontier_force
from .base import BODY_FORCE_WORDS
from .local_build import LocalBuild


class AsyncAgg(LocalBuild):
    """L4 + overlap and aggregation in the force phase."""

    name = "async"
    ladder_level = 5
    async_force = True

    def __init__(self, rt, bodies, cfg):
        super().__init__(rt, bodies, cfg)
        #: engine of the most recent force phase (stats live here)
        self.async_engine: "AsyncEngine | None" = None
        self.frontier_stats = []

    def phase_force(self) -> None:
        if self.backend_force_active():
            self.phase_force_backend()
            return
        rt = self.rt
        bodies = self.bodies
        engine = AsyncEngine(rt)
        self.async_engine = engine
        step_stats = []
        new_cost = bodies.cost.copy()
        for t in range(self.P):
            idx = self.assigned(t)
            if len(idx) == 0:
                continue
            self.charge_body_words(t, idx, BODY_FORCE_WORDS)
            tr = rt.tracer
            if tr.enabled:
                tr.begin("async.frontier_force", "backend", tid=t,
                         nbodies=len(idx))
                acc, work, stats = frontier_force(self, engine, t, idx)
                tr.end(interactions=float(work.sum()))
            else:
                acc, work, stats = frontier_force(self, engine, t, idx)
            bodies.acc[idx] = acc
            new_cost[idx] = np.maximum(work, 1.0)
            step_stats.append(stats)
        bodies.cost = new_cost
        self.frontier_stats.append(step_stats)
        self.force_engine = "frontier"
